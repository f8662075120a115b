//! "`scenario check` accepts ⇒ it runs": every generated scenario file,
//! alone or paired with a generated machine file, that
//! [`check_scenario`] accepts must run a short horizon under each
//! dispatch class of policy — NeoProf-driven (NeoMem, NeoMem-CA),
//! sampling (PEBS) and static (first-touch) — and return `Ok`, never
//! panic.

use std::panic::{catch_unwind, AssertUnwindSafe};

use neomem::prelude::*;
use neomem::workloads::ScenarioConfig;
use neomem_bench::figures::registry::{check_scenario, corpus_grid};
use proptest::prelude::*;

const POLICIES: [PolicyKind; 4] = [
    PolicyKind::NeoMem,
    PolicyKind::NeoMemContentionAware,
    PolicyKind::Pebs,
    PolicyKind::FirstTouch,
];

/// Accesses per run: enough to cross several ticks, samples and the
/// timeline events below.
const BUDGET: u64 = 5_000;

fn workload() -> impl Strategy<Value = &'static str> {
    prop::sample::select(vec![
        "gups",
        "silo",
        "btree",
        "pagerank",
        "xsbench",
        "bwaves",
        "roms",
        "deathstarbench",
        "redis",
    ])
}

/// Footprints on both sides of the generators' 64-page minimum.
fn footprint() -> impl Strategy<Value = u64> {
    prop::sample::select(vec![16u64, 32, 63, 64, 100, 512, 1024, 2048])
}

/// `(workload, footprint, seed, weight, starts idle)`.
type TenantDraw = (&'static str, u64, u64, u64, bool);

fn tenant() -> impl Strategy<Value = TenantDraw> {
    (workload(), footprint(), 0u64..1000, 1u64..4, prop::bool::ANY)
}

/// `(tenant, workload, footprint divisor, events)`: a phase's working
/// set is its tenant's footprint halved zero to two times, so it fits
/// the tenant and still drops below the minimum on small tenants.
type PhaseDraw = (usize, &'static str, u32, u64);

fn phase() -> impl Strategy<Value = PhaseDraw> {
    (0usize..3, workload(), 0u32..3, 1u64..4000)
}

/// `(at in µs, tenant, re-weight instead of arrive/depart, weight)`.
/// The first 3 ms hold them all, so idle gaps, retirements and weight
/// changes land inside the budget.
type EventDraw = (u64, usize, bool, u64);

fn event() -> impl Strategy<Value = EventDraw> {
    (0u64..3000, 0usize..3, prop::bool::ANY, 1u64..6)
}

/// Renders a scenario file. Tenant references wrap to the mix, and each
/// tenant's arrivals and departures alternate in time order (starting
/// with an arrival if it starts idle), so most drafts reach `check`'s
/// machine-level validation instead of stopping at the timeline rules.
fn scenario_file(
    quantum: Option<u64>,
    tenants: &[TenantDraw],
    phases: &[PhaseDraw],
    events: &[EventDraw],
    faults: &[String],
) -> String {
    let mut text = String::from("schema = 1\nkind = scenario\nname = fuzz\n");
    if let Some(quantum) = quantum {
        text.push_str(&format!("quantum = {quantum}\n"));
    }
    for &(kind, rss, seed, weight, _) in tenants {
        text.push_str(&format!(
            "[tenant]\nworkload = {kind}\nrss_pages = {rss}\nseed = {seed}\nweight = {weight}\n"
        ));
    }
    for &(tenant, kind, halvings, events) in phases {
        let tenant = tenant % tenants.len();
        let rss = tenants[tenant].1 >> halvings;
        text.push_str(&format!(
            "[phase]\ntenant = {tenant}\nworkload = {kind}\nrss_pages = {rss}\nevents = {events}\n"
        ));
    }
    let mut events = events.to_vec();
    events.sort_by_key(|e| e.0);
    let mut running: Vec<Option<bool>> = vec![None; tenants.len()];
    for (at, tenant, reweight, weight) in events {
        let tenant = tenant % tenants.len();
        let action = if reweight {
            running[tenant].get_or_insert(true);
            format!("set-weight\nweight = {weight}")
        } else {
            let now = running[tenant].map_or(!tenants[tenant].4, |r| r);
            running[tenant] = Some(!now);
            (if now { "depart" } else { "arrive" }).to_string()
        };
        text.push_str(&format!("[event]\nat = {at}us\ntenant = {tenant}\naction = {action}\n"));
    }
    for fault in faults {
        text.push_str(fault);
    }
    text
}

fn fault() -> impl Strategy<Value = String> {
    (0u64..3000, 1u64..2000, 0usize..3, 1u64..200, 1u64..8).prop_map(
        |(at, duration, kind, frames, factor)| {
            let kind = match kind {
                0 => "kind = neoprof-outage".to_string(),
                1 => {
                    format!("kind = link-degraded\nlatency_x = {factor}\nbandwidth_div = {factor}")
                }
                _ => format!("kind = capacity-loss\nframes = {frames}"),
            };
            format!("[fault]\n{kind}\nat = {at}us\nduration = {duration}us\n")
        },
    )
}

/// A machine file varying tier sizing, TLB geometry, engine cadence and
/// the NeoProf device.
fn machine() -> impl Strategy<Value = String> {
    let memory = prop_oneof![
        Just(String::new()),
        (1u64..9).prop_map(|ratio| format!("[memory]\nratio = {ratio}\n")),
        (
            prop::sample::select(vec![16u64, 64, 256, 1024, 4096]),
            prop::sample::select(vec![1024u64, 4096, 8192]),
        )
            .prop_map(|(fast, total)| {
                format!("[memory]\nfast_pages = {fast}\ntotal_pages = {total}\n")
            }),
    ];
    let tlb = prop_oneof![
        Just(String::new()),
        (prop::sample::select(vec![16u64, 64, 256]), prop::sample::select(vec![1u64, 4, 8]))
            .prop_map(|(entries, ways)| format!("[tlb]\nentries = {entries}\nways = {ways}\n")),
    ];
    let engine = prop_oneof![
        Just(String::new()),
        (1u64..200, 10u64..500, 100u64..2000).prop_map(|(cpu, tick, sample)| {
            format!(
                "[engine]\ncpu_per_access = {cpu}ns\ntick_quantum = {tick}us\n\
                 sample_interval = {sample}us\n"
            )
        }),
    ];
    let neoprof = prop_oneof![
        Just(String::new()),
        (
            prop::sample::select(vec![64u64, 1024, 65536]),
            1u64..5,
            prop::sample::select(vec![1u64, 16, 1024,])
        )
            .prop_map(|(width, depth, fifo)| {
                format!(
                    "[neoprof]\nsketch_width = {width}\nsketch_depth = {depth}\n\
                     fifo_depth = {fifo}\n"
                )
            }),
    ];
    (memory, tlb, engine, neoprof).prop_map(|(memory, tlb, engine, neoprof)| {
        format!("schema = 1\nkind = machine\nname = fuzz\n{memory}{tlb}{engine}{neoprof}")
    })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        failure_persistence: None,
        ..ProptestConfig::default()
    })]

    /// Whatever `check` accepts runs to completion under every
    /// dispatch class.
    #[test]
    fn accepted_configs_run_under_every_dispatch_class(
        tenants in prop::collection::vec(tenant(), 1..4),
        phases in prop::collection::vec(phase(), 0..3),
        events in prop::collection::vec(event(), 0..7),
        faults in prop::collection::vec(fault(), 0..3),
        quantum in (prop::bool::ANY, 1u64..512),
        machine_file in (prop::bool::ANY, machine()),
    ) {
        let quantum = quantum.0.then_some(quantum.1);
        let text = scenario_file(quantum, &tenants, &phases, &events, &faults);
        let Ok(config) = ScenarioConfig::parse(&text) else { return Ok(()) };
        let machine = match &machine_file {
            (true, file) => match MachineDescription::parse(file) {
                Ok(machine) => Some(machine),
                Err(_) => return Ok(()),
            },
            (false, _) => None,
        };
        if check_scenario(&config, machine.as_ref()).is_err() {
            return Ok(());
        }
        for policy in POLICIES {
            let grid = corpus_grid(&config, machine.as_ref(), BUDGET).policies([policy]);
            let outcome = catch_unwind(AssertUnwindSafe(|| grid.run(1).map(|_| ())));
            prop_assert!(
                matches!(outcome, Ok(Ok(()))),
                "{policy:?} did not run a config `check` accepts: {}\n{text}\n{}",
                match &outcome {
                    Ok(Err(e)) => e.to_string(),
                    Err(_) => "panicked".to_string(),
                    Ok(Ok(())) => unreachable!(),
                },
                if machine_file.0 { machine_file.1.as_str() } else { "(default machine)" },
            );
        }
    }
}
