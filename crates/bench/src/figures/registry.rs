//! Registry — the checked-in scenario corpus, end to end.
//!
//! Not a paper figure: this target exercises the declarative config
//! layer. It discovers the repository's `scenarios/` corpus through
//! [`neomem_runner::Registry`], prints the machine and scenario
//! inventory, then runs **every** scenario in the corpus — each on its
//! declared machine, with its quantum override, under NeoMem — and
//! reports per-scenario virtual-clock metrics.
//!
//! Running the whole corpus is the point: a config file that parses
//! but cannot actually drive the engine (a machine too small for its
//! tenants, a timeline that never converges) fails here, in CI, not in
//! a user's hands. The payload carries only simulated quantities, so
//! the JSON is byte-identical at any `--threads` value.

use neomem::prelude::*;
use neomem::workloads::ScenarioConfig;
use neomem_runner::{ExperimentGrid, Json, Registry};

use super::RunContext;
use crate::{header, row};

/// Per-scenario access budget at quick scale. Small on purpose: the
/// corpus run is a breadth check across ~two dozen scenarios, not a
/// convergence study.
pub const QUICK_BUDGET: u64 = 150_000;

/// The grid one corpus scenario runs on: its declared machine (if
/// any), its interleave-quantum override (if any), the NeoMem policy,
/// and the paper's seed/ratio/cadence conventions.
pub fn corpus_grid(
    config: &ScenarioConfig,
    machine: Option<&MachineDescription>,
    budget: u64,
) -> ExperimentGrid {
    let mut grid = ExperimentGrid::new(format!("registry/{}", config.name))
        .workloads([])
        .scenario(config.name.clone(), config.scenario.clone())
        .policies([PolicyKind::NeoMem])
        .ratios([2])
        .seeds([2024])
        .budgets([budget])
        .time_scale(1000);
    if let Some(quantum) = config.quantum {
        grid = grid.corun_quantum(quantum);
    }
    if let Some(machine) = machine {
        grid = grid.machine(machine.clone());
    }
    grid
}

/// Lowers one corpus scenario onto its declared machine exactly as
/// [`run_scenario`] does and validates the engine configuration without
/// building generators, policies or machines: what `neomem-bench
/// scenario check` runs for every scenario.
///
/// # Errors
///
/// Returns the error the run would fail with, e.g. a footprint larger
/// than the machine or wider than its caches' tags.
pub fn check_scenario(
    config: &ScenarioConfig,
    machine: Option<&MachineDescription>,
) -> Result<(), neomem::Error> {
    corpus_grid(config, machine, QUICK_BUDGET).validate_scenarios()
}

/// Runs one corpus scenario and distils the cell into the compact
/// virtual-clock metrics object the figure payload carries.
///
/// # Errors
///
/// Returns the grid error when the scenario cannot actually drive the
/// engine (e.g. a machine too small for its tenants).
pub fn run_scenario(
    config: &ScenarioConfig,
    machine: Option<&MachineDescription>,
    ctx: &RunContext,
) -> Result<(Json, neomem_runner::GridRun), neomem::Error> {
    let budget = ctx.scale.accesses(QUICK_BUDGET);
    let run = corpus_grid(config, machine, budget).run_mode(&ctx.grid_mode())?;
    let cell = run.scenario_for(&config.name, PolicyKind::NeoMem, "");
    let corun = cell.corun.as_ref().expect("scenario cells carry corun sections");
    let scenario = cell.scenario.as_ref().expect("scenario cells carry scenario sections");
    let payload = Json::obj([
        (
            "machine",
            match machine {
                Some(m) => Json::from(m.name.as_str()),
                None => Json::from("default"),
            },
        ),
        ("tenants", Json::U64(config.scenario.mix().len() as u64)),
        ("runtime_ns", Json::U64(cell.report.runtime.as_nanos())),
        ("promotions", Json::U64(cell.report.kernel.promotions)),
        ("slow_tier_accesses", Json::U64(cell.report.slow_tier_accesses())),
        (
            "cross_tenant_evictions",
            Json::U64(corun.contention.cross_tenant_evictions),
        ),
        ("epochs", Json::U64(scenario.epochs.len() as u64)),
    ]);
    Ok((payload, run))
}

/// Runs the figure.
pub fn run(ctx: &RunContext) -> Json {
    header(
        "Registry: named machines & scenarios from the checked-in corpus",
        "no paper figure — end-to-end validation of scenarios/",
    );
    let registry = Registry::discover().expect("scenario corpus discoverable");
    let machine_names: Vec<String> = registry.machine_names().map(str::to_string).collect();
    let scenario_names: Vec<String> = registry.scenario_names().map(str::to_string).collect();

    println!(
        "corpus: {} machines + {} scenarios from {}",
        machine_names.len(),
        scenario_names.len(),
        registry.dir().display()
    );
    println!("{}", row(&["machine".into(), "preset".into(), "title".into()]));
    let mut machines = Vec::new();
    for name in &machine_names {
        let machine = registry.machine(name).expect("listed name resolves");
        let preset = format!("{:?}", machine.preset).to_ascii_lowercase();
        println!(
            "{}",
            row(&[
                name.clone(),
                preset.clone(),
                machine.title.clone().unwrap_or_default(),
            ])
        );
        machines.push((
            name.clone(),
            Json::obj([
                ("preset", Json::from(preset.as_str())),
                (
                    "title",
                    machine.title.as_deref().map(Json::from).unwrap_or(Json::Null),
                ),
            ]),
        ));
    }

    header(
        "Corpus run (NeoMem, every scenario on its declared machine)",
        "per-scenario virtual-clock metrics at the breadth budget",
    );
    println!(
        "{}",
        row(&[
            "scenario".into(),
            "machine".into(),
            "runtime".into(),
            "promotions".into(),
            "slow-tier".into(),
            "epochs".into(),
        ])
    );
    let mut series = Vec::new();
    for name in &scenario_names {
        let config = registry.scenario(name).expect("listed name resolves");
        let machine = registry.machine_for(name).expect("machine refs validated at load");
        let (payload, _) = run_scenario(config, machine, ctx)
            .unwrap_or_else(|e| panic!("corpus scenario {name:?} failed to run: {e}"));
        println!(
            "{}",
            row(&[
                name.clone(),
                payload.get("machine").and_then(Json::as_str).unwrap_or("?").to_string(),
                format!("{} ns", payload.get("runtime_ns").and_then(Json::as_u64).unwrap_or(0)),
                format!("{}", payload.get("promotions").and_then(Json::as_u64).unwrap_or(0)),
                format!(
                    "{}",
                    payload.get("slow_tier_accesses").and_then(Json::as_u64).unwrap_or(0)
                ),
                format!("{}", payload.get("epochs").and_then(Json::as_u64).unwrap_or(0)),
            ])
        );
        series.push((name.clone(), payload));
    }

    Json::obj([
        (
            "corpus",
            Json::obj([
                ("entries", Json::U64(registry.len() as u64)),
                ("machines", Json::Obj(machines)),
                (
                    "scenario_names",
                    Json::Arr(scenario_names.iter().map(|n| Json::from(n.as_str())).collect()),
                ),
            ]),
        ),
        ("series", Json::Obj(series)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    const DUEL: &str = "\
schema = 1
kind = scenario
name = duel
quantum = 128

[tenant]
workload = gups
rss_pages = 1024
weight = 3
seed = 1

[tenant]
workload = silo
rss_pages = 1024
seed = 2
";

    fn tiny_ctx(threads: usize) -> RunContext {
        RunContext { threads, ..RunContext::default() }
    }

    #[test]
    fn corpus_cells_are_thread_count_invariant() {
        let config = ScenarioConfig::parse(DUEL).unwrap();
        let machine = MachineDescription::parse(
            "schema = 1\nkind = machine\nname = m\n[memory]\nratio = 4\n",
        )
        .unwrap();
        let run = |threads| {
            let (payload, grid) =
                run_scenario(&config, Some(&machine), &tiny_ctx(threads)).expect("duel runs");
            (payload.render_pretty(), grid.to_json().render_pretty())
        };
        let (payload1, grid1) = run(1);
        let (payload4, grid4) = run(4);
        assert_eq!(payload1, payload4, "scenario payload must not depend on threads");
        assert_eq!(grid1, grid4, "grid JSON must not depend on threads");
    }

    #[test]
    fn quantum_and_machine_flow_into_the_grid() {
        let config = ScenarioConfig::parse(DUEL).unwrap();
        let machine = MachineDescription::parse(
            "schema = 1\nkind = machine\nname = m\n[memory]\nratio = 8\n",
        )
        .unwrap();
        let with =
            run_scenario(&config, Some(&machine), &tiny_ctx(2)).expect("runs").0.render_pretty();
        let without = run_scenario(&config, None, &tiny_ctx(2)).expect("runs").0.render_pretty();
        assert_ne!(with, without, "a 1:8 machine must not reproduce the 1:2 default");
    }
}
