//! `micro_engine` — the batched simulation engine loop, exercised
//! directly (no experiment grid, no worker pool).
//!
//! Three jobs:
//!
//! 1. **Throughput**: run representative (workload, policy) cells
//!    through `Simulation::run` and report wall-clock simulated
//!    accesses per second — the number every engine optimisation PR is
//!    judged against. Wall-clock goes to *stderr*; the JSON payload
//!    carries only simulated (virtual-clock) metrics.
//! 2. **Batch invariance**: re-run one cell at batch size 1 and assert
//!    the simulated results are identical — the engine's batch
//!    contract, double-checked wherever this figure runs.
//! 3. **Heap probe**: when the hosting binary installed a counting
//!    allocator (see [`crate::alloc_probe`]), difference two runs
//!    whose budgets differ by a known amount — setup cancels, so the
//!    remainder is what the extra accesses cost. Two pairs:
//!    first-touch GUPS for heap allocations, which the batched engine
//!    keeps at (amortised) zero, and NeoMem GUPS on the large preset
//!    at 65,536 pages (the perfbench gups shape) for peak live heap,
//!    which must not grow with run length beyond the timeline. The
//!    `micro_engine` bench target asserts both; here the numbers are
//!    reported on stderr.

use std::sync::Mutex;
use std::time::Instant;

use neomem::prelude::*;
use neomem_runner::{report_json, Json};

use crate::alloc_probe;
use crate::{header, row};

use super::RunContext;

/// Cells exercised for throughput: hot-loop-heavy generators against
/// the cheapest and the most involved policy.
const CELLS: &[(WorkloadKind, PolicyKind)] = &[
    (WorkloadKind::Gups, PolicyKind::FirstTouch),
    (WorkloadKind::Gups, PolicyKind::NeoMem),
    (WorkloadKind::Btree, PolicyKind::FirstTouch),
    (WorkloadKind::PageRank, PolicyKind::NeoMem),
];

fn run_cell(
    workload: WorkloadKind,
    policy: PolicyKind,
    accesses: u64,
    batch_size: usize,
) -> RunReport {
    Experiment::builder()
        .workload(workload)
        .policy(policy)
        .rss_pages(2048)
        .accesses(accesses)
        .seed(2024)
        .batch_size(batch_size)
        .build()
        .expect("valid micro_engine cell")
        .run()
}

/// Runs the figure.
pub fn run(ctx: &RunContext) -> Json {
    header(
        "micro_engine: batched engine loop — throughput, batch invariance, allocations",
        "no paper figure; the perf-measurement substrate for engine PRs",
    );
    let budget = ctx.scale.accesses(300_000);

    println!("{}", row(&["workload".into(), "policy".into(), "runtime".into(), "accesses".into()]));
    let mut cells = Vec::new();
    for &(workload, policy) in CELLS {
        let started = Instant::now();
        let report = run_cell(workload, policy, budget, 256);
        let wall = started.elapsed().as_secs_f64();
        eprintln!(
            "[micro_engine] {} / {}: {:.2} M simulated accesses/s of wall time",
            workload.label(),
            policy.label(),
            report.accesses as f64 / wall / 1e6,
        );
        println!(
            "{}",
            row(&[
                workload.label().into(),
                policy.label().into(),
                format!("{}", report.runtime),
                report.accesses.to_string(),
            ])
        );
        cells.push(report_json(&report));
    }

    // Batch invariance: size 1 degrades to the event-at-a-time seed
    // path and must reproduce the batched results exactly.
    let check_budget = ctx.scale.accesses(60_000);
    let batched = run_cell(WorkloadKind::Gups, PolicyKind::NeoMem, check_budget, 256);
    let unbatched = run_cell(WorkloadKind::Gups, PolicyKind::NeoMem, check_budget, 1);
    assert_eq!(
        batched.scalar_metrics(),
        unbatched.scalar_metrics(),
        "batch contract violated: batch=256 diverged from batch=1"
    );
    println!("\nbatch invariance: batch=256 == batch=1 over {check_budget} accesses ✓");

    // Steady-state heap probe (host-side; stderr only).
    match steady_state(ctx) {
        Some(s) => eprintln!(
            "[micro_engine] steady state: {} heap allocations over {} extra accesses ({:.6} per \
             access); peak live heap {} -> {} bytes over {} extra accesses ({:.3} bytes per \
             access)",
            s.extra_allocs,
            s.alloc_extra_accesses,
            s.allocs_per_access(),
            s.short_peak_bytes,
            s.long_peak_bytes,
            s.heap_extra_accesses,
            s.peak_bytes_per_access(),
        ),
        None => eprintln!("[micro_engine] heap probe inactive (no counting allocator)"),
    }

    Json::obj([
        ("cells", Json::Arr(cells)),
        (
            "series",
            Json::obj([
                ("batch_invariance_accesses", Json::U64(check_budget)),
                (
                    "note",
                    Json::from(
                        "wall-clock throughput and allocation counts printed to stderr; \
                         host-dependent, excluded from JSON",
                    ),
                ),
            ]),
        ),
    ])
}

/// What the extra accesses of the steady-state probe cost the host.
#[derive(Debug, Clone, Copy)]
pub struct SteadyState {
    /// Extra accesses of the allocation-count pair (first-touch GUPS).
    pub alloc_extra_accesses: u64,
    /// Heap allocations those extra accesses made.
    pub extra_allocs: u64,
    /// Extra accesses of the live-heap pair (NeoMem GUPS, large preset).
    pub heap_extra_accesses: u64,
    /// Peak live heap of the short live-heap run, in bytes above the
    /// live heap before it.
    pub short_peak_bytes: u64,
    /// Peak live heap of the long live-heap run, likewise.
    pub long_peak_bytes: u64,
}

impl SteadyState {
    /// Heap allocations per extra access.
    pub fn allocs_per_access(&self) -> f64 {
        self.extra_allocs as f64 / self.alloc_extra_accesses as f64
    }

    /// Peak live-heap growth per extra access, in bytes.
    pub fn peak_bytes_per_access(&self) -> f64 {
        (self.long_peak_bytes as f64 - self.short_peak_bytes as f64)
            / self.heap_extra_accesses as f64
    }
}

/// Last probe measurement taken by [`run`], for the bench target's
/// gates. Host-side state only.
static LAST_PROBE: Mutex<Option<SteadyState>> = Mutex::new(None);

/// The measurement taken by the most recent [`run`] in this process,
/// or `None` when no probe was installed — lets the `micro_engine`
/// bench target gate on the measurement the figure already took
/// instead of re-running it.
pub fn last_steady_state() -> Option<SteadyState> {
    *LAST_PROBE.lock().expect("probe lock poisoned")
}

/// Accesses of the short live-heap run; the long run does twice as
/// many. Fixed rather than scaled: the gate is about growth per access,
/// and a million accesses is well past the GUPS init sweep.
const HEAP_PROBE_ACCESSES: u64 = 1_000_000;

/// Measures the steady state by differencing an N-access and a
/// 2N-access run of each probe cell: identical setup work cancels,
/// leaving only what the extra N accesses cost. `None` without a probe.
fn steady_state(ctx: &RunContext) -> Option<SteadyState> {
    alloc_probe::count()?;
    let n = ctx.scale.accesses(150_000);
    let allocs_of = |accesses: u64| -> u64 {
        let before = alloc_probe::count().expect("probe checked above");
        let report = run_cell(WorkloadKind::Gups, PolicyKind::FirstTouch, accesses, 256);
        let after = alloc_probe::count().expect("probe checked above");
        assert_eq!(report.accesses, accesses);
        after - before
    };
    let short = allocs_of(n);
    let long = allocs_of(2 * n);
    let peak_of = |accesses: u64| -> u64 {
        let live = alloc_probe::reset_peak().expect("probe checked above");
        let report = Experiment::builder()
            .workload(WorkloadKind::Gups)
            .policy(PolicyKind::NeoMem)
            .rss_pages(65_536)
            .ratio(2)
            .large_machine(true)
            .accesses(accesses)
            .seed(2024)
            .build()
            .expect("valid live-heap probe cell")
            .run();
        assert_eq!(report.accesses, accesses);
        alloc_probe::peak_live_bytes().expect("probe checked above") - live
    };
    let measured = SteadyState {
        alloc_extra_accesses: n,
        extra_allocs: long.saturating_sub(short),
        heap_extra_accesses: HEAP_PROBE_ACCESSES,
        short_peak_bytes: peak_of(HEAP_PROBE_ACCESSES),
        long_peak_bytes: peak_of(2 * HEAP_PROBE_ACCESSES),
    };
    *LAST_PROBE.lock().expect("probe lock poisoned") = Some(measured);
    Some(measured)
}
