//! Steady co-run determinism suite. Every co-run follows a scenario's
//! schedule, and a fixed tenant mix is the scenario without events
//! ([`Scenario::steady`]). For every tenant mix the corun figure gates:
//! a steady co-run is invariant to the engine's batch size, the same
//! mix as a `corun` and as a `scenario` grid axis entry yields the same
//! cell metrics, and the grid's JSON is byte-identical at 1 and 4
//! worker threads.

use neomem::policies::{FirstTouchPolicy, TieringPolicy};
use neomem::prelude::*;
use neomem_bench::figures::corun::mixes;
use neomem_runner::ExperimentGrid;

/// Per-mix access budget: small enough to keep the suite quick, large
/// enough to cross many slice boundaries, ticks and samples.
const BUDGET: u64 = 20_000;

fn first_touch() -> Box<dyn TieringPolicy> {
    Box::new(FirstTouchPolicy::new())
}

/// Asserts two co-run reports agree on every simulated quantity.
fn assert_identical(a: &CoRunReport, b: &CoRunReport, label: &str) {
    assert_eq!(a.combined.runtime, b.combined.runtime, "{label}: runtime");
    assert_eq!(a.combined.accesses, b.combined.accesses, "{label}: accesses");
    assert_eq!(a.combined.scalar_metrics(), b.combined.scalar_metrics(), "{label}: metrics");
    assert_eq!(a.combined.markers, b.combined.markers, "{label}: markers");
    assert_eq!(a.tenants, b.tenants, "{label}: tenant sections");
    assert_eq!(a.contention, b.contention, "{label}: contention");
}

#[test]
fn steady_scenarios_are_batch_size_invariant_for_every_corun_mix() {
    for (label, mix) in mixes() {
        let run = |batch: usize| {
            let mut config = CoRunConfig::quick(&mix, 2);
            config.sim.max_accesses = BUDGET;
            config.sim.batch_size = batch;
            CoRunSimulation::with_scenario(
                config,
                &Scenario::steady(mix.clone()),
                first_touch(),
            )
            .expect("valid steady scenario")
            .run()
        };
        let reference = run(256);
        for batch in [1usize, 33, 1024] {
            assert_identical(&reference, &run(batch), &format!("{label} batch={batch}"));
        }
    }
}

/// The grid path: the same mixes as corun/scenario axis entries must
/// produce cell metrics that agree, and the scenario grid's JSON must
/// be byte-identical at 1 vs 4 worker threads.
#[test]
fn steady_scenario_grids_match_corun_grids_and_are_thread_invariant() {
    let grid = |threads: usize| {
        let mut g = ExperimentGrid::new("equivalence")
            .workloads([])
            .ratios([2])
            .seeds([2024])
            .budgets([BUDGET])
            .time_scale(1000)
            .policies([PolicyKind::NeoMem, PolicyKind::FirstTouch]);
        for (label, mix) in mixes() {
            g = g
                .corun(format!("static/{label}"), mix.clone())
                .scenario(format!("steady/{label}"), Scenario::steady(mix));
        }
        g.run(threads).expect("valid equivalence grid")
    };
    let one = grid(1);
    let four = grid(4);
    assert_eq!(
        one.to_json().render_pretty(),
        four.to_json().render_pretty(),
        "grid JSON must be byte-identical at 1 vs 4 threads"
    );
    for (label, _) in mixes() {
        for policy in [PolicyKind::NeoMem, PolicyKind::FirstTouch] {
            let fixed = one.corun_for(&format!("static/{label}"), policy, "");
            let steady = one.scenario_for(&format!("steady/{label}"), policy, "");
            assert_eq!(
                fixed.report.scalar_metrics(),
                steady.report.scalar_metrics(),
                "{label}/{policy:?}: combined metrics"
            );
            let fixed_sections = fixed.corun.as_ref().expect("corun sections");
            let steady_sections = steady.corun.as_ref().expect("corun sections");
            assert_eq!(
                fixed_sections.tenants, steady_sections.tenants,
                "{label}/{policy:?}: tenant sections"
            );
            assert_eq!(
                fixed_sections.contention, steady_sections.contention,
                "{label}/{policy:?}: contention"
            );
        }
    }
}
