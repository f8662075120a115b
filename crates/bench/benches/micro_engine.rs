//! Engine-loop micro-benchmark wrapper.
//!
//! Unlike the other thin wrappers, this target installs a counting
//! global allocator before running the shared `micro_engine` figure,
//! turning the figure's steady-state heap report into two hard
//! assertions: the batched engine's hot path must stay (amortised)
//! allocation-free, and its peak live heap must not grow with run
//! length. Run with `cargo bench --bench micro_engine`.

neomem_bench::counting_allocator!();

fn main() {
    install_probe();
    neomem_bench::figures::bench_target_main("micro_engine");

    // Gates on the measurement the figure just took — no second probe
    // run.
    let steady = neomem_bench::figures::micro_engine::last_steady_state()
        .expect("probe installed above, so the figure measured it");

    // Allocation gate: over N extra steady-state accesses the engine
    // may allocate only incidentals that grow sublinearly (timeline
    // vector doublings), bounded here well under one allocation per
    // thousand accesses. A per-access allocation anywhere in step /
    // shootdown draining / event batching blows straight through this.
    let per_access = steady.allocs_per_access();
    assert!(
        per_access < 0.001,
        "steady-state hot loop allocates: {} allocations over {} accesses ({per_access:.6}/access)",
        steady.extra_allocs,
        steady.alloc_extra_accesses,
    );
    println!(
        "steady-state allocation gate passed: {} allocations over {} accesses",
        steady.extra_allocs, steady.alloc_extra_accesses
    );

    // Live-heap gate: state that grows per access (a queue nothing
    // drains, an unbounded log) shows up as peak live heap growing
    // with run length. Only the timeline may grow, at well under a
    // byte per access.
    let per_access = steady.peak_bytes_per_access();
    assert!(
        per_access < 1.0,
        "peak live heap grows with run length: {} -> {} bytes over {} extra accesses \
         ({per_access:.3} bytes/access)",
        steady.short_peak_bytes,
        steady.long_peak_bytes,
        steady.heap_extra_accesses,
    );
    println!(
        "live-heap growth gate passed: peak {} -> {} bytes over {} extra accesses \
         ({per_access:.3} bytes/access)",
        steady.short_peak_bytes, steady.long_peak_bytes, steady.heap_extra_accesses
    );
}
