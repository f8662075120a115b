//! Property-based tests for kernel memory-management invariants.

use neomem_kernel::{Kernel, KernelConfig};
use neomem_types::{Nanos, PageNum, Tier, VirtPage};
use proptest::prelude::*;

/// Random sequences of kernel operations.
#[derive(Debug, Clone)]
enum Op {
    Touch(u64),
    Promote(u64),
    Demote(u64),
    Access(u64),
    DemoteColdest(usize),
}

fn op_strategy(pages: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..pages).prop_map(Op::Touch),
        (0..pages).prop_map(Op::Promote),
        (0..pages).prop_map(Op::Demote),
        (0..pages).prop_map(Op::Access),
        (1usize..4).prop_map(Op::DemoteColdest),
    ]
}

fn apply(kernel: &mut Kernel, op: &Op) {
    let now = Nanos::ZERO;
    match *op {
        Op::Touch(p) => {
            let _ = kernel.touch_alloc(VirtPage::new(p), now);
        }
        Op::Promote(p) => {
            let _ = kernel.promote(VirtPage::new(p), now);
        }
        Op::Demote(p) => {
            let _ = kernel.demote(VirtPage::new(p), now);
        }
        Op::Access(p) => kernel.record_fast_access(VirtPage::new(p)),
        Op::DemoteColdest(n) => {
            let _ = kernel.demote_coldest(n, now);
        }
    }
}

/// [`Op`] plus the operations that need the kernel's configuration and
/// regions.
#[derive(Debug, Clone)]
enum CountedOp {
    Kernel(Op),
    /// A fast-tier capacity-loss window: block the top `n` fast frames,
    /// demote the pages they hold, then lift the block.
    CapacityLoss(u64),
    /// Snapshot, then restore into a fresh kernel with the same regions.
    RoundTrip,
}

fn counted_op_strategy(pages: u64) -> impl Strategy<Value = CountedOp> {
    // The vendored prop_oneof is unweighted: list the kernel operations
    // three times so they make up most of a run.
    prop_oneof![
        op_strategy(pages).prop_map(CountedOp::Kernel),
        op_strategy(pages).prop_map(CountedOp::Kernel),
        op_strategy(pages).prop_map(CountedOp::Kernel),
        (1u64..8).prop_map(CountedOp::CapacityLoss),
        Just(CountedOp::RoundTrip),
    ]
}

fn apply_counted(kernel: &mut Kernel, config: KernelConfig, regions: &[u64], op: &CountedOp) {
    match op {
        CountedOp::Kernel(op) => apply(kernel, op),
        &CountedOp::CapacityLoss(frames) => {
            let fast = kernel.memory().allocator(Tier::Fast);
            let ceiling = fast.base().index() + fast.capacity();
            kernel.memory_mut().allocator_mut(Tier::Fast).set_blocked(frames);
            let floor = ceiling - kernel.memory().allocator(Tier::Fast).blocked_frames();
            for frame in floor..ceiling {
                if let Some(vpage) = kernel.vpage_of(PageNum::new(frame)) {
                    let _ = kernel.demote(vpage, Nanos::ZERO);
                }
            }
            kernel.memory_mut().allocator_mut(Tier::Fast).set_blocked(0);
        }
        CountedOp::RoundTrip => {
            let mut fresh = Kernel::new(config);
            fresh.set_regions(regions);
            fresh.restore(&kernel.snapshot()).expect("a kernel restores its own snapshot");
            *kernel = fresh;
        }
    }
}

/// Each region's fast-tier pages, by sweeping the fast frames.
fn sweep_fast_pages(kernel: &Kernel, regions: &[u64]) -> Vec<u64> {
    let mut counts = vec![0; regions.len()];
    for frame in 0..kernel.memory().slow_base().index() {
        if let Some(vpage) = kernel.vpage_of(PageNum::new(frame)) {
            let region = regions.iter().rposition(|&base| base <= vpage.index()).unwrap();
            counts[region] += 1;
        }
    }
    counts
}

proptest! {
    // Fixed case count and no failure-persistence files: runs are
    // deterministic and CI-reproducible.
    #![proptest_config(ProptestConfig {
        cases: 64,
        failure_persistence: None,
        ..ProptestConfig::default()
    })]
    /// Frame conservation: under any operation sequence, the number of
    /// used frames equals the number of mapped pages, the rmap agrees
    /// with the page table in both directions, and no frame is shared.
    #[test]
    fn frame_accounting_is_exact(
        ops in prop::collection::vec(op_strategy(48), 1..300),
    ) {
        let mut kernel = Kernel::new(KernelConfig::with_frames(16, 48));
        for op in &ops {
            apply(&mut kernel, op);
        }
        let used = kernel.memory().allocator(Tier::Fast).used_frames()
            + kernel.memory().allocator(Tier::Slow).used_frames();
        let mapped = kernel.page_table().mapped_count() as u64;
        prop_assert_eq!(used, mapped, "used frames must equal mapped pages");

        let mut seen_frames = std::collections::HashSet::new();
        for (vpage, pte) in kernel.page_table().iter() {
            prop_assert!(seen_frames.insert(pte.frame), "frame {} double-mapped", pte.frame);
            prop_assert_eq!(
                kernel.vpage_of(pte.frame),
                Some(vpage),
                "rmap must invert the page table"
            );
        }
    }

    /// The kernel's per-region fast-page counts equal a sweep of the
    /// fast frames after every operation: allocations, migrations,
    /// capacity-loss windows and snapshot round-trips into a fresh
    /// kernel, under random region bases.
    #[test]
    fn fast_page_counts_equal_a_sweep(
        cuts in prop::collection::vec(1u64..48, 0..4),
        ops in prop::collection::vec(counted_op_strategy(48), 1..200),
    ) {
        let config = KernelConfig::with_frames(16, 48);
        let mut regions = cuts;
        regions.push(0);
        regions.sort_unstable();
        regions.dedup();
        let mut kernel = Kernel::new(config);
        kernel.set_regions(&regions);
        for op in &ops {
            apply_counted(&mut kernel, config, &regions, op);
            let swept = sweep_fast_pages(&kernel, &regions);
            prop_assert_eq!(
                kernel.fast_pages_by_region(),
                swept.as_slice(),
                "counts diverged from the sweep after {:?}",
                op
            );
        }
    }

    /// Migration counters are consistent: promotions and demotions only
    /// ever move mapped pages, and ping-pongs never exceed promotions.
    #[test]
    fn migration_counters_consistent(
        ops in prop::collection::vec(op_strategy(32), 1..300),
    ) {
        let mut kernel = Kernel::new(KernelConfig::with_frames(8, 40));
        for op in &ops {
            apply(&mut kernel, op);
        }
        let stats = kernel.stats();
        prop_assert!(stats.ping_pongs <= stats.promotions);
        prop_assert_eq!(stats.promoted_bytes.as_u64(), stats.promotions * 4096);
        prop_assert_eq!(stats.demoted_bytes.as_u64(), stats.demotions * 4096);
    }

    /// Tier placement is always consistent with the physical layout:
    /// `tier_of` derived from the frame number matches the allocator
    /// that owns the frame.
    #[test]
    fn tier_placement_consistent(
        ops in prop::collection::vec(op_strategy(32), 1..200),
    ) {
        let mut kernel = Kernel::new(KernelConfig::with_frames(8, 40));
        for op in &ops {
            apply(&mut kernel, op);
        }
        for (vpage, pte) in kernel.page_table().iter() {
            let tier = kernel.memory().tier_of(pte.frame);
            prop_assert!(kernel.memory().allocator(tier).owns(pte.frame));
            prop_assert_eq!(kernel.tier_of(vpage).unwrap(), tier);
        }
    }

    /// The kernel never loses pages: once touched, a page stays mapped
    /// through any sequence of migrations.
    #[test]
    fn pages_never_vanish(
        touched in prop::collection::vec(0u64..24, 1..24),
        ops in prop::collection::vec(op_strategy(24), 0..200),
    ) {
        let mut kernel = Kernel::new(KernelConfig::with_frames(8, 32));
        for &p in &touched {
            kernel.touch_alloc(VirtPage::new(p), Nanos::ZERO).unwrap();
        }
        for op in &ops {
            apply(&mut kernel, op);
        }
        for &p in &touched {
            prop_assert!(
                kernel.translate(VirtPage::new(p)).is_ok(),
                "page {} vanished",
                p
            );
        }
    }
}
