//! Synthetic workload generators for the NeoMem evaluation.
//!
//! The paper evaluates eight benchmarks (§VI-A): GUPS, Page-Rank,
//! XSBench, Silo (YCSB-C), Btree, 603.bwaves, 654.roms and
//! DeathStarBench, plus Redis for the motivation experiments. Running
//! the real binaries is impossible inside a memory-system simulator, and
//! unnecessary: tiering outcomes are driven by the page-granularity
//! locality structure of the access stream. Each generator here
//! reproduces its benchmark's qualitative structure as described in the
//! paper and its citations:
//!
//! | Generator | Structure |
//! |---|---|
//! | [`Gups`] | uniform random updates, 90 % confined to a hot region (HeMem-style skew), with an optional hot-set relocation event (Fig. 16) |
//! | [`PageRank`] | build phase (sequential writes) then iterations of power-law vertex visits with per-iteration markers (Fig. 14) |
//! | [`XsBench`] | read-dominated zipfian lookups over large cross-section tables — "skewed hot memory regions" |
//! | [`Silo`] | YCSB-C zipfian point reads over records + small log writes |
//! | [`Btree`] | root-to-leaf index walks: exponentially hotter upper levels |
//! | [`StreamingHpc`] | bwaves/roms-style multi-array sequential sweeps with low reuse |
//! | [`Redis`] | zipfian GET/SET over a key/value heap |
//! | [`DeathStar`] | micro-service mix: zipfian session state + streaming logs + slowly rotating working set |
//!
//! All generators are deterministic given a seed and emit an infinite
//! stream of [`WorkloadEvent`]s; the simulator bounds runs by access
//! count or simulated time.
//!
//! Multi-tenant co-runs compose any of these generators through a
//! [`TenantMix`]: per-tenant footprints, interleave weights and seeds,
//! each tenant in a private page-id namespace. A [`Scenario`] adds a
//! dynamic-tenancy timeline on top — tenant arrivals, departures and
//! weight changes at virtual-time points — and [`PhasedWorkload`]
//! switches a tenant's generator kind/working-set at deterministic
//! event-count boundaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod btree;
pub mod config;
mod deathstar;
mod gups;
mod pagerank;
mod perm;
mod redis;
mod scenario;
mod silo;
mod stream_hpc;
mod tenant;
mod xsbench;
mod zipf;

pub use btree::Btree;
pub use config::{parse_workload_kind, ScenarioConfig};
pub use deathstar::DeathStar;
pub use gups::Gups;
pub use pagerank::PageRank;
pub use redis::Redis;
pub use scenario::{
    PhaseSpec, PhasedWorkload, Scenario, ScenarioBuilder, TenantEvent, TenantEventKind,
};
pub use silo::Silo;
pub use stream_hpc::{StreamingHpc, StreamKind};
pub use tenant::{TenantMix, TenantMixBuilder, TenantSpec};
pub use xsbench::XsBench;
pub use zipf::Zipf;

use neomem_types::Access;

/// The smallest footprint, in pages, that every generator accepts.
/// Tenant mixes, phase schedules and the scenario-file reader reject
/// anything smaller, so a footprint that validates always builds.
pub const MIN_RSS_PAGES: u64 = 64;

/// A phase marker emitted inside the access stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Marker {
    /// Monotone marker index (e.g. Page-Rank iteration number).
    pub id: u32,
    /// Human-readable phase label.
    pub label: &'static str,
}

/// One element of a workload's event stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadEvent {
    /// A memory access.
    Access(Access),
    /// A phase boundary (iteration end, hot-set move, ...).
    Marker(Marker),
}

/// A deterministic, infinite access-stream generator.
pub trait Workload {
    /// Short benchmark name, as used in the paper's figures.
    fn name(&self) -> &'static str;

    /// Virtual pages in the resident set.
    fn rss_pages(&self) -> u64;

    /// Produces the next event.
    fn next_event(&mut self) -> WorkloadEvent;

    /// Appends exactly `n` further events to `buf`, in stream order.
    ///
    /// The batch contract: the events appended must be *identical* to
    /// `n` successive [`next_event`](Self::next_event) calls — batching
    /// is a dispatch optimisation, never a behavioural one. The default
    /// implementation loops `next_event`; high-volume generators
    /// override it with a statically-dispatched loop so the simulator
    /// pays one virtual call per batch instead of one per access.
    fn fill_events(&mut self, buf: &mut Vec<WorkloadEvent>, n: usize) {
        buf.reserve(n);
        for _ in 0..n {
            buf.push(self.next_event());
        }
    }
}

/// Overrides [`Workload::fill_events`] inside a concrete `impl
/// Workload for …` block with the canonical batch loop over that
/// type's `next_event`. The loop body matches the trait default (which
/// is itself monomorphised per implementing type); the explicit
/// override pins the batch contract on each high-volume generator and
/// marks the spot where a genuinely specialised batch body would go.
macro_rules! impl_batched_fill_events {
    () => {
        fn fill_events(&mut self, buf: &mut Vec<$crate::WorkloadEvent>, n: usize) {
            buf.reserve(n);
            for _ in 0..n {
                buf.push(self.next_event());
            }
        }
    };
}
pub(crate) use impl_batched_fill_events;

/// The benchmark suite of the paper (Fig. 11 order), plus Redis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// GAP Page-Rank.
    PageRank,
    /// XSBench Monte-Carlo neutronics lookup kernel.
    XsBench,
    /// Silo in-memory database under YCSB-C.
    Silo,
    /// SPEC CPU2017 603.bwaves_s.
    Bwaves,
    /// SPEC CPU2017 654.roms_s.
    Roms,
    /// Mitosis Btree index.
    Btree,
    /// GUPS with HeMem-style 90/10 skew.
    Gups,
    /// DeathStarBench micro-service suite.
    DeathStarBench,
    /// Redis (used in the Fig. 4b motivation study).
    Redis,
}

impl WorkloadKind {
    /// The eight benchmarks of Fig. 11, in the paper's order.
    pub const FIG11: [WorkloadKind; 8] = [
        WorkloadKind::PageRank,
        WorkloadKind::XsBench,
        WorkloadKind::Silo,
        WorkloadKind::Bwaves,
        WorkloadKind::Roms,
        WorkloadKind::Btree,
        WorkloadKind::Gups,
        WorkloadKind::DeathStarBench,
    ];

    /// The paper-figure label.
    pub fn label(self) -> &'static str {
        match self {
            WorkloadKind::PageRank => "Page-Rank",
            WorkloadKind::XsBench => "XSBench",
            WorkloadKind::Silo => "Silo",
            WorkloadKind::Bwaves => "603.bwaves",
            WorkloadKind::Roms => "654.roms",
            WorkloadKind::Btree => "Btree",
            WorkloadKind::Gups => "GUPS",
            WorkloadKind::DeathStarBench => "DeathStarBench",
            WorkloadKind::Redis => "Redis",
        }
    }

    /// Builds the generator with a footprint of `rss_pages` virtual pages.
    pub fn build(self, rss_pages: u64, seed: u64) -> Box<dyn Workload> {
        match self {
            WorkloadKind::PageRank => Box::new(PageRank::new(rss_pages, seed)),
            WorkloadKind::XsBench => Box::new(XsBench::new(rss_pages, seed)),
            WorkloadKind::Silo => Box::new(Silo::new(rss_pages, seed)),
            WorkloadKind::Bwaves => Box::new(StreamingHpc::new(StreamKind::Bwaves, rss_pages, seed)),
            WorkloadKind::Roms => Box::new(StreamingHpc::new(StreamKind::Roms, rss_pages, seed)),
            WorkloadKind::Btree => Box::new(Btree::new(rss_pages, seed)),
            WorkloadKind::Gups => Box::new(Gups::new(rss_pages, seed)),
            WorkloadKind::DeathStarBench => Box::new(DeathStar::new(rss_pages, seed)),
            WorkloadKind::Redis => Box::new(Redis::new(rss_pages, seed)),
        }
    }
}

impl std::fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kinds_build_and_stream() {
        let mut kinds = WorkloadKind::FIG11.to_vec();
        kinds.push(WorkloadKind::Redis);
        for kind in kinds {
            let mut w = kind.build(1024, 42);
            assert!(!w.name().is_empty());
            assert!(w.rss_pages() >= 512, "{kind}: rss too small");
            let mut accesses = 0;
            for _ in 0..5000 {
                if let WorkloadEvent::Access(a) = w.next_event() {
                    assert!(a.vpage.index() < w.rss_pages(), "{kind}: page out of RSS");
                    accesses += 1;
                }
            }
            assert!(accesses > 4000, "{kind}: stream must be access-dominated");
        }
    }

    #[test]
    fn determinism_per_seed() {
        for kind in WorkloadKind::FIG11 {
            let mut a = kind.build(2048, 7);
            let mut b = kind.build(2048, 7);
            for _ in 0..2000 {
                assert_eq!(a.next_event(), b.next_event(), "{kind}: nondeterministic");
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = WorkloadKind::Gups.build(2048, 1);
        let mut b = WorkloadKind::Gups.build(2048, 2);
        // Skip the deterministic table-initialisation sweep.
        while !matches!(a.next_event(), WorkloadEvent::Marker(_)) {}
        while !matches!(b.next_event(), WorkloadEvent::Marker(_)) {}
        let mut diffs = 0;
        for _ in 0..1000 {
            if a.next_event() != b.next_event() {
                diffs += 1;
            }
        }
        assert!(diffs > 500, "seeds must decorrelate streams");
    }

    #[test]
    fn fill_events_matches_next_event_stream() {
        // The batch contract: fill_events (any batch size, including
        // sizes that straddle marker boundaries and queued bursts) must
        // reproduce the exact next_event stream.
        let mut kinds = WorkloadKind::FIG11.to_vec();
        kinds.push(WorkloadKind::Redis);
        for kind in kinds {
            for batch in [1usize, 3, 257] {
                let mut reference = kind.build(1024, 9);
                let mut batched = kind.build(1024, 9);
                let mut buf = Vec::new();
                let mut compared = 0usize;
                while compared < 6000 {
                    buf.clear();
                    batched.fill_events(&mut buf, batch);
                    assert_eq!(buf.len(), batch, "{kind}: short batch");
                    for ev in &buf {
                        assert_eq!(*ev, reference.next_event(), "{kind} batch={batch}");
                        compared += 1;
                    }
                }
            }
        }
    }

    #[test]
    fn default_fill_events_appends_without_clearing() {
        // The default implementation must append, preserving prior
        // contents — the engine reuses one buffer across batches.
        struct Fixed;
        impl Workload for Fixed {
            fn name(&self) -> &'static str {
                "fixed"
            }
            fn rss_pages(&self) -> u64 {
                64
            }
            fn next_event(&mut self) -> WorkloadEvent {
                WorkloadEvent::Marker(Marker { id: 7, label: "m" })
            }
        }
        let mut w = Fixed;
        let mut buf = vec![w.next_event()];
        w.fill_events(&mut buf, 3);
        assert_eq!(buf.len(), 4);
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(WorkloadKind::Bwaves.label(), "603.bwaves");
        assert_eq!(WorkloadKind::Gups.to_string(), "GUPS");
        assert_eq!(WorkloadKind::FIG11.len(), 8);
    }
}
