//! Run reports and timelines.

use neomem_cache::{HierarchyStats, TlbStats};
use neomem_kernel::KernelStats;
use neomem_types::Nanos;

/// One timeline sample (the raw material of Figs. 14 and 16).
#[derive(Debug, Clone, Default)]
pub struct TimelinePoint {
    /// Sample timestamp.
    pub at: Nanos,
    /// Cumulative CPU accesses.
    pub accesses: u64,
    /// Cumulative slow-tier memory requests.
    pub slow_accesses: u64,
    /// Instantaneous throughput over the last window (accesses/s).
    pub throughput: f64,
    /// Policy threshold θ, when exposed.
    pub threshold: Option<u16>,
    /// Algorithm 1's `p`, when exposed.
    pub p_fraction: Option<f64>,
    /// Slow-tier bandwidth utilisation, when exposed.
    pub bandwidth_util: Option<f64>,
    /// Read-only utilisation, when exposed.
    pub read_util: Option<f64>,
    /// Write-only utilisation, when exposed.
    pub write_util: Option<f64>,
    /// Sketch error bound, when exposed.
    pub error_bound: Option<u16>,
    /// Latest histogram bins, when exposed (Fig. 14d strips).
    pub histogram: Option<[u64; 64]>,
}

/// A workload phase marker with its timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MarkerRecord {
    /// When the marker was emitted.
    pub at: Nanos,
    /// Marker id (iteration number etc.).
    pub id: u32,
    /// Marker label.
    pub label: &'static str,
}

/// Graceful-degradation accounting for a run that executed a
/// non-empty [`neomem_types::FaultPlan`]. All quantities are
/// virtual-clock state, so they are byte-identical at any thread count
/// or batch size. Absent (`None` on [`RunReport::degradation`]) for
/// fault-free runs, which keeps their serialized reports unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradationMetrics {
    /// Fault windows that started during the run.
    pub fault_events: u64,
    /// Total virtual time at least one fault window was open.
    pub degraded_time: Nanos,
    /// Time from the first fault's onset to the instant the machine
    /// last returned to fully healthy; `None` while still degraded at
    /// end of run (recovery never completed).
    pub time_to_recover: Option<Nanos>,
    /// Demotions forced by capacity-loss evacuation (these flow
    /// through the normal migration path and are also counted in
    /// `kernel.demotions`).
    pub fault_forced_demotions: u64,
    /// Healthy-window access rate over degraded-window access rate, in
    /// milli-units (1000 = no slowdown); 0 when either window has no
    /// samples.
    pub degraded_slowdown_milli: u64,
}

/// The outcome of one simulation run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Workload name.
    pub workload: String,
    /// Policy name.
    pub policy: String,
    /// Total simulated time.
    pub runtime: Nanos,
    /// CPU accesses executed.
    pub accesses: u64,
    /// Requests that reached the memory nodes.
    pub llc_misses: u64,
    /// Slow-tier line reads serviced.
    pub slow_reads: u64,
    /// Slow-tier line writes serviced.
    pub slow_writes: u64,
    /// Fast-tier line reads serviced.
    pub fast_reads: u64,
    /// Fast-tier line writes serviced.
    pub fast_writes: u64,
    /// Kernel counters (promotions, demotions, ping-pongs, ...).
    pub kernel: KernelStats,
    /// TLB counters.
    pub tlb: TlbStats,
    /// Cache hierarchy counters.
    pub cache: HierarchyStats,
    /// CPU time consumed by profiling + daemon work.
    pub profiling_overhead: Nanos,
    /// Bytes promoted as whole huge pages (Table VI; zero unless the
    /// policy runs in THP mode).
    pub promoted_huge_bytes: neomem_types::Bytes,
    /// Graceful-degradation metrics; `Some` iff the run executed a
    /// non-empty fault plan.
    pub degradation: Option<DegradationMetrics>,
    /// Periodic samples.
    pub timeline: Vec<TimelinePoint>,
    /// Phase markers.
    pub markers: Vec<MarkerRecord>,
}

impl RunReport {
    /// Total slow-tier (CXL) memory requests — the Fig. 13 metric.
    pub fn slow_tier_accesses(&self) -> u64 {
        self.slow_reads + self.slow_writes
    }

    /// Mean throughput in accesses per second of simulated time.
    pub fn throughput(&self) -> f64 {
        if self.runtime.is_zero() {
            0.0
        } else {
            self.accesses as f64 / self.runtime.as_secs_f64()
        }
    }

    /// Flat `(name, value)` scalar counters covering the whole report —
    /// the serialisation hook behind `neomem_runner`'s JSON results.
    ///
    /// Every value is simulated (virtual-clock) state, so the list is
    /// deterministic for a given configuration and seed. Names are part
    /// of the `BENCH_*.json` schema; extend rather than rename.
    pub fn scalar_metrics(&self) -> Vec<(&'static str, u64)> {
        let mut metrics = vec![
            ("runtime_ns", self.runtime.as_nanos()),
            ("accesses", self.accesses),
            ("llc_misses", self.llc_misses),
            ("slow_reads", self.slow_reads),
            ("slow_writes", self.slow_writes),
            ("fast_reads", self.fast_reads),
            ("fast_writes", self.fast_writes),
            ("slow_tier_accesses", self.slow_tier_accesses()),
            ("promotions", self.kernel.promotions),
            ("demotions", self.kernel.demotions),
            ("ping_pongs", self.kernel.ping_pongs),
            ("promoted_bytes", self.kernel.promoted_bytes.as_u64()),
            ("demoted_bytes", self.kernel.demoted_bytes.as_u64()),
            ("failed_promotions", self.kernel.failed_promotions),
            ("minor_faults", self.kernel.minor_faults),
            ("hint_faults", self.kernel.hint_faults),
            ("migration_time_ns", self.kernel.migration_time.as_nanos()),
            ("tlb_hits", self.tlb.hits),
            ("tlb_misses", self.tlb.misses),
            ("tlb_shootdowns", self.tlb.shootdowns),
            ("cache_accesses", self.cache.accesses),
            ("cache_llc_misses", self.cache.llc_misses),
            ("l1_hits", self.cache.l1.hits),
            ("l1_misses", self.cache.l1.misses),
            ("l2_hits", self.cache.l2.hits),
            ("l2_misses", self.cache.l2.misses),
            ("llc_hits", self.cache.llc.hits),
            ("llc_level_misses", self.cache.llc.misses),
            ("profiling_overhead_ns", self.profiling_overhead.as_nanos()),
            ("promoted_huge_bytes", self.promoted_huge_bytes.as_u64()),
            ("timeline_samples", self.timeline.len() as u64),
            ("markers", self.markers.len() as u64),
        ];
        // Degradation metrics extend the schema only for fault-bearing
        // runs; fault-free result JSON is unchanged byte for byte.
        if let Some(d) = &self.degradation {
            metrics.push(("fault_events", d.fault_events));
            metrics.push(("degraded_time_ns", d.degraded_time.as_nanos()));
            metrics.push(("fault_forced_demotions", d.fault_forced_demotions));
            metrics.push(("degraded_slowdown_milli", d.degraded_slowdown_milli));
            if let Some(ttr) = d.time_to_recover {
                metrics.push(("time_to_recover_ns", ttr.as_nanos()));
            }
        }
        metrics
    }

    /// One-line human-readable summary of the run.
    pub fn summary(&self) -> String {
        format!(
            "{} / {}: runtime {} | {} accesses | {} LLC misses | slow-tier {} | promote {} demote {} ping-pong {}",
            self.workload,
            self.policy,
            self.runtime,
            self.accesses,
            self.llc_misses,
            self.slow_tier_accesses(),
            self.kernel.promotions,
            self.kernel.demotions,
            self.kernel.ping_pongs,
        )
    }

    /// Simulated time between two markers with the given label and
    /// consecutive ids — e.g. one Page-Rank iteration (Fig. 14a).
    pub fn marker_duration(&self, label: &str, id: u32) -> Option<Nanos> {
        let end = self.markers.iter().find(|m| m.label == label && m.id == id)?;
        let start = self
            .markers
            .iter().rfind(|m| m.at < end.at)
            .map(|m| m.at)
            .unwrap_or(Nanos::ZERO);
        Some(end.at - start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> RunReport {
        RunReport {
            workload: "test".into(),
            policy: "none".into(),
            runtime: Nanos::from_secs(2),
            accesses: 1000,
            llc_misses: 100,
            slow_reads: 30,
            slow_writes: 10,
            fast_reads: 50,
            fast_writes: 10,
            kernel: KernelStats::default(),
            tlb: TlbStats::default(),
            cache: HierarchyStats::default(),
            profiling_overhead: Nanos::ZERO,
            promoted_huge_bytes: neomem_types::Bytes::ZERO,
            degradation: None,
            timeline: Vec::new(),
            markers: vec![
                MarkerRecord { at: Nanos::from_millis(100), id: 0, label: "graph-built" },
                MarkerRecord { at: Nanos::from_millis(300), id: 1, label: "iteration" },
                MarkerRecord { at: Nanos::from_millis(600), id: 2, label: "iteration" },
            ],
        }
    }

    #[test]
    fn derived_metrics() {
        let r = report();
        assert_eq!(r.slow_tier_accesses(), 40);
        assert!((r.throughput() - 500.0).abs() < 1e-9);
    }

    #[test]
    fn summary_renders() {
        let r = report();
        let summary = r.summary();
        assert!(summary.contains("test / none"));
        assert!(summary.contains("promote 0"));
    }

    #[test]
    fn scalar_metrics_cover_the_counters_with_unique_names() {
        let r = report();
        let metrics = r.scalar_metrics();
        let mut names: Vec<&str> = metrics.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        let len_before = names.len();
        names.dedup();
        assert_eq!(names.len(), len_before, "duplicate metric names");
        let get = |name: &str| {
            metrics.iter().find(|(n, _)| *n == name).map(|(_, v)| *v).expect("metric present")
        };
        assert_eq!(get("runtime_ns"), Nanos::from_secs(2).as_nanos());
        assert_eq!(get("slow_tier_accesses"), 40);
        assert_eq!(get("markers"), 3);
    }

    #[test]
    fn marker_durations() {
        let r = report();
        assert_eq!(r.marker_duration("iteration", 1), Some(Nanos::from_millis(200)));
        assert_eq!(r.marker_duration("iteration", 2), Some(Nanos::from_millis(300)));
        assert_eq!(r.marker_duration("iteration", 9), None);
    }
}
