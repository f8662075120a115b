//! Memory-tiering policies (paper §V and §VI-A "Baselines").
//!
//! A [`TieringPolicy`] owns a profiling mechanism and drives promotion /
//! demotion through the simulated kernel. The simulator feeds it every
//! access (so mechanisms with per-access visibility can sample) and
//! calls [`TieringPolicy::maybe_tick`] periodically; each policy manages
//! its own cadences internally (migration interval, threshold updates,
//! scan rates — Table V).
//!
//! Implementations:
//!
//! * [`NeoMemPolicy`] — the paper's contribution: NeoProf readouts +
//!   Algorithm 1 dynamic-threshold adjustment.
//! * [`PebsPolicy`] — PMU-sampling promotion (the `PEBS` baseline).
//! * [`MemtisPolicy`] — Memtis-style PEBS + distribution-based hot-set
//!   classification (Fig. 17).
//! * [`HintFaultPolicy`] — TPP and AutoNUMA (two-touch hint faults).
//! * [`PteScanPolicy`] — epoch PTE scanning.
//! * [`FirstTouchPolicy`] — allocation-only, optionally pinned to one
//!   tier (Fig. 3b characterisation).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dispatch;
mod first_touch;
mod hint_fault;
mod neomem;
mod pebs;
mod pte_scan;
mod quota;
mod tenancy;

pub use dispatch::PolicyBox;
pub use first_touch::FirstTouchPolicy;
pub use hint_fault::{HintFaultPolicy, HintFaultPolicyConfig, HintFaultStyle};
pub use neomem::{NeoMemParams, NeoMemPolicy, ThresholdMode};
pub use pebs::{MemtisPolicy, PebsPolicy, PebsPolicyConfig};
pub use pte_scan::{PteScanPolicy, PteScanPolicyConfig};
pub use quota::QuotaMeter;
pub use tenancy::TenantLayout;

use neomem_kernel::Kernel;
use neomem_profilers::AccessEvent;
use neomem_types::json::{hex_from_u64s, Json};
use neomem_types::{Error, Nanos, Result, Tier, VirtPage};

/// Telemetry a policy can expose for timeline figures (Fig. 14).
#[derive(Debug, Clone, Default)]
pub struct PolicyTelemetry {
    /// Current hot-page threshold θ.
    pub threshold: Option<u16>,
    /// Current top-`p` fraction of Algorithm 1.
    pub p_fraction: Option<f64>,
    /// Slow-tier bandwidth utilisation `B` of the last window.
    pub bandwidth_util: Option<f64>,
    /// Read-only utilisation of the last window.
    pub read_util: Option<f64>,
    /// Write-only utilisation of the last window.
    pub write_util: Option<f64>,
    /// Estimated sketch error bound `E`.
    pub error_bound: Option<u16>,
    /// Latest access-frequency histogram bins.
    pub histogram: Option<[u64; 64]>,
    /// Cumulative CPU time consumed by profiling + daemon work.
    pub profiling_overhead: Nanos,
    /// Bytes promoted through whole-huge-page migrations (Table VI).
    pub promoted_huge_bytes: neomem_types::Bytes,
}

impl PolicyTelemetry {
    /// Serialises the telemetry block for a machine snapshot. Floats
    /// travel as IEEE-754 bit patterns so restore is bit-exact.
    /// `profiling_overhead` and `promoted_huge_bytes` are derived from
    /// live policy counters by [`TieringPolicy::telemetry`] and are
    /// therefore not serialised.
    pub fn snapshot(&self) -> Json {
        fn opt(v: Option<u64>) -> Json {
            v.map_or(Json::Null, Json::U64)
        }
        Json::obj([
            ("threshold", opt(self.threshold.map(u64::from))),
            ("p_fraction", opt(self.p_fraction.map(f64::to_bits))),
            ("bandwidth_util", opt(self.bandwidth_util.map(f64::to_bits))),
            ("read_util", opt(self.read_util.map(f64::to_bits))),
            ("write_util", opt(self.write_util.map(f64::to_bits))),
            ("error_bound", opt(self.error_bound.map(u64::from))),
            (
                "histogram",
                self.histogram.as_ref().map_or(Json::Null, |h| Json::Str(hex_from_u64s(h))),
            ),
        ])
    }

    /// Rebuilds [`PolicyTelemetry::snapshot`] output.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Snapshot`] on missing/malformed fields or a
    /// histogram that is not exactly 64 bins.
    pub fn from_snapshot(snap: &Json) -> Result<Self> {
        fn opt_u64(snap: &Json, key: &str) -> Result<Option<u64>> {
            match snap.req(key)? {
                Json::Null => Ok(None),
                other => other.as_u64().map(Some).ok_or_else(|| {
                    Error::snapshot(format!(
                        "field '{key}': expected unsigned integer or null, found {}",
                        other.type_name()
                    ))
                }),
            }
        }
        fn opt_u16(snap: &Json, key: &str) -> Result<Option<u16>> {
            opt_u64(snap, key)?
                .map(|v| {
                    u16::try_from(v)
                        .map_err(|_| Error::snapshot(format!("field '{key}': {v} exceeds u16")))
                })
                .transpose()
        }
        let histogram = match snap.req("histogram")? {
            Json::Null => None,
            _ => {
                let bins = snap.req_u64s("histogram")?;
                let arr: [u64; 64] = bins.as_slice().try_into().map_err(|_| {
                    Error::snapshot(format!("histogram has {} bins, expected 64", bins.len()))
                })?;
                Some(arr)
            }
        };
        Ok(Self {
            threshold: opt_u16(snap, "threshold")?,
            p_fraction: opt_u64(snap, "p_fraction")?.map(f64::from_bits),
            bandwidth_util: opt_u64(snap, "bandwidth_util")?.map(f64::from_bits),
            read_util: opt_u64(snap, "read_util")?.map(f64::from_bits),
            write_util: opt_u64(snap, "write_util")?.map(f64::from_bits),
            error_bound: opt_u16(snap, "error_bound")?,
            histogram,
            profiling_overhead: Nanos::ZERO,
            promoted_huge_bytes: neomem_types::Bytes::ZERO,
        })
    }
}

/// A complete tiering solution.
pub trait TieringPolicy {
    /// Solution name as used in the figures.
    fn name(&self) -> &'static str;

    /// Preferred tier for first-touch allocation (pinned baselines
    /// override this).
    fn alloc_preference(&self) -> Tier {
        Tier::Fast
    }

    /// Per-access hook. Returns CPU time charged inline (fault service,
    /// sample capture, in-fault promotion, ...).
    fn on_access(&mut self, ev: &AccessEvent, kernel: &mut Kernel) -> Nanos;

    /// Called frequently by the simulator; the policy checks its own
    /// deadlines against `now` and performs due work. Returns the CPU +
    /// migration time charged.
    fn maybe_tick(&mut self, kernel: &mut Kernel, now: Nanos) -> Nanos;

    /// Drains TLB shootdowns the policy requested (PTE poisoning,
    /// migrations already shot down by the kernel are *not* repeated
    /// here) by appending them to `out`, the simulator's reusable
    /// buffer — the drain itself must not allocate on the policy side.
    /// The simulator applies the pages to its TLB model and clears the
    /// buffer between ticks. Default: no shootdowns.
    fn drain_shootdowns_into(&mut self, out: &mut Vec<VirtPage>) {
        let _ = out;
    }

    /// Current telemetry snapshot.
    fn telemetry(&self) -> PolicyTelemetry {
        PolicyTelemetry::default()
    }

    /// Informs the policy that it arbitrates a multi-tenant machine.
    ///
    /// The co-run engine calls this once, before the run starts, with
    /// the tenant base offsets and weights. Tenant-aware policies use
    /// the layout for per-tenant migration-quota accounting and
    /// fast-tier fairness; the default ignores it, so every policy
    /// keeps its single-tenant behaviour bit-identical when the hook is
    /// never called.
    fn configure_tenants(&mut self, layout: &TenantLayout) {
        let _ = layout;
    }

    /// Informs the policy that a tenant just started running (dynamic
    /// scenarios: the tenant was part of the configured layout but idle
    /// until now). Called at the slice boundary where the arrival takes
    /// effect, before the tenant's first slice. Default: no-op, so
    /// static co-runs and single-tenant runs are untouched.
    fn on_tenant_arrival(&mut self, tenant: usize) {
        let _ = tenant;
    }

    /// Informs the policy that a tenant stopped running. The engine
    /// reclaims the tenant's fast-tier pages through the normal
    /// eviction path right after this call; policies drop any
    /// per-tenant soft state (aggression scores, cached counts) here.
    /// Default: no-op.
    fn on_tenant_departure(&mut self, tenant: usize) {
        let _ = tenant;
    }

    /// Feeds the co-run engine's cross-tenant-eviction signal to the
    /// policy: while `aggressor`'s slice ran, other tenants lost
    /// `pages` of net fast-tier occupancy. Called at slice boundaries
    /// with `pages > 0` only. Contention-aware policies use it to
    /// throttle the aggressor's promotion quota; the default ignores
    /// it, keeping every existing policy bit-identical.
    fn note_cross_tenant_evictions(&mut self, aggressor: usize, pages: u64) {
        let _ = (aggressor, pages);
    }

    /// Informs the policy that a fault window just opened on the
    /// machine (the injector fires this at the event's virtual-clock
    /// deadline, before the affected hardware state changes take
    /// effect for the next access). Policies that depend on the faulted
    /// component switch to a degraded mode here — e.g. NeoMem falls
    /// back to PTE-scan profiling during a NeoProf outage. Returns the
    /// CPU time charged for the switch. Default: no-op, so runs without
    /// a fault plan are bit-identical to the pre-fault-layer engine.
    fn on_fault(&mut self, fault: &neomem_types::FaultKind, kernel: &mut Kernel, now: Nanos) -> Nanos {
        let _ = (fault, kernel, now);
        Nanos::ZERO
    }

    /// Informs the policy that a fault window just closed. Policies
    /// re-sync with the recovered component here — e.g. NeoMem resets
    /// the NeoProf device and re-arms its threshold. Returns the CPU
    /// time charged for the resync. Default: no-op.
    fn on_recovery(&mut self, fault: &neomem_types::FaultKind, kernel: &mut Kernel, now: Nanos) -> Nanos {
        let _ = (fault, kernel, now);
        Nanos::ZERO
    }

    /// Serialises the policy's mutable state for a machine snapshot.
    /// Stateless policies keep the default, [`Json::Null`]. Stateful
    /// policies must serialise *everything* that influences future
    /// decisions — snapshot→restore→run must be bit-identical to an
    /// uninterrupted run.
    fn snapshot_state(&self) -> Json {
        Json::Null
    }

    /// Restores [`TieringPolicy::snapshot_state`] output onto a policy
    /// built with the same configuration. The default accepts only
    /// [`Json::Null`]: restoring a stateful snapshot onto a stateless
    /// policy is a configuration mismatch, not data to ignore.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Snapshot`] on state the policy cannot absorb.
    fn restore_state(&mut self, state: &Json) -> Result<()> {
        match state {
            Json::Null => Ok(()),
            _ => Err(Error::snapshot(format!(
                "policy {} carries no restorable state, but the snapshot has some",
                self.name()
            ))),
        }
    }
}

/// Keeps a headroom of free fast-tier frames by demoting LRU-cold pages
/// (the paper's cold-page detection, Fig. 5 ❻). Returns the time
/// charged. Shared by every promoting policy — Linux reclaim does the
/// same through the demotion path.
pub(crate) fn ensure_fast_headroom(kernel: &mut Kernel, frac: f64, now: Nanos) -> Nanos {
    let alloc = kernel.memory().allocator(Tier::Fast);
    // Headroom targets the *usable* window so a capacity-loss fault
    // shrinks the goal instead of demoting the whole tier chasing
    // frames that no longer exist. Identical to capacity() when healthy.
    let want = ((alloc.usable_capacity() as f64 * frac) as u64).max(1);
    let free = alloc.free_frames();
    if free >= want {
        return Nanos::ZERO;
    }
    kernel.demote_coldest((want - free) as usize, now).1
}

/// The solutions compared in Fig. 11, plus auxiliary baselines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// The paper's solution.
    NeoMem,
    /// NeoMem hardware with a fixed threshold (Fig. 14a ablation).
    NeoMemFixed(u16),
    /// NeoMem with contention-aware promotion throttling: aggressors —
    /// tenants whose slices evict co-runners' fast-tier pages — pay a
    /// quota penalty proportional to the cross-tenant-eviction signal.
    /// Only meaningful on co-run machines; single-tenant behaviour is
    /// identical to [`PolicyKind::NeoMem`].
    NeoMemContentionAware,
    /// PMU-sampling baseline.
    Pebs,
    /// Memtis (Fig. 17).
    Memtis,
    /// PTE-scan baseline.
    PteScan,
    /// AutoNUMA (Linux 6.3).
    AutoNuma,
    /// TPP.
    Tpp,
    /// First-touch NUMA (no migration).
    FirstTouch,
    /// All pages forced to the fast tier (Fig. 3 characterisation).
    PinnedFast,
    /// All pages forced to the slow tier (Fig. 3 characterisation).
    PinnedSlow,
}

impl PolicyKind {
    /// The figure label.
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::NeoMem => "NeoMem",
            PolicyKind::NeoMemFixed(_) => "NeoMem-fixed",
            PolicyKind::NeoMemContentionAware => "NeoMem-CA",
            PolicyKind::Pebs => "PEBS",
            PolicyKind::Memtis => "Memtis",
            PolicyKind::PteScan => "PTE-Scan",
            PolicyKind::AutoNuma => "AutoNUMA",
            PolicyKind::Tpp => "TPP",
            PolicyKind::FirstTouch => "First-touch NUMA",
            PolicyKind::PinnedFast => "Local-only",
            PolicyKind::PinnedSlow => "CXL-only",
        }
    }

    /// The six solutions of Fig. 11, in the paper's legend order.
    pub const FIG11: [PolicyKind; 6] = [
        PolicyKind::NeoMem,
        PolicyKind::Pebs,
        PolicyKind::PteScan,
        PolicyKind::AutoNuma,
        PolicyKind::Tpp,
        PolicyKind::FirstTouch,
    ];
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neomem_kernel::KernelConfig;

    #[test]
    fn headroom_demotes_cold_pages() {
        let mut k = Kernel::new(KernelConfig::with_frames(4, 8));
        for p in 0..4 {
            k.touch_alloc(VirtPage::new(p), Nanos::ZERO).unwrap();
        }
        assert_eq!(k.memory().allocator(Tier::Fast).free_frames(), 0);
        let t = ensure_fast_headroom(&mut k, 0.5, Nanos::ZERO);
        assert!(t > Nanos::ZERO);
        assert!(k.memory().allocator(Tier::Fast).free_frames() >= 2);
    }

    #[test]
    fn headroom_noop_when_free() {
        let mut k = Kernel::new(KernelConfig::with_frames(4, 8));
        k.touch_alloc(VirtPage::new(0), Nanos::ZERO).unwrap();
        assert_eq!(ensure_fast_headroom(&mut k, 0.25, Nanos::ZERO), Nanos::ZERO);
    }

    #[test]
    fn labels_and_fig11_roster() {
        assert_eq!(PolicyKind::FIG11.len(), 6);
        assert_eq!(PolicyKind::NeoMem.label(), "NeoMem");
        assert_eq!(PolicyKind::FirstTouch.to_string(), "First-touch NUMA");
    }
}
