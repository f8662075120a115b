//! Deterministic fault-injection timelines.
//!
//! A [`FaultPlan`] is a validated, time-sorted list of [`FaultEvent`]
//! windows scheduled on the *virtual* clock — the same contract as
//! scenario tenant events — so the engines fire every fault edge at a
//! deterministic simulated time and results stay byte-identical at any
//! thread count or batch size.
//!
//! Three fault classes are modeled:
//!
//! - [`FaultKind::NeoProfOutage`] — the CXL-side profiler device goes
//!   dark: the hot-page FIFO stalls, MMIO commands time out and
//!   sampling drops. Policies that depend on the device fall back to a
//!   degraded profiling mode and re-sync on recovery.
//! - [`FaultKind::LinkDegraded`] — the CXL link browns out: slow-tier
//!   latency is multiplied and bandwidth divided for the window.
//! - [`FaultKind::CapacityLoss`] — a range of fast-tier frames is
//!   hot-removed; resident pages are demoted through the normal
//!   migration path (with retry/backoff when the slow tier is
//!   saturated) and the frames return on recovery.
//!
//! An empty plan is the common case and is guaranteed to be a no-op:
//! engines treat it as "no fault deadline", so every existing result
//! stays bit-identical.

use crate::error::{Error, Result};
use crate::time::Nanos;

/// The largest slow-tier latency multiplier and bandwidth divisor a
/// [`FaultKind::LinkDegraded`] window may carry, 2^20. Both scale
/// service times on the virtual clock, so unbounded factors would
/// overflow it.
pub const MAX_LINK_MULTIPLIER: u64 = 1 << 20;

/// What kind of hardware misbehaviour a fault window models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// NeoProf device outage: sampling dropout, FIFO stall, MMIO
    /// command timeouts. Profiler-driven policies degrade to a
    /// fallback profiling mode for the window.
    NeoProfOutage,
    /// CXL link degradation: the slow tier's service latency is
    /// multiplied by `latency_x` and its bandwidth divided by
    /// `bandwidth_div` for the window.
    LinkDegraded {
        /// Slow-tier latency multiplier, in `1..=MAX_LINK_MULTIPLIER`.
        latency_x: u64,
        /// Slow-tier bandwidth divisor, in `1..=MAX_LINK_MULTIPLIER`.
        bandwidth_div: u64,
    },
    /// Fast-tier capacity loss: `frames` frames are hot-removed from
    /// the top of the fast tier for the window, forcing demotion of
    /// any pages resident in them.
    CapacityLoss {
        /// Number of fast-tier frames removed (≥ 1).
        frames: u64,
    },
}

impl FaultKind {
    /// A short stable label for diagnostics and reports.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::NeoProfOutage => "neoprof-outage",
            FaultKind::LinkDegraded { .. } => "link-degraded",
            FaultKind::CapacityLoss { .. } => "capacity-loss",
        }
    }

    /// Same-class check used by overlap validation: two windows of the
    /// same class may not overlap (their edges would be ambiguous),
    /// while windows of different classes may.
    fn same_class(&self, other: &FaultKind) -> bool {
        self.label() == other.label()
    }
}

/// One fault window on the virtual clock: the fault starts at `at` and
/// recovers at `at + duration`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Virtual time the fault begins.
    pub at: Nanos,
    /// Window length; recovery fires at `at + duration`.
    pub duration: Nanos,
    /// The modeled misbehaviour.
    pub kind: FaultKind,
}

impl FaultEvent {
    /// The virtual time the fault recovers.
    pub fn end(&self) -> Nanos {
        Nanos::new(self.at.as_nanos().saturating_add(self.duration.as_nanos()))
    }
}

/// A validated, time-sorted fault timeline.
///
/// Build one with [`FaultPlan::builder`]; the default/empty plan means
/// "healthy machine" and is guaranteed to leave results bit-identical
/// to a build without fault support.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty (healthy-machine) plan.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Starts a fault-plan builder.
    pub fn builder() -> FaultPlanBuilder {
        FaultPlanBuilder { events: Vec::new(), error: None }
    }

    /// `true` when the plan schedules no faults.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of fault windows.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// The fault windows, sorted by start time (ties keep insertion
    /// order).
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }
}

/// Chaining builder for [`FaultPlan`], mirroring the scenario builder:
/// invalid inputs are recorded and reported by [`FaultPlanBuilder::build`],
/// so call chains stay infallible.
#[derive(Debug, Clone)]
pub struct FaultPlanBuilder {
    events: Vec<FaultEvent>,
    error: Option<String>,
}

impl FaultPlanBuilder {
    fn fail(&mut self, message: String) {
        if self.error.is_none() {
            self.error = Some(message);
        }
    }

    fn push(mut self, at: Nanos, duration: Nanos, kind: FaultKind) -> Self {
        if duration.is_zero() {
            self.fail(format!(
                "fault {} at {}ns: duration must be non-zero",
                kind.label(),
                at.as_nanos()
            ));
            return self;
        }
        match kind {
            FaultKind::LinkDegraded { latency_x, bandwidth_div } => {
                let range = 1..=MAX_LINK_MULTIPLIER;
                if !range.contains(&latency_x) || !range.contains(&bandwidth_div) {
                    self.fail(format!(
                        "fault link-degraded at {}ns: latency_x and bandwidth_div must be in \
                         1..={MAX_LINK_MULTIPLIER}",
                        at.as_nanos()
                    ));
                    return self;
                }
                if latency_x == 1 && bandwidth_div == 1 {
                    self.fail(format!(
                        "fault link-degraded at {}ns: latency_x 1 and bandwidth_div 1 \
                         degrade nothing (want at least one > 1)",
                        at.as_nanos()
                    ));
                    return self;
                }
            }
            FaultKind::CapacityLoss { frames } => {
                if frames == 0 {
                    self.fail(format!(
                        "fault capacity-loss at {}ns: frames must be >= 1",
                        at.as_nanos()
                    ));
                    return self;
                }
            }
            FaultKind::NeoProfOutage => {}
        }
        self.events.push(FaultEvent { at, duration, kind });
        self
    }

    /// Schedules a NeoProf device outage window.
    pub fn outage(self, at: Nanos, duration: Nanos) -> Self {
        self.push(at, duration, FaultKind::NeoProfOutage)
    }

    /// Schedules a CXL link-degradation window.
    pub fn link_degraded(
        self,
        at: Nanos,
        duration: Nanos,
        latency_x: u64,
        bandwidth_div: u64,
    ) -> Self {
        self.push(at, duration, FaultKind::LinkDegraded { latency_x, bandwidth_div })
    }

    /// Schedules a fast-tier capacity-loss window.
    pub fn capacity_loss(self, at: Nanos, duration: Nanos, frames: u64) -> Self {
        self.push(at, duration, FaultKind::CapacityLoss { frames })
    }

    /// Validates and finishes the plan: windows are stable-sorted by
    /// start time and same-class windows may not overlap.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] naming the first offending
    /// window.
    pub fn build(self) -> Result<FaultPlan> {
        if let Some(message) = self.error {
            return Err(Error::invalid_config(message));
        }
        let mut events = self.events;
        events.sort_by_key(|e| e.at);
        for (i, a) in events.iter().enumerate() {
            for b in events.iter().skip(i + 1) {
                if a.kind.same_class(&b.kind) && b.at < a.end() {
                    return Err(Error::invalid_config(format!(
                        "fault {} at {}ns overlaps the {} window starting at {}ns \
                         (same-class windows must not overlap)",
                        b.kind.label(),
                        b.at.as_nanos(),
                        a.kind.label(),
                        a.at.as_nanos()
                    )));
                }
            }
        }
        Ok(FaultPlan { events })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_default_and_empty() {
        assert!(FaultPlan::empty().is_empty());
        assert_eq!(FaultPlan::default(), FaultPlan::empty());
        assert_eq!(FaultPlan::builder().build().unwrap(), FaultPlan::empty());
    }

    #[test]
    fn events_sort_by_start_time() {
        let plan = FaultPlan::builder()
            .link_degraded(Nanos::from_millis(4), Nanos::from_millis(1), 4, 2)
            .outage(Nanos::from_millis(1), Nanos::from_millis(2))
            .build()
            .unwrap();
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.events()[0].at, Nanos::from_millis(1));
        assert_eq!(plan.events()[0].kind.label(), "neoprof-outage");
        assert_eq!(plan.events()[1].end(), Nanos::from_millis(5));
    }

    #[test]
    fn zero_duration_is_rejected() {
        let err = FaultPlan::builder()
            .outage(Nanos::from_millis(1), Nanos::new(0))
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("duration must be non-zero"), "{err}");
    }

    #[test]
    fn degenerate_link_multipliers_are_rejected() {
        let over = MAX_LINK_MULTIPLIER + 1;
        for (lx, bd) in [(0, 2), (2, 0), (1, 1), (over, 1), (1, over)] {
            assert!(
                FaultPlan::builder()
                    .link_degraded(Nanos::from_millis(1), Nanos::from_millis(1), lx, bd)
                    .build()
                    .is_err(),
                "latency_x {lx} / bandwidth_div {bd} must be rejected"
            );
        }
    }

    #[test]
    fn zero_frame_capacity_loss_is_rejected() {
        assert!(FaultPlan::builder()
            .capacity_loss(Nanos::from_millis(1), Nanos::from_millis(1), 0)
            .build()
            .is_err());
    }

    #[test]
    fn same_class_overlap_is_rejected_cross_class_allowed() {
        let err = FaultPlan::builder()
            .outage(Nanos::from_millis(1), Nanos::from_millis(4))
            .outage(Nanos::from_millis(3), Nanos::from_millis(1))
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("overlaps"), "{err}");
        // Different classes may overlap: a link brownout during an
        // outage is a legitimate compound scenario.
        assert!(FaultPlan::builder()
            .outage(Nanos::from_millis(1), Nanos::from_millis(4))
            .link_degraded(Nanos::from_millis(2), Nanos::from_millis(1), 3, 1)
            .build()
            .is_ok());
    }

    #[test]
    fn back_to_back_windows_do_not_overlap() {
        // A flap: recovery at t=2ms, next outage starting exactly there.
        assert!(FaultPlan::builder()
            .outage(Nanos::from_millis(1), Nanos::from_millis(1))
            .outage(Nanos::from_millis(2), Nanos::from_millis(1))
            .build()
            .is_ok());
    }
}
