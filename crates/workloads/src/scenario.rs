//! Dynamic-tenancy scenarios: tenant arrival/departure timelines and
//! phased workloads.
//!
//! A [`TenantMix`] describes *who* shares the machine; a [`Scenario`]
//! additionally describes *when*. It wraps a mix (every tenant that
//! ever exists, so the address-space layout is fixed for the whole run)
//! with a validated, time-sorted list of [`TenantEvent`]s — arrivals,
//! departures and weight changes at virtual-time points — plus optional
//! per-tenant phase schedules ([`PhasedWorkload`]) that switch a
//! tenant's generator kind/working-set at deterministic event-count
//! boundaries.
//!
//! The co-run engine (`neomem_sim`) schedules every co-run from a
//! scenario: tenants whose first event is an
//! [`TenantEventKind::Arrive`] start idle and are admitted at their
//! arrival time; departed tenants have their fast-tier pages reclaimed
//! through the normal eviction path. A fixed mix runs as the scenario
//! with no events and no phases ([`Scenario::steady`]): every tenant
//! active from time zero, in a weighted round-robin.

use neomem_types::{FaultPlan, Nanos};

use crate::{Marker, TenantMix, Workload, WorkloadEvent, WorkloadKind, MIN_RSS_PAGES};

/// What happens to a tenant at a [`TenantEvent`]'s timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantEventKind {
    /// The tenant starts running. A tenant whose *first* event is an
    /// arrival is idle from time zero until then.
    Arrive,
    /// The tenant stops running; its fast-tier pages are reclaimed
    /// through the normal eviction (demotion) path.
    Depart,
    /// The tenant's interleave weight changes to the given value.
    SetWeight(u32),
}

/// One point of a scenario timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantEvent {
    /// Virtual time at which the event takes effect (applied at the
    /// first slice boundary at or after this instant).
    pub at: Nanos,
    /// Index of the tenant in the scenario's mix.
    pub tenant: usize,
    /// What happens.
    pub kind: TenantEventKind,
}

/// One phase of a [`PhasedWorkload`]: a generator kind, its working
/// set, and how many events the phase lasts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseSpec {
    /// Generator run during the phase.
    pub kind: WorkloadKind,
    /// The phase's working set in 4 KiB pages (≤ the tenant's declared
    /// footprint — phases live inside the tenant's address-space slot).
    pub rss_pages: u64,
    /// Events the phase emits before the next phase starts.
    pub events: u64,
}

/// A workload that cycles through [`PhaseSpec`]s, switching generator
/// kind and working set at deterministic event-count boundaries.
///
/// Each boundary emits one [`WorkloadEvent::Marker`] (label
/// `"phase-shift"`, id = number of completed phases) and then rebuilds
/// the next phase's generator with a seed derived from the base seed
/// and the phase-entry ordinal — so re-entering a phase on a later
/// cycle produces a fresh, decorrelated stream while the whole
/// composite stays a pure function of `(phases, seed)`.
///
/// The [`Workload::fill_events`] override pulls whole within-phase runs
/// through the inner generator's own batched path, so the batch
/// contract (bit-identical to `n` successive
/// [`Workload::next_event`] calls) holds across phase edges.
///
/// ```
/// use neomem_workloads::{PhaseSpec, PhasedWorkload, Workload, WorkloadKind};
///
/// let phases = vec![
///     PhaseSpec { kind: WorkloadKind::Gups, rss_pages: 1024, events: 5_000 },
///     PhaseSpec { kind: WorkloadKind::Silo, rss_pages: 512, events: 5_000 },
/// ];
/// let mut w = PhasedWorkload::new(phases, 1024, 7).expect("valid phases");
/// assert_eq!(w.rss_pages(), 1024);
/// // The stream switches from GUPS-shaped to Silo-shaped after 5 000
/// // events, announced by a phase-shift marker.
/// let mut saw_marker = false;
/// for _ in 0..5_001 {
///     if let neomem_workloads::WorkloadEvent::Marker(m) = w.next_event() {
///         saw_marker |= m.label == "phase-shift";
///     }
/// }
/// assert!(saw_marker);
/// ```
pub struct PhasedWorkload {
    phases: Vec<PhaseSpec>,
    rss_pages: u64,
    seed: u64,
    /// Index into `phases` of the running phase.
    current: usize,
    /// Events the running phase has emitted so far.
    produced: u64,
    /// Total phase entries so far (seeds later cycles and ids markers).
    entries: u32,
    inner: Box<dyn Workload>,
}

impl std::fmt::Debug for PhasedWorkload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PhasedWorkload")
            .field("phases", &self.phases)
            .field("rss_pages", &self.rss_pages)
            .field("seed", &self.seed)
            .field("current", &self.current)
            .field("produced", &self.produced)
            .field("entries", &self.entries)
            .finish_non_exhaustive()
    }
}

/// SplitMix64 finalizer — decorrelates per-phase-entry seeds.
fn mix_seed(seed: u64, entry: u64) -> u64 {
    let mut z = seed ^ entry.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl PhasedWorkload {
    /// Builds the composite over `phases`, with `rss_pages` as the
    /// declared footprint (the tenant's address-space slot).
    ///
    /// # Errors
    ///
    /// Returns a message when `phases` is empty, any phase has zero
    /// events or a working set below [`MIN_RSS_PAGES`], or a phase's
    /// working set exceeds `rss_pages`.
    pub fn new(phases: Vec<PhaseSpec>, rss_pages: u64, seed: u64) -> Result<Self, String> {
        if phases.is_empty() {
            return Err("a phased workload needs at least one phase".into());
        }
        for (i, phase) in phases.iter().enumerate() {
            if phase.events == 0 {
                return Err(format!("phase {i} ({}) has zero events", phase.kind.label()));
            }
            if phase.rss_pages < MIN_RSS_PAGES {
                return Err(format!(
                    "phase {i} ({}) has a working set of {} pages, below the minimum of \
                     {MIN_RSS_PAGES}",
                    phase.kind.label(),
                    phase.rss_pages
                ));
            }
            if phase.rss_pages > rss_pages {
                return Err(format!(
                    "phase {i} ({}) working set {} exceeds the declared footprint {}",
                    phase.kind.label(),
                    phase.rss_pages,
                    rss_pages
                ));
            }
        }
        let inner = phases[0].kind.build(phases[0].rss_pages, mix_seed(seed, 0));
        Ok(Self { phases, rss_pages, seed, current: 0, produced: 0, entries: 0, inner })
    }

    /// The phase schedule.
    pub fn phases(&self) -> &[PhaseSpec] {
        &self.phases
    }

    /// Advances to the next phase (cyclic) and rebuilds its generator.
    fn switch(&mut self) -> Marker {
        self.entries += 1;
        self.current = (self.current + 1) % self.phases.len();
        self.produced = 0;
        let phase = self.phases[self.current];
        self.inner = phase.kind.build(phase.rss_pages, mix_seed(self.seed, self.entries as u64));
        Marker { id: self.entries, label: "phase-shift" }
    }
}

impl Workload for PhasedWorkload {
    fn name(&self) -> &'static str {
        "Phased"
    }

    fn rss_pages(&self) -> u64 {
        self.rss_pages
    }

    fn next_event(&mut self) -> WorkloadEvent {
        if self.produced == self.phases[self.current].events {
            return WorkloadEvent::Marker(self.switch());
        }
        self.produced += 1;
        self.inner.next_event()
    }

    fn fill_events(&mut self, buf: &mut Vec<WorkloadEvent>, n: usize) {
        // Within-phase runs go through the inner generator's own
        // batched path; boundaries interleave the phase-shift marker at
        // exactly the position `next_event` would emit it.
        buf.reserve(n);
        let mut remaining = n as u64;
        while remaining > 0 {
            let left_in_phase = self.phases[self.current].events - self.produced;
            if left_in_phase == 0 {
                let marker = self.switch();
                buf.push(WorkloadEvent::Marker(marker));
                remaining -= 1;
                continue;
            }
            let take = remaining.min(left_in_phase);
            self.inner.fill_events(buf, take as usize);
            self.produced += take;
            remaining -= take;
        }
    }
}

/// A dynamic-tenancy timeline over a [`TenantMix`].
///
/// Build one with [`Scenario::builder`]:
///
/// ```
/// use neomem_types::Nanos;
/// use neomem_workloads::{Scenario, TenantMix, WorkloadKind};
///
/// let mix = TenantMix::builder()
///     .tenant(WorkloadKind::Silo, 2048, 7)
///     .tenant(WorkloadKind::Gups, 2048, 8)
///     .build()
///     .expect("valid mix");
/// // Tenant 1 arrives 5 ms in and departs at 20 ms.
/// let scenario = Scenario::builder(mix)
///     .arrive(1, Nanos::from_millis(5))
///     .depart(1, Nanos::from_millis(20))
///     .build()
///     .expect("valid scenario");
/// assert_eq!(scenario.initially_active(), vec![true, false]);
/// assert_eq!(scenario.arrivals(), 1);
/// assert_eq!(scenario.departures(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Scenario {
    mix: TenantMix,
    /// Sorted by `at` (stable: ties keep insertion order).
    events: Vec<TenantEvent>,
    /// Per-tenant phase schedule; `None` = the mix's plain generator.
    phases: Vec<Option<Vec<PhaseSpec>>>,
    /// Machine faults injected during the run; empty = healthy machine
    /// (bit-identical to a scenario without fault support).
    faults: FaultPlan,
}

impl Scenario {
    /// Starts a scenario over `mix` with no events and no phases.
    pub fn builder(mix: TenantMix) -> ScenarioBuilder {
        let tenants = mix.len();
        ScenarioBuilder {
            mix,
            events: Vec::new(),
            phases: vec![None; tenants],
            faults: FaultPlan::empty(),
            error: None,
        }
    }

    /// A scenario with no events and no phases: every tenant of `mix`
    /// runs from time zero in the co-run engine's weighted round-robin.
    /// A fixed-mix co-run is this scenario.
    pub fn steady(mix: TenantMix) -> Self {
        Self::builder(mix).build().expect("event-free scenarios are always valid")
    }

    /// The underlying mix (every tenant that ever exists).
    pub fn mix(&self) -> &TenantMix {
        &self.mix
    }

    /// The timeline, sorted by time.
    pub fn events(&self) -> &[TenantEvent] {
        &self.events
    }

    /// The per-tenant phase schedules, in mix order.
    pub fn phases(&self) -> &[Option<Vec<PhaseSpec>>] {
        &self.phases
    }

    /// The machine-fault timeline injected during the run (empty for a
    /// healthy machine).
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// Which tenants run from time zero: everyone except tenants whose
    /// first event is an [`TenantEventKind::Arrive`].
    pub fn initially_active(&self) -> Vec<bool> {
        let mut active = vec![true; self.mix.len()];
        let mut seen = vec![false; self.mix.len()];
        for event in &self.events {
            if !seen[event.tenant] {
                seen[event.tenant] = true;
                if event.kind == TenantEventKind::Arrive {
                    active[event.tenant] = false;
                }
            }
        }
        active
    }

    /// Number of arrival events.
    pub fn arrivals(&self) -> usize {
        self.events.iter().filter(|e| e.kind == TenantEventKind::Arrive).count()
    }

    /// Number of departure events.
    pub fn departures(&self) -> usize {
        self.events.iter().filter(|e| e.kind == TenantEventKind::Depart).count()
    }

    /// Number of weight-change events.
    pub fn weight_changes(&self) -> usize {
        self.events.iter().filter(|e| matches!(e.kind, TenantEventKind::SetWeight(_))).count()
    }

    /// Builds tenant `i`'s generator: its phase schedule when one is
    /// set, the mix's plain generator otherwise.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range — scenario construction
    /// validates every referenced tenant index.
    pub fn build_workload(&self, i: usize) -> Box<dyn Workload> {
        let spec = self.mix.tenants()[i];
        match &self.phases[i] {
            Some(phases) => Box::new(
                PhasedWorkload::new(phases.clone(), spec.rss_pages, spec.seed)
                    .expect("phases validated at scenario build"),
            ),
            None => spec.kind.build(spec.rss_pages, spec.seed),
        }
    }

    /// A copy with every tenant seed re-derived from `base_seed`
    /// (tenant `i` gets `base_seed + i`), mirroring
    /// [`TenantMix::reseeded`] so experiment grids can put scenarios on
    /// a seed axis. Events and phase schedules are unchanged.
    pub fn reseeded(&self, base_seed: u64) -> Self {
        Self {
            mix: self.mix.reseeded(base_seed),
            events: self.events.clone(),
            phases: self.phases.clone(),
            faults: self.faults.clone(),
        }
    }

    /// A compact label: the mix label plus the event count, e.g.
    /// `GUPS+Silo@3ev`.
    pub fn label(&self) -> String {
        let mut label = if self.events.is_empty() {
            self.mix.label()
        } else {
            format!("{}@{}ev", self.mix.label(), self.events.len())
        };
        if !self.faults.is_empty() {
            label.push_str(&format!("+{}flt", self.faults.len()));
        }
        label
    }
}

/// Builder for [`Scenario`].
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    mix: TenantMix,
    events: Vec<TenantEvent>,
    phases: Vec<Option<Vec<PhaseSpec>>>,
    faults: FaultPlan,
    /// First violation hit by an infallible builder method; reported
    /// by [`ScenarioBuilder::build`].
    error: Option<String>,
}

impl ScenarioBuilder {
    /// Schedules tenant `tenant` to arrive at `at`. A tenant whose
    /// first event is an arrival is idle from time zero.
    pub fn arrive(self, tenant: usize, at: Nanos) -> Self {
        self.event(TenantEvent { at, tenant, kind: TenantEventKind::Arrive })
    }

    /// Schedules tenant `tenant` to depart at `at`.
    pub fn depart(self, tenant: usize, at: Nanos) -> Self {
        self.event(TenantEvent { at, tenant, kind: TenantEventKind::Depart })
    }

    /// Schedules tenant `tenant`'s interleave weight to change to
    /// `weight` at `at`.
    pub fn set_weight(self, tenant: usize, at: Nanos, weight: u32) -> Self {
        self.event(TenantEvent { at, tenant, kind: TenantEventKind::SetWeight(weight) })
    }

    /// Adds a fully specified event.
    pub fn event(mut self, event: TenantEvent) -> Self {
        self.events.push(event);
        self
    }

    /// Injects a machine-fault timeline (see
    /// [`neomem_types::FaultPlan`]) into the run. Replaces any plan set
    /// earlier. The plan is validated by its own builder; scenarios
    /// accept it as-is.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Gives tenant `tenant` a phase schedule (see [`PhasedWorkload`]).
    /// Replaces any schedule set earlier for the same tenant.
    pub fn phased(mut self, tenant: usize, phases: Vec<PhaseSpec>) -> Self {
        if tenant < self.phases.len() {
            self.phases[tenant] = Some(phases);
        } else if self.error.is_none() {
            // Remember the violation; build() reports it (the builder
            // itself stays infallible for chaining).
            self.error = Some(format!(
                "phase schedule references tenant {tenant} of a {}-tenant mix",
                self.phases.len()
            ));
        }
        self
    }

    /// Validates, sorts and builds the scenario.
    ///
    /// Events are stably sorted by time (ties keep insertion order).
    /// Validation rules:
    ///
    /// * every event's tenant index is in range;
    /// * weight changes set a non-zero weight;
    /// * per tenant, arrivals and departures alternate: a tenant whose
    ///   first event is an arrival starts idle, everyone else starts
    ///   active; departures require the tenant to be active, arrivals
    ///   require it idle;
    /// * phase schedules are non-empty, with non-zero event counts and
    ///   working sets that fit the tenant's declared footprint.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first violation.
    pub fn build(mut self) -> Result<Scenario, String> {
        if let Some(error) = self.error {
            return Err(error);
        }
        let tenants = self.mix.len();
        for event in &self.events {
            if event.tenant >= tenants {
                return Err(format!(
                    "event at {} references tenant {} of a {}-tenant mix",
                    event.at, event.tenant, tenants
                ));
            }
            if let TenantEventKind::SetWeight(w) = event.kind {
                if w == 0 {
                    return Err(format!(
                        "event at {} sets tenant {}'s weight to zero",
                        event.at, event.tenant
                    ));
                }
            }
        }
        self.events.sort_by_key(|e| e.at);
        // Arrival/departure alternation per tenant.
        let mut active = vec![true; tenants];
        let mut seen = vec![false; tenants];
        for event in &self.events {
            let t = event.tenant;
            if !seen[t] {
                seen[t] = true;
                if event.kind == TenantEventKind::Arrive {
                    active[t] = false;
                }
            }
            match event.kind {
                TenantEventKind::Arrive => {
                    if active[t] {
                        return Err(format!(
                            "tenant {t} arrives at {} while already running",
                            event.at
                        ));
                    }
                    active[t] = true;
                }
                TenantEventKind::Depart => {
                    if !active[t] {
                        return Err(format!(
                            "tenant {t} departs at {} while not running",
                            event.at
                        ));
                    }
                    active[t] = false;
                }
                TenantEventKind::SetWeight(_) => {}
            }
        }
        // Phase schedules: validate through the PhasedWorkload
        // constructor so the rules can never diverge.
        for (i, phases) in self.phases.iter().enumerate() {
            if let Some(phases) = phases {
                let spec = self.mix.tenants()[i];
                PhasedWorkload::new(phases.clone(), spec.rss_pages, spec.seed)
                    .map_err(|e| format!("tenant {i} phase schedule: {e}"))?;
            }
        }
        Ok(Scenario {
            mix: self.mix,
            events: self.events,
            phases: self.phases,
            faults: self.faults,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix_2() -> TenantMix {
        TenantMix::builder()
            .tenant(WorkloadKind::Gups, 1024, 3)
            .tenant(WorkloadKind::Silo, 1024, 5)
            .build()
            .unwrap()
    }

    #[test]
    fn steady_scenario_has_no_events_and_everyone_active() {
        let s = Scenario::steady(mix_2());
        assert!(s.events().is_empty());
        assert_eq!(s.initially_active(), vec![true, true]);
        assert_eq!(s.label(), "GUPS+Silo");
        assert_eq!((s.arrivals(), s.departures(), s.weight_changes()), (0, 0, 0));
    }

    #[test]
    fn events_sort_stably_by_time() {
        let s = Scenario::builder(mix_2())
            .depart(1, Nanos::from_millis(9))
            .set_weight(0, Nanos::from_millis(3), 4)
            .arrive(1, Nanos::from_millis(3))
            .build()
            .unwrap();
        let times: Vec<_> = s.events().iter().map(|e| e.at).collect();
        assert_eq!(times, vec![Nanos::from_millis(3), Nanos::from_millis(3), Nanos::from_millis(9)]);
        // Stable: the weight change was inserted before the arrival.
        assert_eq!(s.events()[0].kind, TenantEventKind::SetWeight(4));
        assert_eq!(s.events()[1].kind, TenantEventKind::Arrive);
        // Tenant 1's first event is that arrival, so it starts idle.
        assert_eq!(s.initially_active(), vec![true, false]);
        assert_eq!(s.label(), "GUPS+Silo@3ev");
    }

    #[test]
    fn alternation_and_ranges_validated() {
        let at = Nanos::from_millis(1);
        let later = Nanos::from_millis(2);
        assert!(
            Scenario::builder(mix_2()).depart(5, at).build().is_err(),
            "tenant index out of range"
        );
        assert!(
            Scenario::builder(mix_2()).set_weight(0, at, 0).build().is_err(),
            "zero weight"
        );
        assert!(
            Scenario::builder(mix_2()).depart(0, at).depart(0, later).build().is_err(),
            "double departure"
        );
        // An initially-active tenant can depart and re-arrive.
        assert!(Scenario::builder(mix_2())
            .depart(0, at)
            .arrive(0, later)
            .build()
            .is_ok());
    }

    #[test]
    fn arrive_first_means_initially_idle_and_is_valid() {
        let s = Scenario::builder(mix_2()).arrive(1, Nanos::from_millis(4)).build().unwrap();
        assert_eq!(s.initially_active(), vec![true, false]);
        // A second arrival without a departure in between is invalid.
        assert!(Scenario::builder(mix_2())
            .arrive(1, Nanos::from_millis(4))
            .arrive(1, Nanos::from_millis(8))
            .build()
            .is_err());
    }

    #[test]
    fn reseeded_keeps_timeline_and_phases() {
        let s = Scenario::builder(mix_2())
            .depart(1, Nanos::from_millis(7))
            .phased(
                0,
                vec![PhaseSpec { kind: WorkloadKind::Gups, rss_pages: 512, events: 100 }],
            )
            .build()
            .unwrap()
            .reseeded(100);
        assert_eq!(s.mix().tenants()[0].seed, 100);
        assert_eq!(s.mix().tenants()[1].seed, 101);
        assert_eq!(s.events().len(), 1);
        assert!(s.phases()[0].is_some());
    }

    #[test]
    fn fault_plan_rides_along_and_marks_the_label() {
        let plan = FaultPlan::builder()
            .outage(Nanos::from_millis(1), Nanos::from_millis(2))
            .link_degraded(Nanos::from_millis(5), Nanos::from_millis(1), 4, 2)
            .build()
            .unwrap();
        let s = Scenario::builder(mix_2())
            .depart(1, Nanos::from_millis(9))
            .faults(plan.clone())
            .build()
            .unwrap();
        assert_eq!(s.faults(), &plan);
        assert_eq!(s.label(), "GUPS+Silo@1ev+2flt");
        // Reseeding keeps the plan.
        assert_eq!(s.reseeded(7).faults(), &plan);
        // Healthy scenarios keep the pre-fault label.
        assert_eq!(Scenario::steady(mix_2()).label(), "GUPS+Silo");
    }

    #[test]
    fn phase_schedules_validated_at_build() {
        let phase = |rss, events| PhaseSpec { kind: WorkloadKind::Gups, rss_pages: rss, events };
        assert!(Scenario::builder(mix_2()).phased(0, vec![]).build().is_err(), "empty");
        assert!(
            Scenario::builder(mix_2()).phased(0, vec![phase(512, 0)]).build().is_err(),
            "zero events"
        );
        assert!(
            Scenario::builder(mix_2()).phased(0, vec![phase(0, 10)]).build().is_err(),
            "zero rss"
        );
        assert!(
            Scenario::builder(mix_2())
                .phased(0, vec![phase(MIN_RSS_PAGES - 1, 10)])
                .build()
                .is_err(),
            "working set below the generators' minimum"
        );
        assert!(
            Scenario::builder(mix_2()).phased(0, vec![phase(2048, 10)]).build().is_err(),
            "working set exceeds footprint"
        );
        assert!(
            Scenario::builder(mix_2()).phased(7, vec![phase(512, 10)]).build().is_err(),
            "tenant index out of range"
        );
        let ok = Scenario::builder(mix_2()).phased(0, vec![phase(512, 10)]).build().unwrap();
        assert!(ok.build_workload(0).rss_pages() == 1024, "declared footprint kept");
    }

    #[test]
    fn phased_workload_switches_kind_at_boundaries() {
        let phases = vec![
            PhaseSpec { kind: WorkloadKind::Gups, rss_pages: 1024, events: 200 },
            PhaseSpec { kind: WorkloadKind::Silo, rss_pages: 512, events: 300 },
        ];
        let mut w = PhasedWorkload::new(phases, 1024, 9).unwrap();
        assert_eq!(w.name(), "Phased");
        assert_eq!(w.rss_pages(), 1024);
        let mut markers = Vec::new();
        for i in 0..1002 {
            if let WorkloadEvent::Marker(m) = w.next_event() {
                if m.label == "phase-shift" {
                    markers.push((i, m.id));
                }
            }
        }
        // Boundaries at event 200 (into Silo) and 501 (back to GUPS):
        // the marker itself occupies one event slot.
        assert_eq!(markers[0], (200, 1));
        assert_eq!(markers[1], (501, 2));
        // Pages stay inside each phase's working set, which stays
        // inside the declared footprint.
        let mut w2 = PhasedWorkload::new(w.phases().to_vec(), 1024, 9).unwrap();
        for _ in 0..2000 {
            if let WorkloadEvent::Access(a) = w2.next_event() {
                assert!(a.vpage.index() < 1024);
            }
        }
    }

    #[test]
    fn phased_fill_events_matches_next_event_across_edges() {
        let phases = vec![
            PhaseSpec { kind: WorkloadKind::Gups, rss_pages: 768, events: 97 },
            PhaseSpec { kind: WorkloadKind::Silo, rss_pages: 512, events: 41 },
            PhaseSpec { kind: WorkloadKind::Btree, rss_pages: 768, events: 63 },
        ];
        for batch in [1usize, 7, 64, 257] {
            let mut reference = PhasedWorkload::new(phases.clone(), 768, 11).unwrap();
            let mut batched = PhasedWorkload::new(phases.clone(), 768, 11).unwrap();
            let mut buf = Vec::new();
            let mut compared = 0usize;
            while compared < 2000 {
                buf.clear();
                batched.fill_events(&mut buf, batch);
                assert_eq!(buf.len(), batch, "short batch at batch={batch}");
                for ev in &buf {
                    assert_eq!(*ev, reference.next_event(), "batch={batch}");
                    compared += 1;
                }
            }
        }
    }

    #[test]
    fn phase_cycles_are_decorrelated() {
        // The same phase re-entered on the next cycle gets a different
        // seed, so the stream does not repeat verbatim.
        // 3000 events per phase with a 256-page set: long enough that
        // the seeded random part dominates GUPS's deterministic
        // table-init sweep (4 writes per page = 1024 init events).
        let phases = vec![PhaseSpec { kind: WorkloadKind::Gups, rss_pages: 256, events: 3000 }];
        let mut w = PhasedWorkload::new(phases, 256, 3).unwrap();
        let first: Vec<WorkloadEvent> = (0..3000).map(|_| w.next_event()).collect();
        let _boundary = w.next_event(); // the phase-shift marker
        let second: Vec<WorkloadEvent> = (0..3000).map(|_| w.next_event()).collect();
        assert_ne!(first, second, "cycles must not repeat verbatim");
    }
}
