//! The multi-tenant co-run engine.
//!
//! A [`CoRunSimulation`] drives `N` independent workloads — a
//! [`TenantMix`] — through one shared tiered-memory machine. Each
//! tenant keeps a private page-id namespace (its pages live at a
//! disjoint base offset of the global address space), while the cache
//! hierarchy, TLB, kernel and tiering policy are shared: exactly the
//! co-located-tenants regime where fast-tier capacity and migration
//! quota become contended resources.
//!
//! # Scheduling and determinism
//!
//! Scheduling is delegated to a [`SliceScheduler`]: the engine asks it
//! what to do at every slice boundary and executes the decision. The
//! default [`StaticRoundRobin`] interleaves a fixed mix by a
//! deterministic weighted round-robin — in every round, tenant `i`
//! executes a *slice* of `interleave_quantum × weight_i` events before
//! the next tenant runs. A [`DynamicSchedule`]
//! ([`CoRunSimulation::with_scenario`]) additionally admits and
//! retires tenants along a [`neomem_workloads::Scenario`] timeline,
//! reclaiming departed tenants' fast-tier pages through the normal
//! eviction path. Either way the slice schedule is a pure function of
//! the configuration and the virtual clock — never of
//! `SimConfig::batch_size` (which only sets how many events are
//! pulled per [`neomem_workloads::Workload::fill_events`] call inside a
//! slice) and never of host threading — so a co-run, like a
//! single-tenant run, is bit-identical at any batch size and at any
//! `--threads` value.
//!
//! Per-access semantics are shared with the single-tenant engine (the
//! same internal event loop and machine step), so a one-tenant co-run
//! is the same machine as a classic [`crate::Simulation`] — only the
//! page-id remapping and the slice accounting differ.
//!
//! # Attribution
//!
//! Slices run one tenant at a time, so per-tenant metrics are exact
//! deltas of the shared counters around each slice: memory-node
//! traffic, migrations, faults and elapsed virtual time are charged to
//! the tenant whose slice produced them. Fast-tier occupancy is read
//! from the kernel's per-tenant counts at every slice boundary, which
//! also exposes *cross-tenant evictions*: the net fast-tier occupancy
//! an idle tenant lost while another tenant's slice ran. Net, because
//! the counts see occupancy, not individual migrations — a slice that
//! demotes three of an idle tenant's pages and promotes two of them
//! back counts one; the number is a lower bound on gross cross-tenant
//! demotions.

use neomem_kernel::KernelStats;
use neomem_mem::NodeStats;
use neomem_policies::{PolicyBox, TenantLayout, TieringPolicy};
use neomem_types::json::{hex_from_u64s, Json};
use neomem_types::{Error, Nanos, Result, Tier};
use neomem_workloads::{Scenario, TenantMix, Workload};

use crate::config::SimConfig;
use crate::engine::{drive, service_deadlines, LoopState, Machine, Stop};
use crate::report::RunReport;
use crate::sched::{DynamicSchedule, SchedulerOp, SliceScheduler, StaticRoundRobin};
use crate::snapshot;

/// Configuration of a co-run: the shared machine plus the interleave
/// and fairness knobs.
#[derive(Debug, Clone)]
pub struct CoRunConfig {
    /// The shared machine. `sim.rss_pages` must equal the mix's total
    /// footprint; every other field (memory layout, caches, budgets,
    /// `batch_size`, …) keeps its single-tenant meaning.
    pub sim: SimConfig,
    /// Events a weight-1 tenant executes per scheduling round. Purely
    /// a simulated-schedule knob: smaller quanta interleave tenants
    /// more finely (more contention churn), larger quanta approximate
    /// coarse time-sharing.
    pub interleave_quantum: usize,
    /// Fast-tier fairness cap forwarded to tenant-aware policies: each
    /// tenant's fast-tier occupancy is capped at `cap ×` its weighted
    /// fair share (see [`TenantLayout::fast_cap_frames`]). `None`
    /// disables the cap (free-for-all contention).
    pub fast_share_cap: Option<f64>,
}

impl CoRunConfig {
    /// Wraps an explicit [`SimConfig`] with the default interleave
    /// quantum (64) and no fairness cap.
    pub fn new(sim: SimConfig) -> Self {
        Self { sim, interleave_quantum: 64, fast_share_cap: None }
    }

    /// A quick-running machine sized for `mix` at `1:ratio`, the
    /// co-run counterpart of [`SimConfig::quick`].
    pub fn quick(mix: &TenantMix, ratio: u64) -> Self {
        Self::new(SimConfig::quick(mix.total_rss_pages(), ratio))
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`neomem_types::Error::InvalidConfig`] when the machine
    /// configuration is invalid or the quantum is zero.
    pub fn validate(&self) -> Result<()> {
        self.sim.validate()?;
        if self.interleave_quantum == 0 {
            return Err(neomem_types::Error::invalid_config(
                "interleave_quantum must be non-zero",
            ));
        }
        if self.fast_share_cap.is_some_and(|c| c <= 0.0 || c.is_nan()) {
            return Err(neomem_types::Error::invalid_config(
                "fast_share_cap must be positive",
            ));
        }
        Ok(())
    }
}

/// One tenant's lane: its generator, address-space placement and
/// per-slice accumulators.
struct Lane {
    workload: Box<dyn Workload>,
    base: u64,
    weight: u32,
    rss_pages: u64,
    seed: u64,
    // Accumulated attribution.
    accesses: u64,
    active_time: Nanos,
    slow_reads: u64,
    slow_writes: u64,
    fast_reads: u64,
    fast_writes: u64,
    promotions: u64,
    demotions: u64,
    ping_pongs: u64,
    minor_faults: u64,
    markers: u64,
    evicted_by_others: u64,
    evictions_caused: u64,
    /// Sum of fast-tier occupancy over slice boundaries.
    occupancy_sum: u64,
}

/// The shared machine counters a tenant is charged for: slow- and
/// fast-tier traffic plus the kernel's migration and fault counts.
/// Slices and departures run one tenant at a time, so the difference of
/// two readings around one belongs to that tenant alone.
#[derive(Clone, Copy)]
struct Counters {
    slow: NodeStats,
    fast: NodeStats,
    kernel: KernelStats,
}

impl Counters {
    fn of(machine: &Machine) -> Self {
        let memory = machine.kernel.memory();
        Self {
            slow: memory.node(Tier::Slow).stats(),
            fast: memory.node(Tier::Fast).stats(),
            kernel: machine.kernel.stats(),
        }
    }
}

impl Lane {
    /// Charges this lane the counter deltas from `before` to `after`
    /// and `elapsed` virtual time.
    fn charge(&mut self, before: &Counters, after: &Counters, elapsed: Nanos) {
        self.active_time += elapsed;
        self.slow_reads += after.slow.reads - before.slow.reads;
        self.slow_writes += after.slow.writes - before.slow.writes;
        self.fast_reads += after.fast.reads - before.fast.reads;
        self.fast_writes += after.fast.writes - before.fast.writes;
        self.promotions += after.kernel.promotions - before.kernel.promotions;
        self.demotions += after.kernel.demotions - before.kernel.demotions;
        self.ping_pongs += after.kernel.ping_pongs - before.kernel.ping_pongs;
        self.minor_faults += after.kernel.minor_faults - before.kernel.minor_faults;
    }

    /// Workload-generator events this lane has consumed: every event
    /// is either an access or a marker, and a co-run cut lands only at
    /// slice boundaries, where every pulled event has been processed.
    fn events_consumed(&self) -> u64 {
        self.accesses + self.markers
    }

    /// The lane's mutable run state — accumulators plus the live
    /// weight. Placement (`base`, `rss_pages`, `seed`) is rebuilt from
    /// configuration, and the generator is fast-forwarded, never
    /// serialized.
    fn snapshot(&self) -> Json {
        Json::obj([
            ("weight", Json::U64(u64::from(self.weight))),
            ("accesses", Json::U64(self.accesses)),
            ("active_time", Json::U64(self.active_time.as_nanos())),
            ("slow_reads", Json::U64(self.slow_reads)),
            ("slow_writes", Json::U64(self.slow_writes)),
            ("fast_reads", Json::U64(self.fast_reads)),
            ("fast_writes", Json::U64(self.fast_writes)),
            ("promotions", Json::U64(self.promotions)),
            ("demotions", Json::U64(self.demotions)),
            ("ping_pongs", Json::U64(self.ping_pongs)),
            ("minor_faults", Json::U64(self.minor_faults)),
            ("markers", Json::U64(self.markers)),
            ("evicted_by_others", Json::U64(self.evicted_by_others)),
            ("evictions_caused", Json::U64(self.evictions_caused)),
            ("occupancy_sum", Json::U64(self.occupancy_sum)),
        ])
    }

    fn restore(&mut self, snap: &Json) -> Result<()> {
        let weight = snap.req_u64("weight")?;
        self.weight = u32::try_from(weight)
            .map_err(|_| Error::snapshot(format!("lane weight {weight} exceeds u32")))?;
        self.accesses = snap.req_u64("accesses")?;
        self.active_time = Nanos::new(snap.req_u64("active_time")?);
        self.slow_reads = snap.req_u64("slow_reads")?;
        self.slow_writes = snap.req_u64("slow_writes")?;
        self.fast_reads = snap.req_u64("fast_reads")?;
        self.fast_writes = snap.req_u64("fast_writes")?;
        self.promotions = snap.req_u64("promotions")?;
        self.demotions = snap.req_u64("demotions")?;
        self.ping_pongs = snap.req_u64("ping_pongs")?;
        self.minor_faults = snap.req_u64("minor_faults")?;
        self.markers = snap.req_u64("markers")?;
        self.evicted_by_others = snap.req_u64("evicted_by_others")?;
        self.evictions_caused = snap.req_u64("evictions_caused")?;
        self.occupancy_sum = snap.req_u64("occupancy_sum")?;
        Ok(())
    }
}

/// A configured co-run, ready to run.
pub struct CoRunSimulation {
    config: CoRunConfig,
    machine: Machine,
    layout: TenantLayout,
    lanes: Vec<Lane>,
    mix_label: String,
    scheduler: Box<dyn SliceScheduler>,
    /// Which lanes run from time zero (all, for static mixes). The
    /// scheduler owns the live admission state; the engine only needs
    /// the initial mask to open the first epochs.
    initially_active: Vec<bool>,
}

impl CoRunSimulation {
    /// Builds the shared machine and the tenant lanes, and hands the
    /// tenant layout to the policy
    /// ([`TieringPolicy::configure_tenants`]). The mix is scheduled by
    /// the classic [`StaticRoundRobin`]: every tenant runs from time
    /// zero to the end of the run.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation failures, including a mix
    /// footprint that does not match `config.sim.rss_pages`.
    pub fn new(
        config: CoRunConfig,
        mix: &TenantMix,
        policy: impl Into<PolicyBox>,
    ) -> Result<Self> {
        let scheduler = Box::new(StaticRoundRobin::new(
            mix.tenants().iter().map(|t| t.weight).collect(),
            config.interleave_quantum,
        ));
        let active = vec![true; mix.len()];
        let build = |spec: &neomem_workloads::TenantSpec, _i: usize| {
            spec.kind.build(spec.rss_pages, spec.seed)
        };
        Self::build(config, mix, mix.label(), policy.into(), scheduler, active, build)
    }

    /// Builds a scenario-driven co-run: the [`DynamicSchedule`] admits
    /// and retires tenants along the scenario timeline, tenants with
    /// phase schedules run [`neomem_workloads::PhasedWorkload`]
    /// generators, and departed tenants' fast-tier pages are reclaimed
    /// through the normal eviction path. A scenario with no events and
    /// no phases schedules identically to [`CoRunSimulation::new`] on
    /// the same mix (the scheduler-equivalence suite holds this
    /// bit-for-bit).
    ///
    /// # Errors
    ///
    /// Propagates configuration validation failures, including a
    /// scenario footprint that does not match `config.sim.rss_pages`.
    pub fn with_scenario(
        config: CoRunConfig,
        scenario: &Scenario,
        policy: impl Into<PolicyBox>,
    ) -> Result<Self> {
        let scheduler = Box::new(DynamicSchedule::new(scenario, config.interleave_quantum));
        let active = scenario.initially_active();
        let label = scenario.label();
        let build =
            |_spec: &neomem_workloads::TenantSpec, i: usize| scenario.build_workload(i);
        Self::build(config, scenario.mix(), label, policy.into(), scheduler, active, build)
    }

    /// Builds a co-run around an explicit scheduler and admission mask.
    fn build(
        config: CoRunConfig,
        mix: &TenantMix,
        label: String,
        mut policy: PolicyBox,
        scheduler: Box<dyn SliceScheduler>,
        active: Vec<bool>,
        build_workload: impl Fn(&neomem_workloads::TenantSpec, usize) -> Box<dyn Workload>,
    ) -> Result<Self> {
        config.validate()?;
        if mix.total_rss_pages() != config.sim.rss_pages {
            return Err(neomem_types::Error::invalid_config(format!(
                "tenant mix rss {} != config rss {}",
                mix.total_rss_pages(),
                config.sim.rss_pages
            )));
        }
        let layout = TenantLayout::new(mix.bases(), mix.weights(), config.fast_share_cap)?;
        policy.configure_tenants(&layout);
        let mut machine = Machine::new(config.sim.clone(), policy)?;
        machine.kernel.set_regions(layout.bases());
        let lanes = mix
            .tenants()
            .iter()
            .zip(mix.bases())
            .enumerate()
            .map(|(i, (spec, base))| Lane {
                workload: build_workload(spec, i),
                base,
                weight: spec.weight,
                rss_pages: spec.rss_pages,
                seed: spec.seed,
                accesses: 0,
                active_time: Nanos::ZERO,
                slow_reads: 0,
                slow_writes: 0,
                fast_reads: 0,
                fast_writes: 0,
                promotions: 0,
                demotions: 0,
                ping_pongs: 0,
                minor_faults: 0,
                markers: 0,
                evicted_by_others: 0,
                evictions_caused: 0,
                occupancy_sum: 0,
            })
            .collect();
        Ok(Self {
            config,
            machine,
            layout,
            lanes,
            mix_label: label,
            scheduler,
            initially_active: active,
        })
    }

    /// Demotes every fast-resident page of `lane` through the normal
    /// eviction path (the departed tenant's frames go back to the slow
    /// tier like any reclaim victim: demotion counters, LRU removal and
    /// migration costs all apply). Best-effort: pages the slow tier
    /// cannot take stay put and fall to ordinary eviction later.
    /// Returns the time charged.
    fn reclaim_fast_pages(
        machine: &mut Machine,
        layout: &TenantLayout,
        lane: usize,
        now: Nanos,
    ) -> Nanos {
        let fast_frames = machine.kernel.memory().slow_base().index();
        let mut pages = Vec::new();
        for frame in 0..fast_frames {
            if let Some(vpage) = machine.kernel.vpage_of(neomem_types::PageNum::new(frame)) {
                if layout.tenant_of(vpage) == lane {
                    pages.push(vpage);
                }
            }
        }
        let mut elapsed = Nanos::ZERO;
        for vpage in pages {
            if let Ok(t) = machine.kernel.demote(vpage, now + elapsed) {
                elapsed += t;
            }
        }
        elapsed
    }

    /// Runs the co-run to completion and produces the report.
    ///
    /// The loop executes whatever the [`SliceScheduler`] decides at
    /// each slice boundary: tenant slices (the hot path, identical to
    /// the pre-extraction engine), admissions, retirements (with
    /// fast-tier reclaim through the normal eviction path), weight
    /// changes, and idle gaps.
    ///
    /// # Panics
    ///
    /// Panics if the machine runs out of physical memory — unreachable
    /// for validated configurations, as in [`crate::Simulation::run`].
    pub fn run(mut self) -> CoRunReport {
        let mut state = self.fresh_state();
        self.run_core(&mut state, None);
        self.into_report(state)
    }

    /// Runs until the virtual clock reaches `at` and serializes the
    /// full co-run state into a versioned snapshot document (see
    /// [`crate::snapshot`]). The cut lands on the first *slice
    /// boundary* at or past `at` — slices are never split — so the
    /// snapshot clock may trail `at` by up to one slice.
    ///
    /// Resuming with [`CoRunSimulation::run_from`] on an identically
    /// configured co-run produces a report bit-identical to an
    /// uninterrupted [`CoRunSimulation::run`].
    ///
    /// # Panics
    ///
    /// Panics if the machine runs out of physical memory, as in
    /// [`CoRunSimulation::run`].
    pub fn snapshot_at(mut self, at: Nanos) -> Json {
        let mut state = self.fresh_state();
        self.run_core(&mut state, Some(at));
        let fingerprint = snapshot::corun_fingerprint(&self.config);
        snapshot::envelope(
            snapshot::KIND_CORUN,
            fingerprint,
            &self.mix_label,
            self.machine.policy.name(),
            Json::obj([
                ("machine", self.machine.snapshot()),
                ("scheduler", self.scheduler.snapshot_state()),
                ("lanes", Json::Arr(self.lanes.iter().map(Lane::snapshot).collect())),
                ("loop", state.snapshot(self.machine.kernel.fast_pages_by_region())),
            ]),
        )
    }

    /// Restores a [`CoRunSimulation::snapshot_at`] snapshot onto this
    /// freshly built co-run and runs it to completion. Lane weights
    /// and the tenant layout are re-established before the policy's
    /// state is restored, and every lane's generator is rebuilt from
    /// configuration and fast-forwarded past the events its
    /// snapshotted twin consumed.
    ///
    /// # Errors
    ///
    /// Fails with [`Error::Snapshot`] when the envelope does not match
    /// this co-run (schema, version, kind, configuration fingerprint,
    /// mix label or policy name) or any component rejects its state.
    /// Corrupt input yields an error, never a panic.
    ///
    /// # Panics
    ///
    /// Panics if the machine runs out of physical memory, as in
    /// [`CoRunSimulation::run`].
    pub fn run_from(mut self, snap: &Json) -> Result<CoRunReport> {
        let fingerprint = snapshot::corun_fingerprint(&self.config);
        let state_json = snapshot::open_envelope(
            snap,
            snapshot::KIND_CORUN,
            fingerprint,
            &self.mix_label,
            self.machine.policy.name(),
        )?;
        let lanes = state_json.req_arr("lanes")?;
        if lanes.len() != self.lanes.len() {
            return Err(Error::snapshot(format!(
                "snapshot has {} tenant lanes, mix has {}",
                lanes.len(),
                self.lanes.len()
            )));
        }
        for (lane, snap) in self.lanes.iter_mut().zip(lanes) {
            lane.restore(snap)?;
        }
        // Weights may have changed mid-run (SetWeight): re-derive the
        // layout from the restored weights and re-arbitrate the policy
        // *before* restoring its state, so per-tenant state lands on
        // the layout it was snapshotted under.
        let layout = TenantLayout::new(
            self.lanes.iter().map(|l| l.base).collect(),
            self.lanes.iter().map(|l| l.weight as u64).collect(),
            self.config.fast_share_cap,
        )?;
        self.machine.policy.configure_tenants(&layout);
        self.layout = layout;
        self.machine.restore(state_json.req("machine")?)?;
        self.scheduler.restore_state(state_json.req("scheduler")?)?;
        let mut state = CoRunState::restore(
            state_json.req("loop")?,
            &self.lanes,
            self.machine.kernel.fast_pages_by_region(),
        )?;
        for lane in &mut self.lanes {
            let consumed = lane.events_consumed();
            snapshot::fast_forward(lane.workload.as_mut(), consumed);
        }
        self.run_core(&mut state, None);
        Ok(self.into_report(state))
    }

    /// The run state of a co-run that has not started yet.
    fn fresh_state(&self) -> CoRunState {
        let tenant_count = self.lanes.len();
        CoRunState {
            core: LoopState::fresh(&self.machine.config),
            occupancy_timeline: Vec::new(),
            rounds: 0,
            slices: 0,
            cross_tenant_evictions: 0,
            epochs: Vec::new(),
            epoch_ordinal: vec![0u32; tenant_count],
            // Tenant-epoch attribution: one epoch per contiguous
            // residency interval, opened for initially-active lanes at
            // time zero and at every admission, closed at departure or
            // run end.
            open_epochs: (0..tenant_count)
                .map(|i| {
                    self.initially_active[i].then(|| EpochMark::open(Nanos::ZERO, &self.lanes[i]))
                })
                .collect(),
        }
    }

    /// The co-run loop, shared by [`CoRunSimulation::run`],
    /// [`CoRunSimulation::snapshot_at`] and
    /// [`CoRunSimulation::run_from`]. With `cut` set, returns as soon
    /// as the clock reaches it at a slice boundary — the loop top,
    /// where no scheduler decision has been taken yet, so a resumed
    /// run re-enters with bit-identical state.
    fn run_core(&mut self, state: &mut CoRunState, cut: Option<Nanos>) {
        let limit = self.machine.config.max_time;
        let max_accesses = self.machine.config.max_accesses;
        // Each tenant's fast-tier pages entering the current slice.
        let mut occ_before = vec![0u64; self.lanes.len()];

        loop {
            let clock = state.core.clock;
            if state.core.accesses >= max_accesses || limit.is_some_and(|l| clock >= l) {
                break;
            }
            if cut.is_some_and(|c| clock >= c) {
                return;
            }
            let (lane_idx, slice_events) = match self.scheduler.next(clock) {
                SchedulerOp::Done => break,
                SchedulerOp::Slice { lane, events, new_round } => {
                    if new_round {
                        state.rounds += 1;
                    }
                    state.slices += 1;
                    (lane, events)
                }
                SchedulerOp::Admit { lane } => {
                    self.machine.policy.on_tenant_arrival(lane);
                    state.open_epochs[lane] = Some(EpochMark::open(clock, &self.lanes[lane]));
                    continue;
                }
                SchedulerOp::Retire { lane } => {
                    self.machine.policy.on_tenant_departure(lane);
                    // Reclaim through the normal eviction path and
                    // charge the deltas (demotions, node traffic, time)
                    // to the departing tenant itself.
                    let before = Counters::of(&self.machine);
                    let reclaim =
                        Self::reclaim_fast_pages(&mut self.machine, &self.layout, lane, clock);
                    state.core.clock += reclaim;
                    self.lanes[lane].charge(&before, &Counters::of(&self.machine), reclaim);
                    if let Some(mark) = state.open_epochs[lane].take() {
                        let end = state.core.clock;
                        let epoch =
                            mark.close(lane, &mut state.epoch_ordinal, end, &self.lanes[lane]);
                        state.epochs.push(epoch);
                    }
                    continue;
                }
                SchedulerOp::SetWeight { lane, weight } => {
                    self.lanes[lane].weight = weight;
                    // The scheduler already resizes future slices;
                    // re-arbitrate the policy side too, so quota
                    // shares, fairness caps and fair-share exemptions
                    // track the new weights instead of the
                    // construction-time ones. Policies treat this as a
                    // fresh configure_tenants: per-tenant soft state
                    // (occupancy counts, aggression, the current quota
                    // window's per-tenant usage split) restarts, which
                    // is the intended semantics of a re-weighting.
                    let layout = TenantLayout::new(
                        self.lanes.iter().map(|l| l.base).collect(),
                        self.lanes.iter().map(|l| l.weight as u64).collect(),
                        self.config.fast_share_cap,
                    )
                    .expect("bases unchanged and scenario-validated weights stay valid");
                    self.machine.policy.configure_tenants(&layout);
                    self.layout = layout;
                    continue;
                }
                SchedulerOp::AdvanceTo(target) => {
                    // Idle gap (no runnable tenant until the next
                    // timeline event): jump the clock in one go and
                    // service what is due once, so daemons stay alive
                    // across it.
                    state.core.clock = clock.max(target);
                    let mut on_sample = record_occupancy(&mut state.occupancy_timeline);
                    service_deadlines(&mut self.machine, &mut state.core, &mut on_sample);
                    continue;
                }
            };

            // The slice: this tenant's events, relocated into its
            // namespace, through the one event loop.
            let before = Counters::of(&self.machine);
            occ_before.copy_from_slice(self.machine.kernel.fast_pages_by_region());
            let accesses_before = state.core.accesses;
            let markers_before = state.core.markers.len();
            let lane = &mut self.lanes[lane_idx];
            let stop = drive(
                &mut self.machine,
                lane.workload.as_mut(),
                lane.base,
                slice_events as u64,
                &mut state.core,
                None,
                record_occupancy(&mut state.occupancy_timeline),
            );
            // Attribute the slice deltas to the tenant that ran.
            let after = Counters::of(&self.machine);
            lane.accesses += state.core.accesses - accesses_before;
            lane.markers += (state.core.markers.len() - markers_before) as u64;
            lane.charge(&before, &after, state.core.clock.saturating_sub(clock));
            // Cross-tenant evictions: the net fast-tier occupancy idle
            // tenants lost while this slice ran.
            let mut lost_total = 0u64;
            let occ_now = self.machine.kernel.fast_pages_by_region();
            for (j, (&occ, &was)) in occ_now.iter().zip(&occ_before).enumerate() {
                self.lanes[j].occupancy_sum += occ;
                if j != lane_idx && occ < was {
                    let lost = was - occ;
                    state.cross_tenant_evictions += lost;
                    lost_total += lost;
                    self.lanes[j].evicted_by_others += lost;
                    self.lanes[lane_idx].evictions_caused += lost;
                }
            }
            if lost_total > 0 {
                // Feed the signal to contention-aware policies (a
                // no-op for everything else — the default hook).
                self.machine.policy.note_cross_tenant_evictions(lane_idx, lost_total);
            }

            if stop == Stop::Limit {
                break;
            }
        }
    }

    /// Consumes the co-run and the final loop state into the report.
    fn into_report(self, state: CoRunState) -> CoRunReport {
        let CoRunState {
            core,
            occupancy_timeline,
            rounds,
            slices,
            cross_tenant_evictions,
            mut epochs,
            mut epoch_ordinal,
            open_epochs,
        } = state;
        let fast_capacity = self.machine.kernel.memory().allocator(Tier::Fast).capacity();

        // Close the epochs of every still-resident tenant at the final
        // clock, then order the records by (tenant, epoch) for stable
        // serialisation.
        for (lane, open) in open_epochs.into_iter().enumerate() {
            if let Some(mark) = open {
                epochs.push(mark.close(lane, &mut epoch_ordinal, core.clock, &self.lanes[lane]));
            }
        }
        epochs.sort_by_key(|e| (e.tenant, e.epoch));

        let final_occupancy = self.machine.kernel.fast_pages_by_region().to_vec();
        let tenants = self
            .lanes
            .iter()
            .enumerate()
            .map(|(i, lane)| TenantRunReport {
                tenant: i,
                workload: lane.workload.name().to_string(),
                weight: lane.weight,
                rss_pages: lane.rss_pages,
                base_page: lane.base,
                seed: lane.seed,
                accesses: lane.accesses,
                active_time: lane.active_time,
                slow_reads: lane.slow_reads,
                slow_writes: lane.slow_writes,
                fast_reads: lane.fast_reads,
                fast_writes: lane.fast_writes,
                promotions: lane.promotions,
                demotions: lane.demotions,
                ping_pongs: lane.ping_pongs,
                minor_faults: lane.minor_faults,
                markers: lane.markers,
                evicted_by_others: lane.evicted_by_others,
                evictions_caused: lane.evictions_caused,
                final_fast_pages: final_occupancy[i],
                mean_fast_share: if slices == 0 || fast_capacity == 0 {
                    0.0
                } else {
                    lane.occupancy_sum as f64 / (slices as f64 * fast_capacity as f64)
                },
            })
            .collect();

        let combined = self.machine.into_report(format!("corun[{}]", self.mix_label), core);
        CoRunReport {
            combined,
            tenants,
            epochs,
            contention: CoRunContention {
                fast_capacity_pages: fast_capacity,
                cross_tenant_evictions,
                rounds,
                slices,
                interleave_quantum: self.config.interleave_quantum as u64,
                occupancy_timeline,
            },
        }
    }
}

/// The co-run's sample hook for [`drive`] and [`service_deadlines`]:
/// every timeline sample gets a per-tenant fast-tier occupancy point
/// at the same instant, read from the kernel's per-tenant counts that
/// NeoMem's fairness gate also reads.
fn record_occupancy(points: &mut Vec<OccupancyPoint>) -> impl FnMut(&Machine, Nanos) + '_ {
    move |machine, at| {
        let fast_pages = machine.kernel.fast_pages_by_region().to_vec();
        points.push(OccupancyPoint { at, fast_pages });
    }
}

/// The mutable loop registers of a co-run — everything
/// [`CoRunSimulation::run_core`] reads and writes besides the machine,
/// the scheduler and the lane accumulators. A co-run snapshot is the
/// machine state, the scheduler state, the lanes, and this.
struct CoRunState {
    /// The registers [`drive`] advances, as in a single-tenant run.
    core: LoopState,
    occupancy_timeline: Vec<OccupancyPoint>,
    rounds: u64,
    slices: u64,
    cross_tenant_evictions: u64,
    epochs: Vec<TenantEpoch>,
    epoch_ordinal: Vec<u32>,
    open_epochs: Vec<Option<EpochMark>>,
}

impl CoRunState {
    /// The single-tenant loop fields first, then the co-run's own.
    /// `fast_pages` is the kernel's per-tenant count at the cut, written
    /// as `occ_before`.
    fn snapshot(&self, fast_pages: &[u64]) -> Json {
        let ordinals: Vec<u64> = self.epoch_ordinal.iter().map(|&x| u64::from(x)).collect();
        let occupancy = self
            .occupancy_timeline
            .iter()
            .map(|p| {
                Json::obj([
                    ("at", Json::U64(p.at.as_nanos())),
                    ("fast_pages", Json::Str(hex_from_u64s(&p.fast_pages))),
                ])
            })
            .collect();
        let open_epochs =
            self.open_epochs.iter().map(|o| o.as_ref().map_or(Json::Null, EpochMark::snapshot));
        Json::obj(self.core.fields().into_iter().chain([
            ("occupancy_timeline", Json::Arr(occupancy)),
            ("occ_before", Json::Str(hex_from_u64s(fast_pages))),
            ("rounds", Json::U64(self.rounds)),
            ("slices", Json::U64(self.slices)),
            ("cross_tenant_evictions", Json::U64(self.cross_tenant_evictions)),
            ("epoch_ordinal", Json::Str(hex_from_u64s(&ordinals))),
            ("open_epochs", Json::Arr(open_epochs.collect())),
            ("epochs", Json::Arr(self.epochs.iter().map(epoch_to_json).collect())),
        ]))
    }

    /// Restores the registers of a co-run over `lanes` (already
    /// restored), rejecting state whose epoch bookkeeping disagrees
    /// with them, or whose `occ_before` disagrees with `fast_pages`, the
    /// restored kernel's per-tenant counts.
    fn restore(state: &Json, lanes: &[Lane], fast_pages: &[u64]) -> Result<Self> {
        let tenant_count = lanes.len();
        let occ_before = state.req_u64s("occ_before")?;
        if occ_before != fast_pages {
            return Err(Error::snapshot(format!(
                "occ_before {occ_before:?} disagrees with the restored kernel's fast-tier \
                 pages per tenant {fast_pages:?}"
            )));
        }
        let raw_ordinals = state.req_u64s("epoch_ordinal")?;
        if raw_ordinals.len() != tenant_count {
            return Err(Error::snapshot(format!(
                "epoch ordinal array has {} lanes, mix has {tenant_count}",
                raw_ordinals.len()
            )));
        }
        let epoch_ordinal = raw_ordinals
            .into_iter()
            .map(|x| {
                u32::try_from(x)
                    .map_err(|_| Error::snapshot(format!("epoch ordinal {x} exceeds u32")))
            })
            .collect::<Result<Vec<u32>>>()?;
        let open_arr = state.req_arr("open_epochs")?;
        if open_arr.len() != tenant_count {
            return Err(Error::snapshot(format!(
                "open-epoch array has {} lanes, mix has {tenant_count}",
                open_arr.len()
            )));
        }
        let open_epochs = open_arr
            .iter()
            .zip(lanes)
            .map(|(o, lane)| match o {
                Json::Null => Ok(None),
                mark => EpochMark::from_snapshot(mark, lane).map(Some),
            })
            .collect::<Result<Vec<Option<EpochMark>>>>()?;
        let epochs = state
            .req_arr("epochs")?
            .iter()
            .map(|e| epoch_from_json(e, tenant_count))
            .collect::<Result<Vec<TenantEpoch>>>()?;
        // Every closed epoch took the next ordinal of its tenant.
        for (tenant, &ordinal) in epoch_ordinal.iter().enumerate() {
            let closed = epochs.iter().filter(|e| e.tenant == tenant).count();
            if closed != ordinal as usize {
                return Err(Error::snapshot(format!(
                    "tenant {tenant} has {closed} closed epochs but epoch ordinal {ordinal}"
                )));
            }
        }
        let occupancy_timeline = state
            .req_arr("occupancy_timeline")?
            .iter()
            .map(|p| {
                let fast_pages = p.req_u64s("fast_pages")?;
                if fast_pages.len() != tenant_count {
                    return Err(Error::snapshot(format!(
                        "occupancy point has {} lanes, mix has {tenant_count}",
                        fast_pages.len()
                    )));
                }
                Ok(OccupancyPoint { at: Nanos::new(p.req_u64("at")?), fast_pages })
            })
            .collect::<Result<Vec<OccupancyPoint>>>()?;
        Ok(Self {
            core: LoopState::restore(state)?,
            occupancy_timeline,
            rounds: state.req_u64("rounds")?,
            slices: state.req_u64("slices")?,
            cross_tenant_evictions: state.req_u64("cross_tenant_evictions")?,
            epochs,
            epoch_ordinal,
            open_epochs,
        })
    }
}

fn epoch_to_json(e: &TenantEpoch) -> Json {
    Json::obj([
        ("tenant", Json::U64(e.tenant as u64)),
        ("epoch", Json::U64(u64::from(e.epoch))),
        ("start", Json::U64(e.start.as_nanos())),
        ("end", Json::U64(e.end.as_nanos())),
        ("accesses", Json::U64(e.accesses)),
        ("slow_tier_accesses", Json::U64(e.slow_tier_accesses)),
        ("evicted_by_others", Json::U64(e.evicted_by_others)),
    ])
}

fn epoch_from_json(snap: &Json, tenant_count: usize) -> Result<TenantEpoch> {
    let tenant = snap.req_u64("tenant")? as usize;
    if tenant >= tenant_count {
        return Err(Error::snapshot(format!(
            "epoch tenant {tenant} out of range for {tenant_count} lanes"
        )));
    }
    let raw_epoch = snap.req_u64("epoch")?;
    let epoch = u32::try_from(raw_epoch)
        .map_err(|_| Error::snapshot(format!("epoch ordinal {raw_epoch} exceeds u32")))?;
    Ok(TenantEpoch {
        tenant,
        epoch,
        start: Nanos::new(snap.req_u64("start")?),
        end: Nanos::new(snap.req_u64("end")?),
        accesses: snap.req_u64("accesses")?,
        slow_tier_accesses: snap.req_u64("slow_tier_accesses")?,
        evicted_by_others: snap.req_u64("evicted_by_others")?,
    })
}

/// Bookkeeping for one open tenant-epoch: the lane-accumulator values
/// at the instant the epoch opened, so closing it yields exact deltas.
#[derive(Debug, Clone, Copy)]
struct EpochMark {
    start: Nanos,
    accesses: u64,
    slow_tier: u64,
    evicted: u64,
}

impl EpochMark {
    fn open(start: Nanos, lane: &Lane) -> Self {
        Self {
            start,
            accesses: lane.accesses,
            slow_tier: lane.slow_reads + lane.slow_writes,
            evicted: lane.evicted_by_others,
        }
    }

    fn snapshot(&self) -> Json {
        Json::obj([
            ("start", Json::U64(self.start.as_nanos())),
            ("accesses", Json::U64(self.accesses)),
            ("slow_tier", Json::U64(self.slow_tier)),
            ("evicted", Json::U64(self.evicted)),
        ])
    }

    /// Restores a mark of `lane` (already restored). A mark above the
    /// lane's counters would underflow when the epoch closes, so it is
    /// rejected.
    fn from_snapshot(snap: &Json, lane: &Lane) -> Result<Self> {
        let mark = Self {
            start: Nanos::new(snap.req_u64("start")?),
            accesses: snap.req_u64("accesses")?,
            slow_tier: snap.req_u64("slow_tier")?,
            evicted: snap.req_u64("evicted")?,
        };
        let slow_tier = lane.slow_reads.checked_add(lane.slow_writes);
        if mark.accesses > lane.accesses
            || slow_tier.is_none_or(|s| mark.slow_tier > s)
            || mark.evicted > lane.evicted_by_others
        {
            return Err(Error::snapshot(format!(
                "open epoch mark {mark:?} exceeds its lane's counters"
            )));
        }
        Ok(mark)
    }

    fn close(
        self,
        tenant: usize,
        ordinals: &mut [u32],
        end: Nanos,
        lane: &Lane,
    ) -> TenantEpoch {
        let epoch = ordinals[tenant];
        ordinals[tenant] += 1;
        TenantEpoch {
            tenant,
            epoch,
            start: self.start,
            end,
            accesses: lane.accesses - self.accesses,
            slow_tier_accesses: lane.slow_reads + lane.slow_writes - self.slow_tier,
            evicted_by_others: lane.evicted_by_others - self.evicted,
        }
    }
}

/// One contiguous residency interval of a tenant: from its admission
/// (or time zero) to its departure (or the end of the run), with the
/// metrics attributed to the tenant over exactly that interval. Static
/// mixes produce one epoch per tenant spanning the whole run; dynamic
/// scenarios produce one per arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantEpoch {
    /// Tenant index, in mix order.
    pub tenant: usize,
    /// Per-tenant epoch ordinal (0 = first residency).
    pub epoch: u32,
    /// Virtual time the epoch opened.
    pub start: Nanos,
    /// Virtual time the epoch closed.
    pub end: Nanos,
    /// CPU accesses the tenant executed during the epoch.
    pub accesses: u64,
    /// Slow-tier line requests during the tenant's slices this epoch.
    pub slow_tier_accesses: u64,
    /// Net fast-tier occupancy lost to co-runners during the epoch.
    pub evicted_by_others: u64,
}

/// One tenant's share of a co-run outcome. Every counter is the exact
/// delta of the shared machine state over the tenant's own slices
/// (see the module docs on attribution).
#[derive(Debug, Clone, PartialEq)]
pub struct TenantRunReport {
    /// Tenant index, in mix order.
    pub tenant: usize,
    /// Workload name.
    pub workload: String,
    /// Interleave weight.
    pub weight: u32,
    /// Private footprint in pages.
    pub rss_pages: u64,
    /// Base offset of the tenant's page-id namespace.
    pub base_page: u64,
    /// Generator seed.
    pub seed: u64,
    /// CPU accesses the tenant executed.
    pub accesses: u64,
    /// Virtual time accrued while the tenant's slices ran.
    pub active_time: Nanos,
    /// Slow-tier line reads during the tenant's slices.
    pub slow_reads: u64,
    /// Slow-tier line writes during the tenant's slices.
    pub slow_writes: u64,
    /// Fast-tier line reads during the tenant's slices.
    pub fast_reads: u64,
    /// Fast-tier line writes during the tenant's slices.
    pub fast_writes: u64,
    /// Pages promoted during the tenant's slices.
    pub promotions: u64,
    /// Pages demoted during the tenant's slices.
    pub demotions: u64,
    /// Ping-pong migrations during the tenant's slices.
    pub ping_pongs: u64,
    /// Minor faults during the tenant's slices.
    pub minor_faults: u64,
    /// Phase markers the tenant emitted.
    pub markers: u64,
    /// Net fast-tier occupancy this tenant lost while *other* tenants
    /// ran (a lower bound on gross cross-tenant demotions — see the
    /// module docs).
    pub evicted_by_others: u64,
    /// Net fast-tier occupancy *other* tenants lost while this tenant
    /// ran.
    pub evictions_caused: u64,
    /// Fast-tier pages the tenant held at the end of the run.
    pub final_fast_pages: u64,
    /// Mean share of the fast tier held across slice-boundary scans,
    /// in `[0, 1]`.
    pub mean_fast_share: f64,
}

impl TenantRunReport {
    /// Total slow-tier requests during the tenant's slices — the
    /// per-tenant Fig. 13 metric.
    pub fn slow_tier_accesses(&self) -> u64 {
        self.slow_reads + self.slow_writes
    }

    /// Mean throughput in accesses per second of the tenant's active
    /// virtual time.
    pub fn throughput(&self) -> f64 {
        if self.active_time.is_zero() {
            0.0
        } else {
            self.accesses as f64 / self.active_time.as_secs_f64()
        }
    }

    /// Flat `(name, value)` integer counters, mirroring
    /// [`RunReport::scalar_metrics`] for the per-tenant JSON sections.
    /// Names are part of the co-run JSON schema; extend, don't rename.
    pub fn scalar_metrics(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("accesses", self.accesses),
            ("active_time_ns", self.active_time.as_nanos()),
            ("slow_reads", self.slow_reads),
            ("slow_writes", self.slow_writes),
            ("fast_reads", self.fast_reads),
            ("fast_writes", self.fast_writes),
            ("slow_tier_accesses", self.slow_tier_accesses()),
            ("promotions", self.promotions),
            ("demotions", self.demotions),
            ("ping_pongs", self.ping_pongs),
            ("minor_faults", self.minor_faults),
            ("markers", self.markers),
            ("evicted_by_others", self.evicted_by_others),
            ("evictions_caused", self.evictions_caused),
            ("final_fast_pages", self.final_fast_pages),
        ]
    }
}

/// One fast-tier occupancy snapshot, taken at the timeline sample
/// cadence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OccupancyPoint {
    /// Snapshot timestamp.
    pub at: Nanos,
    /// Fast-tier pages held per tenant, in mix order.
    pub fast_pages: Vec<u64>,
}

/// Shared-tier contention metrics of a co-run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoRunContention {
    /// Fast-tier capacity in pages (the contended resource).
    pub fast_capacity_pages: u64,
    /// Net fast-tier occupancy idle tenants lost while another
    /// tenant's slice ran (a lower bound on gross cross-tenant
    /// demotions — see the module docs).
    pub cross_tenant_evictions: u64,
    /// Completed scheduling rounds.
    pub rounds: u64,
    /// Executed tenant slices.
    pub slices: u64,
    /// The interleave quantum in force.
    pub interleave_quantum: u64,
    /// Per-tenant fast-tier occupancy over time.
    pub occupancy_timeline: Vec<OccupancyPoint>,
}

/// The outcome of a co-run: the combined machine-wide report plus the
/// per-tenant sections and contention metrics.
#[derive(Debug, Clone)]
pub struct CoRunReport {
    /// Machine-wide totals, exactly a [`RunReport`] (the workload name
    /// is the mix label, e.g. `corun[GUPS+2*Silo]`).
    pub combined: RunReport,
    /// Per-tenant attribution, in mix order.
    pub tenants: Vec<TenantRunReport>,
    /// Per-residency attribution, ordered by (tenant, epoch). One
    /// whole-run epoch per tenant for static mixes; one per arrival
    /// for dynamic scenarios.
    pub epochs: Vec<TenantEpoch>,
    /// Shared-tier contention metrics.
    pub contention: CoRunContention,
}

impl CoRunReport {
    /// Jain's fairness index over each tenant's fast-tier occupancy
    /// normalised by its weighted fair share: `1.0` means every tenant
    /// holds exactly its share, `1/N` means one tenant holds
    /// everything.
    pub fn occupancy_fairness(&self) -> f64 {
        let total_weight: u64 = self.tenants.iter().map(|t| t.weight as u64).sum();
        let normalised: Vec<f64> = self
            .tenants
            .iter()
            .map(|t| t.mean_fast_share * total_weight as f64 / t.weight as f64)
            .collect();
        jain_fairness(&normalised)
    }

    /// Multi-line human-readable summary: the combined machine row plus
    /// one row per tenant.
    pub fn summary(&self) -> String {
        let mut out = format!("{}\n", self.combined.summary());
        for t in &self.tenants {
            out.push_str(&format!(
                "  tenant {} {:<14} w{} | {} accesses | slow-tier {} | fast pages {} (mean share {:.2}) | evicted-by-others {}\n",
                t.tenant,
                t.workload,
                t.weight,
                t.accesses,
                t.slow_tier_accesses(),
                t.final_fast_pages,
                t.mean_fast_share,
                t.evicted_by_others,
            ));
        }
        out.push_str(&format!(
            "  contention: {} cross-tenant evictions over {} slices | occupancy fairness {:.3}\n",
            self.contention.cross_tenant_evictions,
            self.contention.slices,
            self.occupancy_fairness(),
        ));
        out
    }
}

/// Jain's fairness index `(Σx)² / (n·Σx²)` over non-negative values;
/// `1.0` when all equal, `1/n` when one value dominates. Returns 1.0
/// for empty or all-zero input (nothing is being shared unfairly).
pub fn jain_fairness(values: &[f64]) -> f64 {
    let sum: f64 = values.iter().sum();
    let sum_sq: f64 = values.iter().map(|v| v * v).sum();
    if values.is_empty() || sum_sq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (values.len() as f64 * sum_sq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use neomem_policies::FirstTouchPolicy;
    use neomem_workloads::WorkloadKind;

    fn mix_2() -> TenantMix {
        TenantMix::builder()
            .tenant(WorkloadKind::Gups, 1024, 3)
            .tenant(WorkloadKind::Silo, 1024, 5)
            .build()
            .unwrap()
    }

    fn quick_corun(mix: &TenantMix, max_accesses: u64) -> CoRunConfig {
        let mut config = CoRunConfig::quick(mix, 2);
        config.sim.max_accesses = max_accesses;
        config
    }

    #[test]
    fn corun_runs_and_attributes_all_accesses() {
        let mix = mix_2();
        let report = CoRunSimulation::new(
            quick_corun(&mix, 60_000),
            &mix,
            Box::new(FirstTouchPolicy::new()),
        )
        .unwrap()
        .run();
        assert_eq!(report.combined.accesses, 60_000);
        assert_eq!(report.tenants.len(), 2);
        let attributed: u64 = report.tenants.iter().map(|t| t.accesses).sum();
        assert_eq!(attributed, 60_000, "every access belongs to exactly one tenant");
        let active: Nanos = report
            .tenants
            .iter()
            .fold(Nanos::ZERO, |acc, t| acc + t.active_time);
        assert_eq!(active, report.combined.runtime, "virtual time fully attributed");
        let slow: u64 = report.tenants.iter().map(|t| t.slow_tier_accesses()).sum();
        assert_eq!(slow, report.combined.slow_tier_accesses(), "slow traffic fully attributed");
        assert!(report.combined.workload.starts_with("corun["));
        assert!(report.contention.slices >= report.contention.rounds);
        assert!(!report.summary().is_empty());
    }

    #[test]
    fn weights_shape_the_interleave() {
        let mix = TenantMix::builder()
            .tenant(WorkloadKind::Gups, 512, 1)
            .weighted_tenant(WorkloadKind::Gups, 512, 3, 2)
            .build()
            .unwrap();
        let report = CoRunSimulation::new(
            quick_corun(&mix, 40_000),
            &mix,
            Box::new(FirstTouchPolicy::new()),
        )
        .unwrap()
        .run();
        let a = report.tenants[0].accesses as f64;
        let b = report.tenants[1].accesses as f64;
        assert!(b > 2.5 * a, "weight-3 tenant must run ~3x the slices ({a} vs {b})");
    }

    #[test]
    fn tenant_namespaces_are_disjoint() {
        // Each tenant's pages live in its own base range: with
        // first-touch and no migration, tenant 1's minor faults cannot
        // touch tenant 0's mappings.
        let mix = mix_2();
        let report = CoRunSimulation::new(
            quick_corun(&mix, 50_000),
            &mix,
            Box::new(FirstTouchPolicy::new()),
        )
        .unwrap()
        .run();
        let mapped: u64 = report.tenants.iter().map(|t| t.minor_faults).sum();
        assert_eq!(report.combined.kernel.minor_faults, mapped);
        // Both tenants faulted their own pages in.
        assert!(report.tenants.iter().all(|t| t.minor_faults > 0));
        assert!(report.tenants.iter().all(|t| t.minor_faults <= t.rss_pages));
    }

    #[test]
    fn rss_mismatch_rejected() {
        let mix = mix_2();
        let mut config = quick_corun(&mix, 1_000);
        config.sim.rss_pages += 1;
        config.sim.memory = None;
        assert!(
            CoRunSimulation::new(config, &mix, Box::new(FirstTouchPolicy::new())).is_err()
        );
    }

    #[test]
    fn zero_quantum_rejected() {
        let mix = mix_2();
        let mut config = quick_corun(&mix, 1_000);
        config.interleave_quantum = 0;
        assert!(
            CoRunSimulation::new(config, &mix, Box::new(FirstTouchPolicy::new())).is_err()
        );
    }

    #[test]
    fn max_time_bounds_corun() {
        let mix = mix_2();
        let mut config = quick_corun(&mix, u64::MAX / 2);
        config.sim.max_time = Some(Nanos::from_millis(1));
        let report = CoRunSimulation::new(config, &mix, Box::new(FirstTouchPolicy::new()))
            .unwrap()
            .run();
        assert!(report.combined.runtime >= Nanos::from_millis(1));
        assert!(report.combined.runtime < Nanos::from_millis(100), "should stop promptly");
        // Attribution still holds on the early-stop path.
        let attributed: u64 = report.tenants.iter().map(|t| t.accesses).sum();
        assert_eq!(attributed, report.combined.accesses);
    }

    #[test]
    fn single_tenant_corun_matches_plain_simulation() {
        // A one-tenant co-run must be the same machine as Simulation:
        // identical runtime, traffic and kernel counters.
        let mix = TenantMix::builder().tenant(WorkloadKind::Gups, 2048, 7).build().unwrap();
        let config = quick_corun(&mix, 80_000);
        let corun = CoRunSimulation::new(
            config.clone(),
            &mix,
            Box::new(FirstTouchPolicy::new()),
        )
        .unwrap()
        .run();
        let plain = crate::Simulation::new(
            config.sim,
            WorkloadKind::Gups.build(2048, 7),
            Box::new(FirstTouchPolicy::new()),
        )
        .unwrap()
        .run();
        assert_eq!(corun.combined.runtime, plain.runtime);
        assert_eq!(corun.combined.accesses, plain.accesses);
        assert_eq!(corun.combined.llc_misses, plain.llc_misses);
        assert_eq!(corun.combined.slow_reads, plain.slow_reads);
        assert_eq!(corun.combined.slow_writes, plain.slow_writes);
        assert_eq!(corun.combined.kernel, plain.kernel);
        assert_eq!(corun.combined.tlb, plain.tlb);
        assert_eq!(corun.contention.cross_tenant_evictions, 0);
    }

    #[test]
    fn steady_scenario_is_bit_identical_to_static() {
        // The scheduler-equivalence contract at engine level: an
        // event-free scenario over a mix must reproduce the static
        // round-robin exactly, counter for counter.
        let mix = mix_2();
        let config = quick_corun(&mix, 60_000);
        let fixed = CoRunSimulation::new(
            config.clone(),
            &mix,
            Box::new(FirstTouchPolicy::new()),
        )
        .unwrap()
        .run();
        let scenario = neomem_workloads::Scenario::steady(mix);
        let dynamic =
            CoRunSimulation::with_scenario(config, &scenario, Box::new(FirstTouchPolicy::new()))
                .unwrap()
                .run();
        assert_eq!(fixed.combined.runtime, dynamic.combined.runtime);
        assert_eq!(fixed.combined.scalar_metrics(), dynamic.combined.scalar_metrics());
        assert_eq!(fixed.tenants, dynamic.tenants);
        assert_eq!(fixed.contention, dynamic.contention);
        // Static runs report one whole-run epoch per tenant.
        assert_eq!(dynamic.epochs.len(), 2);
        assert!(dynamic.epochs.iter().all(|e| e.epoch == 0 && e.start.is_zero()));
    }

    #[test]
    fn arrivals_and_departures_bound_tenant_activity() {
        use neomem_types::Nanos;
        // Tenant 1 arrives 1 ms in and departs at 3 ms; the run is
        // bounded at 6 ms so both events land mid-run.
        let mix = mix_2();
        let scenario = neomem_workloads::Scenario::builder(mix.clone())
            .arrive(1, Nanos::from_millis(1))
            .depart(1, Nanos::from_millis(3))
            .build()
            .unwrap();
        let mut config = quick_corun(&mix, u64::MAX / 2);
        config.sim.max_time = Some(Nanos::from_millis(6));
        let report =
            CoRunSimulation::with_scenario(config, &scenario, Box::new(FirstTouchPolicy::new()))
                .unwrap()
                .run();
        // Both tenants ran; every access is attributed.
        let attributed: u64 = report.tenants.iter().map(|t| t.accesses).sum();
        assert_eq!(attributed, report.combined.accesses);
        assert!(report.tenants[1].accesses > 0, "tenant 1 ran between its events");
        // Tenant 1's single epoch sits inside [1ms, 3ms+reclaim].
        let epochs1: Vec<_> = report.epochs.iter().filter(|e| e.tenant == 1).collect();
        assert_eq!(epochs1.len(), 1);
        assert!(epochs1[0].start >= Nanos::from_millis(1));
        assert!(epochs1[0].end < Nanos::from_millis(6));
        assert_eq!(epochs1[0].accesses, report.tenants[1].accesses);
        // Tenant 0's epoch spans the whole run.
        let epochs0: Vec<_> = report.epochs.iter().filter(|e| e.tenant == 0).collect();
        assert_eq!(epochs0.len(), 1);
        assert!(epochs0[0].start.is_zero());
        assert_eq!(epochs0[0].end, report.combined.runtime);
        // Departure leaves no residency: tenant 1 arrived after tenant
        // 0 had filled the fast tier (first-touch), and whatever it did
        // hold was reclaimed.
        assert_eq!(report.tenants[1].final_fast_pages, 0, "no fast pages after departure");
    }

    #[test]
    fn departure_reclaims_fast_pages_through_eviction() {
        use neomem_types::Nanos;
        // Both tenants run from time zero, so tenant 1 holds fast-tier
        // pages when it departs at 2 ms: the reclaim must demote them
        // through the normal eviction path and attribute the demotions
        // to the departing tenant.
        let mix = mix_2();
        let scenario = neomem_workloads::Scenario::builder(mix.clone())
            .depart(1, Nanos::from_millis(2))
            .build()
            .unwrap();
        let mut config = quick_corun(&mix, u64::MAX / 2);
        config.sim.max_time = Some(Nanos::from_millis(5));
        let report =
            CoRunSimulation::with_scenario(config, &scenario, Box::new(FirstTouchPolicy::new()))
                .unwrap()
                .run();
        assert!(report.tenants[1].accesses > 0);
        assert_eq!(report.tenants[1].final_fast_pages, 0, "fast pages reclaimed");
        assert!(report.tenants[1].demotions > 0, "reclaim went through demotion");
        let epochs1: Vec<_> = report.epochs.iter().filter(|e| e.tenant == 1).collect();
        assert_eq!(epochs1.len(), 1);
        assert!(epochs1[0].start.is_zero());
        assert!(epochs1[0].end >= Nanos::from_millis(2));
        assert!(epochs1[0].end < report.combined.runtime);
    }

    #[test]
    fn idle_gap_before_first_arrival_is_fast_forwarded() {
        use neomem_types::Nanos;
        // A one-tenant scenario whose tenant only arrives at 2 ms: the
        // engine idles to the arrival, then runs the access budget.
        let mix = TenantMix::builder().tenant(WorkloadKind::Gups, 2048, 7).build().unwrap();
        let scenario = neomem_workloads::Scenario::builder(mix.clone())
            .arrive(0, Nanos::from_millis(2))
            .build()
            .unwrap();
        let report = CoRunSimulation::with_scenario(
            quick_corun(&mix, 30_000),
            &scenario,
            Box::new(FirstTouchPolicy::new()),
        )
        .unwrap()
        .run();
        assert_eq!(report.combined.accesses, 30_000);
        assert!(report.combined.runtime >= Nanos::from_millis(2));
        assert_eq!(report.epochs.len(), 1);
        assert!(report.epochs[0].start >= Nanos::from_millis(2));
    }

    #[test]
    fn weight_change_reshapes_subsequent_slices() {
        use neomem_types::Nanos;
        // Equal weights until 1 ms, then tenant 1 runs at weight 6: it
        // must end up with well over half of the accesses.
        let mix = TenantMix::builder()
            .tenant(WorkloadKind::Gups, 1024, 1)
            .tenant(WorkloadKind::Gups, 1024, 2)
            .build()
            .unwrap();
        let scenario = neomem_workloads::Scenario::builder(mix.clone())
            .set_weight(1, Nanos::from_millis(1), 6)
            .build()
            .unwrap();
        let mut config = quick_corun(&mix, u64::MAX / 2);
        config.sim.max_time = Some(Nanos::from_millis(8));
        let report =
            CoRunSimulation::with_scenario(config, &scenario, Box::new(FirstTouchPolicy::new()))
                .unwrap()
                .run();
        let a = report.tenants[0].accesses as f64;
        let b = report.tenants[1].accesses as f64;
        assert!(b > 1.8 * a, "re-weighted tenant must dominate ({a} vs {b})");
        assert_eq!(report.tenants[1].weight, 6, "report carries the final weight");
    }

    #[test]
    fn scenario_footprint_mismatch_rejected() {
        let mix = mix_2();
        let scenario = neomem_workloads::Scenario::steady(mix.clone());
        let mut config = quick_corun(&mix, 1_000);
        config.sim.rss_pages += 1;
        config.sim.memory = None;
        assert!(CoRunSimulation::with_scenario(
            config,
            &scenario,
            Box::new(FirstTouchPolicy::new())
        )
        .is_err());
    }

    #[test]
    fn jain_index_basics() {
        assert!((jain_fairness(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((jain_fairness(&[1.0, 0.0]) - 0.5).abs() < 1e-12);
        assert!((jain_fairness(&[]) - 1.0).abs() < 1e-12);
        assert!((jain_fairness(&[0.0, 0.0]) - 1.0).abs() < 1e-12);
    }
}
