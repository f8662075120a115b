//! The simulation engine.

use neomem_cache::{CacheHierarchy, HitLevel, Tlb};
use neomem_kernel::{Kernel, KernelConfig};
use neomem_policies::{PolicyBox, TieringPolicy};
use neomem_profilers::AccessEvent;
use neomem_types::json::Json;
use neomem_types::{Access, CacheLine, Error, Nanos, Result, Tier, VirtPage};
use neomem_workloads::{Workload, WorkloadEvent};

use crate::config::SimConfig;
use crate::fault::FaultInjector;
use crate::report::{MarkerRecord, RunReport, TimelinePoint};
use crate::snapshot;

/// Per-access latencies resolved out of [`SimConfig`] once, before the
/// run loop, so [`Machine::step`] reads locals instead of chasing
/// config fields on every access.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HotCosts {
    cpu_per_access: Nanos,
    tlb_walk: Nanos,
    l1: Nanos,
    l2: Nanos,
    llc: Nanos,
}

impl HotCosts {
    pub(crate) fn of(config: &SimConfig) -> Self {
        Self {
            cpu_per_access: config.cpu_per_access,
            tlb_walk: config.tlb_walk,
            l1: config.cache_latencies.l1,
            l2: config.cache_latencies.l2,
            llc: config.cache_latencies.llc,
        }
    }
}

/// The mutable loop registers of a run — everything [`drive`] reads
/// and writes besides the machine and the workload generator. Hoisting
/// them into a struct is what makes a run interruptible: a snapshot is
/// the machine state plus this (the co-run engine embeds it in its own
/// registers).
pub(crate) struct LoopState {
    pub(crate) clock: Nanos,
    pub(crate) accesses: u64,
    pub(crate) next_tick: Nanos,
    pub(crate) next_sample: Nanos,
    pub(crate) window_accesses: u64,
    pub(crate) window_start: Nanos,
    pub(crate) timeline: Vec<TimelinePoint>,
    pub(crate) markers: Vec<MarkerRecord>,
}

impl LoopState {
    /// The registers of a run that has not started yet.
    pub(crate) fn fresh(config: &SimConfig) -> Self {
        Self {
            clock: Nanos::ZERO,
            accesses: 0,
            next_tick: Nanos::ZERO,
            next_sample: config.sample_interval,
            window_accesses: 0,
            window_start: Nanos::ZERO,
            timeline: Vec::new(),
            markers: Vec::new(),
        }
    }

    /// Workload-generator events the run has consumed so far: every
    /// event is either an access or a marker, and a cut never lands
    /// mid-event, so the sum is exact. Discarded batch tails were
    /// never counted and regenerate deterministically on resume.
    pub(crate) fn events_consumed(&self) -> u64 {
        self.accesses + self.markers.len() as u64
    }

    /// The registers as snapshot fields. The co-run engine appends its
    /// own after these eight, so both snapshot kinds share the prefix.
    pub(crate) fn fields(&self) -> [(&'static str, Json); 8] {
        [
            ("clock", Json::U64(self.clock.as_nanos())),
            ("accesses", Json::U64(self.accesses)),
            ("next_tick", Json::U64(self.next_tick.as_nanos())),
            ("next_sample", Json::U64(self.next_sample.as_nanos())),
            ("window_accesses", Json::U64(self.window_accesses)),
            ("window_start", Json::U64(self.window_start.as_nanos())),
            ("timeline", snapshot::timeline_to_json(&self.timeline)),
            ("markers", snapshot::markers_to_json(&self.markers)),
        ]
    }

    pub(crate) fn restore(state: &Json) -> Result<Self> {
        Ok(Self {
            clock: Nanos::new(state.req_u64("clock")?),
            accesses: state.req_u64("accesses")?,
            next_tick: Nanos::new(state.req_u64("next_tick")?),
            next_sample: Nanos::new(state.req_u64("next_sample")?),
            window_accesses: state.req_u64("window_accesses")?,
            window_start: Nanos::new(state.req_u64("window_start")?),
            timeline: snapshot::timeline_from_json(state, "timeline")?,
            markers: snapshot::markers_from_json(state, "markers")?,
        })
    }
}

/// Why [`drive`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stop {
    /// The event allowance or the machine's access budget ran out.
    Drained,
    /// The clock reached `max_time`: the run is over.
    Limit,
    /// The clock reached the snapshot cut point; the state is a
    /// resumable mid-run position.
    Cut,
}

/// Fires whatever is due at `state.clock`, in engine order: fault
/// edges first (the hardware event precedes the daemon's reaction to
/// it at the same instant), then the policy tick, then the timeline
/// sample, after which `on_sample` sees the machine at the sample's
/// instant. Every action is guarded by its own deadline, so calling
/// this early is state-neutral.
pub(crate) fn service_deadlines(
    machine: &mut Machine,
    state: &mut LoopState,
    on_sample: &mut impl FnMut(&Machine, Nanos),
) {
    // An empty fault plan's deadline is `u64::MAX`, so this guard never
    // passes and the healthy path stays bit-identical.
    if state.clock >= machine.faults.deadline() {
        state.clock += machine.fault_tick(state.clock, state.accesses);
    }
    if state.clock >= state.next_tick {
        state.clock += machine.policy_tick(state.clock);
        state.next_tick = state.clock + machine.config.tick_quantum;
    }
    if state.clock >= state.next_sample {
        state.timeline.push(machine.sample(state));
        on_sample(machine, state.clock);
        state.window_accesses = 0;
        state.window_start = state.clock;
        state.next_sample = state.clock + machine.config.sample_interval;
    }
}

/// The one event loop both engines run: pulls up to `events` events
/// from `workload` in `batch_size` chunks, relocates each access by
/// `base` pages (a co-run tenant's namespace; 0 for a single-tenant
/// run), and steps the machine. The per-access fast path is `step`
/// plus one comparison against the earliest tick, sample, fault, stop
/// or cut deadline; past it, [`service_deadlines`] runs and then the
/// `max_time` stop and the `cut` are checked, in that order.
///
/// The cut is checked exactly where the `max_time` stop is, so the
/// machine and loop state at a cut are bit-identical to an
/// uninterrupted run's as it passes the same instant. Batched events
/// past a stop or a cut were never processed, so discarding them cannot
/// be observed; a resume regenerates them by fast-forwarding the
/// rebuilt generator by [`LoopState::events_consumed`].
pub(crate) fn drive(
    machine: &mut Machine,
    workload: &mut dyn Workload,
    base: u64,
    events: u64,
    state: &mut LoopState,
    cut: Option<Nanos>,
    mut on_sample: impl FnMut(&Machine, Nanos),
) -> Stop {
    let limit = machine.config.max_time;
    let costs = HotCosts::of(&machine.config);
    let batch = machine.config.batch_size.max(1) as u64;
    let max_accesses = machine.config.max_accesses;
    // The earliest stop or cut instant.
    let never = Nanos::new(u64::MAX);
    let halt = limit.unwrap_or(never).min(cut.unwrap_or(never));
    let deadline = |machine: &Machine, state: &LoopState| {
        state.next_tick.min(state.next_sample).min(halt).min(machine.faults.deadline())
    };
    let mut next_deadline = deadline(machine, state);
    // Host-only scratch: moved out so the loop can borrow the machine.
    let mut buf = std::mem::take(&mut machine.events);
    let mut pulled = 0u64;
    let stop = 'run: loop {
        if pulled >= events || state.accesses >= max_accesses {
            break Stop::Drained;
        }
        if limit.is_some_and(|l| state.clock >= l) {
            break Stop::Limit;
        }
        if cut.is_some_and(|c| state.clock >= c) {
            break Stop::Cut;
        }
        // A batch of n events yields at most n accesses, so capping at
        // the remaining budget can never overshoot max_accesses.
        let n = (events - pulled).min(batch).min(max_accesses - state.accesses);
        buf.clear();
        workload.fill_events(&mut buf, n as usize);
        pulled += n;
        for event in &buf {
            let access = match *event {
                WorkloadEvent::Access(mut access) => {
                    access.vpage = VirtPage::new(base + access.vpage.index());
                    access
                }
                WorkloadEvent::Marker(m) => {
                    // Markers skip the deadline checks, exactly like
                    // the seed engine's `continue`.
                    state.markers.push(MarkerRecord { at: state.clock, id: m.id, label: m.label });
                    continue;
                }
            };
            state.clock += machine.step(access, state.clock, &costs);
            state.accesses += 1;
            state.window_accesses += 1;

            if state.clock < next_deadline {
                continue;
            }
            service_deadlines(machine, state, &mut on_sample);
            if limit.is_some_and(|l| state.clock >= l) {
                break 'run Stop::Limit;
            }
            if cut.is_some_and(|c| state.clock >= c) {
                break 'run Stop::Cut;
            }
            next_deadline = deadline(machine, state);
        }
    };
    machine.events = buf;
    stop
}

/// The simulated machine shared by the single-tenant [`Simulation`]
/// and the multi-tenant [`crate::CoRunSimulation`]: configuration,
/// kernel, cache hierarchy, TLB, and the active tiering policy.
///
/// Both engines drive accesses through the same [`Machine::step`], so
/// a co-run of one tenant is observably the same machine as a classic
/// single-workload run.
pub(crate) struct Machine {
    pub(crate) config: SimConfig,
    pub(crate) policy: PolicyBox,
    pub(crate) kernel: Kernel,
    pub(crate) caches: CacheHierarchy,
    pub(crate) tlb: Tlb,
    pub(crate) faults: FaultInjector,
    /// Host-only scratch, never snapshotted: the event batch [`drive`]
    /// fills, and the shootdowns a policy tick drains. Reusing them
    /// keeps the steady-state loop free of heap allocation.
    events: Vec<WorkloadEvent>,
    shootdowns: Vec<VirtPage>,
}

impl Machine {
    /// Validates `config` and builds the machine around `policy`.
    pub(crate) fn new(config: SimConfig, policy: PolicyBox) -> Result<Self> {
        config.validate()?;
        let kernel = Kernel::new(KernelConfig {
            memory: config.memory_config(),
            rss_pages: config.rss_pages,
            costs: config.costs,
        });
        let caches = CacheHierarchy::new(config.caches);
        let tlb = Tlb::new(config.tlb);
        let faults = FaultInjector::new(&config.faults);
        let events = Vec::with_capacity(config.batch_size.max(1));
        Ok(Self { config, policy, kernel, caches, tlb, faults, events, shootdowns: Vec::new() })
    }

    /// Fires every due fault edge at `now` (see
    /// [`FaultInjector::tick`]); returns the virtual time charged.
    pub(crate) fn fault_tick(&mut self, now: Nanos, accesses: u64) -> Nanos {
        self.faults.tick(&mut self.kernel, &mut self.policy, now, accesses)
    }

    /// Offers the policy a tick at `now` and applies any TLB shootdowns
    /// it requested. Returns the total time charged — exactly the
    /// sequence of charges the seed engine's inline tick block made.
    pub(crate) fn policy_tick(&mut self, now: Nanos) -> Nanos {
        let mut elapsed = self.policy.maybe_tick(&mut self.kernel, now);
        self.policy.drain_shootdowns_into(&mut self.shootdowns);
        for &vpage in &self.shootdowns {
            self.tlb.shootdown(vpage);
            elapsed += self.kernel.costs().tlb_shootdown;
        }
        self.shootdowns.clear();
        elapsed
    }

    /// One timeline sample of the machine state at `state.clock`.
    pub(crate) fn sample(&self, state: &LoopState) -> TimelinePoint {
        let telemetry = self.policy.telemetry();
        let slow = self.kernel.memory().node(Tier::Slow).stats();
        let window = state.clock.saturating_sub(state.window_start);
        TimelinePoint {
            at: state.clock,
            accesses: state.accesses,
            slow_accesses: slow.reads + slow.writes,
            throughput: if window.is_zero() {
                0.0
            } else {
                state.window_accesses as f64 / window.as_secs_f64()
            },
            threshold: telemetry.threshold,
            p_fraction: telemetry.p_fraction,
            bandwidth_util: telemetry.bandwidth_util,
            read_util: telemetry.read_util,
            write_util: telemetry.write_util,
            error_bound: telemetry.error_bound,
            histogram: telemetry.histogram,
        }
    }

    /// Consumes the machine and the final loop registers into the
    /// [`RunReport`], fetching the end-of-run counters in the same
    /// order as the seed engine.
    pub(crate) fn into_report(self, workload: String, state: LoopState) -> RunReport {
        let LoopState { clock: runtime, accesses, timeline, markers, .. } = state;
        let slow = self.kernel.memory().node(Tier::Slow).stats();
        let fast = self.kernel.memory().node(Tier::Fast).stats();
        let cache = self.caches.stats();
        let telemetry = self.policy.telemetry();
        let degradation = self.faults.into_metrics(runtime, accesses);
        RunReport {
            workload,
            policy: self.policy.name().to_string(),
            runtime,
            accesses,
            llc_misses: cache.llc_misses,
            slow_reads: slow.reads,
            slow_writes: slow.writes,
            fast_reads: fast.reads,
            fast_writes: fast.writes,
            kernel: self.kernel.stats(),
            tlb: self.tlb.stats(),
            cache,
            profiling_overhead: telemetry.profiling_overhead,
            promoted_huge_bytes: telemetry.promoted_huge_bytes,
            degradation,
            timeline,
            markers,
        }
    }

    /// Serializes the full machine state — kernel, caches, TLB and the
    /// policy's private state — into one snapshot object. The
    /// configuration is *not* serialized: a snapshot restores onto a
    /// freshly built machine of the same configuration, which the
    /// envelope fingerprint enforces.
    pub(crate) fn snapshot(&self) -> Json {
        Json::obj([
            (
                "policy",
                Json::obj([
                    ("name", Json::Str(self.policy.name().to_string())),
                    ("state", self.policy.snapshot_state()),
                ]),
            ),
            ("kernel", self.kernel.snapshot()),
            ("caches", self.caches.snapshot()),
            ("tlb", self.tlb.snapshot()),
            ("faults", self.faults.snapshot()),
        ])
    }

    /// Restores a [`Machine::snapshot`] onto this freshly built
    /// machine.
    ///
    /// # Errors
    ///
    /// Fails with [`Error::Snapshot`] when the snapshot's policy does
    /// not match the configured one, or any component rejects its
    /// state. The machine may be partially mutated on error and must
    /// be discarded — callers abort the whole restore.
    pub(crate) fn restore(&mut self, snap: &Json) -> Result<()> {
        let policy = snap.req("policy")?;
        let name = policy.req_str("name")?;
        if name != self.policy.name() {
            return Err(Error::snapshot(format!(
                "snapshot was taken under policy {name:?}, this machine runs {:?}",
                self.policy.name()
            )));
        }
        self.kernel.restore(snap.req("kernel")?)?;
        self.caches.restore(snap.req("caches")?)?;
        self.tlb.restore(snap.req("tlb")?)?;
        self.faults.restore(snap.req("faults")?)?;
        self.policy.restore_state(policy.req("state")?)
    }

    /// Executes one CPU access; returns the time it took. `costs` holds
    /// the pre-resolved per-access latencies so the hot loop does not
    /// re-read them through `self.config`.
    pub(crate) fn step(&mut self, access: Access, now: Nanos, costs: &HotCosts) -> Nanos {
        let mut elapsed = costs.cpu_per_access;
        let vpage = access.vpage;

        // 1. Address translation.
        let tlb_hit = self.tlb.access(vpage);
        if !tlb_hit {
            elapsed += costs.tlb_walk;
            let was_mapped = self.kernel.page_table().is_mapped(vpage);
            let preference = self.policy.alloc_preference();
            self.kernel
                .touch_alloc_preferring(vpage, preference, now)
                .expect("simulated machine out of physical memory");
            if !was_mapped {
                elapsed += self.kernel.minor_fault_cost();
            }
            // The walker sets the PTE Accessed bit.
            let _ = self.kernel.page_table_mut().mark_accessed(vpage);
        }
        let frame = self.kernel.translate(vpage).expect("page mapped above");

        // 2. Cache hierarchy (virtually indexed).
        let line = CacheLine::of_page(
            neomem_types::PageNum::new(vpage.index()),
            access.line_in_page as u64,
        );
        let outcome = self.caches.access(line, access.kind);
        elapsed += match outcome.level {
            HitLevel::L1 => costs.l1,
            HitLevel::L2 => costs.l2,
            HitLevel::Llc => costs.llc,
            HitLevel::Memory => Nanos::ZERO, // charged below via the node model
        };

        // 3. Memory traffic.
        let tier = self.kernel.memory().tier_of(frame);
        if let Some(_fill) = outcome.traffic.fill {
            // The demand fill: the CPU waits for it.
            elapsed += self.kernel.memory_mut().service(frame, neomem_types::AccessKind::Read, now);
        }
        if let Some(victim) = outcome.traffic.writeback {
            // Dirty writeback: asynchronous, occupies bandwidth only.
            let victim_vpage = VirtPage::new(victim.page().index());
            if let Ok(victim_frame) = self.kernel.translate(victim_vpage) {
                let _ = self.kernel.memory_mut().service(
                    victim_frame,
                    neomem_types::AccessKind::Write,
                    now,
                );
                // The device side still observes it.
                let wb_tier = self.kernel.memory().tier_of(victim_frame);
                let wb_event = AccessEvent {
                    vpage: victim_vpage,
                    frame: victim_frame,
                    tier: wb_tier,
                    kind: neomem_types::AccessKind::Write,
                    tlb_hit: true,
                    llc_miss: true,
                    now,
                };
                elapsed += self.policy.on_access(&wb_event, &mut self.kernel);
            }
        }

        // 4. Expose the demand access to the policy.
        let event = AccessEvent {
            vpage,
            frame,
            tier,
            kind: access.kind,
            tlb_hit,
            llc_miss: outcome.level.is_llc_miss(),
            now,
        };
        elapsed += self.policy.on_access(&event, &mut self.kernel);
        elapsed
    }
}

/// A configured simulation, ready to run.
pub struct Simulation {
    machine: Machine,
    workload: Box<dyn Workload>,
}

impl Simulation {
    /// Builds the simulated machine.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation failures, including a
    /// workload RSS that does not match `config.rss_pages`.
    pub fn new(
        config: SimConfig,
        workload: Box<dyn Workload>,
        policy: impl Into<PolicyBox>,
    ) -> Result<Self> {
        config.validate()?;
        if workload.rss_pages() != config.rss_pages {
            return Err(neomem_types::Error::invalid_config(format!(
                "workload rss {} != config rss {}",
                workload.rss_pages(),
                config.rss_pages
            )));
        }
        Ok(Self { machine: Machine::new(config, policy.into())?, workload })
    }

    /// Runs to completion and produces the report.
    ///
    /// The engine pulls events in batches through
    /// [`Workload::fill_events`] into one reused buffer (a single
    /// virtual dispatch per batch instead of one per access) and hoists
    /// the fault / policy-tick / timeline-sample / `max_time` checks
    /// out of the per-access path behind a single precomputed *next
    /// deadline*: the common iteration is `step` plus one branch. The
    /// slow path runs the due checks in exactly the seed engine's order
    /// (fault edges, tick, sample, stop), so a batched run is
    /// observably identical to the event-at-a-time path for any batch
    /// size — the `batch_determinism` suite holds this invariant.
    ///
    /// # Panics
    ///
    /// Panics if the machine runs out of physical memory — the
    /// configuration validator makes this unreachable for derived
    /// layouts, so it indicates a config override bug.
    pub fn run(self) -> RunReport {
        let Self { mut machine, mut workload } = self;
        let mut state = LoopState::fresh(&machine.config);
        drive(&mut machine, workload.as_mut(), 0, u64::MAX, &mut state, None, |_, _| {});
        machine.into_report(workload.name().to_string(), state)
    }

    /// Runs until the virtual clock reaches `at` and serializes the
    /// full run state — machine, loop registers, timeline so far —
    /// into a versioned snapshot document (see [`crate::snapshot`]).
    ///
    /// Resuming the snapshot with [`Simulation::run_from`] on an
    /// identically configured simulation produces a report
    /// bit-identical to an uninterrupted [`Simulation::run`]. If the
    /// run completes before `at`, the snapshot captures the final
    /// state and a resume finishes immediately with the same report.
    ///
    /// # Panics
    ///
    /// Panics if the machine runs out of physical memory, as in
    /// [`Simulation::run`].
    pub fn snapshot_at(self, at: Nanos) -> Json {
        let Self { mut machine, mut workload } = self;
        let mut state = LoopState::fresh(&machine.config);
        drive(&mut machine, workload.as_mut(), 0, u64::MAX, &mut state, Some(at), |_, _| {});
        let fingerprint = snapshot::sim_fingerprint(&machine.config);
        snapshot::envelope(
            snapshot::KIND_SIM,
            fingerprint,
            workload.name(),
            machine.policy.name(),
            Json::obj([("machine", machine.snapshot()), ("loop", Json::obj(state.fields()))]),
        )
    }

    /// Restores a [`Simulation::snapshot_at`] snapshot onto this
    /// freshly built simulation and runs it to completion. The
    /// workload generator is rebuilt from configuration and
    /// fast-forwarded past the events the snapshotted run consumed —
    /// generator internals are never serialized.
    ///
    /// # Errors
    ///
    /// Fails with [`Error::Snapshot`] when the envelope does not match
    /// this simulation (schema, version, kind, configuration
    /// fingerprint, workload or policy name) or any component rejects
    /// its state. Corrupt input yields an error, never a panic.
    ///
    /// # Panics
    ///
    /// Panics if the machine runs out of physical memory, as in
    /// [`Simulation::run`].
    pub fn run_from(self, snap: &Json) -> Result<RunReport> {
        let Self { mut machine, mut workload } = self;
        let fingerprint = snapshot::sim_fingerprint(&machine.config);
        let state_json = snapshot::open_envelope(
            snap,
            snapshot::KIND_SIM,
            fingerprint,
            workload.name(),
            machine.policy.name(),
        )?;
        machine.restore(state_json.req("machine")?)?;
        let mut state = LoopState::restore(state_json.req("loop")?)?;
        snapshot::fast_forward(workload.as_mut(), state.events_consumed());
        drive(&mut machine, workload.as_mut(), 0, u64::MAX, &mut state, None, |_, _| {});
        Ok(machine.into_report(workload.name().to_string(), state))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neomem_policies::{
        FirstTouchPolicy, NeoMemParams, NeoMemPolicy, PebsPolicy, PebsPolicyConfig,
    };
    use neomem_profilers::NeoProfDriverConfig;
    use neomem_types::Bandwidth;
    use neomem_workloads::WorkloadKind;

    fn neomem_policy(config: &SimConfig) -> PolicyBox {
        let mem = config.memory_config();
        let dev = neomem_neoprof_config(mem.fast.capacity_frames);
        NeoMemPolicy::new(dev, NeoProfDriverConfig::default(), NeoMemParams::scaled(1000))
            .unwrap()
            .into()
    }

    fn neomem_neoprof_config(slow_base: u64) -> neomem_neoprof::NeoProfConfig {
        neomem_neoprof::NeoProfConfig::small(neomem_types::PageNum::new(slow_base))
    }

    #[test]
    fn first_touch_run_completes() {
        let config = SimConfig { max_accesses: 50_000, ..SimConfig::quick(2048, 2) };
        let w = WorkloadKind::Gups.build(2048, 1);
        let report =
            Simulation::new(config, w, Box::new(FirstTouchPolicy::new())).unwrap().run();
        assert_eq!(report.accesses, 50_000);
        assert!(report.runtime > Nanos::ZERO);
        assert_eq!(report.kernel.promotions, 0);
        assert!(report.llc_misses > 0, "working set exceeds caches");
        assert!(report.slow_tier_accesses() > 0, "footprint spills to CXL at 1:2");
    }

    #[test]
    fn rss_mismatch_rejected() {
        let config = SimConfig::quick(2048, 2);
        let w = WorkloadKind::Gups.build(4096, 1);
        assert!(Simulation::new(config, w, Box::new(FirstTouchPolicy::new())).is_err());
    }

    #[test]
    fn neomem_promotes_and_beats_first_touch_on_gups() {
        let config = SimConfig { max_accesses: 400_000, ..SimConfig::quick(4096, 4) };
        let run = |policy: PolicyBox| {
            let w = WorkloadKind::Gups.build(4096, 7);
            Simulation::new(config.clone(), w, policy).unwrap().run()
        };
        let ft = run(FirstTouchPolicy::new().into());
        let nm = run(neomem_policy(&config));
        assert!(nm.kernel.promotions > 0, "NeoMem must migrate hot pages");
        assert!(
            nm.runtime < ft.runtime,
            "NeoMem {} !< first-touch {} on skewed GUPS",
            nm.runtime,
            ft.runtime
        );
        assert!(nm.slow_tier_accesses() < ft.slow_tier_accesses());
    }

    #[test]
    fn pinned_slow_slower_than_pinned_fast() {
        // Fig. 3b: CXL-only is substantially slower than local-only.
        let mut config = SimConfig { max_accesses: 150_000, ..SimConfig::quick(1024, 2) };
        // Both tiers big enough to hold everything.
        config.memory = Some(neomem_mem::TieredMemoryConfig::with_frames(2048, 2048));
        let run = |tier| {
            let w = WorkloadKind::Gups.build(1024, 3);
            Simulation::new(config.clone(), w, Box::new(FirstTouchPolicy::pinned(tier)))
                .unwrap()
                .run()
        };
        let fast = run(Tier::Fast);
        let slow = run(Tier::Slow);
        assert!(fast.slow_tier_accesses() == 0);
        let slowdown = slow.runtime.as_nanos() as f64 / fast.runtime.as_nanos() as f64;
        assert!(slowdown > 1.3, "CXL-only slowdown only {slowdown}");
    }

    #[test]
    fn timeline_and_markers_recorded() {
        let config = SimConfig {
            max_accesses: 200_000,
            sample_interval: Nanos::from_micros(50),
            ..SimConfig::quick(1024, 2)
        };
        let w = WorkloadKind::PageRank.build(1024, 5);
        let report = Simulation::new(config, w, Box::new(FirstTouchPolicy::new())).unwrap().run();
        assert!(!report.timeline.is_empty());
        assert!(report.markers.iter().any(|m| m.label == "graph-built"));
        // Timeline timestamps are monotone.
        for pair in report.timeline.windows(2) {
            assert!(pair[0].at <= pair[1].at);
        }
    }

    #[test]
    fn pebs_policy_charges_overhead() {
        let config = SimConfig { max_accesses: 100_000, ..SimConfig::quick(2048, 2) };
        let pebs_cfg = PebsPolicyConfig {
            pebs: neomem_profilers::PebsConfig { sample_interval: 10, ..Default::default() },
            ..PebsPolicyConfig::scaled(1000)
        };
        let w = WorkloadKind::Gups.build(2048, 9);
        let policy = Box::new(PebsPolicy::new(pebs_cfg, Bandwidth::from_mib_per_sec(256)));
        let report = Simulation::new(config, w, policy).unwrap().run();
        assert!(report.profiling_overhead > Nanos::ZERO);
    }

    #[test]
    fn max_time_bounds_run() {
        let config = SimConfig {
            max_accesses: u64::MAX / 2,
            max_time: Some(Nanos::from_millis(1)),
            ..SimConfig::quick(1024, 2)
        };
        let w = WorkloadKind::Silo.build(1024, 2);
        let report = Simulation::new(config, w, Box::new(FirstTouchPolicy::new())).unwrap().run();
        assert!(report.runtime >= Nanos::from_millis(1));
        assert!(report.runtime < Nanos::from_millis(100), "should stop promptly");
    }
}
