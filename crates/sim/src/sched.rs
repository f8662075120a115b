//! Slice scheduling for the co-run engine.
//!
//! A [`DynamicSchedule`] decides, at every slice boundary, what the
//! co-run engine does next: run a tenant's slice, admit or retire a
//! tenant, change a weight, idle forward to the next timeline event, or
//! stop. The engine ([`crate::CoRunSimulation`]) owns the machine and
//! the attribution; the schedule owns *only* the schedule — a pure
//! function of the scenario, the quantum and the virtual clock, never
//! of `batch_size` or host threading, so every co-run stays
//! bit-identical at any batch size and `--threads` value.
//!
//! It is the engine's only schedule. Tenants arrive, depart and change
//! weight at the [`neomem_workloads::Scenario`] timeline's virtual-time
//! points, applied at the first slice boundary at or after each event's
//! timestamp; between those, the active tenants run a weighted
//! round-robin (tenant `i` runs `quantum × weight_i` events per round).
//! A fixed tenant mix is a scenario without events
//! ([`neomem_workloads::Scenario::steady`]): everyone is active from
//! time zero and the round-robin runs unchanged to the end of the run.

use neomem_types::json::{hex_from_u64s, Json};
use neomem_types::{Error, Nanos, Result};
use neomem_workloads::{Scenario, TenantEvent, TenantEventKind};

/// One scheduling decision, consumed by the engine at a slice boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SchedulerOp {
    /// Run `events` workload events of lane `lane`. `new_round` marks
    /// the first slice of a scheduling round (the engine's `rounds`
    /// counter increments on it).
    Slice {
        /// Lane (tenant index, mix order) to run.
        lane: usize,
        /// Events the slice executes.
        events: usize,
        /// Whether this slice opens a new round.
        new_round: bool,
    },
    /// Lane `lane` starts running: the engine opens its tenant-epoch
    /// and informs the policy
    /// ([`neomem_policies::TieringPolicy::on_tenant_arrival`]).
    Admit {
        /// Arriving lane.
        lane: usize,
    },
    /// Lane `lane` stops running: the engine informs the policy,
    /// reclaims the lane's fast-tier pages through the normal eviction
    /// path, and closes its tenant-epoch.
    Retire {
        /// Departing lane.
        lane: usize,
    },
    /// Lane `lane`'s interleave weight changes (affects subsequent
    /// slices of this schedule; recorded by the engine).
    SetWeight {
        /// Affected lane.
        lane: usize,
        /// New weight.
        weight: u32,
    },
    /// No lane is runnable but timeline events remain: the engine
    /// advances the virtual clock to this instant (keeping policy ticks
    /// and timeline samples alive across the gap).
    AdvanceTo(Nanos),
    /// No lane is runnable and no events remain: the run is over.
    Done,
}

/// The co-run schedule: applies the scenario timeline's arrivals,
/// departures and weight changes at slice boundaries, and round-robins
/// the currently-active lanes in between.
#[derive(Debug, Clone)]
pub(crate) struct DynamicSchedule {
    quantum: usize,
    /// The timeline, sorted by time (scenario build order).
    events: Vec<TenantEvent>,
    next_event: usize,
    active: Vec<bool>,
    weights: Vec<u32>,
    cursor: usize,
    pending_new_round: bool,
}

impl DynamicSchedule {
    /// Builds the schedule from a validated scenario at `quantum`
    /// events per weight unit.
    pub(crate) fn new(scenario: &Scenario, quantum: usize) -> Self {
        Self {
            quantum,
            events: scenario.events().to_vec(),
            next_event: 0,
            active: scenario.initially_active(),
            weights: scenario.mix().tenants().iter().map(|t| t.weight).collect(),
            cursor: 0,
            pending_new_round: true,
        }
    }

    /// Which lanes are currently admitted.
    pub(crate) fn active(&self) -> &[bool] {
        &self.active
    }

    /// The next scheduling decision at virtual time `now`.
    pub(crate) fn next(&mut self, now: Nanos) -> SchedulerOp {
        // Due timeline events first, one per call, in timeline order.
        if let Some(event) = self.events.get(self.next_event) {
            if event.at <= now {
                let event = *event;
                self.next_event += 1;
                return match event.kind {
                    TenantEventKind::Arrive => {
                        self.active[event.tenant] = true;
                        SchedulerOp::Admit { lane: event.tenant }
                    }
                    TenantEventKind::Depart => {
                        self.active[event.tenant] = false;
                        SchedulerOp::Retire { lane: event.tenant }
                    }
                    TenantEventKind::SetWeight(weight) => {
                        self.weights[event.tenant] = weight;
                        SchedulerOp::SetWeight { lane: event.tenant, weight }
                    }
                };
            }
        }
        // Nothing runnable: idle forward to the next event, or stop.
        if !self.active.iter().any(|&a| a) {
            return match self.events.get(self.next_event) {
                Some(event) => SchedulerOp::AdvanceTo(event.at),
                None => SchedulerOp::Done,
            };
        }
        // Round-robin over the active lanes.
        loop {
            if self.cursor == self.active.len() {
                self.cursor = 0;
                self.pending_new_round = true;
            }
            let lane = self.cursor;
            self.cursor += 1;
            if self.active[lane] {
                return SchedulerOp::Slice {
                    lane,
                    events: self.quantum * self.weights[lane] as usize,
                    new_round: std::mem::take(&mut self.pending_new_round),
                };
            }
        }
    }

    /// Serialises the schedule's mutable position for a machine
    /// snapshot.
    pub(crate) fn snapshot_state(&self) -> Json {
        let active: Vec<u64> = self.active.iter().map(|&a| u64::from(a)).collect();
        let weights: Vec<u64> = self.weights.iter().map(|&w| u64::from(w)).collect();
        Json::obj([
            ("next_event", Json::U64(self.next_event as u64)),
            ("active", Json::Str(hex_from_u64s(&active))),
            ("weights", Json::Str(hex_from_u64s(&weights))),
            ("cursor", Json::U64(self.cursor as u64)),
            ("pending_new_round", Json::Bool(self.pending_new_round)),
        ])
    }

    /// Restores [`DynamicSchedule::snapshot_state`] output onto a
    /// schedule built from the same scenario and quantum. Also reads the
    /// round-robin position `{"pos": p}` that fixed-mix snapshots before
    /// version 4 carry: lane `p` runs next, opening a new round when
    /// `p == 0`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Snapshot`] on state the schedule cannot absorb,
    /// including a round-robin position offered to a schedule with
    /// timeline events or out of range for its lanes.
    pub(crate) fn restore_state(&mut self, state: &Json) -> Result<()> {
        if state.get("pos").is_some() {
            // Every lane active at its mix weight, as in a fresh
            // event-free schedule, with lane `pos` next.
            let (pos, lanes) = (state.req_u64("pos")?, self.active.len());
            if !self.events.is_empty() || pos >= lanes as u64 {
                return Err(Error::snapshot(format!(
                    "round-robin position {pos} cannot restore a schedule of {lanes} lanes and \
                     {} timeline events",
                    self.events.len()
                )));
            }
            self.cursor = pos as usize;
            self.pending_new_round = pos == 0;
            return Ok(());
        }
        let next_event = state.req_u64("next_event")? as usize;
        if next_event > self.events.len() {
            return Err(Error::snapshot(format!(
                "timeline position {next_event} past the {}-event scenario",
                self.events.len()
            )));
        }
        let active_raw = state.req_u64s("active")?;
        if active_raw.len() != self.active.len() {
            return Err(Error::snapshot(format!(
                "active-lane array has {} lanes, schedule has {}",
                active_raw.len(),
                self.active.len()
            )));
        }
        let mut active = Vec::with_capacity(active_raw.len());
        for v in active_raw {
            match v {
                0 => active.push(false),
                1 => active.push(true),
                _ => return Err(Error::snapshot(format!("active-lane flag {v} is not 0 or 1"))),
            }
        }
        let weights_raw = state.req_u64s("weights")?;
        if weights_raw.len() != self.weights.len() {
            return Err(Error::snapshot(format!(
                "weight array has {} lanes, schedule has {}",
                weights_raw.len(),
                self.weights.len()
            )));
        }
        let mut weights = Vec::with_capacity(weights_raw.len());
        for w in weights_raw {
            let narrow = u32::try_from(w)
                .map_err(|_| Error::snapshot(format!("lane weight {w} exceeds u32")))?;
            if narrow == 0 {
                return Err(Error::snapshot(
                    "lane weight 0: its empty slices never advance the clock",
                ));
            }
            weights.push(narrow);
        }
        let cursor = state.req_u64("cursor")? as usize;
        if cursor > self.active.len() {
            return Err(Error::snapshot(format!(
                "round-robin cursor {cursor} out of range for {} lanes",
                self.active.len()
            )));
        }
        self.next_event = next_event;
        self.active = active;
        self.weights = weights;
        self.cursor = cursor;
        self.pending_new_round = state.req_bool("pending_new_round")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neomem_workloads::{TenantMix, WorkloadKind};

    fn mix_3() -> TenantMix {
        TenantMix::builder()
            .tenant(WorkloadKind::Gups, 256, 1)
            .weighted_tenant(WorkloadKind::Silo, 256, 2, 2)
            .tenant(WorkloadKind::Btree, 256, 3)
            .build()
            .unwrap()
    }

    #[test]
    fn static_round_robin_cycles_with_weighted_slices() {
        let mix = TenantMix::builder()
            .tenant(WorkloadKind::Gups, 256, 1)
            .weighted_tenant(WorkloadKind::Silo, 256, 2, 2)
            .weighted_tenant(WorkloadKind::Btree, 256, 3, 3)
            .build()
            .unwrap();
        let mut s = DynamicSchedule::new(&Scenario::steady(mix), 10);
        let expected = [
            (0, 10, true),
            (1, 20, false),
            (2, 30, false),
            (0, 10, true),
            (1, 20, false),
        ];
        for &(lane, events, new_round) in &expected {
            assert_eq!(
                s.next(Nanos::ZERO),
                SchedulerOp::Slice { lane, events, new_round }
            );
        }
    }

    #[test]
    fn dynamic_applies_due_events_then_resumes() {
        let at = Nanos::from_millis(1);
        let scenario = Scenario::builder(mix_3())
            .depart(1, at)
            .set_weight(2, at, 5)
            .build()
            .unwrap();
        let mut s = DynamicSchedule::new(&scenario, 10);
        // Before the events are due: everyone runs.
        assert_eq!(
            s.next(Nanos::ZERO),
            SchedulerOp::Slice { lane: 0, events: 10, new_round: true }
        );
        assert_eq!(
            s.next(Nanos::ZERO),
            SchedulerOp::Slice { lane: 1, events: 20, new_round: false }
        );
        // Past the timestamp: both events fire, in timeline order.
        assert_eq!(s.next(at), SchedulerOp::Retire { lane: 1 });
        assert_eq!(s.next(at), SchedulerOp::SetWeight { lane: 2, weight: 5 });
        // Lane 1 is now skipped; lane 2 runs at its new weight.
        assert_eq!(
            s.next(at),
            SchedulerOp::Slice { lane: 2, events: 50, new_round: false }
        );
        assert_eq!(
            s.next(at),
            SchedulerOp::Slice { lane: 0, events: 10, new_round: true }
        );
    }

    #[test]
    fn dynamic_idles_to_arrivals_and_finishes_after_departures() {
        let mix = TenantMix::builder().tenant(WorkloadKind::Gups, 256, 1).build().unwrap();
        let arrive_at = Nanos::from_millis(2);
        let depart_at = Nanos::from_millis(4);
        let scenario = Scenario::builder(mix)
            .arrive(0, arrive_at)
            .depart(0, depart_at)
            .build()
            .unwrap();
        let mut s = DynamicSchedule::new(&scenario, 10);
        assert_eq!(s.active(), &[false]);
        // Nobody is active yet: idle forward to the arrival.
        assert_eq!(s.next(Nanos::ZERO), SchedulerOp::AdvanceTo(arrive_at));
        assert_eq!(s.next(arrive_at), SchedulerOp::Admit { lane: 0 });
        assert!(matches!(s.next(arrive_at), SchedulerOp::Slice { lane: 0, .. }));
        // Past the departure: retire, then nothing remains.
        assert_eq!(s.next(depart_at), SchedulerOp::Retire { lane: 0 });
        assert_eq!(s.next(depart_at), SchedulerOp::Done);
    }
}
