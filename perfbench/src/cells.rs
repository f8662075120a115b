//! The benchmark's workloads: how each cell is built from the public
//! API, and what a finished run reports.

use std::time::{Duration, Instant};

use neomem::policies::PolicyBox;
use neomem::prelude::*;
use neomem::sim::jain_fairness;
use neomem::workloads::Workload;

use crate::trace::Tenant;

/// Daemon cadence divisor: the `Experiment` builder's default, so the
/// hand-assembled traced cells match `Experiment::into_simulation`.
const TIME_SCALE: u64 = 1000;

/// Benchmark workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 2] = ["gups-large-neomem", "churn-corun-neomem-ca"];

/// Churn period of the co-run visitors: each period, both visitors
/// arrive and depart once.
const CHURN_PERIOD: Nanos = Nanos::from_millis(5);
/// Periods scheduled; far more than any run reaches, so the visitors
/// keep arriving and departing until the access budget ends the run.
const CHURN_CYCLES: u64 = 400;

/// What a cell simulates.
enum Shape {
    /// One workload on one machine (`Experiment` + `Simulation`).
    Single {
        workload: WorkloadKind,
        rss_pages: u64,
        large: bool,
        policy: PolicyKind,
    },
    /// The three-tenant churn co-run (`CoRunSimulation::with_scenario`).
    Churn,
}

/// One benchmark workload at one seed: a fully determined simulation.
pub struct Cell {
    shape: Shape,
    ratio: u64,
    /// Simulated CPU accesses per run.
    pub accesses: u64,
    seed: u64,
}

/// A built simulation, ready to run.
pub enum Sim {
    /// Single-tenant engine.
    Single(Box<Simulation>),
    /// Multi-tenant engine.
    CoRun(Box<CoRunSimulation>),
}

/// The simulated outcome of one run.
pub enum Report {
    /// Single-tenant report.
    Single(RunReport),
    /// Co-run report.
    CoRun(CoRunReport),
}

/// Host time of each construction step, measured apart.
pub struct BuildTimes {
    /// Workload generator construction.
    pub workloads: Duration,
    /// `build_policy`.
    pub policy: Duration,
    /// `Simulation::new` / `CoRunSimulation::with_scenario`.
    pub machine: Duration,
}

impl Cell {
    /// The cell of workload `name` at `seed`; `accesses` overrides the
    /// workload's access budget.
    pub fn named(name: &str, seed: u64, accesses: Option<u64>) -> Option<Self> {
        let (shape, ratio, budget) = match name {
            "gups-large-neomem" => (
                Shape::Single {
                    workload: WorkloadKind::Gups,
                    rss_pages: 65_536,
                    large: true,
                    policy: PolicyKind::NeoMem,
                },
                2,
                2_000_000,
            ),
            "churn-corun-neomem-ca" => (Shape::Churn, 4, 2_000_000),
            _ => return None,
        };
        Some(Self {
            shape,
            ratio,
            accesses: accesses.unwrap_or(budget),
            seed,
        })
    }

    /// The validated single-tenant experiment (the public builder path).
    fn experiment(&self) -> Result<Experiment, String> {
        let Shape::Single {
            workload,
            rss_pages,
            large,
            policy,
        } = self.shape
        else {
            unreachable!("experiment() is only called on single-tenant cells")
        };
        Experiment::builder()
            .workload(workload)
            .policy(policy)
            .rss_pages(rss_pages)
            .ratio(self.ratio)
            .accesses(self.accesses)
            .seed(self.seed)
            .large_machine(large)
            .build()
            .map_err(|e| e.to_string())
    }

    /// The churn scenario: a GUPS resident joined by Silo and B-tree
    /// visitors that arrive and depart once per churn period. Tenant `i`
    /// is seeded `seed + i`.
    pub fn scenario(&self) -> Result<Scenario, String> {
        let mix = TenantMix::builder()
            .tenant(WorkloadKind::Gups, 2048, self.seed)
            .tenant(WorkloadKind::Silo, 2048, self.seed + 1)
            .tenant(WorkloadKind::Btree, 2048, self.seed + 2)
            .build()?;
        let at = |period: u64, tenths: u64| {
            Nanos::new(period * CHURN_PERIOD.as_nanos() + tenths * CHURN_PERIOD.as_nanos() / 10)
        };
        let mut builder = Scenario::builder(mix);
        for k in 0..CHURN_CYCLES {
            builder = builder
                .arrive(1, at(k, 2))
                .arrive(2, at(k, 3))
                .depart(1, at(k, 7))
                .depart(2, at(k, 8));
        }
        builder.build()
    }

    fn corun_config(&self, scenario: &Scenario) -> CoRunConfig {
        let mut config = CoRunConfig::quick(scenario.mix(), self.ratio);
        config.sim.max_accesses = self.accesses;
        config
    }

    /// Whether this is the co-run cell.
    pub fn is_corun(&self) -> bool {
        matches!(self.shape, Shape::Churn)
    }

    /// The machine configuration the cell runs on.
    pub fn sim_config(&self) -> Result<SimConfig, String> {
        match self.shape {
            Shape::Single { .. } => Ok(self.experiment()?.config().clone()),
            Shape::Churn => Ok(self.corun_config(&self.scenario()?).sim),
        }
    }

    /// Builds the cell the way a user would: `Experiment::into_simulation`
    /// for single-tenant cells, `build_policy` + `with_scenario` for the
    /// co-run.
    pub fn build(&self) -> Result<Sim, String> {
        match self.shape {
            Shape::Single { .. } => Ok(Sim::Single(Box::new(self.experiment()?.into_simulation()))),
            Shape::Churn => Ok(self.build_corun(|p| p)?.0),
        }
    }

    /// Builds the co-run: scenario, `build_policy` (its policy passed
    /// through `wrap_policy`) and `with_scenario`, which also builds the
    /// tenants' generators. Returns the host time of the policy and
    /// machine steps.
    fn build_corun(
        &self,
        wrap_policy: impl FnOnce(PolicyBox) -> PolicyBox,
    ) -> Result<(Sim, Duration, Duration), String> {
        let scenario = self.scenario()?;
        let config = self.corun_config(&scenario);
        let t0 = Instant::now();
        let built = build_policy(
            PolicyKind::NeoMemContentionAware,
            &config.sim,
            TIME_SCALE,
            PolicyOverrides::default(),
        )
        .map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let sim = CoRunSimulation::with_scenario(config, &scenario, wrap_policy(built))
            .map_err(|e| e.to_string())?;
        Ok((Sim::CoRun(Box::new(sim)), t1 - t0, t1.elapsed()))
    }

    /// Builds the cell step by step, timing each step, and passing the
    /// policy and (for single-tenant cells) the generator through
    /// `wrap_policy` and `wrap_workload` — the hook the traced run uses.
    pub fn build_timed(
        &self,
        wrap_policy: impl FnOnce(PolicyBox) -> PolicyBox,
        wrap_workload: impl FnOnce(Box<dyn Workload>) -> Box<dyn Workload>,
    ) -> Result<(Sim, BuildTimes), String> {
        match self.shape {
            Shape::Single {
                workload,
                rss_pages,
                policy,
                ..
            } => {
                let config = self.experiment()?.config().clone();
                let t0 = Instant::now();
                let generator = workload.build(rss_pages, self.seed);
                let t1 = Instant::now();
                let built = build_policy(policy, &config, TIME_SCALE, PolicyOverrides::default())
                    .map_err(|e| e.to_string())?;
                let t2 = Instant::now();
                let sim = Simulation::new(config, wrap_workload(generator), wrap_policy(built))
                    .map_err(|e| e.to_string())?;
                let t3 = Instant::now();
                Ok((
                    Sim::Single(Box::new(sim)),
                    BuildTimes {
                        workloads: t1 - t0,
                        policy: t2 - t1,
                        machine: t3 - t2,
                    },
                ))
            }
            Shape::Churn => {
                // The co-run engine builds its generators inside
                // `with_scenario`; time a standalone build of the same
                // generators for the workload step.
                let scenario = self.scenario()?;
                let start = Instant::now();
                for i in 0..scenario.mix().len() {
                    std::hint::black_box(scenario.build_workload(i));
                }
                let workloads = start.elapsed();
                let (sim, policy, machine) = self.build_corun(wrap_policy)?;
                Ok((
                    sim,
                    BuildTimes {
                        workloads,
                        policy,
                        machine,
                    },
                ))
            }
        }
    }

    /// The cell's tenants as the replay needs them, in mix order: page-id
    /// base, a fresh generator, and the events the generator produced in
    /// `report`'s run. A single-tenant cell is one tenant at base 0.
    pub fn tenants(&self, report: &Report) -> Result<Vec<Tenant>, String> {
        let generators: Vec<(u64, Box<dyn Workload>)> = match self.shape {
            Shape::Single {
                workload,
                rss_pages,
                ..
            } => {
                vec![(0, workload.build(rss_pages, self.seed))]
            }
            Shape::Churn => {
                let scenario = self.scenario()?;
                let bases = scenario.mix().bases();
                bases
                    .into_iter()
                    .enumerate()
                    .map(|(i, base)| (base, scenario.build_workload(i)))
                    .collect()
            }
        };
        Ok(generators
            .into_iter()
            .zip(report.tenant_events())
            .map(|((base, generator), events)| (base, generator, events))
            .collect())
    }
}

impl Sim {
    /// Runs the simulation to completion.
    pub fn run(self) -> Report {
        match self {
            Sim::Single(sim) => Report::Single(sim.run()),
            Sim::CoRun(sim) => Report::CoRun(sim.run()),
        }
    }
}

impl Report {
    /// The machine-wide report.
    pub fn combined(&self) -> &RunReport {
        match self {
            Report::Single(r) => r,
            Report::CoRun(r) => &r.combined,
        }
    }

    /// The co-run sections, when this is a co-run.
    pub fn corun(&self) -> Option<&CoRunReport> {
        match self {
            Report::Single(_) => None,
            Report::CoRun(r) => Some(r),
        }
    }

    /// Jain's index over the tenants' fast-tier occupancy: the co-run's
    /// `occupancy_fairness`, and the index of a single tenant (1) for a
    /// single-tenant run.
    pub fn fairness(&self) -> f64 {
        match self {
            Report::Single(_) => jain_fairness(&[1.0]),
            Report::CoRun(r) => r.occupancy_fairness(),
        }
    }

    /// Events each tenant's generator produced, in mix order: accesses
    /// plus phase markers.
    fn tenant_events(&self) -> Vec<u64> {
        match self {
            Report::Single(r) => vec![r.accesses + r.markers.len() as u64],
            Report::CoRun(r) => r.tenants.iter().map(|t| t.accesses + t.markers).collect(),
        }
    }

    /// Every simulated quantity of the run, flattened for exact
    /// comparison: `scalar_metrics()`, plus the tenant, epoch and
    /// contention sections of a co-run. Floats compare by bit pattern.
    pub fn fingerprint(&self) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = self
            .combined()
            .scalar_metrics()
            .into_iter()
            .map(|(name, value)| (name.to_string(), value))
            .collect();
        if let Report::CoRun(r) = self {
            for t in &r.tenants {
                for (name, value) in t.scalar_metrics() {
                    out.push((format!("tenant{}.{name}", t.tenant), value));
                }
                out.push((
                    format!("tenant{}.mean_fast_share", t.tenant),
                    t.mean_fast_share.to_bits(),
                ));
            }
            for e in &r.epochs {
                let key = format!("epoch{}.{}", e.tenant, e.epoch);
                out.push((format!("{key}.start_ns"), e.start.as_nanos()));
                out.push((format!("{key}.end_ns"), e.end.as_nanos()));
                out.push((format!("{key}.accesses"), e.accesses));
                out.push((format!("{key}.slow_tier_accesses"), e.slow_tier_accesses));
                out.push((format!("{key}.evicted_by_others"), e.evicted_by_others));
            }
            out.push((
                "cross_tenant_evictions".into(),
                r.contention.cross_tenant_evictions,
            ));
            out.push(("rounds".into(), r.contention.rounds));
            out.push(("slices".into(), r.contention.slices));
        }
        out.push(("fairness".into(), self.fairness().to_bits()));
        out
    }

    /// Why this report is unusable, if it is: a wrong access count, a
    /// non-finite derived metric, or a co-run whose visitors never
    /// churned.
    pub fn defect(&self, accesses: u64) -> Option<String> {
        let combined = self.combined();
        if combined.accesses != accesses {
            return Some(format!(
                "ran {} accesses, expected {accesses}",
                combined.accesses
            ));
        }
        if combined.runtime.is_zero() {
            return Some("zero simulated runtime".into());
        }
        let fairness = self.fairness();
        if !fairness.is_finite() || !(0.0..=1.0 + 1e-9).contains(&fairness) {
            return Some(format!("fairness {fairness} outside [0, 1]"));
        }
        if let Some(r) = self.corun() {
            if let Some(t) = r.tenants.iter().find(|t| !t.mean_fast_share.is_finite()) {
                return Some(format!("tenant {} has a non-finite fast share", t.tenant));
            }
            let visitor_epochs = r.epochs.iter().filter(|e| e.tenant != 0).count();
            if visitor_epochs < 4 {
                return Some(format!("visitors churned only {visitor_epochs} epochs"));
            }
        }
        None
    }
}
