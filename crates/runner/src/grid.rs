//! Cartesian experiment grids.
//!
//! An [`ExperimentGrid`] describes a sweep over workload × ratio ×
//! policy × override × access-budget × seed, expands it into
//! [`GridCell`]s in a fixed row-major order, and runs the cells on the
//! worker pool. Per-cell seeds are a pure function of the grid
//! coordinates — never of scheduling — so a run's serialised results
//! are byte-identical at any thread count.
//!
//! The workload axis can mix single-tenant workloads with co-run
//! tenant mixes ([`ExperimentGrid::corun`]): a co-run entry expands
//! against the same ratio/policy/override/budget/seed axes, runs
//! through [`CoRunSimulation`] as the event-free scenario — the engine
//! path of a scenario entry — and its cells carry per-tenant and
//! contention sections in addition to the machine-wide metrics.

use std::path::{Path, PathBuf};

use neomem::prelude::*;
use neomem::sim::{CoRunContention, CoRunReport, TenantEpoch, TenantRunReport};
use neomem::workloads::{TenantEvent, TenantEventKind};
use neomem::Error;

use crate::exec;
use crate::json::Json;
use crate::report::metrics_json;

/// One cell's simulation outcome: the machine-wide report plus the
/// optional co-run / scenario extension sections.
type CellOutcome = (RunReport, Option<CorunSections>, Option<ScenarioSections>);

/// SplitMix64: a cheap, well-mixed 64-bit hash used to derive seeds.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives `n` replicate seeds from a base seed. The first replicate
/// keeps the base seed itself (so single-seed grids reproduce the
/// legacy sequential sweeps exactly); later replicates are SplitMix64
/// descendants.
pub fn replicate_seeds(base: u64, n: usize) -> Vec<u64> {
    (0..n as u64).map(|i| if i == 0 { base } else { splitmix64(base.wrapping_add(i)) }).collect()
}

/// How a cell's workload seed is derived from its coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SeedMode {
    /// Every cell with the same seed-axis value shares that seed —
    /// the paper's convention (all Fig. 11 points use seed 2024).
    #[default]
    Shared,
    /// Each cell mixes the seed-axis value with its full grid
    /// coordinates through SplitMix64, decorrelating the sweep.
    PerCell,
}

/// A stable display name for a policy, distinguishing fixed-threshold
/// NeoMem variants that share a figure label.
pub fn policy_name(kind: PolicyKind) -> String {
    match kind {
        PolicyKind::NeoMemFixed(theta) => format!("NeoMem-fixed({theta})"),
        other => other.label().to_string(),
    }
}

/// A cartesian sweep description.
///
/// Cells expand workload-major, then ratio, policy, override,
/// access budget, and seed innermost.
#[derive(Debug, Clone)]
pub struct ExperimentGrid {
    name: String,
    workloads: Vec<GridWorkload>,
    policies: Vec<PolicyKind>,
    ratios: Vec<u64>,
    overrides: Vec<(String, PolicyOverrides)>,
    budgets: Vec<u64>,
    seeds: Vec<u64>,
    seed_mode: SeedMode,
    rss_pages: u64,
    time_scale: u64,
    large_machine: bool,
    machine: Option<MachineDescription>,
    corun_quantum: usize,
    configure: Option<fn(&mut SimConfig)>,
}

/// One entry of the workload axis: a classic single-tenant workload, a
/// labelled co-run tenant mix, or a labelled dynamic-tenancy scenario.
#[derive(Debug, Clone)]
enum GridWorkload {
    Single(WorkloadKind),
    CoRun(String, TenantMix),
    Scenario(String, Scenario),
}

impl ExperimentGrid {
    /// Starts a grid with the [`ExperimentBuilder`] defaults: GUPS ×
    /// NeoMem, ratio 1:2, 4096 pages, 500 k accesses, seed 42.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            workloads: vec![GridWorkload::Single(WorkloadKind::Gups)],
            policies: vec![PolicyKind::NeoMem],
            ratios: vec![2],
            overrides: vec![(String::new(), PolicyOverrides::default())],
            budgets: vec![500_000],
            seeds: vec![42],
            seed_mode: SeedMode::Shared,
            rss_pages: 4096,
            time_scale: 1000,
            large_machine: false,
            machine: None,
            corun_quantum: 64,
            configure: None,
        }
    }

    /// Sets the workload axis (replacing any co-run entries added so
    /// far — call [`ExperimentGrid::corun`] afterwards to append them).
    pub fn workloads(mut self, axis: impl IntoIterator<Item = WorkloadKind>) -> Self {
        self.workloads = axis.into_iter().map(GridWorkload::Single).collect();
        self
    }

    /// Appends a labelled co-run tenant mix to the workload axis. The
    /// entry expands against the same ratio/policy/override/budget/seed
    /// axes as single-tenant workloads; its cells run through
    /// [`CoRunSimulation`] as [`Scenario::steady`], with the mix's own
    /// footprint (the grid's `rss_pages` does not apply). The seed axis
    /// applies through [`TenantMix::reseeded`] — tenant `i` runs with `cell seed + i`,
    /// so seed sweeps decorrelate co-run cells exactly like
    /// single-tenant ones. Run [`CoRunSimulation`] directly for full
    /// per-tenant seed control.
    pub fn corun(mut self, label: impl Into<String>, mix: TenantMix) -> Self {
        self.workloads.push(GridWorkload::CoRun(label.into(), mix));
        self
    }

    /// Appends a labelled dynamic-tenancy scenario to the workload
    /// axis. Like [`ExperimentGrid::corun`], the entry expands against
    /// the full ratio/policy/override/budget/seed axes; its cells run
    /// through [`CoRunSimulation::with_scenario`] (tenant arrivals,
    /// departures, weight changes and phased workloads all apply) and
    /// carry a `scenario` JSON section — timeline and tenant-epochs —
    /// on top of the usual co-run sections. The seed axis applies
    /// through [`Scenario::reseeded`].
    pub fn scenario(mut self, label: impl Into<String>, scenario: Scenario) -> Self {
        self.workloads.push(GridWorkload::Scenario(label.into(), scenario));
        self
    }

    /// Sets the co-run interleave quantum (events a weight-1 tenant
    /// runs per scheduling round; default 64). Applies to both co-run
    /// and scenario cells; single-tenant cells are unaffected.
    pub fn corun_quantum(mut self, quantum: usize) -> Self {
        self.corun_quantum = quantum;
        self
    }

    /// Sets the policy axis.
    pub fn policies(mut self, axis: impl IntoIterator<Item = PolicyKind>) -> Self {
        self.policies = axis.into_iter().collect();
        self
    }

    /// Sets the fast:slow ratio axis (`1:r` per entry).
    pub fn ratios(mut self, axis: impl IntoIterator<Item = u64>) -> Self {
        self.ratios = axis.into_iter().collect();
        self
    }

    /// Sets a labelled policy-override axis (Fig. 15-style sweeps).
    pub fn overrides_axis(
        mut self,
        axis: impl IntoIterator<Item = (String, PolicyOverrides)>,
    ) -> Self {
        self.overrides = axis.into_iter().collect();
        self
    }

    /// Sets the access-budget axis.
    pub fn budgets(mut self, axis: impl IntoIterator<Item = u64>) -> Self {
        self.budgets = axis.into_iter().collect();
        self
    }

    /// Sets the seed axis (one replicate per seed).
    pub fn seeds(mut self, axis: impl IntoIterator<Item = u64>) -> Self {
        self.seeds = axis.into_iter().collect();
        self
    }

    /// Selects the per-cell seed derivation.
    pub fn seed_mode(mut self, mode: SeedMode) -> Self {
        self.seed_mode = mode;
        self
    }

    /// Sets the footprint in 4 KiB pages.
    pub fn rss_pages(mut self, pages: u64) -> Self {
        self.rss_pages = pages;
        self
    }

    /// Divides the paper's daemon cadences by `scale`.
    pub fn time_scale(mut self, scale: u64) -> Self {
        self.time_scale = scale.max(1);
        self
    }

    /// Uses the full-size cache/TLB presets.
    pub fn large_machine(mut self, large: bool) -> Self {
        self.large_machine = large;
        self
    }

    /// Builds every cell's machine from a declarative description
    /// (registry/config-file path) instead of the quick/large presets.
    /// The description's own preset supersedes
    /// [`ExperimentGrid::large_machine`], and its `[neoprof]` knobs
    /// fold into each cell's policy overrides. A description with no
    /// overrides reproduces the preset path exactly, so switching an
    /// existing campaign to an equivalent machine file does not change
    /// its result bytes.
    pub fn machine(mut self, machine: MachineDescription) -> Self {
        self.machine = Some(machine);
        self
    }

    /// The machine configuration a cell of the given footprint and
    /// ratio runs on: the declarative description when one is set,
    /// otherwise the quick/large preset.
    fn machine_config(&self, rss_pages: u64, ratio: u64) -> SimConfig {
        match &self.machine {
            Some(machine) => machine.sim_config(rss_pages, ratio),
            None if self.large_machine => SimConfig::large(rss_pages, ratio),
            None => SimConfig::quick(rss_pages, ratio),
        }
    }

    /// A cell's effective policy overrides: the cell's own, plus the
    /// machine description's NeoProf knobs when one is set.
    fn cell_overrides(&self, cell: &GridCell) -> PolicyOverrides {
        match &self.machine {
            Some(machine) => cell.overrides.with_machine(machine),
            None => cell.overrides,
        }
    }

    /// Installs a final [`SimConfig`] hook applied to every cell.
    pub fn configure(mut self, hook: fn(&mut SimConfig)) -> Self {
        self.configure = Some(hook);
        self
    }

    /// The number of cells the grid expands to.
    pub fn len(&self) -> usize {
        self.workloads.len()
            * self.ratios.len()
            * self.policies.len()
            * self.overrides.len()
            * self.budgets.len()
            * self.seeds.len()
    }

    /// `true` when any axis is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expands the cartesian product into cells, in row-major order.
    pub fn cells(&self) -> Vec<GridCell> {
        let mut cells = Vec::with_capacity(self.len());
        for (wi, entry) in self.workloads.iter().enumerate() {
            let (workload, corun, scenario) = match entry {
                GridWorkload::Single(kind) => (*kind, None, None),
                GridWorkload::CoRun(label, mix) => (
                    // The kind slot is a placeholder for co-run cells
                    // (the first tenant's kind); lookups key on the
                    // `corun` label instead.
                    mix.tenants()[0].kind,
                    Some(CorunCellSpec {
                        label: label.clone(),
                        mix: mix.clone(),
                        interleave_quantum: self.corun_quantum,
                    }),
                    None,
                ),
                GridWorkload::Scenario(label, scenario) => (
                    scenario.mix().tenants()[0].kind,
                    None,
                    Some(ScenarioCellSpec {
                        label: label.clone(),
                        scenario: scenario.clone(),
                        interleave_quantum: self.corun_quantum,
                    }),
                ),
            };
            for (ri, &ratio) in self.ratios.iter().enumerate() {
                for (pi, &policy) in self.policies.iter().enumerate() {
                    for (oi, (label, overrides)) in self.overrides.iter().enumerate() {
                        for (bi, &accesses) in self.budgets.iter().enumerate() {
                            for &base_seed in &self.seeds {
                                let seed = match self.seed_mode {
                                    SeedMode::Shared => base_seed,
                                    SeedMode::PerCell => {
                                        // Chain the coordinates through the
                                        // mixer; scheduling never enters.
                                        let coords =
                                            [wi as u64, ri as u64, pi as u64, oi as u64, bi as u64];
                                        coords.iter().fold(base_seed, |acc, &c| {
                                            splitmix64(acc ^ splitmix64(c))
                                        })
                                    }
                                };
                                cells.push(GridCell {
                                    index: cells.len(),
                                    workload,
                                    corun: corun.clone(),
                                    scenario: scenario.clone(),
                                    policy,
                                    ratio,
                                    override_label: label.clone(),
                                    overrides: *overrides,
                                    accesses,
                                    base_seed,
                                    seed,
                                });
                            }
                        }
                    }
                }
            }
        }
        cells
    }

    fn builder_for(&self, cell: &GridCell) -> ExperimentBuilder {
        let mut builder = Experiment::builder()
            .workload(cell.workload)
            .policy(cell.policy)
            .rss_pages(self.rss_pages)
            .ratio(cell.ratio)
            .accesses(cell.accesses)
            .seed(cell.seed)
            .time_scale(self.time_scale)
            .large_machine(self.large_machine)
            .overrides(cell.overrides);
        if let Some(machine) = &self.machine {
            builder = builder.machine(machine.clone());
        }
        if let Some(hook) = self.configure {
            builder = builder.configure(hook);
        }
        builder
    }

    /// Lowers a co-run or scenario cell (a co-run cell's mix as the
    /// event-free scenario) to the scenario it runs, reseeded by the
    /// seed axis (tenant i gets seed + i), and its engine configuration:
    /// the machine sized for the scenario's footprint at the cell's
    /// ratio, carrying its fault timeline. `None` for a single-tenant
    /// cell.
    fn corun_lowering(&self, cell: &GridCell) -> Option<(Scenario, CoRunConfig)> {
        let (scenario, interleave_quantum) = match (&cell.corun, &cell.scenario) {
            (Some(spec), _) => {
                (Scenario::steady(spec.mix.reseeded(cell.seed)), spec.interleave_quantum)
            }
            (None, Some(spec)) => (spec.scenario.reseeded(cell.seed), spec.interleave_quantum),
            (None, None) => return None,
        };
        let mut config = self.machine_config(scenario.mix().total_rss_pages(), cell.ratio);
        config.max_accesses = cell.accesses;
        config.faults = scenario.faults().clone();
        if let Some(hook) = self.configure {
            hook(&mut config);
        }
        let config = CoRunConfig {
            sim: config,
            interleave_quantum,
            fast_share_cap: self.cell_overrides(cell).corun_fast_share_cap,
        };
        Some((scenario, config))
    }

    /// Builds the [`CoRunSimulation`] of a co-run or scenario cell, with
    /// the policy from the same [`build_policy`] path as single-tenant
    /// cells; `None` for a single-tenant cell.
    fn corun_simulation_for(&self, cell: &GridCell) -> Option<Result<CoRunSimulation, Error>> {
        let (scenario, config) = self.corun_lowering(cell)?;
        let overrides = self.cell_overrides(cell);
        let policy = build_policy(cell.policy, &config.sim, self.time_scale, overrides);
        Some(policy.and_then(|policy| CoRunSimulation::with_scenario(config, &scenario, policy)))
    }

    /// Names the failing cell in a validation error.
    fn cell_error(&self, cell: &GridCell, e: Error) -> Error {
        Error::invalid_config(format!(
            "grid '{}' cell {} ({} / {}): {e}",
            self.name,
            cell.index,
            cell.workload_label(),
            policy_name(cell.policy),
        ))
    }

    /// Validates every cell before spending simulation time on any.
    fn validate_cells(&self, cells: &[GridCell]) -> Result<(), Error> {
        for cell in cells {
            let check = match self.corun_simulation_for(cell) {
                Some(sim) => sim.map(|_| ()),
                None => self.builder_for(cell).build().map(|_| ()),
            };
            check.map_err(|e| self.cell_error(cell, e))?;
        }
        Ok(())
    }

    /// Lowers every co-run and scenario cell onto the grid's machine
    /// exactly as a run does and validates the engine configuration,
    /// without building generators, policies or machines — so a
    /// scenario that cannot run on its machine is rejected with the
    /// error the run would report.
    ///
    /// # Errors
    ///
    /// Returns the first failing cell's [`Error::InvalidConfig`],
    /// prefixed as [`ExperimentGrid::run`] prefixes it.
    pub fn validate_scenarios(&self) -> Result<(), Error> {
        for cell in self.cells() {
            if let Some((_, config)) = self.corun_lowering(&cell) {
                config.validate().map_err(|e| self.cell_error(&cell, e))?;
            }
        }
        Ok(())
    }

    /// Packages a finished [`CoRunReport`] into a cell outcome.
    fn corun_outcome(cell: &GridCell, outcome: CoRunReport) -> CellOutcome {
        let occupancy_fairness = outcome.occupancy_fairness();
        let scenario = cell.scenario.as_ref().map(|spec| ScenarioSections {
            events: spec.scenario.events().to_vec(),
            epochs: outcome.epochs.clone(),
        });
        (
            outcome.combined,
            Some(CorunSections {
                tenants: outcome.tenants,
                contention: outcome.contention,
                occupancy_fairness,
            }),
            scenario,
        )
    }

    /// Runs one (pre-validated) cell from a cold machine.
    fn run_cell_cold(&self, cell: &GridCell) -> CellOutcome {
        match self.corun_simulation_for(cell) {
            Some(sim) => Self::corun_outcome(cell, sim.expect("cell validated above").run()),
            None => (
                self.builder_for(cell).build().expect("cell validated above").run(),
                None,
                None,
            ),
        }
    }

    /// Runs one (pre-validated) cell, restoring from a warmed snapshot
    /// in `dir` when one matches the cell's content hash. Any failure
    /// to load or restore — missing file, corrupt JSON, fingerprint
    /// mismatch from changed inputs — falls back to a cold run, so the
    /// result is identical either way. Returns the outcome and whether
    /// the warm path was taken.
    fn run_cell_warm(&self, cell: &GridCell, dir: &Path) -> (CellOutcome, bool) {
        if let Some(snap) = self.load_snapshot(dir, cell) {
            if let Some(sim) = self.corun_simulation_for(cell) {
                if let Ok(outcome) = sim.expect("cell validated above").run_from(&snap) {
                    return (Self::corun_outcome(cell, outcome), true);
                }
            } else {
                let sim = self
                    .builder_for(cell)
                    .build()
                    .expect("cell validated above")
                    .into_simulation();
                if let Ok(report) = sim.run_from(&snap) {
                    return ((report, None, None), true);
                }
            }
        }
        (self.run_cell_cold(cell), false)
    }

    /// Zips cells and outcomes into a [`GridRun`].
    fn assemble(&self, cells: Vec<GridCell>, outcomes: Vec<CellOutcome>) -> GridRun {
        GridRun {
            name: self.name.clone(),
            rss_pages: self.rss_pages,
            time_scale: self.time_scale,
            cells: cells
                .into_iter()
                .zip(outcomes)
                .map(|(cell, (report, corun, scenario))| CellRun {
                    cell,
                    report,
                    corun,
                    scenario,
                })
                .collect(),
        }
    }

    /// Content hash of one cell: FNV-1a over the grid's machine shape
    /// plus the cell's fully resolved parameters (workload/mix/scenario
    /// identity, policy, ratio, overrides, budget, seeds). Warm-start
    /// snapshots are keyed by this hash, so any change to a cell's
    /// inputs changes its key and the cell re-runs cold.
    pub fn cell_hash(&self, cell: &GridCell) -> u64 {
        let mut ident = format!(
            "{}|rss{}|ts{}|large{}|q{}|{cell:?}",
            self.name, self.rss_pages, self.time_scale, self.large_machine, self.corun_quantum,
        );
        // Grids without a machine description keep the legacy key, so
        // existing snapshot corpora stay warm.
        if let Some(machine) = &self.machine {
            ident.push_str(&format!("|machine{machine:?}"));
        }
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for byte in ident.as_bytes() {
            hash ^= u64::from(*byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }

    /// The snapshot file a cell maps to under `dir`.
    fn snapshot_path(&self, dir: &Path, cell: &GridCell) -> PathBuf {
        dir.join(format!("{:016x}.json", self.cell_hash(cell)))
    }

    /// Loads and parses a cell's snapshot, if present and readable.
    fn load_snapshot(&self, dir: &Path, cell: &GridCell) -> Option<Json> {
        let text = std::fs::read_to_string(self.snapshot_path(dir, cell)).ok()?;
        Json::parse(&text).ok()
    }

    /// Runs one (pre-validated) cell to its horizon and returns the
    /// warmed snapshot envelope.
    fn snapshot_cell(&self, cell: &GridCell) -> Json {
        let horizon = Nanos::new(u64::MAX);
        match self.corun_simulation_for(cell) {
            Some(sim) => sim.expect("cell validated above").snapshot_at(horizon),
            None => self
                .builder_for(cell)
                .build()
                .expect("cell validated above")
                .into_simulation()
                .snapshot_at(horizon),
        }
    }

    /// The panic label of a cell: the gate key it would fail under.
    fn cell_label(&self, cell: &GridCell) -> String {
        format!("{}::{}", self.name, cell.key())
    }

    /// Runs every cell on `threads` workers (`0` = all cores).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if any cell fails to build —
    /// validated up front, before any simulation starts.
    pub fn run(&self, threads: usize) -> Result<GridRun, Error> {
        let cells = self.cells();
        self.validate_cells(&cells)?;
        let outcomes = exec::run_labeled(
            &cells,
            threads,
            |_, cell| self.cell_label(cell),
            |_, cell| self.run_cell_cold(cell),
        );
        Ok(self.assemble(cells, outcomes))
    }

    /// Runs every cell to completion and writes one warmed snapshot
    /// per cell into `dir`, named `<content-hash>.json` (see
    /// [`ExperimentGrid::cell_hash`]). A later [`ExperimentGrid::run_warm`]
    /// against the same directory restores each unchanged cell instead
    /// of replaying it. Returns the number of snapshots written.
    ///
    /// # Errors
    ///
    /// Returns an error when a cell fails validation or a snapshot file
    /// cannot be written.
    pub fn write_snapshots(&self, threads: usize, dir: &Path) -> Result<usize, Error> {
        let cells = self.cells();
        self.validate_cells(&cells)?;
        std::fs::create_dir_all(dir).map_err(|e| {
            Error::snapshot(format!("cannot create snapshot directory {}: {e}", dir.display()))
        })?;
        let snaps = exec::run_labeled(
            &cells,
            threads,
            |_, cell| self.cell_label(cell),
            |_, cell| self.snapshot_cell(cell).render_pretty(),
        );
        for (cell, text) in cells.iter().zip(&snaps) {
            let path = self.snapshot_path(dir, cell);
            std::fs::write(&path, text).map_err(|e| {
                Error::snapshot(format!("cannot write snapshot {}: {e}", path.display()))
            })?;
        }
        Ok(snaps.len())
    }

    /// [`ExperimentGrid::run`], warm-starting every cell whose content
    /// hash matches a snapshot in `dir` (written earlier by
    /// [`ExperimentGrid::write_snapshots`]). Restored cells skip the
    /// machine simulation entirely — only the workload generator is
    /// replayed to its cut position — and produce bit-identical
    /// reports, so the run's JSON is byte-identical to a cold run.
    /// Cells without a usable snapshot (missing, corrupt, or stale
    /// after an input change) silently run cold; the split is reported
    /// in the returned [`WarmStats`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if any cell fails to build —
    /// validated up front, before any simulation starts.
    pub fn run_warm(&self, threads: usize, dir: &Path) -> Result<(GridRun, WarmStats), Error> {
        let cells = self.cells();
        self.validate_cells(&cells)?;
        let outcomes = exec::run_labeled(
            &cells,
            threads,
            |_, cell| self.cell_label(cell),
            |_, cell| self.run_cell_warm(cell, dir),
        );
        let mut stats = WarmStats::default();
        let outcomes = outcomes
            .into_iter()
            .map(|(outcome, warm)| {
                if warm {
                    stats.restored += 1;
                } else {
                    stats.cold += 1;
                }
                outcome
            })
            .collect();
        Ok((self.assemble(cells, outcomes), stats))
    }
}

/// How a grid campaign executes: worker count plus optional
/// warm-start via a snapshot directory. [`ExperimentGrid::run_mode`]
/// dispatches on it, so figure code can stay agnostic of whether a
/// campaign is cold, snapshot-producing, or warm-started.
#[derive(Debug, Clone, Default)]
pub struct RunMode {
    /// Worker threads (`0` = all cores).
    pub threads: usize,
    /// Snapshot directory for warm-starting; `None` runs cold.
    pub warm_dir: Option<PathBuf>,
    /// When set (and `warm_dir` is given), write fresh snapshots for
    /// every cell before the run, so the run and all later ones
    /// warm-start from them.
    pub write_snapshots: bool,
}

impl ExperimentGrid {
    /// Runs the grid under `mode`: plain [`ExperimentGrid::run`]
    /// without a warm directory, otherwise [`ExperimentGrid::write_snapshots`]
    /// (when requested) followed by [`ExperimentGrid::run_warm`].
    /// Result JSON is byte-identical in all modes; warm-start
    /// accounting goes to stderr, never into results.
    ///
    /// # Errors
    ///
    /// Returns an error when a cell fails validation or snapshots
    /// cannot be written.
    pub fn run_mode(&self, mode: &RunMode) -> Result<GridRun, Error> {
        let Some(dir) = &mode.warm_dir else {
            return self.run(mode.threads);
        };
        if mode.write_snapshots {
            let written = self.write_snapshots(mode.threads, dir)?;
            eprintln!(
                "[warm-start] {}: wrote {written} cell snapshots -> {}",
                self.name,
                dir.display()
            );
        }
        let (run, stats) = self.run_warm(mode.threads, dir)?;
        eprintln!(
            "[warm-start] {}: restored {}/{} cells from {}",
            self.name,
            stats.restored,
            stats.restored + stats.cold,
            dir.display()
        );
        Ok(run)
    }
}

/// How a warm-started grid run split between restored and cold cells.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WarmStats {
    /// Cells restored from a warmed snapshot.
    pub restored: usize,
    /// Cells replayed cold: no snapshot file, or one that failed to
    /// parse or restore (e.g. stale after an input change).
    pub cold: usize,
}

/// The co-run parameters of a grid cell (present when the cell came
/// from an [`ExperimentGrid::corun`] axis entry).
#[derive(Debug, Clone)]
pub struct CorunCellSpec {
    /// The axis label — the cell's `workload` identity in JSON and
    /// gate keys.
    pub label: String,
    /// The tenant mix under test.
    pub mix: TenantMix,
    /// Interleave quantum in force.
    pub interleave_quantum: usize,
}

/// The scenario parameters of a grid cell (present when the cell came
/// from an [`ExperimentGrid::scenario`] axis entry).
#[derive(Debug, Clone)]
pub struct ScenarioCellSpec {
    /// The axis label — the cell's `workload` identity in JSON and
    /// gate keys.
    pub label: String,
    /// The dynamic-tenancy scenario under test.
    pub scenario: Scenario,
    /// Interleave quantum in force.
    pub interleave_quantum: usize,
}

/// One point of a grid: fully resolved experiment parameters.
#[derive(Debug, Clone)]
pub struct GridCell {
    /// Position in the grid's row-major expansion.
    pub index: usize,
    /// Workload under test. For co-run and scenario cells this slot
    /// holds the first tenant's kind as a placeholder — identify those
    /// cells through [`GridCell::corun`] / [`GridCell::scenario`] /
    /// [`GridCell::workload_label`] instead.
    pub workload: WorkloadKind,
    /// Co-run parameters; `None` for classic single-tenant cells.
    pub corun: Option<CorunCellSpec>,
    /// Scenario parameters; `None` unless the cell came from an
    /// [`ExperimentGrid::scenario`] axis entry.
    pub scenario: Option<ScenarioCellSpec>,
    /// Tiering policy under test.
    pub policy: PolicyKind,
    /// Fast:slow capacity ratio (`1:ratio`).
    pub ratio: u64,
    /// Label of the override-axis entry (empty for the default).
    pub override_label: String,
    /// Policy parameter overrides in force.
    pub overrides: PolicyOverrides,
    /// CPU-access budget.
    pub accesses: u64,
    /// The seed-axis value this cell came from.
    pub base_seed: u64,
    /// The derived workload seed (see [`SeedMode`]). Co-run cells
    /// derive tenant seeds from it: tenant `i` runs with `seed + i`.
    pub seed: u64,
}

impl GridCell {
    /// The cell's workload identity: the paper label for single-tenant
    /// cells, the co-run/scenario axis label otherwise.
    pub fn workload_label(&self) -> String {
        if let Some(spec) = &self.scenario {
            return spec.label.clone();
        }
        match &self.corun {
            Some(spec) => spec.label.clone(),
            None => self.workload.label().to_string(),
        }
    }

    /// The cell's identity in the same shape the regression gate
    /// derives from result JSON:
    /// `workload/policy/r<ratio>/a<accesses>/s<seed>/<override label>`.
    /// Worker-pool panics are labelled with this key (prefixed by the
    /// grid name), so a failing cell can be cross-referenced with gate
    /// output directly.
    pub fn key(&self) -> String {
        format!(
            "{}/{}/r{}/a{}/s{}/{}",
            self.workload_label(),
            policy_name(self.policy),
            self.ratio,
            self.accesses,
            self.seed,
            self.override_label,
        )
    }
}

/// The co-run sections of a completed cell: per-tenant attribution
/// plus shared-tier contention.
#[derive(Debug, Clone)]
pub struct CorunSections {
    /// Per-tenant reports, in mix order.
    pub tenants: Vec<TenantRunReport>,
    /// Shared-tier contention metrics.
    pub contention: CoRunContention,
    /// Jain's fairness index over weighted fast-tier occupancy (see
    /// [`CoRunReport::occupancy_fairness`]).
    pub occupancy_fairness: f64,
}

/// The scenario sections of a completed cell: the timeline that was
/// applied and the per-residency tenant-epoch attribution.
#[derive(Debug, Clone)]
pub struct ScenarioSections {
    /// The scenario timeline, sorted by time.
    pub events: Vec<TenantEvent>,
    /// Tenant epochs, ordered by (tenant, epoch).
    pub epochs: Vec<TenantEpoch>,
}

/// A completed cell: its coordinates plus the simulation outcome.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// The grid coordinates.
    pub cell: GridCell,
    /// The simulation outcome (the machine-wide combined report for
    /// co-run cells).
    pub report: RunReport,
    /// Per-tenant + contention sections, present for co-run and
    /// scenario cells.
    pub corun: Option<CorunSections>,
    /// Timeline + epoch sections, present for scenario cells only.
    pub scenario: Option<ScenarioSections>,
}

/// The outcome of a full grid campaign, in cell order.
#[derive(Debug, Clone)]
pub struct GridRun {
    /// Grid name (used as the JSON `name` and in gate keys).
    pub name: String,
    /// Footprint shared by all cells.
    pub rss_pages: u64,
    /// Daemon-cadence divisor shared by all cells.
    pub time_scale: u64,
    /// Completed cells, row-major.
    pub cells: Vec<CellRun>,
}

impl GridRun {
    /// The first cell matching `pred`.
    pub fn find(&self, pred: impl Fn(&GridCell) -> bool) -> Option<&CellRun> {
        self.cells.iter().find(|run| pred(&run.cell))
    }

    /// The report of the first cell matching `pred`.
    ///
    /// # Panics
    ///
    /// Panics when no cell matches — a programming error in figure
    /// code, not a data condition.
    pub fn report_where(&self, pred: impl Fn(&GridCell) -> bool) -> &RunReport {
        &self.find(pred).expect("no grid cell matches predicate").report
    }

    /// The report for a (workload, policy) point — the common lookup.
    /// Skips co-run and scenario cells; look those up with
    /// [`GridRun::corun_for`] / [`GridRun::scenario_for`].
    pub fn report_for(&self, workload: WorkloadKind, policy: PolicyKind) -> &RunReport {
        self.report_where(|c| {
            c.corun.is_none()
                && c.scenario.is_none()
                && c.workload == workload
                && c.policy == policy
        })
    }

    /// The first co-run cell with the given axis label, policy and
    /// override label.
    ///
    /// # Panics
    ///
    /// Panics when no cell matches — a programming error in figure
    /// code, not a data condition.
    pub fn corun_for(&self, label: &str, policy: PolicyKind, override_label: &str) -> &CellRun {
        self.cells
            .iter()
            .find(|run| {
                run.cell.policy == policy
                    && run.cell.override_label == override_label
                    && run.cell.corun.as_ref().is_some_and(|s| s.label == label)
            })
            .expect("no co-run cell matches label/policy")
    }

    /// The first scenario cell with the given axis label, policy and
    /// override label.
    ///
    /// # Panics
    ///
    /// Panics when no cell matches — a programming error in figure
    /// code, not a data condition.
    pub fn scenario_for(
        &self,
        label: &str,
        policy: PolicyKind,
        override_label: &str,
    ) -> &CellRun {
        self.cells
            .iter()
            .find(|run| {
                run.cell.policy == policy
                    && run.cell.override_label == override_label
                    && run.cell.scenario.as_ref().is_some_and(|s| s.label == label)
            })
            .expect("no scenario cell matches label/policy")
    }

    /// Serialises the campaign: grid header plus one record per cell
    /// (coordinates + flat metrics). Deterministic at any thread count.
    ///
    /// Single-tenant cells keep the exact v1 record shape. Co-run cells
    /// use their axis label as the `workload` identity and append a
    /// `corun` section (tenants + contention) — a schema extension, no
    /// existing key is renamed.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::from(self.name.as_str())),
            ("rss_pages", Json::U64(self.rss_pages)),
            ("time_scale", Json::U64(self.time_scale)),
            (
                "cells",
                Json::Arr(
                    self.cells
                        .iter()
                        .map(|run| {
                            let mut fields = vec![
                                (
                                    "workload".to_string(),
                                    Json::Str(run.cell.workload_label()),
                                ),
                                ("policy".to_string(), Json::Str(policy_name(run.cell.policy))),
                                ("ratio".to_string(), Json::U64(run.cell.ratio)),
                                (
                                    "label".to_string(),
                                    Json::from(run.cell.override_label.as_str()),
                                ),
                                ("accesses".to_string(), Json::U64(run.cell.accesses)),
                                ("seed".to_string(), Json::U64(run.cell.seed)),
                                ("metrics".to_string(), metrics_json(&run.report)),
                            ];
                            if let Some(sections) = &run.corun {
                                fields.push(("corun".to_string(), corun_json(sections)));
                            }
                            if let Some(sections) = &run.scenario {
                                fields.push(("scenario".to_string(), scenario_json(sections)));
                            }
                            Json::Obj(fields)
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Serialises a cell's co-run sections: contention scalars plus one
/// record per tenant. Metric names are part of the result schema —
/// extend, don't rename.
fn corun_json(sections: &CorunSections) -> Json {
    // Co-run cells size the machine from the mix, not the grid header's
    // rss_pages — record the real footprint with the cell.
    let total_rss: u64 = sections.tenants.iter().map(|t| t.rss_pages).sum();
    Json::obj([
        ("total_rss_pages", Json::U64(total_rss)),
        ("interleave_quantum", Json::U64(sections.contention.interleave_quantum)),
        ("fast_capacity_pages", Json::U64(sections.contention.fast_capacity_pages)),
        ("cross_tenant_evictions", Json::U64(sections.contention.cross_tenant_evictions)),
        ("rounds", Json::U64(sections.contention.rounds)),
        ("slices", Json::U64(sections.contention.slices)),
        ("occupancy_fairness", Json::F64(sections.occupancy_fairness)),
        (
            "tenants",
            Json::Arr(
                sections
                    .tenants
                    .iter()
                    .map(|t| {
                        Json::obj([
                            ("tenant", Json::U64(t.tenant as u64)),
                            ("workload", Json::from(t.workload.as_str())),
                            ("weight", Json::U64(t.weight as u64)),
                            ("rss_pages", Json::U64(t.rss_pages)),
                            ("base_page", Json::U64(t.base_page)),
                            ("seed", Json::U64(t.seed)),
                            ("mean_fast_share", Json::F64(t.mean_fast_share)),
                            (
                                "metrics",
                                Json::Obj(
                                    t.scalar_metrics()
                                        .into_iter()
                                        .map(|(k, v)| (k.to_string(), Json::U64(v)))
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Serialises a cell's scenario sections: the applied timeline plus
/// per-residency tenant epochs. Metric names are part of the result
/// schema — extend, don't rename.
fn scenario_json(sections: &ScenarioSections) -> Json {
    let event_json = |event: &TenantEvent| {
        let (kind, weight) = match event.kind {
            TenantEventKind::Arrive => ("arrive", None),
            TenantEventKind::Depart => ("depart", None),
            TenantEventKind::SetWeight(w) => ("set_weight", Some(w)),
        };
        let mut fields = vec![
            ("at_ns".to_string(), Json::U64(event.at.as_nanos())),
            ("tenant".to_string(), Json::U64(event.tenant as u64)),
            ("kind".to_string(), Json::from(kind)),
        ];
        if let Some(w) = weight {
            fields.push(("weight".to_string(), Json::U64(w as u64)));
        }
        Json::Obj(fields)
    };
    let arrivals =
        sections.events.iter().filter(|e| e.kind == TenantEventKind::Arrive).count();
    let departures =
        sections.events.iter().filter(|e| e.kind == TenantEventKind::Depart).count();
    let weight_changes = sections.events.len() - arrivals - departures;
    Json::obj([
        ("arrivals", Json::U64(arrivals as u64)),
        ("departures", Json::U64(departures as u64)),
        ("weight_changes", Json::U64(weight_changes as u64)),
        ("events", Json::Arr(sections.events.iter().map(event_json).collect())),
        (
            "epochs",
            Json::Arr(
                sections
                    .epochs
                    .iter()
                    .map(|e| {
                        Json::obj([
                            ("tenant", Json::U64(e.tenant as u64)),
                            ("epoch", Json::U64(e.epoch as u64)),
                            ("start_ns", Json::U64(e.start.as_nanos())),
                            ("end_ns", Json::U64(e.end.as_nanos())),
                            ("accesses", Json::U64(e.accesses)),
                            ("slow_tier_accesses", Json::U64(e.slow_tier_accesses)),
                            ("evicted_by_others", Json::U64(e.evicted_by_others)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_order_is_row_major_and_stable() {
        let grid = ExperimentGrid::new("order")
            .workloads([WorkloadKind::Gups, WorkloadKind::Silo])
            .ratios([2, 4])
            .policies([PolicyKind::NeoMem, PolicyKind::Pebs]);
        let cells = grid.cells();
        assert_eq!(cells.len(), 8);
        assert_eq!(grid.len(), 8);
        assert_eq!(cells[0].workload, WorkloadKind::Gups);
        assert_eq!((cells[0].ratio, cells[0].policy), (2, PolicyKind::NeoMem));
        assert_eq!((cells[1].ratio, cells[1].policy), (2, PolicyKind::Pebs));
        assert_eq!((cells[2].ratio, cells[2].policy), (4, PolicyKind::NeoMem));
        assert_eq!(cells[4].workload, WorkloadKind::Silo);
        for (i, cell) in cells.iter().enumerate() {
            assert_eq!(cell.index, i);
        }
    }

    #[test]
    fn shared_seed_mode_reproduces_legacy_seeds() {
        let cells = ExperimentGrid::new("seeds")
            .workloads([WorkloadKind::Gups, WorkloadKind::Silo])
            .seeds([2024])
            .cells();
        assert!(cells.iter().all(|c| c.seed == 2024));
    }

    #[test]
    fn per_cell_seed_mode_decorrelates_cells() {
        let cells = ExperimentGrid::new("seeds")
            .workloads([WorkloadKind::Gups, WorkloadKind::Silo])
            .policies([PolicyKind::NeoMem, PolicyKind::Pebs])
            .seeds([2024])
            .seed_mode(SeedMode::PerCell)
            .cells();
        let mut seeds: Vec<u64> = cells.iter().map(|c| c.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), cells.len(), "per-cell seeds must be distinct");
        // And derivation is stable: same grid, same seeds.
        let again = ExperimentGrid::new("seeds")
            .workloads([WorkloadKind::Gups, WorkloadKind::Silo])
            .policies([PolicyKind::NeoMem, PolicyKind::Pebs])
            .seeds([2024])
            .seed_mode(SeedMode::PerCell)
            .cells();
        assert!(cells.iter().zip(&again).all(|(a, b)| a.seed == b.seed));
    }

    #[test]
    fn replicate_seeds_start_at_base_and_diverge() {
        let seeds = replicate_seeds(2024, 4);
        assert_eq!(seeds[0], 2024);
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 4);
        assert_eq!(seeds, replicate_seeds(2024, 4));
    }

    #[test]
    fn invalid_cells_fail_before_any_simulation() {
        let err = ExperimentGrid::new("invalid").rss_pages(0).run(1);
        assert!(err.is_err());
    }

    #[test]
    fn policy_names_distinguish_fixed_thresholds() {
        assert_eq!(policy_name(PolicyKind::NeoMem), "NeoMem");
        assert_eq!(policy_name(PolicyKind::NeoMemFixed(8)), "NeoMem-fixed(8)");
        assert_ne!(
            policy_name(PolicyKind::NeoMemFixed(2)),
            policy_name(PolicyKind::NeoMemFixed(4))
        );
    }

    fn tiny_mix() -> TenantMix {
        TenantMix::builder()
            .tenant(WorkloadKind::Gups, 512, 5)
            .weighted_tenant(WorkloadKind::Silo, 512, 2, 6)
            .build()
            .expect("valid mix")
    }

    #[test]
    fn corun_axis_expands_against_the_other_axes() {
        let grid = ExperimentGrid::new("mixed")
            .workloads([WorkloadKind::Gups])
            .corun("pair", tiny_mix())
            .policies([PolicyKind::FirstTouch, PolicyKind::PinnedFast])
            .budgets([4_000]);
        let cells = grid.cells();
        assert_eq!(cells.len(), 4, "2 workload-axis entries x 2 policies");
        assert!(cells[0].corun.is_none());
        assert!(cells[2].corun.is_some());
        assert_eq!(cells[2].workload_label(), "pair");
        assert_eq!(cells[0].workload_label(), "GUPS");
    }

    #[test]
    fn corun_cells_run_and_carry_tenant_sections() {
        let run = ExperimentGrid::new("corun")
            .workloads([])
            .corun("pair", tiny_mix())
            .policies([PolicyKind::FirstTouch])
            .budgets([8_000])
            .run(2)
            .expect("corun grid runs");
        assert_eq!(run.cells.len(), 1);
        let cell = run.corun_for("pair", PolicyKind::FirstTouch, "");
        let sections = cell.corun.as_ref().expect("corun sections present");
        assert_eq!(sections.tenants.len(), 2);
        let attributed: u64 = sections.tenants.iter().map(|t| t.accesses).sum();
        assert_eq!(attributed, cell.report.accesses);
        assert!(sections.occupancy_fairness > 0.0 && sections.occupancy_fairness <= 1.0);
        // JSON carries the extension section under the mix label.
        let json = run.to_json();
        let cells = json.get("cells").and_then(Json::as_arr).unwrap();
        assert_eq!(cells[0].get("workload").and_then(Json::as_str), Some("pair"));
        let corun = cells[0].get("corun").expect("corun section");
        assert!(corun.get("cross_tenant_evictions").and_then(Json::as_u64).is_some());
        let tenants = corun.get("tenants").and_then(Json::as_arr).unwrap();
        assert_eq!(tenants.len(), 2);
        assert!(tenants[0].get("metrics").and_then(|m| m.get("slow_tier_accesses")).is_some());
    }

    #[test]
    fn corun_json_is_thread_count_invariant() {
        let grid = ExperimentGrid::new("threads")
            .workloads([WorkloadKind::Gups])
            .corun("pair", tiny_mix())
            .policies([PolicyKind::FirstTouch, PolicyKind::NeoMem])
            .rss_pages(512)
            .budgets([6_000]);
        let one = grid.run(1).expect("1 thread").to_json().render_pretty();
        let four = grid.run(4).expect("4 threads").to_json().render_pretty();
        assert_eq!(one, four, "corun grids must serialise byte-identically at any thread count");
    }

    #[test]
    fn report_for_skips_corun_cells() {
        // A corun cell whose placeholder kind collides with the single
        // axis entry must not shadow it.
        let run = ExperimentGrid::new("shadow")
            .workloads([WorkloadKind::Gups])
            .corun("gups-pair", TenantMix::homogeneous(WorkloadKind::Gups, 2, 512, 9).unwrap())
            .policies([PolicyKind::FirstTouch])
            .rss_pages(512)
            .budgets([4_000])
            .run(2)
            .expect("grid runs");
        let single = run.report_for(WorkloadKind::Gups, PolicyKind::FirstTouch);
        assert!(!single.workload.starts_with("corun["));
    }

    #[test]
    fn invalid_corun_cells_fail_before_any_simulation() {
        // A zero quantum is rejected up front with cell context.
        let err = ExperimentGrid::new("invalid-corun")
            .workloads([])
            .corun("pair", tiny_mix())
            .corun_quantum(0)
            .policies([PolicyKind::FirstTouch])
            .run(1);
        assert!(err.is_err());
    }

    fn churn_scenario() -> Scenario {
        let mix = TenantMix::builder()
            .tenant(WorkloadKind::Gups, 512, 5)
            .tenant(WorkloadKind::Silo, 512, 6)
            .build()
            .expect("valid mix");
        Scenario::builder(mix)
            .arrive(1, Nanos::from_micros(200))
            .depart(1, Nanos::from_millis(2))
            .build()
            .expect("valid scenario")
    }

    #[test]
    fn scenario_axis_runs_and_carries_sections() {
        let run = ExperimentGrid::new("scenario")
            .workloads([])
            .scenario("churn", churn_scenario())
            .policies([PolicyKind::FirstTouch])
            .budgets([8_000])
            .run(2)
            .expect("scenario grid runs");
        assert_eq!(run.cells.len(), 1);
        let cell = run.scenario_for("churn", PolicyKind::FirstTouch, "");
        assert_eq!(cell.cell.workload_label(), "churn");
        let corun = cell.corun.as_ref().expect("co-run sections present");
        assert_eq!(corun.tenants.len(), 2);
        let scenario = cell.scenario.as_ref().expect("scenario sections present");
        assert_eq!(scenario.events.len(), 2);
        assert!(!scenario.epochs.is_empty());
        // JSON carries both extension sections under the axis label.
        let json = run.to_json();
        let cells = json.get("cells").and_then(Json::as_arr).unwrap();
        assert_eq!(cells[0].get("workload").and_then(Json::as_str), Some("churn"));
        assert!(cells[0].get("corun").is_some());
        let section = cells[0].get("scenario").expect("scenario section");
        assert_eq!(section.get("arrivals").and_then(Json::as_u64), Some(1));
        assert_eq!(section.get("departures").and_then(Json::as_u64), Some(1));
        let events = section.get("events").and_then(Json::as_arr).unwrap();
        assert_eq!(events[0].get("kind").and_then(Json::as_str), Some("arrive"));
        let epochs = section.get("epochs").and_then(Json::as_arr).unwrap();
        assert!(epochs[0].get("accesses").and_then(Json::as_u64).is_some());
    }

    #[test]
    fn scenario_json_is_thread_count_invariant() {
        let grid = ExperimentGrid::new("scenario-threads")
            .workloads([])
            .scenario("churn", churn_scenario())
            .policies([PolicyKind::FirstTouch, PolicyKind::NeoMem])
            .budgets([6_000]);
        let one = grid.run(1).expect("1 thread").to_json().render_pretty();
        let four = grid.run(4).expect("4 threads").to_json().render_pretty();
        assert_eq!(one, four, "scenario grids must serialise byte-identically at any thread count");
    }

    #[test]
    fn report_for_skips_scenario_cells() {
        let run = ExperimentGrid::new("scenario-shadow")
            .workloads([WorkloadKind::Gups])
            .scenario("gups-churn", churn_scenario())
            .policies([PolicyKind::FirstTouch])
            .rss_pages(512)
            .budgets([4_000])
            .run(2)
            .expect("grid runs");
        let single = run.report_for(WorkloadKind::Gups, PolicyKind::FirstTouch);
        assert!(!single.workload.starts_with("corun["));
    }

    #[test]
    fn no_override_machine_description_reproduces_preset_grids() {
        // A machine file with no overrides must leave every cell type —
        // single-tenant, co-run, scenario — byte-identical to the
        // preset-built path. This is the registry's reproducibility
        // contract.
        let base = ExperimentGrid::new("machine-id")
            .workloads([WorkloadKind::Gups])
            .corun("pair", tiny_mix())
            .scenario("churn", churn_scenario())
            .policies([PolicyKind::FirstTouch, PolicyKind::NeoMem])
            .rss_pages(512)
            .budgets([4_000]);
        let plain = base.clone().run(2).expect("preset grid").to_json().render_pretty();
        let desc =
            MachineDescription::parse("schema = 1\nkind = machine\nname = default\n").unwrap();
        let with_machine =
            base.machine(desc).run(2).expect("machine grid").to_json().render_pretty();
        assert_eq!(plain, with_machine, "no-override machine must not change result bytes");
    }

    #[test]
    fn machine_description_overrides_change_results() {
        let base = ExperimentGrid::new("machine-diff")
            .workloads([WorkloadKind::Gups])
            .policies([PolicyKind::FirstTouch])
            .rss_pages(512)
            .budgets([4_000]);
        let plain = base.clone().run(1).expect("preset grid").to_json().render_pretty();
        let desc = MachineDescription::parse(
            "schema = 1\nkind = machine\nname = far\n\
             [memory]\nslow_read_latency = 900ns\n",
        )
        .unwrap();
        let slower = base.machine(desc).run(1).expect("machine grid").to_json().render_pretty();
        assert_ne!(plain, slower, "a slower far tier must show up in the results");
    }

    fn warm_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("neomem-warm-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn warm_start_reproduces_cold_run_bytes() {
        // Single-tenant, co-run and scenario cells, two policies each:
        // the full cell taxonomy goes through snapshot → restore.
        let grid = ExperimentGrid::new("warm")
            .workloads([WorkloadKind::Gups])
            .corun("pair", tiny_mix())
            .scenario("churn", churn_scenario())
            .policies([PolicyKind::FirstTouch, PolicyKind::NeoMem])
            .rss_pages(512)
            .budgets([6_000]);
        let dir = warm_dir("roundtrip");
        let cold = grid.run(2).expect("cold run").to_json().render_pretty();
        let written = grid.write_snapshots(2, &dir).expect("snapshots written");
        assert_eq!(written, grid.len());
        let (warm, stats) = grid.run_warm(2, &dir).expect("warm run");
        assert_eq!(stats, WarmStats { restored: grid.len(), cold: 0 });
        assert_eq!(
            warm.to_json().render_pretty(),
            cold,
            "warm-started grid JSON must be byte-identical to a cold run"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unusable_snapshots_fall_back_to_cold_runs() {
        let grid = ExperimentGrid::new("warm-fallback")
            .workloads([WorkloadKind::Gups])
            .policies([PolicyKind::FirstTouch, PolicyKind::NeoMem])
            .rss_pages(512)
            .budgets([4_000]);
        let cold = grid.run(1).expect("cold").to_json().render_pretty();
        // A directory with no snapshots at all: every cell runs cold.
        let empty = warm_dir("empty");
        let (run, stats) = grid.run_warm(1, &empty).expect("warm run, empty dir");
        assert_eq!(stats, WarmStats { restored: 0, cold: 2 });
        assert_eq!(run.to_json().render_pretty(), cold);
        // A corrupted snapshot file: that cell falls back, the rest
        // restore, and the result bytes don't change either way.
        let dir = warm_dir("corrupt");
        grid.write_snapshots(1, &dir).expect("snapshots written");
        let cells = grid.cells();
        std::fs::write(grid.snapshot_path(&dir, &cells[0]), "{ not json").unwrap();
        let (run, stats) = grid.run_warm(1, &dir).expect("warm run, corrupt file");
        assert_eq!(stats, WarmStats { restored: 1, cold: 1 });
        assert_eq!(run.to_json().render_pretty(), cold);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cell_hash_is_stable_and_tracks_inputs() {
        let grid = ExperimentGrid::new("hash").rss_pages(512);
        let cell = &grid.cells()[0];
        let hash = grid.cell_hash(cell);
        assert_eq!(hash, grid.cell_hash(cell), "hash must be stable");
        let reseeded = ExperimentGrid::new("hash").rss_pages(512).seeds([43]);
        assert_ne!(hash, reseeded.cell_hash(&reseeded.cells()[0]), "seed must change the key");
        let renamed = ExperimentGrid::new("hash2").rss_pages(512);
        assert_ne!(hash, renamed.cell_hash(cell), "grid name must change the key");
        let resized = ExperimentGrid::new("hash").rss_pages(1024);
        assert_ne!(hash, resized.cell_hash(cell), "machine shape must change the key");
    }

    #[test]
    fn cell_keys_match_gate_identity() {
        let cells = ExperimentGrid::new("keys").rss_pages(512).cells();
        assert_eq!(cells[0].key(), "GUPS/NeoMem/r2/a500000/s42/");
    }

    #[test]
    fn grid_run_lookup_and_json() {
        let run = ExperimentGrid::new("mini")
            .workloads([WorkloadKind::Gups])
            .policies([PolicyKind::FirstTouch, PolicyKind::PinnedFast])
            .rss_pages(512)
            .budgets([5_000])
            .run(2)
            .expect("mini grid runs");
        assert_eq!(run.cells.len(), 2);
        let report = run.report_for(WorkloadKind::Gups, PolicyKind::PinnedFast);
        assert!(report.runtime.as_nanos() > 0);
        let json = run.to_json();
        assert_eq!(json.get("name").and_then(Json::as_str), Some("mini"));
        assert_eq!(json.get("cells").and_then(Json::as_arr).unwrap().len(), 2);
    }
}
