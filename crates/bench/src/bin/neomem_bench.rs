//! `neomem-bench` — the experiment-campaign CLI.
//!
//! Regenerates any paper figure/table by name, runs its experiment grid
//! on a worker pool, and writes machine-readable JSON results:
//!
//! ```sh
//! neomem-bench fig11 --threads 4            # table to stdout + JSON file
//! neomem-bench all                          # every figure
//! neomem-bench list                         # available names
//! neomem-bench compare BENCH_fig11.json target/bench-results/fig11.json
//! neomem-bench gate fig11 --baseline BENCH_fig11.json --tolerance 0.1
//! neomem-bench perf fig11                   # + wall-clock throughput report
//! ```
//!
//! JSON lands in `--out` (default `target/bench-results/<name>.json`)
//! and contains only simulated quantities, so it is byte-identical at
//! any `--threads` value. `NEOMEM_SCALE=quick|full` selects the access
//! budget.
//!
//! Host-side measurement is strictly separated from the results: `perf`
//! (and `--wall-report` on plain runs) reports wall-clock simulated
//! accesses per second per figure on stderr and into its own JSON file
//! — never into the result documents, whose bytes and metric names are
//! a baseline contract.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use neomem::types::suggest;
use neomem_bench::figures::{self, Figure, RunContext};
use neomem_bench::Scale;
use neomem_runner::{compare, effective_threads, GateConfig, Json, Registry};

// Counting global allocator, so `neomem-bench perf micro_engine` can
// report steady-state allocation counts of the engine loop (see
// `neomem_bench::alloc_probe`).
neomem_bench::counting_allocator!();

struct Options {
    threads: usize,
    out_dir: PathBuf,
    tolerance: f64,
    baseline: Option<PathBuf>,
    wall_report: Option<PathBuf>,
    warm_start: Option<PathBuf>,
    machine: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            threads: 0,
            out_dir: PathBuf::from("target/bench-results"),
            tolerance: 0.10,
            baseline: None,
            wall_report: None,
            warm_start: None,
            machine: None,
        }
    }
}

enum Command {
    /// Figures plus `scenario:<name>` corpus targets, run in order.
    Run(Vec<&'static Figure>, Vec<String>),
    Perf(Vec<&'static Figure>),
    Snapshot(Vec<&'static Figure>),
    Help,
    List,
    Compare(PathBuf, PathBuf),
    Gate(&'static Figure),
    ScenarioList,
    ScenarioCheck,
    ScenarioRun(Vec<String>),
}

impl Command {
    /// Whether a requested target reads the scenario corpus: the
    /// `registry` figure or a `scenario:NAME` target.
    fn needs_corpus(&self) -> bool {
        let registry = |figures: &[&Figure]| figures.iter().any(|f| f.name == "registry");
        match self {
            Command::Run(figures, scenarios) => registry(figures) || !scenarios.is_empty(),
            Command::Perf(figures) | Command::Snapshot(figures) => registry(figures),
            Command::Gate(figure) => figure.name == "registry",
            _ => false,
        }
    }
}

const USAGE: &str = "\
neomem-bench — regenerate paper figures/tables with machine-readable results

USAGE:
    neomem-bench <figure|scenario:NAME>... [--threads N] [--out DIR] [--machine NAME]
                 [--wall-report FILE] [--warm-start DIR]
    neomem-bench all [--threads N] [--out DIR] [--wall-report FILE] [--warm-start DIR]
    neomem-bench perf <figure>...|all [--threads N] [--out DIR] [--wall-report FILE]
    neomem-bench snapshot <figure>...|all --warm-start DIR [--threads N] [--out DIR]
    neomem-bench list
    neomem-bench scenario list
    neomem-bench scenario check [--all]
    neomem-bench scenario run <name>... [--machine NAME] [--threads N] [--out DIR]
    neomem-bench compare <baseline.json> <current.json> [--tolerance F]
    neomem-bench gate <figure> --baseline <file> [--tolerance F] [--threads N] [--out DIR]
                      [--warm-start DIR]

OPTIONS:
    --threads N         worker threads for experiment grids (default: all cores)
    --out DIR           JSON output directory (default: target/bench-results)
    --tolerance F       allowed relative runtime drift for compare/gate (default: 0.10)
    --baseline FILE     checked-in baseline for gate (e.g. BENCH_fig11.json)
    --machine NAME      registry machine for scenario runs, overriding the
                        scenario file's own machine reference
    --wall-report FILE  write host wall-clock throughput JSON here
                        (perf default: target/wall-reports/perf.wall.json)
    --warm-start DIR    per-cell snapshot directory: `snapshot` populates it,
                        runs/gates restore unchanged cells from it instead of
                        replaying them (results stay byte-identical)

The scenario commands read the checked-in corpus: `list` prints every named
machine and scenario, `check` validates all of it (the CI gate), and `run`
executes named scenarios (also reachable as `scenario:<name>` run targets,
optionally pinned to a machine with --machine or a `machine:<name>` target).

Result JSON carries simulated (virtual-clock) quantities only; wall-clock
throughput goes to stderr and the wall-report file, never into results.

ENVIRONMENT:
    NEOMEM_SCALE         quick (default) | full — ~10x longer runs
    NEOMEM_SCENARIO_DIR  corpus directory (default: nearest scenarios/ upward)
";

fn parse_args() -> Result<(Command, Options), String> {
    let mut options = Options::default();
    let mut names: Vec<String> = Vec::new();
    let mut positional: Vec<String> = Vec::new();
    let mut list = false;
    let mut all_flag = false;
    let mut args = std::env::args().skip(1);
    let mut keyword: Option<String> = None;
    while let Some(arg) = args.next() {
        let mut value_for = |flag: &str| {
            args.next().ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--threads" => {
                let v = value_for("--threads")?;
                options.threads =
                    v.parse().map_err(|_| format!("invalid --threads value {v:?}"))?;
            }
            "--out" => options.out_dir = PathBuf::from(value_for("--out")?),
            "--tolerance" => {
                let v = value_for("--tolerance")?;
                options.tolerance =
                    v.parse().map_err(|_| format!("invalid --tolerance value {v:?}"))?;
            }
            "--baseline" => options.baseline = Some(PathBuf::from(value_for("--baseline")?)),
            "--machine" => options.machine = Some(value_for("--machine")?),
            "--all" => all_flag = true,
            "--wall-report" => {
                options.wall_report = Some(PathBuf::from(value_for("--wall-report")?))
            }
            "--warm-start" => {
                options.warm_start = Some(PathBuf::from(value_for("--warm-start")?))
            }
            "-h" | "--help" => return Ok((Command::Help, options)),
            // `list` is a command only in first position; anywhere else
            // it stays a positional (e.g. a results file named `list`).
            "list" | "--list" if keyword.is_none() && names.is_empty() => list = true,
            "compare" | "gate" | "perf" | "snapshot" | "scenario" if keyword.is_none() => {
                if list || !names.is_empty() {
                    return Err(format!("{arg} cannot be combined with other commands\n\n{USAGE}"));
                }
                keyword = Some(arg);
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown option {other:?}\n\n{USAGE}"))
            }
            _ => {
                if keyword.is_some() {
                    positional.push(arg);
                } else {
                    names.push(arg);
                }
            }
        }
    }
    if list {
        if !names.is_empty() || !positional.is_empty() {
            return Err(format!("list takes no further arguments\n\n{USAGE}"));
        }
        return Ok((Command::List, options));
    }
    if all_flag && keyword.as_deref() != Some("scenario") {
        return Err(format!("--all only applies to `scenario check`\n\n{USAGE}"));
    }
    match keyword.as_deref() {
        Some("scenario") => {
            let Some((sub, rest)) = positional.split_first() else {
                return Err(format!("scenario takes a subcommand: list, check or run\n\n{USAGE}"));
            };
            match sub.as_str() {
                "list" | "check" if !rest.is_empty() => {
                    Err(format!("scenario {sub} takes no further arguments\n\n{USAGE}"))
                }
                "list" => Ok((Command::ScenarioList, options)),
                // `check` always validates the whole corpus; --all is
                // accepted so the CI invocation reads explicitly.
                "check" => Ok((Command::ScenarioCheck, options)),
                "run" if rest.is_empty() => {
                    Err(format!("scenario run takes at least one scenario name\n\n{USAGE}"))
                }
                "run" => Ok((Command::ScenarioRun(rest.to_vec()), options)),
                other => {
                    let hint = suggest::closest(other, ["list", "check", "run"])
                        .map(|s| format!(" (did you mean {s:?}?)"))
                        .unwrap_or_default();
                    Err(format!("unknown scenario subcommand {other:?}{hint}\n\n{USAGE}"))
                }
            }
        }
        Some("compare") => {
            if positional.len() != 2 {
                return Err(format!(
                    "compare takes exactly two files, got {}\n\n{USAGE}",
                    positional.len()
                ));
            }
            Ok((
                Command::Compare(PathBuf::from(&positional[0]), PathBuf::from(&positional[1])),
                options,
            ))
        }
        Some("gate") => {
            if positional.len() != 1 {
                return Err(format!("gate takes exactly one figure name\n\n{USAGE}"));
            }
            if options.baseline.is_none() {
                return Err("gate requires --baseline <file>".to_string());
            }
            let figure = resolve(&positional[0])?;
            Ok((Command::Gate(figure), options))
        }
        Some("perf") => {
            if positional.is_empty() {
                return Err(format!("perf takes at least one figure name (or all)\n\n{USAGE}"));
            }
            let figures = resolve_many(&positional)?;
            Ok((Command::Perf(figures), options))
        }
        Some("snapshot") => {
            if positional.is_empty() {
                return Err(format!(
                    "snapshot takes at least one figure name (or all)\n\n{USAGE}"
                ));
            }
            if options.warm_start.is_none() {
                return Err("snapshot requires --warm-start <dir>".to_string());
            }
            let figures = resolve_many(&positional)?;
            Ok((Command::Snapshot(figures), options))
        }
        _ => {
            if names.is_empty() {
                return Err(USAGE.to_string());
            }
            // Plain run targets mix figures with corpus entries:
            // `scenario:<name>` runs a scenario, `machine:<name>` pins
            // the machine (same as --machine).
            let mut figure_names: Vec<String> = Vec::new();
            let mut scenario_names: Vec<String> = Vec::new();
            for name in names {
                if let Some(scenario) = name.strip_prefix("scenario:") {
                    scenario_names.push(scenario.to_string());
                } else if let Some(machine) = name.strip_prefix("machine:") {
                    options.machine = Some(machine.to_string());
                } else {
                    figure_names.push(name);
                }
            }
            if figure_names.is_empty() && scenario_names.is_empty() {
                return Err(format!("machine:<name> needs a scenario to run\n\n{USAGE}"));
            }
            let figures =
                if figure_names.is_empty() { Vec::new() } else { resolve_many(&figure_names)? };
            Ok((Command::Run(figures, scenario_names), options))
        }
    }
}

fn resolve(name: &str) -> Result<&'static Figure, String> {
    figures::find(name).ok_or_else(|| {
        let known: Vec<&str> = figures::ALL.iter().map(|f| f.name).collect();
        let hint = suggest::closest(name, known.iter().copied())
            .map(|s| format!(" (did you mean {s:?}?)"))
            .unwrap_or_default();
        format!(
            "unknown figure {name:?}; known figures: {}{hint}\n\
             (corpus scenarios run as scenario:<name> — see `neomem-bench scenario list`)",
            known.join(", ")
        )
    })
}

fn resolve_many(names: &[String]) -> Result<Vec<&'static Figure>, String> {
    if names.iter().any(|n| n == "all") {
        Ok(figures::ALL.iter().collect())
    } else {
        names.iter().map(|n| resolve(n)).collect()
    }
}

fn load_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))
}

/// One figure's host-side timing: everything needed for the wall
/// report, none of it allowed anywhere near the result JSON.
struct WallEntry {
    figure: &'static str,
    wall_seconds: f64,
    simulated_accesses: u64,
}

impl WallEntry {
    fn accesses_per_second(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.simulated_accesses as f64 / self.wall_seconds
        } else {
            0.0
        }
    }
}

/// Sums every `metrics.accesses` in a result document — the simulated
/// accesses the figure executed, whatever its grid/cell layout.
fn simulated_accesses(doc: &Json) -> u64 {
    match doc {
        Json::Obj(fields) => fields
            .iter()
            .map(|(key, value)| {
                if key == "metrics" {
                    value.get("accesses").and_then(Json::as_u64).unwrap_or(0)
                } else {
                    simulated_accesses(value)
                }
            })
            .sum(),
        Json::Arr(items) => items.iter().map(simulated_accesses).sum(),
        _ => 0,
    }
}

/// Renders and writes the wall report: a separate artifact so the
/// nondeterministic host numbers can accumulate across PRs without
/// ever touching the byte-stable result files.
fn write_wall_report(
    path: &Path,
    entries: &[WallEntry],
    ctx: &RunContext,
    threads: usize,
) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)
            .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
    }
    let total_wall: f64 = entries.iter().map(|e| e.wall_seconds).sum();
    let total_accesses: u64 = entries.iter().map(|e| e.simulated_accesses).sum();
    let doc = Json::obj([
        ("schema_version", Json::U64(1)),
        ("kind", Json::from("wall_report")),
        ("scale", Json::from(ctx.scale.name())),
        ("threads", Json::U64(effective_threads(threads) as u64)),
        (
            "entries",
            Json::Arr(
                entries
                    .iter()
                    .map(|e| {
                        Json::obj([
                            ("figure", Json::from(e.figure)),
                            ("wall_seconds", Json::F64(e.wall_seconds)),
                            ("simulated_accesses", Json::U64(e.simulated_accesses)),
                            ("accesses_per_wall_second", Json::F64(e.accesses_per_second())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "total",
            Json::obj([
                ("wall_seconds", Json::F64(total_wall)),
                ("simulated_accesses", Json::U64(total_accesses)),
                (
                    "accesses_per_wall_second",
                    Json::F64(if total_wall > 0.0 {
                        total_accesses as f64 / total_wall
                    } else {
                        0.0
                    }),
                ),
            ]),
        ),
    ]);
    std::fs::write(path, doc.render_pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("[neomem-bench] wall report -> {}", path.display());
    Ok(())
}

/// Runs one figure and writes its JSON result; returns the document
/// and the host-side timing entry.
fn run_and_write(
    figure: &Figure,
    ctx: &RunContext,
    out_dir: &Path,
) -> Result<(Json, WallEntry), String> {
    let started = Instant::now();
    let doc = figures::run_figure(figure, ctx);
    let wall_seconds = started.elapsed().as_secs_f64();
    // A NaN/∞ would render as `null` and silently vanish from the
    // result schema (the gate would then misreport it as a missing
    // metric) — refuse to serialise it, naming the offending path.
    if let Some(path) = doc.find_non_finite() {
        return Err(format!(
            "figure {} produced a non-finite metric at {path}; refusing to write \
             {}.json (it would serialise as null and break the baseline contract)",
            figure.name, figure.name
        ));
    }
    std::fs::create_dir_all(out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    let path = out_dir.join(format!("{}.json", figure.name));
    std::fs::write(&path, doc.render_pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!(
        "\n[neomem-bench] {} done in {:.1}s -> {}",
        figure.name,
        wall_seconds,
        path.display()
    );
    let entry =
        WallEntry { figure: figure.name, wall_seconds, simulated_accesses: simulated_accesses(&doc) };
    Ok((doc, entry))
}

/// Runs a figure set, reporting wall-clock throughput per figure on
/// stderr and (optionally) into `wall_report`.
fn run_figures(
    figures: &[&'static Figure],
    ctx: &RunContext,
    options: &Options,
    wall_report: Option<&Path>,
) -> Result<(), String> {
    let mut entries = Vec::new();
    for figure in figures {
        let (_, entry) = run_and_write(figure, ctx, &options.out_dir)?;
        eprintln!(
            "[perf] {}: {} simulated accesses in {:.2}s wall = {:.2} M accesses/s",
            entry.figure,
            entry.simulated_accesses,
            entry.wall_seconds,
            entry.accesses_per_second() / 1e6,
        );
        entries.push(entry);
    }
    if let Some(path) = wall_report {
        write_wall_report(path, &entries, ctx, options.threads)?;
    }
    Ok(())
}

/// Loads the corpus registry, mapping the error for CLI display.
fn load_registry() -> Result<Registry, String> {
    Registry::discover().map_err(|e| e.to_string())
}

/// `scenario list`: every named machine and scenario in the corpus.
fn scenario_list() -> Result<(), String> {
    let registry = load_registry()?;
    println!("corpus: {} ({} entries)", registry.dir().display(), registry.len());
    for name in registry.machine_names() {
        let machine = registry.machine(name).expect("listed name resolves");
        let title =
            machine.title.as_deref().map(|t| format!(" — {t}")).unwrap_or_default();
        println!("machine   {name:<28}{title}");
    }
    for name in registry.scenario_names() {
        let scenario = registry.scenario(name).expect("listed name resolves");
        let on = scenario.machine.as_deref().map(|m| format!(" on {m}")).unwrap_or_default();
        let title =
            scenario.title.as_deref().map(|t| format!(" — {t}")).unwrap_or_default();
        println!(
            "scenario  {name:<28} {} tenant(s){on}{title}",
            scenario.scenario.mix().len()
        );
    }
    Ok(())
}

/// `scenario check`: validates the whole corpus — parse errors, schema
/// violations, stem/name mismatches, duplicate names and dangling
/// machine references all fail the load with a path-prefixed message —
/// then lowers every scenario onto its declared machine as a run would
/// and validates the result, so a scenario the machine cannot run fails
/// here rather than mid-run.
fn scenario_check() -> Result<(), String> {
    let registry = load_registry()?;
    for name in registry.machine_names() {
        println!("ok  machine   {name}");
    }
    for name in registry.scenario_names() {
        let config = registry.scenario(name).map_err(|e| e.to_string())?;
        let machine = registry.machine_for(name).map_err(|e| e.to_string())?;
        figures::registry::check_scenario(config, machine)
            .map_err(|e| format!("{}: {e}", registry.path_of(name).display()))?;
        println!("ok  scenario  {name}");
    }
    println!(
        "[neomem-bench] {} corpus entries validated in {}",
        registry.len(),
        registry.dir().display()
    );
    Ok(())
}

/// `scenario run` (and `scenario:<name>` run targets): executes named
/// corpus scenarios, each on its declared machine unless `--machine`
/// pins one, and writes `scenario_<name>.json` results.
fn run_scenarios(names: &[String], ctx: &RunContext, options: &Options) -> Result<(), String> {
    if names.is_empty() {
        return Ok(());
    }
    let registry = load_registry()?;
    let pinned = match &options.machine {
        Some(name) => Some(registry.machine(name).map_err(|e| e.to_string())?),
        None => None,
    };
    for name in names {
        let config = registry.scenario(name).map_err(|e| e.to_string())?;
        let machine = match pinned {
            Some(machine) => Some(machine),
            None => registry.machine_for(name).map_err(|e| e.to_string())?,
        };
        let started = Instant::now();
        let (metrics, run) = figures::registry::run_scenario(config, machine, ctx)
            .map_err(|e| format!("scenario {name:?}: {e}"))?;
        let mut doc = vec![
            ("schema_version".to_string(), Json::U64(1)),
            ("kind".to_string(), Json::from("scenario_run")),
            ("name".to_string(), Json::from(name.as_str())),
            ("scale".to_string(), Json::from(ctx.scale.name())),
        ];
        let Json::Obj(body) = metrics else {
            unreachable!("run_scenario returns an object payload")
        };
        doc.extend(body);
        doc.push(("grid".to_string(), run.to_json()));
        let doc = Json::Obj(doc);
        if let Some(path) = doc.find_non_finite() {
            return Err(format!(
                "scenario {name:?} produced a non-finite metric at {path}; refusing to \
                 write scenario_{name}.json"
            ));
        }
        std::fs::create_dir_all(&options.out_dir)
            .map_err(|e| format!("cannot create {}: {e}", options.out_dir.display()))?;
        let path = options.out_dir.join(format!("scenario_{name}.json"));
        std::fs::write(&path, doc.render_pretty())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!(
            "\n[neomem-bench] scenario {name} done in {:.1}s -> {}",
            started.elapsed().as_secs_f64(),
            path.display()
        );
    }
    Ok(())
}

/// Reads `NEOMEM_SCALE` without panicking: unlike the bench-wrapper
/// path ([`Scale::from_env`]), a CLI rejects bad user input with an
/// actionable message and a failure exit code.
fn scale_from_env() -> Result<Scale, String> {
    match std::env::var("NEOMEM_SCALE") {
        Err(_) => Ok(Scale::Quick),
        Ok(value) => Scale::parse(&value).ok_or_else(|| {
            format!(
                "unrecognised NEOMEM_SCALE value {value:?}: expected \"quick\" or \"full\" \
                 (case-insensitive)"
            )
        }),
    }
}

fn main() -> ExitCode {
    install_probe();
    let (command, options) = match parse_args() {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let scale = match scale_from_env() {
        Ok(scale) => scale,
        Err(message) => {
            eprintln!("neomem-bench: {message}");
            return ExitCode::FAILURE;
        }
    };
    // Without a discoverable corpus, fail before any figure writes a
    // result, with the same message as `scenario list`.
    if command.needs_corpus() {
        if let Err(message) = load_registry() {
            eprintln!("neomem-bench: {message}");
            return ExitCode::FAILURE;
        }
    }
    let ctx = RunContext {
        scale,
        threads: options.threads,
        warm_dir: options.warm_start.clone(),
        write_snapshots: matches!(command, Command::Snapshot(_)),
    };
    let gate_config = GateConfig { tolerance: options.tolerance, ..Default::default() };
    let outcome: Result<bool, String> = match command {
        Command::Help => {
            println!("{USAGE}");
            Ok(true)
        }
        Command::List => {
            for figure in figures::ALL {
                println!("{:<14} {}", figure.name, figure.title);
            }
            Ok(true)
        }
        Command::Run(figures, scenarios) => {
            run_figures(&figures, &ctx, &options, options.wall_report.as_deref())
                .and_then(|()| run_scenarios(&scenarios, &ctx, &options))
                .map(|()| true)
        }
        Command::Snapshot(figures) => {
            run_figures(&figures, &ctx, &options, options.wall_report.as_deref()).map(|()| true)
        }
        Command::ScenarioList => scenario_list().map(|()| true),
        Command::ScenarioCheck => scenario_check().map(|()| true),
        Command::ScenarioRun(names) => run_scenarios(&names, &ctx, &options).map(|()| true),
        Command::Perf(figures) => {
            let default_path = PathBuf::from("target/wall-reports/perf.wall.json");
            let path = options.wall_report.clone().unwrap_or(default_path);
            run_figures(&figures, &ctx, &options, Some(&path)).map(|()| true)
        }
        Command::Compare(baseline_path, current_path) => {
            load_json(&baseline_path).and_then(|baseline| {
                load_json(&current_path).map(|current| {
                    let report = compare(&baseline, &current, &gate_config);
                    print!("{}", report.summary());
                    report.passed()
                })
            })
        }
        Command::Gate(figure) => {
            let baseline_path = options.baseline.as_deref().expect("validated in parse_args");
            load_json(baseline_path).and_then(|baseline| {
                run_and_write(figure, &ctx, &options.out_dir).map(|(current, _)| {
                    let report = compare(&baseline, &current, &gate_config);
                    print!("{}", report.summary());
                    report.passed()
                })
            })
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("neomem-bench: {message}");
            ExitCode::FAILURE
        }
    }
}
