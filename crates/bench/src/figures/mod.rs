//! The figure/table campaign registry.
//!
//! Every paper figure and table is a [`Figure`]: a callable that prints
//! the human-readable rows (exactly what the `harness = false` bench
//! targets always printed) *and* returns a machine-readable [`Json`]
//! payload. The `neomem-bench` CLI writes those payloads to
//! `target/bench-results/<name>.json`; the bench targets discard them.
//!
//! Payloads contain only simulated (virtual-clock) quantities, so a
//! figure's JSON is byte-identical at any `--threads` value.

pub mod corun;
pub mod faults;
pub mod fig03;
pub mod fig04;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod micro_engine;
pub mod registry;
pub mod scenarios;
pub mod table01;
pub mod table06;

use std::path::PathBuf;

use neomem_runner::{Json, RunMode};

use crate::Scale;

/// Execution context shared by all figures.
#[derive(Debug, Clone, Default)]
pub struct RunContext {
    /// Access-budget scale (`NEOMEM_SCALE`).
    pub scale: Scale,
    /// Worker threads for experiment grids (`0` = all cores).
    pub threads: usize,
    /// Warm-start snapshot directory (`--warm-start DIR`); `None`
    /// runs every grid cold.
    pub warm_dir: Option<PathBuf>,
    /// When set, grids write fresh cell snapshots into `warm_dir`
    /// before running (the `neomem-bench snapshot` command).
    pub write_snapshots: bool,
}

impl RunContext {
    /// Builds a context from the environment: `NEOMEM_SCALE` for the
    /// scale and `NEOMEM_THREADS` for the worker count.
    ///
    /// # Panics
    ///
    /// Panics on unparseable values of either variable.
    pub fn from_env() -> Self {
        let threads = match std::env::var("NEOMEM_THREADS") {
            Err(_) => 0,
            // Set-but-empty counts as unset, matching Scale::parse.
            Ok(value) if value.trim().is_empty() => 0,
            Ok(value) => value.trim().parse().unwrap_or_else(|_| {
                panic!("unrecognised NEOMEM_THREADS value {value:?}: expected a number")
            }),
        };
        Self { scale: Scale::from_env(), threads, ..Self::default() }
    }

    /// The grid execution mode this context implies — what figures
    /// hand to [`neomem_runner::ExperimentGrid::run_mode`].
    pub fn grid_mode(&self) -> RunMode {
        RunMode {
            threads: self.threads,
            warm_dir: self.warm_dir.clone(),
            write_snapshots: self.write_snapshots,
        }
    }
}

/// A registered figure/table regeneration target.
#[derive(Debug, Clone, Copy)]
pub struct Figure {
    /// Short CLI name (`fig11`, `table06`, ...).
    pub name: &'static str,
    /// One-line description shown by `neomem-bench list`.
    pub title: &'static str,
    /// Runs the figure: prints its tables, returns the JSON payload.
    pub run: fn(&RunContext) -> Json,
}

/// Every figure/table, in paper order.
pub const ALL: &[Figure] = &[
    Figure { name: "fig03", title: "Fig. 3: CXL hardware characterisation", run: fig03::run },
    Figure { name: "fig04", title: "Fig. 4: profiling-mechanism evaluation", run: fig04::run },
    Figure { name: "fig11", title: "Fig. 11: end-to-end comparison + §VI-D overhead", run: fig11::run },
    Figure { name: "fig12", title: "Fig. 12: fast:slow memory-ratio sweep", run: fig12::run },
    Figure { name: "fig13", title: "Fig. 13: slow-tier traffic and migrations", run: fig13::run },
    Figure { name: "fig14", title: "Fig. 14: Page-Rank policy deep dive", run: fig14::run },
    Figure { name: "fig15", title: "Fig. 15: parameter sensitivity sweeps", run: fig15::run },
    Figure { name: "fig16", title: "Fig. 16: GUPS convergence after hot-set change", run: fig16::run },
    Figure { name: "fig17", title: "Fig. 17: NeoMem vs Memtis", run: fig17::run },
    Figure { name: "fig18", title: "Fig. 18 + §VI-B: hardware cost estimation", run: fig18::run },
    Figure { name: "table01", title: "Table I: profiling-technique comparison", run: table01::run },
    Figure { name: "table06", title: "Table VI: THP vs base pages on Page-Rank", run: table06::run },
    Figure { name: "corun", title: "Co-run: multi-tenant contention for the fast tier", run: corun::run },
    Figure { name: "scenarios", title: "Scenarios: tenant churn, phased workloads, contention-aware tiering", run: scenarios::run },
    Figure { name: "faults", title: "Faults: graceful degradation under device outages, link brownouts, capacity loss", run: faults::run },
    Figure { name: "registry", title: "Registry: corpus machines & scenarios validated end-to-end", run: registry::run },
    Figure { name: "micro_engine", title: "Engine-loop micro-bench: throughput, batch invariance, allocations", run: micro_engine::run },
];

/// Looks a figure up by CLI name.
pub fn find(name: &str) -> Option<&'static Figure> {
    ALL.iter().find(|f| f.name == name)
}

/// Runs a figure and wraps its payload in the result envelope
/// (`schema_version`, `name`, `title`, `scale` + the payload keys).
///
/// # Panics
///
/// Panics if the figure returns a non-object payload — a bug in the
/// figure, not a data condition.
pub fn run_figure(figure: &Figure, ctx: &RunContext) -> Json {
    let payload = (figure.run)(ctx);
    let Json::Obj(body) = payload else {
        panic!("figure {} returned a non-object payload", figure.name)
    };
    let mut doc = vec![
        ("schema_version".to_string(), Json::U64(1)),
        ("name".to_string(), Json::from(figure.name)),
        ("title".to_string(), Json::from(figure.title)),
        ("scale".to_string(), Json::from(ctx.scale.name())),
    ];
    doc.extend(body);
    Json::Obj(doc)
}

/// Entry point for the thin `harness = false` bench wrappers: builds a
/// context from the environment, runs the named figure for its printed
/// output and discards the JSON payload.
///
/// # Panics
///
/// Panics on an unknown figure name.
pub fn bench_target_main(name: &str) {
    let figure = find(name).unwrap_or_else(|| panic!("unknown figure {name:?}"));
    let ctx = RunContext::from_env();
    let _ = run_figure(figure, &ctx);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_all_bench_targets_uniquely() {
        assert_eq!(ALL.len(), 17);
        let mut names: Vec<&str> = ALL.iter().map(|f| f.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate figure names");
        assert!(find("fig11").is_some());
        assert!(find("fig99").is_none());
    }

    #[test]
    fn bench_target_wrappers_resolve_registered_figures() {
        // Every benches/*.rs wrapper calls bench_target_main with a
        // name literal resolved only at runtime; check them statically
        // so a registry rename cannot break `cargo bench` silently.
        let benches_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("benches");
        let mut wrappers = 0;
        for entry in std::fs::read_dir(&benches_dir).expect("benches/ readable") {
            let path = entry.expect("dir entry").path();
            if path.extension().is_none_or(|e| e != "rs") {
                continue;
            }
            let source = std::fs::read_to_string(&path).expect("wrapper readable");
            let name = source
                .split("bench_target_main(\"")
                .nth(1)
                .and_then(|rest| rest.split('"').next())
                .unwrap_or_else(|| panic!("{} does not call bench_target_main", path.display()));
            assert!(
                find(name).is_some(),
                "{} targets unregistered figure {name:?}",
                path.display()
            );
            wrappers += 1;
        }
        assert_eq!(wrappers, ALL.len(), "bench wrapper count != registry size");
    }

    #[test]
    fn envelope_wraps_payload_keys() {
        fn fake(_: &RunContext) -> Json {
            Json::obj([("series", Json::obj([("x", 1u64)]))])
        }
        let figure = Figure { name: "fake", title: "t", run: fake };
        let ctx = RunContext { scale: Scale::Quick, threads: 1, ..RunContext::default() };
        let doc = run_figure(&figure, &ctx);
        assert_eq!(doc.get("schema_version").and_then(Json::as_u64), Some(1));
        assert_eq!(doc.get("name").and_then(Json::as_str), Some("fake"));
        assert_eq!(doc.get("scale").and_then(Json::as_str), Some("quick"));
        assert!(doc.get("series").is_some());
    }
}
