//! Shared plumbing for the figure/table regeneration harness.
//!
//! Every table and figure in the paper's evaluation has a `harness =
//! false` bench target that prints the corresponding rows/series; run
//! them all with `cargo bench`, or one with e.g.
//! `cargo bench --bench fig11_end_to_end`.
//!
//! The same figures are also exposed through the `neomem-bench` CLI
//! binary, which additionally writes machine-readable JSON results to
//! `target/bench-results/<name>.json` and runs experiment grids in
//! parallel through [`neomem_runner`]:
//!
//! ```sh
//! cargo run --release -p neomem_bench --bin neomem-bench -- fig11 --threads 4
//! ```
//!
//! Set `NEOMEM_SCALE=full` for ~10× longer, higher-fidelity runs
//! (default: `quick`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use neomem::prelude::*;
use neomem_runner::ExperimentGrid;

pub mod alloc_probe;
pub mod figures;

/// Scale knob read from `NEOMEM_SCALE` (`quick` default, `full` = 10×).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// Minutes-for-everything default.
    #[default]
    Quick,
    /// ~10× more simulated accesses.
    Full,
}

impl Scale {
    /// Parses a scale name, case-insensitively. Empty input counts as
    /// unset and maps to quick.
    pub fn parse(value: &str) -> Option<Self> {
        match value.trim().to_ascii_lowercase().as_str() {
            "" | "quick" => Some(Scale::Quick),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }

    /// Reads the scale from the environment.
    ///
    /// # Panics
    ///
    /// Panics on an unrecognised `NEOMEM_SCALE` value — a misspelling
    /// like `Fulll` must not silently fall back to a quick run.
    pub fn from_env() -> Self {
        match std::env::var("NEOMEM_SCALE") {
            Err(_) => Scale::Quick,
            Ok(value) => Scale::parse(&value).unwrap_or_else(|| {
                panic!(
                    "unrecognised NEOMEM_SCALE value {value:?}: expected \"quick\" or \"full\" \
                     (case-insensitive)"
                )
            }),
        }
    }

    /// The canonical lowercase name (`quick` / `full`).
    pub fn name(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Full => "full",
        }
    }

    /// Multiplies a quick-mode access budget.
    pub fn accesses(self, quick: u64) -> u64 {
        match self {
            Scale::Quick => quick,
            Scale::Full => quick * 10,
        }
    }
}

/// Standard experiment shell used by most figures: paper defaults,
/// 1:2 ratio, scaled cadences.
pub fn experiment(workload: WorkloadKind, policy: PolicyKind, scale: Scale) -> ExperimentBuilder {
    Experiment::builder()
        .workload(workload)
        .policy(policy)
        .rss_pages(6144)
        .ratio(2)
        .accesses(scale.accesses(1_200_000))
        .time_scale(1000)
        .seed(2024)
}

/// The grid-level counterpart of [`experiment`]: a campaign shell with
/// the paper defaults (6144 pages, 1:2 ratio, seed 2024, scaled 1.2 M
/// access budget) ready for axis overrides.
pub fn paper_grid(name: &str, scale: Scale) -> ExperimentGrid {
    ExperimentGrid::new(name)
        .rss_pages(6144)
        .ratios([2])
        .seeds([2024])
        .budgets([scale.accesses(1_200_000)])
        .time_scale(1000)
}

/// Geometric mean of a slice of positive numbers.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of empty slice");
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Formats a table row of fixed-width cells.
pub fn row(cells: &[String]) -> String {
    cells.iter().map(|c| format!("{c:>14}")).collect::<Vec<_>>().join(" | ")
}

/// Prints the standard harness header.
pub fn header(title: &str, source: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("(regenerates {source}; shapes should match, absolutes will not)");
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn scale_env_accessor() {
        assert_eq!(Scale::Quick.accesses(100), 100);
        assert_eq!(Scale::Full.accesses(100), 1000);
    }

    #[test]
    fn scale_parsing_is_case_insensitive() {
        assert_eq!(Scale::parse("full"), Some(Scale::Full));
        assert_eq!(Scale::parse("FULL"), Some(Scale::Full));
        assert_eq!(Scale::parse("Full"), Some(Scale::Full));
        assert_eq!(Scale::parse(" quick "), Some(Scale::Quick));
        assert_eq!(Scale::parse("QUICK"), Some(Scale::Quick));
        assert_eq!(Scale::parse(""), Some(Scale::Quick));
    }

    #[test]
    fn scale_parsing_rejects_unknown_values() {
        for bad in ["Fulll", "ful", "10x", "fast", "quick full"] {
            assert_eq!(Scale::parse(bad), None, "accepted {bad:?}");
        }
    }

    #[test]
    fn scale_names_round_trip() {
        for scale in [Scale::Quick, Scale::Full] {
            assert_eq!(Scale::parse(scale.name()), Some(scale));
        }
    }

    #[test]
    fn experiment_shell_builds() {
        let e = experiment(WorkloadKind::Gups, PolicyKind::FirstTouch, Scale::Quick);
        assert!(e.accesses(10_000).rss_pages(1024).build().is_ok());
    }

    #[test]
    fn paper_grid_matches_experiment_shell() {
        let cells = paper_grid("shell", Scale::Quick)
            .workloads([WorkloadKind::Gups])
            .policies([PolicyKind::FirstTouch])
            .cells();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].seed, 2024);
        assert_eq!(cells[0].ratio, 2);
        assert_eq!(cells[0].accesses, 1_200_000);
    }

    #[test]
    #[should_panic(expected = "geomean of empty")]
    fn geomean_rejects_empty() {
        let _ = geomean(&[]);
    }
}
