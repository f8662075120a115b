//! Snapshot tests for the config layer's diagnostics, plus the corpus
//! gate: every checked-in `scenarios/*.cfg` must parse, validate and
//! resolve by name.
//!
//! The diagnostic pins are deliberately exact-match: the error text is
//! part of the user interface (CI logs quote it verbatim), so a
//! wording change must show up in review as a test diff, not slip by.

use std::path::PathBuf;

use neomem::prelude::*;
use neomem::types::config::ConfigDoc;
use neomem::workloads::ScenarioConfig;
use neomem_bench::figures::registry::check_scenario;
use neomem_runner::Registry;

/// The checked-in corpus directory, independent of the test's cwd.
fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

#[test]
fn corpus_loads_and_is_large_enough() {
    let registry = Registry::load(corpus_dir()).expect("checked-in corpus must validate");
    assert!(registry.len() >= 24, "corpus has {} entries, want >= 24", registry.len());
    assert!(registry.machine_names().count() >= 4, "want a few machines");
    assert!(registry.scenario_names().count() >= 18, "want a broad scenario set");
}

#[test]
fn corpus_names_all_resolve_and_map_to_files() {
    let registry = Registry::load(corpus_dir()).expect("checked-in corpus must validate");
    let names: Vec<String> = registry
        .machine_names()
        .chain(registry.scenario_names())
        .map(str::to_string)
        .collect();
    for name in &names {
        assert!(registry.path_of(name).is_file(), "{name} has no backing file");
    }
    for name in registry.scenario_names().map(str::to_string).collect::<Vec<_>>() {
        let config = registry.scenario(&name).expect("listed scenario resolves");
        assert_eq!(config.name, name, "stem/name invariant");
        // Machine references were validated at load; resolving again
        // must therefore never fail.
        let machine = registry.machine_for(&name).expect("machine ref resolves");
        check_scenario(config, machine)
            .unwrap_or_else(|e| panic!("corpus scenario {name} must fit its machine: {e}"));
    }
}

/// `scenario check` lowers every scenario onto its declared machine and
/// validates it as the run path does, so scenarios the machine cannot
/// run are rejected at check time, with the error the run would report.
#[test]
fn scenario_check_rejects_what_the_machine_cannot_run() {
    let dir = std::env::temp_dir().join(format!("neomem-corpus-lowering-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let files = [
        ("tiny", "schema = 1\nkind = machine\nname = tiny\n[memory]\nfast_pages = 16\ntotal_pages = 32\n"),
        (
            "crowded",
            "schema = 1\nkind = scenario\nname = crowded\nmachine = tiny\n\
             [tenant]\nworkload = gups\nrss_pages = 4096\nseed = 1\n",
        ),
        (
            "vast",
            "schema = 1\nkind = scenario\nname = vast\n\
             [tenant]\nworkload = gups\nrss_pages = 4294967296\nseed = 1\n",
        ),
        (
            "unplugged",
            "schema = 1\nkind = scenario\nname = unplugged\n\
             [tenant]\nworkload = gups\nrss_pages = 1024\nseed = 1\n\
             [fault]\nkind = capacity-loss\nat = 2ms\nduration = 4ms\nframes = 100000000\n",
        ),
    ];
    for (name, text) in files {
        std::fs::write(dir.join(format!("{name}.cfg")), text).unwrap();
    }
    let registry = Registry::load(&dir).expect("the files parse and cross-reference");
    let check = |name: &str| {
        let machine = registry.machine_for(name).unwrap();
        check_scenario(registry.scenario(name).unwrap(), machine).unwrap_err().to_string()
    };
    assert_eq!(
        check("crowded"),
        "invalid configuration: grid 'registry/crowded' cell 0 (crowded / NeoMem): invalid \
         configuration: footprint of 4096 pages exceeds physical capacity 32"
    );
    assert_eq!(
        check("vast"),
        "invalid configuration: grid 'registry/vast' cell 0 (vast / NeoMem): invalid \
         configuration: footprint of 4294967296 pages is too large for the l1 cache: its \
         largest line tag 0x1ffffffff needs more than 31 bits"
    );
    assert_eq!(
        check("unplugged"),
        "invalid configuration: grid 'registry/unplugged' cell 0 (unplugged / NeoMem): invalid \
         configuration: fault capacity-loss at 2000000ns: frames = 100000000 exceeds the 341 \
         frames of the fast tier"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Exact diagnostic text for invalid scenario files, end to end
/// through [`ScenarioConfig::parse`].
#[test]
fn scenario_diagnostics_are_pinned() {
    let err = |text: &str| ScenarioConfig::parse(text).unwrap_err().to_string();
    let base = "schema = 1\nkind = scenario\nname = x\n";
    let cases = [
        (
            format!("{base}[tenant]\nworkload = redsi\nrss_pages = 64\nseed = 1\n"),
            "line 5: unknown workload \"redsi\"; available: pagerank, xsbench, silo, bwaves, \
             roms, btree, gups, deathstarbench, redis (did you mean \"redis\"?)",
        ),
        (
            format!("{base}[tenant]\nworkload = gups\nrss_pages = 64\nseed = 1\nwieght = 2\n"),
            "line 8: unknown key \"wieght\" in [tenant] (did you mean \"weight\"?)",
        ),
        (
            format!("{base}[tenant]\nworkload = gups\nrss_pages = fast\nseed = 1\n"),
            "line 6: key \"rss_pages\" wants an integer, found string in [tenant]",
        ),
        (
            format!("{base}[tenant]\nrss_pages = 64\nseed = 1\n"),
            "line 4: missing required key \"workload\" in [tenant]",
        ),
        (
            format!(
                "{base}[tenant]\nworkload = gups\nrss_pages = 64\nseed = 1\n\
                 [event]\nat = 1ms\ntenant = 0\naction = depar\n"
            ),
            "line 11: unknown action \"depar\" (want arrive, depart or set-weight) \
             (did you mean \"depart\"?)",
        ),
        (
            "schema = 9\nkind = scenario\nname = x\n".to_string(),
            "line 1: unsupported schema version 9 (this build reads 1)",
        ),
        (
            format!(
                "{base}[tenant]\nworkload = gups\nrss_pages = 64\nseed = 1\n\
                 [fault]\nkind = link-degarded\nat = 1ms\nduration = 1ms\n"
            ),
            "line 9: unknown fault kind \"link-degarded\"; available: neoprof-outage, \
             link-degraded, capacity-loss (did you mean \"link-degraded\"?)",
        ),
        (
            format!(
                "{base}[tenant]\nworkload = gups\nrss_pages = 64\nseed = 1\n\
                 [falut]\nkind = neoprof-outage\nat = 1ms\nduration = 1ms\n"
            ),
            "line 8: unknown section [falut] in a scenario file (did you mean [fault]?)",
        ),
        // Footprints below the generators' minimum: the run would
        // panic building the tenant, and `check` building the phase.
        (
            format!("{base}[tenant]\nworkload = silo\nrss_pages = 32\nseed = 1\n"),
            "line 6: key \"rss_pages\" is 32, want at least 64 in [tenant]",
        ),
        (
            format!(
                "{base}[tenant]\nworkload = silo\nrss_pages = 1024\nseed = 1\n\
                 [phase]\ntenant = 0\nworkload = silo\nrss_pages = 32\nevents = 1000\n"
            ),
            "line 11: key \"rss_pages\" is 32, want at least 64 in [phase]",
        ),
    ];
    for (text, want) in cases {
        assert_eq!(err(&text), want, "input:\n{text}");
    }
}

/// Exact diagnostic text at the JSON layer: duplicate object keys in
/// hand-edited baselines/snapshots are rejected by name, never
/// last-wins merged.
#[test]
fn json_duplicate_keys_are_pinned() {
    use neomem::types::json::Json;
    let err = Json::parse(r#"{"runtime_ns":1,"runtime_ns":2}"#)
        .expect_err("duplicate keys must be rejected");
    assert_eq!(
        err.to_string(),
        "JSON parse error at byte 30: duplicate object key \"runtime_ns\""
    );
}

/// Exact diagnostic text for invalid machine files, end to end through
/// [`MachineDescription::parse`].
#[test]
fn machine_diagnostics_are_pinned() {
    let err = |text: &str| MachineDescription::parse(text).unwrap_err().to_string();
    let base = "schema = 1\nkind = machine\nname = m\n";
    let cases = [
        (
            format!("{base}preset = huge\n"),
            "line 4: unknown preset \"huge\" (want quick or large)",
        ),
        (
            format!("{base}[memory]\nratio = 2000\n"),
            "line 5: key \"ratio\" is 2000, want 1..=1024 in [memory]",
        ),
        (
            format!("{base}[memory]\nfast_bandwidth = 0GiB/s\n"),
            "line 5: key \"fast_bandwidth\" must be a positive bandwidth",
        ),
        (
            format!("{base}[tlb]\nentries = 64\nways = 4\nwalk = 12\n"),
            "line 7: key \"walk\" wants a duration (e.g. 8ms, 118ns), found integer in [tlb]",
        ),
        (
            format!("{base}[memory]\nslow_read_latency = 600\n"),
            "line 5: key \"slow_read_latency\" wants a duration (e.g. 8ms, 118ns), \
             found integer in [memory]",
        ),
    ];
    for (text, want) in cases {
        assert_eq!(err(&text), want, "input:\n{text}");
    }
}

/// Exact diagnostic text at the grammar layer.
#[test]
fn grammar_diagnostics_are_pinned() {
    let err = |text: &str| ConfigDoc::parse(text).unwrap_err().to_string();
    assert_eq!(
        err("a = 1\na = 2\n"),
        "line 2: duplicate key \"a\" in top level (first set on line 1)"
    );
    assert_eq!(
        err("ba$d = 1\n"),
        "line 1: invalid key \"ba$d\" (want letters, digits, '_', '-')"
    );
}

/// A corrupted corpus copy fails with a path-prefixed, line-precise
/// message — what the CI `scenario check` job surfaces on a bad PR.
#[test]
fn corrupted_corpus_copy_fails_with_path_and_line() {
    let dir = std::env::temp_dir()
        .join(format!("neomem-corpus-corrupt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for entry in std::fs::read_dir(corpus_dir()).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "cfg") {
            std::fs::copy(&path, dir.join(path.file_name().unwrap())).unwrap();
        }
    }
    // Sabotage one file: a typo'd key inside [memory].
    let victim = dir.join("ddr-cxl-base.cfg");
    let text = std::fs::read_to_string(&victim).unwrap().replace("ratio =", "ratoi =");
    std::fs::write(&victim, text).unwrap();
    let err = Registry::load(&dir).unwrap_err().to_string();
    assert!(err.contains("ddr-cxl-base.cfg"), "{err}");
    assert!(err.contains("did you mean \"ratio\"?"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `registry` figure run where no corpus is discoverable fails like
/// `scenario list` — exit 1 and the typed message, no panic — before
/// any figure writes a result.
#[test]
fn registry_figure_without_a_corpus_fails_before_running() {
    let dir = std::env::temp_dir().join(format!("neomem-no-corpus-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let dir = dir.canonicalize().unwrap();
    let out = dir.join("out");
    let run = std::process::Command::new(env!("CARGO_BIN_EXE_neomem-bench"))
        .args(["table01", "registry", "--out"])
        .arg(&out)
        .current_dir(&dir)
        .env_remove("NEOMEM_SCENARIO_DIR")
        .output()
        .expect("neomem-bench starts");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(1), "{stderr}");
    assert_eq!(
        stderr,
        format!(
            "neomem-bench: invalid configuration: no scenarios/ directory found from {} \
             upward (set NEOMEM_SCENARIO_DIR to override)\n",
            dir.display()
        )
    );
    assert!(!out.exists(), "no figure may run");
    let _ = std::fs::remove_dir_all(&dir);
}
