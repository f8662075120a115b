//! Scenario files: declarative [`TenantMix`] / [`Scenario`] /
//! [`PhasedWorkload`](crate::PhasedWorkload) construction from the text-config format.
//!
//! A scenario file is a [`neomem_types::config::ConfigDoc`] with
//! `kind = scenario` that maps one-to-one onto the builder APIs of this
//! crate — the file is parsed into sections, each section is read
//! through a strict [`FieldReader`] (unknown keys are errors, with
//! near-miss suggestions), and the result is fed through the *same*
//! [`TenantMix::builder`] / [`Scenario::builder`] validation that
//! code-built scenarios use, so the rules can never diverge:
//!
//! ```text
//! schema = 1
//! kind = scenario
//! name = noisy-neighbor-duel
//!
//! [tenant]                 # tenant 0
//! name = victim
//! workload = silo
//! rss_pages = 2048
//! seed = 7
//!
//! [tenant]                 # tenant 1
//! name = aggressor
//! workload = gups
//! rss_pages = 2048
//! weight = 3
//! seed = 8
//!
//! [event]
//! at = 5ms
//! tenant = aggressor       # by name, or by index
//! action = depart
//! ```
//!
//! The schema is extend-only: new optional keys may be added, but
//! existing keys never change meaning or type, so old files stay valid.

use neomem_types::config::{ConfigDoc, ConfigError, ConfigValue, FieldReader};
use neomem_types::fault::MAX_LINK_MULTIPLIER;
use neomem_types::suggest;
use neomem_types::{FaultPlan, Nanos};

use crate::{PhaseSpec, Scenario, TenantMix, WorkloadKind, MIN_RSS_PAGES};

/// Current (and only) scenario-file schema version.
pub const SCHEMA_VERSION: u64 = 1;

/// Workload names accepted by [`parse_workload_kind`], in menu order.
pub const WORKLOAD_NAMES: [(&str, WorkloadKind); 9] = [
    ("pagerank", WorkloadKind::PageRank),
    ("xsbench", WorkloadKind::XsBench),
    ("silo", WorkloadKind::Silo),
    ("bwaves", WorkloadKind::Bwaves),
    ("roms", WorkloadKind::Roms),
    ("btree", WorkloadKind::Btree),
    ("gups", WorkloadKind::Gups),
    ("deathstarbench", WorkloadKind::DeathStarBench),
    ("redis", WorkloadKind::Redis),
];

/// Parses a workload name as used in config files (`gups`, `silo`,
/// `pagerank`, ... — lower-case, no punctuation; the paper-figure
/// labels `Page-Rank` / `603.bwaves` are also accepted).
pub fn parse_workload_kind(name: &str) -> Option<WorkloadKind> {
    let folded: String =
        name.chars().filter(|c| c.is_ascii_alphanumeric()).collect::<String>().to_ascii_lowercase();
    // `603bwaves` / `654roms` fold down from the paper labels.
    let folded = folded.trim_start_matches(|c: char| c.is_ascii_digit());
    WORKLOAD_NAMES.iter().find(|(n, _)| *n == folded).map(|(_, k)| *k)
}

/// A parsed, validated scenario file.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Registry name (`name = ...` in the file).
    pub name: String,
    /// Optional human title.
    pub title: Option<String>,
    /// Optional machine reference (`machine = <registry name>`); the
    /// runner resolves it, `None` means the default machine.
    pub machine: Option<String>,
    /// Optional co-run interleave quantum override: events a weight-1
    /// tenant runs per scheduling round.
    pub quantum: Option<usize>,
    /// The validated scenario (mix + timeline + phase schedules).
    pub scenario: Scenario,
    /// Tenant names in mix order (section `name =` or `tenant<i>`).
    pub tenant_names: Vec<String>,
}

impl ScenarioConfig {
    /// Parses and validates a scenario file.
    ///
    /// # Errors
    ///
    /// Returns a line-precise [`ConfigError`] on grammar errors, schema
    /// violations (unknown keys/sections, bad types, out-of-range
    /// values) and semantic violations (unknown workloads, dangling
    /// tenant references, invalid timelines or phase schedules).
    pub fn parse(text: &str) -> Result<Self, ConfigError> {
        Self::from_doc(&ConfigDoc::parse(text)?)
    }

    /// Validates an already-parsed document.
    ///
    /// # Errors
    ///
    /// As for [`ScenarioConfig::parse`], minus the grammar errors.
    pub fn from_doc(doc: &ConfigDoc) -> Result<Self, ConfigError> {
        let mut root = FieldReader::new(&doc.root);
        let schema = root.req_u64("schema")?;
        if schema != SCHEMA_VERSION {
            return Err(ConfigError::at(
                root.line_of("schema"),
                format!("unsupported schema version {schema} (this build reads {SCHEMA_VERSION})"),
            ));
        }
        let kind = root.req_str("kind")?;
        if kind != "scenario" {
            return Err(ConfigError::at(
                root.line_of("kind"),
                format!("kind {kind:?} is not \"scenario\""),
            ));
        }
        let name = root.req_str("name")?;
        if name.is_empty() {
            return Err(ConfigError::at(root.line_of("name"), "name must be non-empty".to_string()));
        }
        let title = root.take_str("title")?;
        let machine = root.take_str("machine")?;
        let quantum = root.take_u64_range("quantum", 1, 1 << 20)?.map(|q| q as usize);
        root.finish()?;

        for section in &doc.sections {
            if !matches!(section.name.as_str(), "tenant" | "event" | "phase" | "fault") {
                let hint = suggest::closest(&section.name, ["tenant", "event", "phase", "fault"])
                    .map(|s| format!(" (did you mean [{s}]?)"))
                    .unwrap_or_default();
                return Err(ConfigError::at(
                    section.line,
                    format!("unknown section [{}] in a scenario file{hint}", section.name),
                ));
            }
        }

        // Tenants, in section order.
        let mut tenant_names: Vec<String> = Vec::new();
        let mut mix_builder = TenantMix::builder();
        for (i, section) in doc.sections_named("tenant").enumerate() {
            let mut r = FieldReader::new(section);
            let tenant_name = r.take_str("name")?.unwrap_or_else(|| format!("tenant{i}"));
            if tenant_names.contains(&tenant_name) {
                return Err(ConfigError::at(
                    r.line_of("name"),
                    format!("duplicate tenant name {tenant_name:?}"),
                ));
            }
            let kind = read_workload_kind(&mut r)?;
            let rss_pages = r.req_u64_range("rss_pages", MIN_RSS_PAGES, u64::MAX)?;
            let weight = r.take_u64_range("weight", 1, u32::MAX as u64)?.unwrap_or(1);
            let seed = r.req_u64("seed")?;
            r.finish()?;
            tenant_names.push(tenant_name);
            mix_builder = mix_builder.weighted_tenant(kind, rss_pages, weight as u32, seed);
        }
        if tenant_names.is_empty() {
            return Err(ConfigError::whole(
                "a scenario file needs at least one [tenant] section",
            ));
        }
        let mix = mix_builder
            .build()
            .map_err(ConfigError::whole)?;

        // Phase schedules, grouped per tenant in section order.
        let mut builder = Scenario::builder(mix);
        let mut phases: Vec<Vec<PhaseSpec>> = vec![Vec::new(); tenant_names.len()];
        for section in doc.sections_named("phase") {
            let mut r = FieldReader::new(section);
            let tenant = read_tenant_ref(&mut r, &tenant_names)?;
            let kind = read_workload_kind(&mut r)?;
            let rss_pages = r.req_u64_range("rss_pages", MIN_RSS_PAGES, u64::MAX)?;
            let events = r.req_u64_range("events", 1, u64::MAX)?;
            r.finish()?;
            phases[tenant].push(PhaseSpec { kind, rss_pages, events });
        }
        for (tenant, schedule) in phases.into_iter().enumerate() {
            if !schedule.is_empty() {
                builder = builder.phased(tenant, schedule);
            }
        }

        // Timeline events, in section order (ties keep that order).
        let mut first_event_line = 0;
        for section in doc.sections_named("event") {
            if first_event_line == 0 {
                first_event_line = section.line;
            }
            let mut r = FieldReader::new(section);
            let at = Nanos::new(r.req_duration_ns("at")?);
            let tenant = read_tenant_ref(&mut r, &tenant_names)?;
            let action = r.req_str("action")?;
            let action_line = r.line_of("action");
            builder = match action.as_str() {
                "arrive" => {
                    r.finish()?;
                    builder.arrive(tenant, at)
                }
                "depart" => {
                    r.finish()?;
                    builder.depart(tenant, at)
                }
                "set-weight" => {
                    let weight = r.req_u64_range("weight", 1, u32::MAX as u64)?;
                    r.finish()?;
                    builder.set_weight(tenant, at, weight as u32)
                }
                other => {
                    let hint = suggest::closest(other, ["arrive", "depart", "set-weight"])
                        .map(|s| format!(" (did you mean {s:?}?)"))
                        .unwrap_or_default();
                    return Err(ConfigError::at(
                        action_line,
                        format!(
                            "unknown action {other:?} (want arrive, depart or set-weight){hint}"
                        ),
                    ));
                }
            };
        }

        // Fault windows, in section order (the shared plan builder
        // re-sorts and validates same-class overlap, exactly as for
        // code-built plans).
        let mut fault_builder = FaultPlan::builder();
        let mut first_fault_line = 0;
        for section in doc.sections_named("fault") {
            if first_fault_line == 0 {
                first_fault_line = section.line;
            }
            let mut r = FieldReader::new(section);
            let at = Nanos::new(r.req_duration_ns("at")?);
            let duration = Nanos::new(r.req_duration_ns("duration")?);
            let kind = r.req_str("kind")?;
            let kind_line = r.line_of("kind");
            fault_builder = match kind.as_str() {
                "neoprof-outage" => {
                    r.finish()?;
                    fault_builder.outage(at, duration)
                }
                "link-degraded" => {
                    let max = MAX_LINK_MULTIPLIER;
                    let latency_x = r.take_u64_range("latency_x", 1, max)?.unwrap_or(1);
                    let bandwidth_div = r.take_u64_range("bandwidth_div", 1, max)?.unwrap_or(1);
                    r.finish()?;
                    fault_builder.link_degraded(at, duration, latency_x, bandwidth_div)
                }
                "capacity-loss" => {
                    let frames = r.req_u64_range("frames", 1, u64::MAX)?;
                    r.finish()?;
                    fault_builder.capacity_loss(at, duration, frames)
                }
                other => {
                    let menu = ["neoprof-outage", "link-degraded", "capacity-loss"];
                    let hint = suggest::closest(other, menu)
                        .map(|s| format!(" (did you mean {s:?}?)"))
                        .unwrap_or_default();
                    return Err(ConfigError::at(
                        kind_line,
                        format!("unknown fault kind {other:?}; available: {}{hint}", menu.join(", ")),
                    ));
                }
            };
        }
        if first_fault_line != 0 {
            let plan = fault_builder
                .build()
                .map_err(|e| ConfigError::at(first_fault_line, e.to_string()))?;
            builder = builder.faults(plan);
        }

        // Semantic validation goes through the shared builder; its
        // messages don't carry lines, so pin them to the first [event]
        // section (timeline rules are the only ones left to fail —
        // tenant indices and phase schedules were checked above).
        let scenario = builder
            .build()
            .map_err(|msg| ConfigError::at(first_event_line, msg))?;
        Ok(Self { name, title, machine, quantum, scenario, tenant_names })
    }
}

/// Reads the `workload =` key of `r` as a [`WorkloadKind`], with the
/// full menu (and a near-miss suggestion) in the error.
fn read_workload_kind(r: &mut FieldReader<'_>) -> Result<WorkloadKind, ConfigError> {
    let name = r.req_str("workload")?;
    parse_workload_kind(&name).ok_or_else(|| {
        let menu: Vec<&str> = WORKLOAD_NAMES.iter().map(|(n, _)| *n).collect();
        let hint = suggest::closest(&name, menu.iter().copied())
            .map(|s| format!(" (did you mean {s:?}?)"))
            .unwrap_or_default();
        ConfigError::at(
            r.line_of("workload"),
            format!("unknown workload {name:?}; available: {}{hint}", menu.join(", ")),
        )
    })
}

/// Reads the `tenant =` key of `r`: an index into the mix, or a tenant
/// name declared by a `[tenant]` section.
fn read_tenant_ref(
    r: &mut FieldReader<'_>,
    tenant_names: &[String],
) -> Result<usize, ConfigError> {
    let entry = r.req("tenant")?;
    let (line, section) = (entry.line, r.section().label());
    match &entry.value {
        ConfigValue::Int(i) => {
            let i = *i as usize;
            if i >= tenant_names.len() {
                return Err(ConfigError::at(
                    line,
                    format!(
                        "tenant index {i} out of range in {section} (the mix has {} tenants)",
                        tenant_names.len()
                    ),
                ));
            }
            Ok(i)
        }
        ConfigValue::Str(name) => {
            tenant_names.iter().position(|n| n == name).ok_or_else(|| {
                let hint = suggest::closest(name, tenant_names.iter().map(String::as_str))
                    .map(|s| format!(" (did you mean {s:?}?)"))
                    .unwrap_or_default();
                ConfigError::at(
                    line,
                    format!(
                        "unknown tenant {name:?} in {section}; declared tenants: {}{hint}",
                        tenant_names.join(", ")
                    ),
                )
            })
        }
        other => Err(ConfigError::at(
            line,
            format!(
                "key \"tenant\" wants an index or tenant name, found {} in {section}",
                other.type_name()
            ),
        )),
    }
}

/// Reads the root `kind =` of a parsed document — how the registry
/// routes a file to the scenario or machine reader.
///
/// # Errors
///
/// Fails when `kind` is missing, mistyped, or neither `scenario` nor
/// `machine`.
pub fn doc_kind(doc: &ConfigDoc) -> Result<String, ConfigError> {
    let entry = doc.root.get("kind").ok_or_else(|| {
        ConfigError::whole("missing required key \"kind\" (want kind = scenario or kind = machine)")
    })?;
    match &entry.value {
        ConfigValue::Str(s) if s == "scenario" || s == "machine" => Ok(s.clone()),
        ConfigValue::Str(s) => {
            let hint = suggest::closest(s, ["scenario", "machine"])
                .map(|k| format!(" (did you mean {k:?}?)"))
                .unwrap_or_default();
            Err(ConfigError::at(
                entry.line,
                format!("unknown kind {s:?} (want scenario or machine){hint}"),
            ))
        }
        other => Err(ConfigError::at(
            entry.line,
            format!("key \"kind\" wants a string, found {}", other.type_name()),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TenantEventKind;

    const DUEL: &str = "\
schema = 1
kind = scenario
name = duel
title = \"noisy neighbor duel\"
quantum = 128

[tenant]
name = victim
workload = silo
rss_pages = 2048
seed = 7

[tenant]
name = aggressor
workload = gups
rss_pages = 2048
weight = 3
seed = 8

[event]
at = 5ms
tenant = aggressor
action = depart

[event]
at = 9ms
tenant = 1
action = arrive
";

    #[test]
    fn parses_a_full_scenario_file() {
        let cfg = ScenarioConfig::parse(DUEL).unwrap();
        assert_eq!(cfg.name, "duel");
        assert_eq!(cfg.title.as_deref(), Some("noisy neighbor duel"));
        assert_eq!(cfg.quantum, Some(128));
        assert_eq!(cfg.machine, None);
        assert_eq!(cfg.tenant_names, vec!["victim", "aggressor"]);
        let s = &cfg.scenario;
        assert_eq!(s.mix().len(), 2);
        assert_eq!(s.mix().tenants()[1].weight, 3);
        assert_eq!(s.events().len(), 2);
        assert_eq!(s.events()[0].kind, TenantEventKind::Depart);
        assert_eq!(s.events()[0].tenant, 1);
        assert_eq!(s.events()[1].at, Nanos::from_millis(9));
    }

    #[test]
    fn phases_group_per_tenant_in_order() {
        let text = "\
schema = 1
kind = scenario
name = phased
[tenant]
workload = gups
rss_pages = 1024
seed = 1
[phase]
tenant = 0
workload = gups
rss_pages = 512
events = 100
[phase]
tenant = tenant0
workload = silo
rss_pages = 256
events = 50
";
        let cfg = ScenarioConfig::parse(text).unwrap();
        let phases = cfg.scenario.phases()[0].as_ref().unwrap();
        assert_eq!(phases.len(), 2);
        assert_eq!(phases[0].kind, WorkloadKind::Gups);
        assert_eq!(phases[1].kind, WorkloadKind::Silo);
        assert_eq!(phases[1].events, 50);
    }

    #[test]
    fn workload_names_parse_and_reject() {
        assert_eq!(parse_workload_kind("gups"), Some(WorkloadKind::Gups));
        assert_eq!(parse_workload_kind("Page-Rank"), Some(WorkloadKind::PageRank));
        assert_eq!(parse_workload_kind("603.bwaves"), Some(WorkloadKind::Bwaves));
        assert_eq!(parse_workload_kind("654.roms"), Some(WorkloadKind::Roms));
        assert_eq!(parse_workload_kind("deathstarbench"), Some(WorkloadKind::DeathStarBench));
        assert_eq!(parse_workload_kind("mysql"), None);
    }

    #[test]
    fn diagnostics_are_precise() {
        let base = "schema = 1\nkind = scenario\nname = x\n";
        let err = |body: &str| {
            ScenarioConfig::parse(&format!("{base}{body}")).unwrap_err().to_string()
        };
        assert_eq!(
            err("[tenant]\nworkload = gupps\nrss_pages = 64\nseed = 1\n"),
            "line 5: unknown workload \"gupps\"; available: pagerank, xsbench, silo, bwaves, \
             roms, btree, gups, deathstarbench, redis (did you mean \"gups\"?)"
        );
        assert_eq!(
            err("[tenant]\nworkload = gups\nrss_pages = 0\nseed = 1\n"),
            "line 6: key \"rss_pages\" is 0, want at least 64 in [tenant]"
        );
        assert_eq!(
            err("[tenant]\nworkload = gups\nrss_pages = 64\nseed = 1\n\
                 [event]\nat = 1ms\ntenant = tenant7\naction = depart\n"),
            "line 10: unknown tenant \"tenant7\" in [event]; declared tenants: tenant0 \
             (did you mean \"tenant0\"?)"
        );
        assert_eq!(
            err("[tenant]\nworkload = gups\nrss_pages = 64\nseed = 1\n\
                 [event]\nat = 1ms\ntenant = 0\naction = vanish\n"),
            "line 11: unknown action \"vanish\" (want arrive, depart or set-weight)"
        );
        // Timeline violations surface the shared builder's message.
        let msg = err("[tenant]\nworkload = gups\nrss_pages = 64\nseed = 1\n\
                       [event]\nat = 1ms\ntenant = 0\naction = arrive\n\
                       [event]\nat = 2ms\ntenant = 0\naction = arrive\n");
        assert!(msg.contains("arrives at"), "{msg}");
        // Unknown sections suggest the close one.
        assert_eq!(
            err("[tenent]\nworkload = gups\n"),
            "line 4: unknown section [tenent] in a scenario file (did you mean [tenant]?)"
        );
    }

    #[test]
    fn schema_and_kind_are_enforced() {
        assert!(ScenarioConfig::parse("schema = 2\nkind = scenario\nname = x\n")
            .unwrap_err()
            .to_string()
            .contains("unsupported schema version 2"));
        assert!(ScenarioConfig::parse("schema = 1\nkind = machine\nname = x\n")
            .unwrap_err()
            .to_string()
            .contains("not \"scenario\""));
        let doc = ConfigDoc::parse("schema = 1\nkind = scenaro\nname = x\n").unwrap();
        assert!(doc_kind(&doc).unwrap_err().to_string().contains("did you mean \"scenario\"?"));
        let doc = ConfigDoc::parse("schema = 1\nkind = machine\nname = x\n").unwrap();
        assert_eq!(doc_kind(&doc).unwrap(), "machine");
    }

    #[test]
    fn fault_sections_lower_into_the_plan() {
        use neomem_types::FaultKind;
        let text = "\
schema = 1
kind = scenario
name = faulty
[tenant]
workload = gups
rss_pages = 1024
seed = 1
[fault]
kind = link-degraded
at = 3ms
duration = 1ms
latency_x = 4
bandwidth_div = 2
[fault]
kind = neoprof-outage
at = 1ms
duration = 500us
[fault]
kind = capacity-loss
at = 5ms
duration = 2ms
frames = 128
";
        let cfg = ScenarioConfig::parse(text).unwrap();
        let plan = cfg.scenario.faults();
        assert_eq!(plan.len(), 3);
        // The builder re-sorts by start time.
        assert_eq!(plan.events()[0].kind, FaultKind::NeoProfOutage);
        assert_eq!(plan.events()[0].at, Nanos::from_millis(1));
        assert_eq!(plan.events()[0].duration, Nanos::from_micros(500));
        assert_eq!(
            plan.events()[1].kind,
            FaultKind::LinkDegraded { latency_x: 4, bandwidth_div: 2 }
        );
        assert_eq!(plan.events()[2].kind, FaultKind::CapacityLoss { frames: 128 });
        assert!(cfg.scenario.label().ends_with("+3flt"), "{}", cfg.scenario.label());
    }

    #[test]
    fn fault_diagnostics_are_precise() {
        let base = "schema = 1\nkind = scenario\nname = x\n\
                    [tenant]\nworkload = gups\nrss_pages = 64\nseed = 1\n";
        let err = |body: &str| {
            ScenarioConfig::parse(&format!("{base}{body}")).unwrap_err().to_string()
        };
        // A mistyped kind gets the near-miss suggestion.
        assert_eq!(
            err("[fault]\nkind = neoprof-outge\nat = 1ms\nduration = 1ms\n"),
            "line 9: unknown fault kind \"neoprof-outge\"; available: neoprof-outage, \
             link-degraded, capacity-loss (did you mean \"neoprof-outage\"?)"
        );
        // A mistyped section name suggests [fault].
        assert_eq!(
            err("[falt]\nkind = neoprof-outage\nat = 1ms\nduration = 1ms\n"),
            "line 8: unknown section [falt] in a scenario file (did you mean [fault]?)"
        );
        // Kind-specific keys are rejected on the wrong kind.
        assert!(err("[fault]\nkind = neoprof-outage\nat = 1ms\nduration = 1ms\nframes = 4\n")
            .contains("unknown key \"frames\""));
        // Builder-level validation is pinned to the first [fault] line.
        assert!(err("[fault]\nkind = capacity-loss\nat = 1ms\nduration = 1ms\nframes = 0\n")
            .contains("at least 1"));
        let overlap = err("[fault]\nkind = neoprof-outage\nat = 1ms\nduration = 2ms\n\
                           [fault]\nkind = neoprof-outage\nat = 2ms\nduration = 1ms\n");
        assert!(overlap.starts_with("line 8:"), "{overlap}");
        assert!(overlap.contains("overlaps"), "{overlap}");
    }

    #[test]
    fn duplicate_and_missing_tenants_rejected() {
        let text = "schema = 1\nkind = scenario\nname = x\n\
                    [tenant]\nname = a\nworkload = gups\nrss_pages = 64\nseed = 1\n\
                    [tenant]\nname = a\nworkload = silo\nrss_pages = 64\nseed = 2\n";
        assert!(ScenarioConfig::parse(text).unwrap_err().to_string().contains("duplicate tenant"));
        assert_eq!(
            ScenarioConfig::parse("schema = 1\nkind = scenario\nname = x\n")
                .unwrap_err()
                .to_string(),
            "a scenario file needs at least one [tenant] section"
        );
    }
}
