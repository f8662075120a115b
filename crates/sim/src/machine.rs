//! Declarative machine descriptions: building a [`SimConfig`] from a
//! text-config file instead of Rust code.
//!
//! A machine file is a [`ConfigDoc`] with `kind = machine`. Every key
//! is an *override* on top of a named preset (`preset = quick`, the
//! default, or `preset = large` — exactly [`SimConfig::quick`] /
//! [`SimConfig::large`]), so an empty machine file reproduces the
//! code-built configuration field for field; the bench suite pins that
//! equivalence against the checked-in baselines. Example:
//!
//! ```text
//! schema = 1
//! kind = machine
//! name = cxl-far
//!
//! [memory]
//! ratio = 4                    # fast:slow = 1:4
//! slow_read_latency = 600ns    # a farther CXL device than the paper's
//! slow_bandwidth = 8GiB/s
//!
//! [neoprof]
//! sketch_width = 65536
//! fifo_depth = 1024
//! ```
//!
//! The schema is extend-only: new optional keys may be added, existing
//! keys never change meaning or type.

use neomem_cache::{CacheConfig, HierarchyConfig, TlbConfig};
use neomem_mem::TieredMemoryConfig;
use neomem_types::config::{ConfigDoc, ConfigError, FieldReader};
use neomem_types::{suggest, Bandwidth, Nanos};

use crate::config::SimConfig;

/// Current (and only) machine-file schema version.
pub const SCHEMA_VERSION: u64 = 1;

/// The sections a machine file may contain.
const SECTIONS: [&str; 5] = ["memory", "caches", "tlb", "engine", "neoprof"];

/// The base preset a machine description overrides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MachinePreset {
    /// [`SimConfig::quick`]: small caches/TLB for few-thousand-page
    /// footprints.
    #[default]
    Quick,
    /// [`SimConfig::large`]: full-size scaled caches/TLB and a bigger
    /// access budget, for multi-ten-thousand-page footprints.
    Large,
}

/// How a machine file sizes the two memory tiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TierSizing {
    /// Derive capacities from the workload footprint at the context's
    /// fast:slow ratio (the preset behaviour).
    #[default]
    FromWorkload,
    /// Derive capacities from the footprint at an explicit `1:ratio`.
    Ratio(u64),
    /// Explicit frame counts for both tiers.
    Frames {
        /// Fast-tier capacity in 4 KiB frames.
        fast: u64,
        /// Slow-tier capacity in 4 KiB frames.
        slow: u64,
    },
}

/// NeoProf device parameters a machine file can override. Plain
/// numbers rather than a device config — the simulator crate does not
/// construct the profiler; the experiment layer folds these into its
/// policy overrides. `None` everywhere = the paper defaults,
/// untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NeoProfKnobs {
    /// Sketch width `W` (power of two).
    pub sketch_width: Option<usize>,
    /// Sketch depth `D`.
    pub sketch_depth: Option<usize>,
    /// H3 hash seed.
    pub sketch_seed: Option<u64>,
    /// Hot-page output buffer capacity.
    pub hot_buffer_entries: Option<usize>,
    /// Monitor→core async FIFO depth.
    pub fifo_depth: Option<usize>,
    /// Pages the low-frequency core drains per tick.
    pub drain_per_tick: Option<usize>,
}

impl NeoProfKnobs {
    /// `true` when no knob is set — the description leaves the device
    /// exactly at its paper defaults.
    pub fn is_default(&self) -> bool {
        *self == Self::default()
    }
}

/// A validated machine description: a preset plus sparse overrides.
///
/// [`MachineDescription::sim_config`] instantiates it for a concrete
/// workload footprint. `MachineDescription::default()` is the quick
/// preset with no overrides — [`sim_config`](Self::sim_config) then
/// reproduces [`SimConfig::quick`] exactly.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MachineDescription {
    /// Registry name (`name = ...` in the file; empty for code-built
    /// descriptions).
    pub name: String,
    /// Optional human title.
    pub title: Option<String>,
    /// Base preset.
    pub preset: MachinePreset,
    /// Tier sizing.
    pub sizing: TierSizing,
    /// Fast-tier unloaded read latency override.
    pub fast_read_latency: Option<Nanos>,
    /// Fast-tier write latency override.
    pub fast_write_latency: Option<Nanos>,
    /// Fast-tier bandwidth override.
    pub fast_bandwidth: Option<Bandwidth>,
    /// Slow-tier unloaded read latency override.
    pub slow_read_latency: Option<Nanos>,
    /// Slow-tier write latency override.
    pub slow_write_latency: Option<Nanos>,
    /// Slow-tier bandwidth override.
    pub slow_bandwidth: Option<Bandwidth>,
    /// Cache-hierarchy geometry override (whole hierarchy at once —
    /// partial cache edits are not meaningful).
    pub caches: Option<HierarchyConfig>,
    /// TLB geometry override.
    pub tlb: Option<TlbConfig>,
    /// TLB page-walk cost override.
    pub tlb_walk: Option<Nanos>,
    /// Non-memory CPU time per access.
    pub cpu_per_access: Option<Nanos>,
    /// Policy tick quantum.
    pub tick_quantum: Option<Nanos>,
    /// Timeline sampling period.
    pub sample_interval: Option<Nanos>,
    /// NeoProf device parameter overrides.
    pub neoprof: NeoProfKnobs,
}

impl MachineDescription {
    /// Parses and validates a machine file.
    ///
    /// # Errors
    ///
    /// Returns a line-precise [`ConfigError`] on grammar errors,
    /// unknown keys/sections, bad types, out-of-range values, and
    /// cross-field violations (both `ratio` and explicit frames; a
    /// fast tier at least as large as the declared total; a
    /// non-power-of-two sketch width or cache set count).
    pub fn parse(text: &str) -> Result<Self, ConfigError> {
        Self::from_doc(&ConfigDoc::parse(text)?)
    }

    /// Validates an already-parsed document.
    ///
    /// # Errors
    ///
    /// As for [`MachineDescription::parse`], minus the grammar errors.
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
        if kind != "machine" {
            return Err(ConfigError::at(
                root.line_of("kind"),
                format!("kind {kind:?} is not \"machine\""),
            ));
        }
        let name = root.req_str("name")?;
        if name.is_empty() {
            return Err(ConfigError::at(root.line_of("name"), "name must be non-empty".to_string()));
        }
        let title = root.take_str("title")?;
        let preset = match root.take_str("preset")?.as_deref() {
            None | Some("quick") => MachinePreset::Quick,
            Some("large") => MachinePreset::Large,
            Some(other) => {
                return Err(ConfigError::at(
                    root.line_of("preset"),
                    format!("unknown preset {other:?} (want quick or large)"),
                ))
            }
        };
        root.finish()?;

        let mut desc = MachineDescription { name, title, preset, ..Self::default() };
        let mut seen: Vec<&str> = Vec::new();
        for section in &doc.sections {
            let Some(&known) = SECTIONS.iter().find(|s| **s == section.name) else {
                let hint = suggest::closest(&section.name, SECTIONS.iter().copied())
                    .map(|s| format!(" (did you mean [{s}]?)"))
                    .unwrap_or_default();
                return Err(ConfigError::at(
                    section.line,
                    format!("unknown section [{}] in a machine file{hint}", section.name),
                ));
            };
            if seen.contains(&known) {
                return Err(ConfigError::at(
                    section.line,
                    format!("section [{known}] appears more than once"),
                ));
            }
            seen.push(known);
            let mut r = FieldReader::new(section);
            match known {
                "memory" => desc.read_memory(&mut r)?,
                "caches" => desc.read_caches(&mut r)?,
                "tlb" => desc.read_tlb(&mut r)?,
                "engine" => desc.read_engine(&mut r)?,
                _ => desc.read_neoprof(&mut r)?,
            }
            r.finish()?;
        }
        Ok(desc)
    }

    fn read_memory(&mut self, r: &mut FieldReader<'_>) -> Result<(), ConfigError> {
        let ratio = r.take_u64_range("ratio", 1, 1024)?;
        let fast_pages = r.take_u64_range("fast_pages", 1, u64::MAX)?;
        let slow_pages = r.take_u64_range("slow_pages", 1, u64::MAX)?;
        let total_pages = r.take_u64_range("total_pages", 2, u64::MAX)?;
        if ratio.is_some() && (fast_pages.is_some() || slow_pages.is_some() || total_pages.is_some())
        {
            return Err(ConfigError::at(
                r.line_of("ratio"),
                "ratio and explicit tier capacities are mutually exclusive in [memory]".to_string(),
            ));
        }
        self.sizing = match (ratio, fast_pages, slow_pages, total_pages) {
            (Some(ratio), ..) => TierSizing::Ratio(ratio),
            (None, None, None, None) => TierSizing::FromWorkload,
            (None, Some(_), Some(_), Some(_)) | (None, None, Some(_), Some(_)) => {
                return Err(ConfigError::at(
                    r.line_of("total_pages"),
                    "give either slow_pages or total_pages in [memory], not both".to_string(),
                ));
            }
            (None, Some(fast), Some(slow), None) => TierSizing::Frames { fast, slow },
            (None, Some(fast), None, Some(total)) => {
                // The headline cross-field constraint: the fast tier
                // must leave room for a non-empty slow tier.
                if fast >= total {
                    return Err(ConfigError::at(
                        r.line_of("fast_pages"),
                        format!(
                            "fast_pages ({fast}) must be smaller than total_pages ({total}) \
                             in [memory]"
                        ),
                    ));
                }
                TierSizing::Frames { fast, slow: total - fast }
            }
            (None, Some(_), None, None) => {
                return Err(ConfigError::at(
                    r.line_of("fast_pages"),
                    "fast_pages needs slow_pages or total_pages in [memory]".to_string(),
                ));
            }
            (None, None, ..) => {
                return Err(ConfigError::at(
                    r.section().line,
                    "slow_pages/total_pages need fast_pages in [memory]".to_string(),
                ));
            }
        };
        self.fast_read_latency = r.take_duration_ns("fast_read_latency")?.map(Nanos::new);
        self.fast_write_latency = r.take_duration_ns("fast_write_latency")?.map(Nanos::new);
        self.fast_bandwidth = take_bandwidth(r, "fast_bandwidth")?;
        self.slow_read_latency = r.take_duration_ns("slow_read_latency")?.map(Nanos::new);
        self.slow_write_latency = r.take_duration_ns("slow_write_latency")?.map(Nanos::new);
        self.slow_bandwidth = take_bandwidth(r, "slow_bandwidth")?;
        Ok(())
    }

    fn read_caches(&mut self, r: &mut FieldReader<'_>) -> Result<(), ConfigError> {
        let preset = r.take_str("preset")?;
        let l1 = r.take_size_bytes("l1")?;
        let l2 = r.take_size_bytes("l2")?;
        let llc = r.take_size_bytes("llc")?;
        let l1_ways = r.take_u64_range("l1_ways", 1, 64)?;
        let l2_ways = r.take_u64_range("l2_ways", 1, 64)?;
        let llc_ways = r.take_u64_range("llc_ways", 1, 64)?;
        if let Some(preset) = preset {
            if l1.is_some()
                || l2.is_some()
                || llc.is_some()
                || l1_ways.is_some()
                || l2_ways.is_some()
                || llc_ways.is_some()
            {
                return Err(ConfigError::at(
                    r.line_of("preset"),
                    "a cache preset and explicit geometry are mutually exclusive in [caches]"
                        .to_string(),
                ));
            }
            self.caches = Some(match preset.as_str() {
                "small" => HierarchyConfig::scaled_small(),
                "default" => HierarchyConfig::scaled_default(),
                other => {
                    return Err(ConfigError::at(
                        r.line_of("preset"),
                        format!("unknown cache preset {other:?} (want small or default)"),
                    ))
                }
            });
            return Ok(());
        }
        let section_line = r.section().line;
        let (Some(l1), Some(l2), Some(llc)) = (l1, l2, llc) else {
            return Err(ConfigError::at(
                section_line,
                "explicit [caches] geometry needs l1, l2 and llc sizes".to_string(),
            ));
        };
        let caches = HierarchyConfig {
            l1: CacheConfig::new(l1, l1_ways.unwrap_or(4) as usize),
            l2: CacheConfig::new(l2, l2_ways.unwrap_or(8) as usize),
            llc: CacheConfig::new(llc, llc_ways.unwrap_or(16) as usize),
        };
        caches
            .validate()
            .map_err(|e| ConfigError::at(section_line, format!("invalid [caches] geometry: {e}")))?;
        self.caches = Some(caches);
        Ok(())
    }

    fn read_tlb(&mut self, r: &mut FieldReader<'_>) -> Result<(), ConfigError> {
        let entries = r.take_u64_range("entries", 1, 1 << 20)?;
        let ways = r.take_u64_range("ways", 1, 64)?;
        match (entries, ways) {
            (None, None) => {}
            (Some(entries), Some(ways)) => {
                let tlb = TlbConfig { entries: entries as usize, ways: ways as usize };
                tlb.validate().map_err(|e| {
                    ConfigError::at(r.section().line, format!("invalid [tlb] geometry: {e}"))
                })?;
                self.tlb = Some(tlb);
            }
            _ => {
                return Err(ConfigError::at(
                    r.section().line,
                    "[tlb] geometry needs both entries and ways".to_string(),
                ));
            }
        }
        self.tlb_walk = r.take_duration_ns("walk")?.map(Nanos::new);
        Ok(())
    }

    fn read_engine(&mut self, r: &mut FieldReader<'_>) -> Result<(), ConfigError> {
        self.cpu_per_access = r.take_duration_ns("cpu_per_access")?.map(Nanos::new);
        self.tick_quantum = nonzero_duration(r, "tick_quantum")?;
        self.sample_interval = nonzero_duration(r, "sample_interval")?;
        Ok(())
    }

    fn read_neoprof(&mut self, r: &mut FieldReader<'_>) -> Result<(), ConfigError> {
        let width = r.take_u64_range("sketch_width", 2, 1 << 30)?;
        if let Some(w) = width {
            if !w.is_power_of_two() {
                return Err(ConfigError::at(
                    r.line_of("sketch_width"),
                    format!("sketch_width ({w}) must be a power of two in [neoprof]"),
                ));
            }
        }
        self.neoprof = NeoProfKnobs {
            sketch_width: width.map(|w| w as usize),
            sketch_depth: r.take_u64_range("sketch_depth", 1, 8)?.map(|d| d as usize),
            sketch_seed: r.take_u64("sketch_seed")?,
            hot_buffer_entries: r
                .take_u64_range("hot_buffer_entries", 1, u64::MAX)?
                .map(|n| n as usize),
            fifo_depth: r.take_u64_range("fifo_depth", 1, u64::MAX)?.map(|n| n as usize),
            drain_per_tick: r.take_u64_range("drain_per_tick", 1, u64::MAX)?.map(|n| n as usize),
        };
        Ok(())
    }

    /// Instantiates the description for a workload of `rss_pages` at
    /// the context's default `1:ratio` (used only when the file didn't
    /// size the tiers itself).
    ///
    /// With no overrides this reproduces [`SimConfig::quick`] /
    /// [`SimConfig::large`] *exactly* — field for field — which is what
    /// keeps registry-built campaigns byte-identical to code-built
    /// ones.
    pub fn sim_config(&self, rss_pages: u64, ratio: u64) -> SimConfig {
        let mut config = match self.preset {
            MachinePreset::Quick => SimConfig::quick(rss_pages, ratio),
            MachinePreset::Large => SimConfig::large(rss_pages, ratio),
        };
        match self.sizing {
            TierSizing::FromWorkload => {}
            TierSizing::Ratio(r) => config.fast_slow_ratio = r,
            TierSizing::Frames { fast, slow } => {
                config.memory = Some(TieredMemoryConfig::with_frames(fast, slow));
            }
        }
        let node_overrides = self.fast_read_latency.is_some()
            || self.fast_write_latency.is_some()
            || self.fast_bandwidth.is_some()
            || self.slow_read_latency.is_some()
            || self.slow_write_latency.is_some()
            || self.slow_bandwidth.is_some();
        if node_overrides {
            // Materialise the derived layout so the node edits stick.
            let mut mem = config.memory.unwrap_or_else(|| config.memory_config());
            if let Some(v) = self.fast_read_latency {
                mem.fast.read_latency = v;
            }
            if let Some(v) = self.fast_write_latency {
                mem.fast.write_latency = v;
            }
            if let Some(v) = self.fast_bandwidth {
                mem.fast.bandwidth = v;
            }
            if let Some(v) = self.slow_read_latency {
                mem.slow.read_latency = v;
            }
            if let Some(v) = self.slow_write_latency {
                mem.slow.write_latency = v;
            }
            if let Some(v) = self.slow_bandwidth {
                mem.slow.bandwidth = v;
            }
            config.memory = Some(mem);
        }
        if let Some(caches) = self.caches {
            config.caches = caches;
        }
        if let Some(tlb) = self.tlb {
            config.tlb = tlb;
        }
        if let Some(walk) = self.tlb_walk {
            config.tlb_walk = walk;
        }
        if let Some(cpu) = self.cpu_per_access {
            config.cpu_per_access = cpu;
        }
        if let Some(tick) = self.tick_quantum {
            config.tick_quantum = tick;
        }
        if let Some(sample) = self.sample_interval {
            config.sample_interval = sample;
        }
        config
    }
}

/// Reads an optional bandwidth, accepting rate-typed values.
fn take_bandwidth(
    r: &mut FieldReader<'_>,
    key: &'static str,
) -> Result<Option<Bandwidth>, ConfigError> {
    let line = r.line_of(key);
    match r.take_rate(key)? {
        None => Ok(None),
        Some(bps) if bps > 0.0 => Ok(Some(Bandwidth::from_bytes_per_sec(bps))),
        Some(_) => {
            Err(ConfigError::at(line, format!("key {key:?} must be a positive bandwidth")))
        }
    }
}

/// Reads an optional duration that must be non-zero.
fn nonzero_duration(
    r: &mut FieldReader<'_>,
    key: &'static str,
) -> Result<Option<Nanos>, ConfigError> {
    let line = r.line_of(key);
    match r.take_duration_ns(key)? {
        None => Ok(None),
        Some(0) => Err(ConfigError::at(line, format!("key {key:?} must be non-zero"))),
        Some(ns) => Ok(Some(Nanos::new(ns))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_description_reproduces_quick_preset_exactly() {
        let desc = MachineDescription::parse("schema = 1\nkind = machine\nname = m\n").unwrap();
        let from_desc = desc.sim_config(4096, 2);
        let code_built = SimConfig::quick(4096, 2);
        assert_eq!(format!("{from_desc:?}"), format!("{code_built:?}"));
        let large = MachineDescription { preset: MachinePreset::Large, ..desc };
        assert_eq!(
            format!("{:?}", large.sim_config(65_536, 4)),
            format!("{:?}", SimConfig::large(65_536, 4))
        );
    }

    #[test]
    fn overrides_apply_on_top_of_preset() {
        let text = "\
schema = 1
kind = machine
name = cxl-far
title = \"far CXL expander\"

[memory]
ratio = 4
slow_read_latency = 600ns
slow_bandwidth = 8GiB/s

[tlb]
entries = 512
ways = 4
walk = 50ns

[engine]
cpu_per_access = 3ns
tick_quantum = 200us

[neoprof]
sketch_width = 65536
fifo_depth = 1024
";
        let desc = MachineDescription::parse(text).unwrap();
        assert_eq!(desc.name, "cxl-far");
        assert_eq!(desc.title.as_deref(), Some("far CXL expander"));
        let config = desc.sim_config(4096, 2);
        assert_eq!(config.fast_slow_ratio, 4, "file ratio beats the context ratio");
        let mem = config.memory_config();
        assert_eq!(mem.slow.read_latency, Nanos::new(600));
        assert_eq!(mem.slow.write_latency, Nanos::new(380), "untouched keys keep the preset");
        assert!((mem.slow.bandwidth.bytes_per_sec() - 8.0 * (1u64 << 30) as f64).abs() < 1.0);
        // ratio=4: fast = 4096/5 = 819
        assert_eq!(mem.fast.capacity_frames, 819);
        assert_eq!(config.tlb.entries, 512);
        assert_eq!(config.tlb_walk, Nanos::new(50));
        assert_eq!(config.cpu_per_access, Nanos::new(3));
        assert_eq!(config.tick_quantum, Nanos::from_micros(200));
        assert_eq!(desc.neoprof.sketch_width, Some(65536));
        assert_eq!(desc.neoprof.fifo_depth, Some(1024));
        assert!(!desc.neoprof.is_default());
        config.validate().unwrap();
    }

    #[test]
    fn explicit_frames_and_total_pages() {
        let text = "schema = 1\nkind = machine\nname = m\n\
                    [memory]\nfast_pages = 1000\ntotal_pages = 5000\n";
        let desc = MachineDescription::parse(text).unwrap();
        assert_eq!(desc.sizing, TierSizing::Frames { fast: 1000, slow: 4000 });
        let mem = desc.sim_config(2048, 2).memory_config();
        assert_eq!(mem.fast.capacity_frames, 1000);
        assert_eq!(mem.slow.capacity_frames, 4000);
    }

    #[test]
    fn cross_field_violations_are_precise() {
        let err = |body: &str| {
            MachineDescription::parse(&format!("schema = 1\nkind = machine\nname = m\n{body}"))
                .unwrap_err()
                .to_string()
        };
        assert_eq!(
            err("[memory]\nratio = 2\nfast_pages = 100\nslow_pages = 100\n"),
            "line 5: ratio and explicit tier capacities are mutually exclusive in [memory]"
        );
        assert_eq!(
            err("[memory]\nfast_pages = 5000\ntotal_pages = 5000\n"),
            "line 5: fast_pages (5000) must be smaller than total_pages (5000) in [memory]"
        );
        assert_eq!(
            err("[memory]\nfast_pages = 100\n"),
            "line 5: fast_pages needs slow_pages or total_pages in [memory]"
        );
        assert_eq!(
            err("[memory]\nslow_pages = 100\n"),
            "line 4: slow_pages/total_pages need fast_pages in [memory]"
        );
        assert_eq!(
            err("[neoprof]\nsketch_width = 1000\n"),
            "line 5: sketch_width (1000) must be a power of two in [neoprof]"
        );
        assert_eq!(
            err("[caches]\nl1 = 8KiB\n"),
            "line 4: explicit [caches] geometry needs l1, l2 and llc sizes"
        );
        assert_eq!(
            err("[caches]\npreset = small\nllc = 1MiB\n"),
            "line 5: a cache preset and explicit geometry are mutually exclusive in [caches]"
        );
        assert!(err("[caches]\nl1 = 7KiB\nl2 = 64KiB\nllc = 512KiB\n")
            .contains("invalid [caches] geometry"));
        assert!(err("[tlb]\nentries = 12\nways = 2\n").contains("invalid [tlb] geometry"));
        assert_eq!(
            err("[tlb]\nentries = 64\n"),
            "line 4: [tlb] geometry needs both entries and ways"
        );
        assert_eq!(
            err("[memory]\nratio = 2\n[memory]\nratio = 4\n"),
            "line 6: section [memory] appears more than once"
        );
        assert_eq!(
            err("[memroy]\nratio = 2\n"),
            "line 4: unknown section [memroy] in a machine file (did you mean [memory]?)"
        );
        assert_eq!(
            err("[engine]\ntick_quantum = 0ns\n"),
            "line 5: key \"tick_quantum\" must be non-zero"
        );
    }

    #[test]
    fn kind_and_preset_are_enforced() {
        assert!(MachineDescription::parse("schema = 1\nkind = scenario\nname = m\n")
            .unwrap_err()
            .to_string()
            .contains("not \"machine\""));
        assert!(MachineDescription::parse(
            "schema = 1\nkind = machine\nname = m\npreset = huge\n"
        )
        .unwrap_err()
        .to_string()
        .contains("unknown preset"));
        let large =
            MachineDescription::parse("schema = 1\nkind = machine\nname = m\npreset = large\n")
                .unwrap();
        assert_eq!(large.preset, MachinePreset::Large);
    }

    #[test]
    fn cache_presets_select_hierarchies() {
        let small = MachineDescription::parse(
            "schema = 1\nkind = machine\nname = m\n[caches]\npreset = small\n",
        )
        .unwrap();
        assert_eq!(small.caches, Some(HierarchyConfig::scaled_small()));
        let explicit = MachineDescription::parse(
            "schema = 1\nkind = machine\nname = m\n\
             [caches]\nl1 = 8KiB\nl2 = 64KiB\nllc = 512KiB\n",
        )
        .unwrap();
        assert_eq!(explicit.caches, Some(HierarchyConfig::scaled_small()));
        let walk_only = MachineDescription::parse(
            "schema = 1\nkind = machine\nname = m\n[tlb]\nwalk = 40ns\n",
        )
        .unwrap();
        assert_eq!(walk_only.tlb, None);
        assert_eq!(walk_only.tlb_walk, Some(Nanos::new(40)));
    }
}
