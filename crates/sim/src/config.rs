//! Simulation configuration.

use neomem_cache::{HierarchyConfig, TlbConfig};
use neomem_kernel::MigrationCosts;
use neomem_mem::TieredMemoryConfig;
use neomem_types::{Error, FaultKind, FaultPlan, Nanos, Result};

/// Load-to-use latencies per cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheLatencies {
    /// L1 hit.
    pub l1: Nanos,
    /// L2 hit.
    pub l2: Nanos,
    /// LLC hit.
    pub llc: Nanos,
}

impl Default for CacheLatencies {
    fn default() -> Self {
        Self { l1: Nanos::new(1), l2: Nanos::new(4), llc: Nanos::new(20) }
    }
}

/// Full simulation configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Workload footprint in pages (must match the generator's RSS).
    pub rss_pages: u64,
    /// Physical memory layout. `None` derives a layout from
    /// `rss_pages` and `fast_slow_ratio`.
    pub memory: Option<TieredMemoryConfig>,
    /// Fast:slow capacity ratio expressed as `1:ratio` (§VI-A default 1:2).
    pub fast_slow_ratio: u64,
    /// Cache hierarchy geometry.
    pub caches: HierarchyConfig,
    /// Cache hit latencies.
    pub cache_latencies: CacheLatencies,
    /// TLB geometry.
    pub tlb: TlbConfig,
    /// Page-walk time charged on a TLB miss.
    pub tlb_walk: Nanos,
    /// Kernel operation costs.
    pub costs: MigrationCosts,
    /// Base (non-memory) CPU time charged per access.
    pub cpu_per_access: Nanos,
    /// Stop after this many CPU accesses.
    pub max_accesses: u64,
    /// Optional wall-clock stop (simulated time).
    pub max_time: Option<Nanos>,
    /// How often the engine offers the policy a tick.
    pub tick_quantum: Nanos,
    /// Timeline sampling period (Fig. 14/16 traces).
    pub sample_interval: Nanos,
    /// Events pulled per [`neomem_workloads::Workload::fill_events`]
    /// batch. Purely a host-side dispatch amortisation: any value
    /// produces bit-identical simulated results (the engine's batch
    /// contract), so this never needs sweeping — 1 recovers the
    /// event-at-a-time seed path for debugging.
    pub batch_size: usize,
    /// Deterministic fault timeline the engine executes on the virtual
    /// clock. The default empty plan models a healthy machine and is
    /// guaranteed bit-identical to the pre-fault-layer engine.
    pub faults: FaultPlan,
}

impl SimConfig {
    /// A quick-running configuration for `rss_pages` at `1:ratio`.
    ///
    /// Uses the *small* cache/TLB presets so that footprints of a few
    /// thousand pages sit in the paper's LLC:RSS regime; use
    /// [`SimConfig::large`] for multi-ten-thousand-page footprints.
    pub fn quick(rss_pages: u64, ratio: u64) -> Self {
        Self {
            rss_pages,
            memory: None,
            fast_slow_ratio: ratio,
            caches: HierarchyConfig::scaled_small(),
            cache_latencies: CacheLatencies::default(),
            tlb: TlbConfig::scaled_small(),
            tlb_walk: Nanos::new(35),
            costs: MigrationCosts::default(),
            cpu_per_access: Nanos::new(2),
            max_accesses: 2_000_000,
            max_time: None,
            tick_quantum: Nanos::from_micros(100),
            sample_interval: Nanos::from_millis(1),
            batch_size: 256,
            faults: FaultPlan::empty(),
        }
    }

    /// A configuration for larger footprints (tens of thousands of
    /// pages): full-size scaled caches and TLB, more accesses.
    pub fn large(rss_pages: u64, ratio: u64) -> Self {
        Self {
            caches: HierarchyConfig::scaled_default(),
            tlb: TlbConfig::scaled_default(),
            max_accesses: 10_000_000,
            ..Self::quick(rss_pages, ratio)
        }
    }

    /// The effective memory layout.
    pub fn memory_config(&self) -> TieredMemoryConfig {
        self.memory
            .unwrap_or_else(|| TieredMemoryConfig::for_ratio(self.rss_pages, self.fast_slow_ratio))
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when the footprint is empty,
    /// doesn't fit in memory or in the caches' and TLB's 31-bit tags, a
    /// capacity-loss fault removes more frames than the fast tier has or
    /// than the two tiers hold beyond the footprint, or sub-configs are
    /// invalid.
    pub fn validate(&self) -> Result<()> {
        if self.rss_pages == 0 {
            return Err(Error::invalid_config("rss_pages must be non-zero"));
        }
        if self.max_accesses == 0 {
            return Err(Error::invalid_config("max_accesses must be non-zero"));
        }
        let mem = self.memory_config();
        mem.validate()?;
        let capacity = mem.fast.capacity_frames + mem.slow.capacity_frames;
        if capacity < self.rss_pages {
            return Err(Error::invalid_config(format!(
                "footprint of {} pages exceeds physical capacity {}",
                self.rss_pages, capacity
            )));
        }
        // Capacity-loss windows never overlap each other, so each one
        // must leave room for the footprint on its own.
        for event in self.faults.events() {
            let FaultKind::CapacityLoss { frames } = event.kind else { continue };
            let at = event.at.as_nanos();
            if frames > mem.fast.capacity_frames {
                return Err(Error::invalid_config(format!(
                    "fault capacity-loss at {at}ns: frames = {frames} exceeds the {} frames \
                     of the fast tier",
                    mem.fast.capacity_frames
                )));
            }
            let spare = capacity - self.rss_pages;
            if frames > spare {
                return Err(Error::invalid_config(format!(
                    "fault capacity-loss at {at}ns: frames = {frames} exceeds the {spare} \
                     frames the two tiers hold beyond the footprint of {} pages",
                    self.rss_pages
                )));
            }
        }
        self.caches.validate()?;
        self.tlb.validate()?;
        self.caches.validate_footprint(self.rss_pages)?;
        self.tlb.validate_footprint(self.rss_pages)?;
        if self.tick_quantum.is_zero() || self.sample_interval.is_zero() {
            return Err(Error::invalid_config("tick and sample intervals must be non-zero"));
        }
        if self.batch_size == 0 {
            return Err(Error::invalid_config("batch_size must be non-zero"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_config_validates() {
        SimConfig::quick(4096, 2).validate().unwrap();
        SimConfig::quick(4096, 8).validate().unwrap();
    }

    #[test]
    fn derived_memory_fits_footprint() {
        let c = SimConfig::quick(9000, 4);
        let m = c.memory_config();
        assert!(m.fast.capacity_frames + m.slow.capacity_frames >= 9000);
        // Ratio roughly 1:4.
        let r = m.slow.capacity_frames as f64 / m.fast.capacity_frames as f64;
        assert!(r > 3.0, "ratio {r}");
    }

    #[test]
    fn rejects_bad_configs() {
        assert!(SimConfig { rss_pages: 0, ..SimConfig::quick(64, 2) }.validate().is_err());
        assert!(SimConfig { max_accesses: 0, ..SimConfig::quick(64, 2) }.validate().is_err());
        assert!(SimConfig { batch_size: 0, ..SimConfig::quick(64, 2) }.validate().is_err());
        let mut tiny_mem = SimConfig::quick(4096, 2);
        tiny_mem.memory = Some(neomem_mem::TieredMemoryConfig::with_frames(4, 4));
        assert!(tiny_mem.validate().is_err(), "footprint larger than memory");
    }

    #[test]
    fn rejects_capacity_loss_the_machine_cannot_absorb() {
        // 16 frames under a 12-page footprint leave 4 to spare: with 8
        // fast frames the spare count binds, with 2 the fast tier does.
        let with_loss = |fast: u64, frames: u64| {
            let mut config = SimConfig::quick(12, 2);
            config.memory = Some(neomem_mem::TieredMemoryConfig::with_frames(fast, 16 - fast));
            config.faults = FaultPlan::builder()
                .capacity_loss(Nanos::from_millis(1), Nanos::from_millis(1), frames)
                .build()
                .unwrap();
            config.validate()
        };
        with_loss(8, 4).unwrap();
        assert_eq!(
            with_loss(8, 5).unwrap_err().to_string(),
            "invalid configuration: fault capacity-loss at 1000000ns: frames = 5 exceeds the \
             4 frames the two tiers hold beyond the footprint of 12 pages"
        );
        assert_eq!(
            with_loss(2, 3).unwrap_err().to_string(),
            "invalid configuration: fault capacity-loss at 1000000ns: frames = 3 exceeds the \
             2 frames of the fast tier"
        );
    }

    #[test]
    fn rejects_footprints_wider_than_the_tags() {
        // The tiny L1 has 4 sets, so a line's tag is its index >> 2:
        // 2^40 pages need 44-bit tags. Validation is pure, so the
        // rejection comes before any page table or cache is allocated.
        let config = SimConfig { caches: HierarchyConfig::tiny(), ..SimConfig::quick(1 << 40, 2) };
        assert_eq!(
            config.validate().unwrap_err().to_string(),
            "invalid configuration: footprint of 1099511627776 pages is too large for the l1 \
             cache: its largest line tag 0xfffffffffff needs more than 31 bits"
        );
    }
}
