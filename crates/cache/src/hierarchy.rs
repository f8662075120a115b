//! The three-level cache hierarchy driver.

use neomem_types::json::Json;
use neomem_types::{AccessKind, CacheLine, Result};

use crate::set_assoc::{CacheConfig, CacheStats, SetAssocCache};

/// Which level serviced an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HitLevel {
    /// Serviced by the L1 data cache.
    L1,
    /// Serviced by the private L2.
    L2,
    /// Serviced by the shared last-level cache.
    Llc,
    /// Missed everywhere: the request reached a memory node. This is the
    /// event NeoProf observes.
    Memory,
}

impl HitLevel {
    /// `true` when the access missed the entire hierarchy.
    pub fn is_llc_miss(self) -> bool {
        matches!(self, HitLevel::Memory)
    }
}

/// Geometry of the whole hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// L1 data cache geometry.
    pub l1: CacheConfig,
    /// L2 geometry.
    pub l2: CacheConfig,
    /// LLC geometry.
    pub llc: CacheConfig,
}

impl HierarchyConfig {
    /// A scaled-down default mirroring the paper's ratio (32 KB L1 /
    /// 2 MB L2 / 60 MB shared LLC, scaled ~8x down to pair with scaled
    /// workload footprints): 32 KiB / 256 KiB / 8 MiB.
    pub fn scaled_default() -> Self {
        Self {
            l1: CacheConfig::new(32 << 10, 8),
            l2: CacheConfig::new(256 << 10, 8),
            llc: CacheConfig::new(8 << 20, 16),
        }
    }

    /// A small-footprint hierarchy (8 KiB / 64 KiB / 512 KiB) whose
    /// LLC:RSS ratio matches the paper's regime (60 MB LLC vs 10–19 GB
    /// RSS ≈ 0.4 %) when paired with the quick-simulation footprints of
    /// a few thousand pages.
    pub fn scaled_small() -> Self {
        Self {
            l1: CacheConfig::new(8 << 10, 4),
            l2: CacheConfig::new(64 << 10, 8),
            llc: CacheConfig::new(512 << 10, 16),
        }
    }

    /// A minimal hierarchy for unit tests (512 B / 1 KiB / 2 KiB).
    pub fn tiny() -> Self {
        Self {
            l1: CacheConfig::new(512, 2),
            l2: CacheConfig::new(1 << 10, 2),
            llc: CacheConfig::new(2 << 10, 4),
        }
    }

    /// Validates all three levels.
    ///
    /// # Errors
    ///
    /// Propagates the first invalid level's [`neomem_types::Error`].
    pub fn validate(&self) -> Result<()> {
        self.l1.validate()?;
        self.l2.validate()?;
        self.llc.validate()
    }

    /// Checks that every line of a `rss_pages`-page footprint has a tag
    /// each level's key lane can hold (31 bits). The geometry must
    /// already be valid.
    ///
    /// # Errors
    ///
    /// Returns [`neomem_types::Error::InvalidConfig`] naming the first
    /// level (`l1`, `l2` or `llc`) whose largest line tag is wider.
    pub fn validate_footprint(&self, rss_pages: u64) -> Result<()> {
        self.l1.validate_footprint("l1", rss_pages)?;
        self.l2.validate_footprint("l2", rss_pages)?;
        self.llc.validate_footprint("llc", rss_pages)
    }
}

/// Aggregate statistics of the hierarchy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HierarchyStats {
    /// L1 counters.
    pub l1: CacheStats,
    /// L2 counters.
    pub l2: CacheStats,
    /// LLC counters.
    pub llc: CacheStats,
    /// Total CPU accesses driven through the hierarchy.
    pub accesses: u64,
    /// Accesses that missed all levels.
    pub llc_misses: u64,
}

impl HierarchyStats {
    /// LLC misses per access.
    pub fn llc_miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.llc_misses as f64 / self.accesses as f64
        }
    }
}

/// Memory traffic generated by one CPU access: at most one fill read and
/// one dirty writeback reaching the memory nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoryTraffic {
    /// A line read from memory to service the miss (virtual line address;
    /// the simulator translates it).
    pub fill: Option<CacheLine>,
    /// A dirty LLC victim written back to memory.
    pub writeback: Option<CacheLine>,
}

impl MemoryTraffic {
    /// `true` when no request reached memory.
    pub fn is_empty(&self) -> bool {
        self.fill.is_none() && self.writeback.is_none()
    }
}

/// Outcome of driving one access through the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyOutcome {
    /// The level that serviced the access.
    pub level: HitLevel,
    /// Requests that reached memory as a result.
    pub traffic: MemoryTraffic,
}

/// A three-level cache hierarchy (L1 → L2 → LLC), write-back and
/// write-allocate at every level, with victims cascading downward.
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    l1: SetAssocCache,
    l2: SetAssocCache,
    llc: SetAssocCache,
    accesses: u64,
    llc_misses: u64,
}

impl CacheHierarchy {
    /// Creates the hierarchy.
    ///
    /// # Panics
    ///
    /// Panics on invalid geometry; pre-validate untrusted configs with
    /// [`HierarchyConfig::validate`].
    pub fn new(config: HierarchyConfig) -> Self {
        config.validate().expect("invalid hierarchy config");
        Self {
            l1: SetAssocCache::new(config.l1),
            l2: SetAssocCache::new(config.l2),
            llc: SetAssocCache::new(config.llc),
            accesses: 0,
            llc_misses: 0,
        }
    }

    /// Drives one CPU access through the hierarchy and returns where it
    /// hit plus any memory traffic (fill and/or writeback).
    #[inline]
    pub fn access(&mut self, line: CacheLine, kind: AccessKind) -> HierarchyOutcome {
        self.accesses += 1;
        let dirty = kind.is_write();

        if self.l1.probe(line, dirty) {
            return HierarchyOutcome { level: HitLevel::L1, traffic: MemoryTraffic::default() };
        }
        if self.l2.probe(line, false) {
            // Allocate into L1; victim (if dirty) is absorbed by L2.
            let victim = self.l1.fill(line, dirty);
            if let Some(v) = victim {
                self.absorb_into_l2(v);
            }
            return HierarchyOutcome { level: HitLevel::L2, traffic: MemoryTraffic::default() };
        }
        // Fused LLC probe-or-fill: a hit stops here; a miss takes the
        // set's last way and surfaces the dirty victim.
        let out = self.llc.access(line, false);
        if out.hit {
            let mut traffic = MemoryTraffic::default();
            self.allocate_upper(line, dirty, &mut traffic);
            return HierarchyOutcome { level: HitLevel::Llc, traffic };
        }

        // Full miss: fetch from memory, allocate everywhere.
        self.llc_misses += 1;
        let mut traffic = MemoryTraffic { fill: Some(line), writeback: out.writeback };
        self.allocate_upper(line, dirty, &mut traffic);
        HierarchyOutcome { level: HitLevel::Memory, traffic }
    }

    /// Allocates `line` in L1+L2, cascading dirty victims; an LLC dirty
    /// victim displaced by a cascade becomes a memory writeback.
    #[inline(always)]
    fn allocate_upper(&mut self, line: CacheLine, dirty: bool, traffic: &mut MemoryTraffic) {
        if let Some(v1) = self.l1.fill(line, dirty) {
            self.absorb_into_l2(v1);
        }
        if let Some(v2) = self.l2.fill(line, false) {
            if let Some(v3) = self.llc_absorb(v2) {
                // A second writeback in one access is rare; fold it into
                // the single writeback slot (last-writer-wins) and count
                // it — the bandwidth charge is what matters.
                traffic.writeback = Some(traffic.writeback.unwrap_or(v3));
            }
        }
    }

    /// Writes a dirty L1 victim into L2 (allocating if necessary), letting
    /// any displaced dirty L2 victim fall into the LLC.
    #[inline(always)]
    fn absorb_into_l2(&mut self, victim: CacheLine) {
        if let Some(v2) = self.l2.access(victim, true).writeback {
            let _ = self.llc_absorb(v2);
        }
    }

    /// Writes a dirty L2 victim into the LLC; returns a dirty LLC victim
    /// that must go to memory, if any.
    #[inline(always)]
    fn llc_absorb(&mut self, victim: CacheLine) -> Option<CacheLine> {
        self.llc.access(victim, true).writeback
    }

    /// Returns aggregate statistics.
    pub fn stats(&self) -> HierarchyStats {
        HierarchyStats {
            l1: self.l1.stats(),
            l2: self.l2.stats(),
            llc: self.llc.stats(),
            accesses: self.accesses,
            llc_misses: self.llc_misses,
        }
    }

    /// Drops all cached state and statistics.
    pub fn reset(&mut self) {
        self.l1.reset();
        self.l2.reset();
        self.llc.reset();
        self.accesses = 0;
        self.llc_misses = 0;
    }

    /// Serialises all three levels plus aggregate counters for a machine
    /// snapshot.
    pub fn snapshot(&self) -> Json {
        Json::obj([
            ("l1", self.l1.snapshot()),
            ("l2", self.l2.snapshot()),
            ("llc", self.llc.snapshot()),
            ("accesses", Json::U64(self.accesses)),
            ("llc_misses", Json::U64(self.llc_misses)),
        ])
    }

    /// Restores [`CacheHierarchy::snapshot`] state onto a hierarchy with
    /// the same geometry.
    ///
    /// # Errors
    ///
    /// Returns [`neomem_types::Error::Snapshot`] on missing/malformed
    /// fields or level state sized for a different geometry.
    pub fn restore(&mut self, snap: &Json) -> Result<()> {
        self.l1.restore(snap.req("l1")?)?;
        self.l2.restore(snap.req("l2")?)?;
        self.llc.restore(snap.req("llc")?)?;
        self.accesses = snap.req_u64("accesses")?;
        self.llc_misses = snap.req_u64("llc_misses")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hier() -> CacheHierarchy {
        CacheHierarchy::new(HierarchyConfig::tiny())
    }

    #[test]
    fn cold_miss_reaches_memory_then_l1() {
        let mut h = hier();
        let line = CacheLine::new(100);
        let o1 = h.access(line, AccessKind::Read);
        assert_eq!(o1.level, HitLevel::Memory);
        assert_eq!(o1.traffic.fill, Some(line));
        let o2 = h.access(line, AccessKind::Read);
        assert_eq!(o2.level, HitLevel::L1);
        assert!(o2.traffic.is_empty());
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let mut h = hier();
        // L1: 4 sets (512B/2way). Fill set 0 of L1 with 3 lines → 1 evicted
        // but still in L2.
        let a = CacheLine::new(0);
        let b = CacheLine::new(4);
        let c = CacheLine::new(8);
        h.access(a, AccessKind::Read);
        h.access(b, AccessKind::Read);
        h.access(c, AccessKind::Read); // evicts `a` from L1
        let oa = h.access(a, AccessKind::Read);
        assert!(matches!(oa.level, HitLevel::L2 | HitLevel::Llc), "got {:?}", oa.level);
    }

    #[test]
    fn dirty_data_eventually_written_back_to_memory() {
        let mut h = hier();
        // Write a line, then stream enough conflicting lines through to
        // push it out of every level.
        let victim = CacheLine::new(0);
        h.access(victim, AccessKind::Write);
        let mut saw_writeback = false;
        for i in 1..200u64 {
            let out = h.access(CacheLine::new(i * 32), AccessKind::Read);
            if out.traffic.writeback == Some(victim) {
                saw_writeback = true;
            }
        }
        assert!(saw_writeback, "dirty line must reach memory as a writeback");
    }

    #[test]
    fn llc_miss_ratio_tracks_stream_vs_reuse() {
        let mut h = hier();
        // Pure streaming: every distinct line misses.
        for i in 0..256u64 {
            h.access(CacheLine::new(i * 64), AccessKind::Read);
        }
        let streaming = h.stats().llc_miss_ratio();
        assert!(streaming > 0.9, "streaming should miss almost always, got {streaming}");

        let mut h2 = hier();
        // Tight reuse of 4 lines: almost everything hits.
        for i in 0..256u64 {
            h2.access(CacheLine::new(i % 4), AccessKind::Read);
        }
        let reuse = h2.stats().llc_miss_ratio();
        assert!(reuse < 0.1, "reuse should hit almost always, got {reuse}");
    }

    #[test]
    fn stats_accesses_counted() {
        let mut h = hier();
        for i in 0..10u64 {
            h.access(CacheLine::new(i), AccessKind::Read);
        }
        assert_eq!(h.stats().accesses, 10);
    }

    #[test]
    fn reset_restores_cold_state() {
        let mut h = hier();
        let line = CacheLine::new(5);
        h.access(line, AccessKind::Read);
        h.reset();
        assert_eq!(h.access(line, AccessKind::Read).level, HitLevel::Memory);
    }

    #[test]
    fn hit_level_llc_miss_predicate() {
        assert!(HitLevel::Memory.is_llc_miss());
        assert!(!HitLevel::L1.is_llc_miss());
        assert!(!HitLevel::Llc.is_llc_miss());
    }

    #[test]
    fn scaled_default_validates() {
        HierarchyConfig::scaled_default().validate().unwrap();
    }
}
