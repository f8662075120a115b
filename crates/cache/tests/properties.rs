//! Property-based tests for the cache hierarchy and TLB.

use neomem_cache::{
    CacheConfig, CacheHierarchy, CacheStats, HierarchyConfig, LevelOutcome, SetAssocCache, Tlb,
    TlbConfig, TlbStats,
};
use neomem_types::json::{hex_from_u64s, Json};
use neomem_types::{AccessKind, CacheLine, VirtPage};
use proptest::prelude::*;

fn tiny_hierarchy() -> CacheHierarchy {
    CacheHierarchy::new(HierarchyConfig::tiny())
}

proptest! {
    // Fixed case count and no failure-persistence files: runs are
    // deterministic and CI-reproducible.
    #![proptest_config(ProptestConfig {
        cases: 64,
        failure_persistence: None,
        ..ProptestConfig::default()
    })]
    /// A cache never holds more lines than its capacity, regardless of
    /// the access pattern.
    #[test]
    fn capacity_is_never_exceeded(lines in prop::collection::vec(0u64..10_000, 1..2000)) {
        let config = CacheConfig::new(2 << 10, 4); // 32 lines
        let mut cache = SetAssocCache::new(config);
        for &l in &lines {
            cache.access(CacheLine::new(l), false);
        }
        prop_assert!(cache.resident_lines() as u64 <= config.capacity_bytes / config.line_bytes);
    }

    /// Re-accessing a line immediately after it was touched always hits
    /// (temporal locality is never destroyed by the bookkeeping).
    #[test]
    fn immediate_reuse_hits(lines in prop::collection::vec(0u64..100_000, 1..500)) {
        let mut cache = SetAssocCache::new(CacheConfig::new(4 << 10, 8));
        for &l in &lines {
            cache.access(CacheLine::new(l), false);
            prop_assert!(cache.access(CacheLine::new(l), false).hit, "line {} must hit", l);
        }
    }

    /// Hit + miss counters account for every access.
    #[test]
    fn counters_conserve_accesses(lines in prop::collection::vec(0u64..4096, 0..3000)) {
        let mut hier = tiny_hierarchy();
        for &l in &lines {
            hier.access(CacheLine::new(l), AccessKind::Read);
        }
        let stats = hier.stats();
        prop_assert_eq!(stats.accesses, lines.len() as u64);
        prop_assert_eq!(stats.l1.hits + stats.l1.misses, lines.len() as u64);
        prop_assert!(stats.llc_misses <= lines.len() as u64);
    }

    /// Every writeback the hierarchy emits is a line that was written
    /// at some point (clean data never generates memory writes).
    #[test]
    fn writebacks_only_for_written_lines(
        ops in prop::collection::vec((0u64..512, prop::bool::ANY), 1..3000),
    ) {
        let mut hier = tiny_hierarchy();
        let mut written = std::collections::HashSet::new();
        for &(line, is_write) in &ops {
            if is_write {
                written.insert(line);
            }
            let kind = if is_write { AccessKind::Write } else { AccessKind::Read };
            let out = hier.access(CacheLine::new(line), kind);
            if let Some(wb) = out.traffic.writeback {
                prop_assert!(
                    written.contains(&wb.index()),
                    "writeback of never-written line {}",
                    wb.index()
                );
            }
        }
    }

    /// The memory-traffic invariant: a fill is reported exactly when
    /// the access misses all three levels.
    #[test]
    fn fill_iff_llc_miss(lines in prop::collection::vec(0u64..2048, 1..2000)) {
        let mut hier = tiny_hierarchy();
        for &l in &lines {
            let out = hier.access(CacheLine::new(l), AccessKind::Read);
            prop_assert_eq!(out.level.is_llc_miss(), out.traffic.fill.is_some());
        }
    }

    /// TLB counters conserve accesses, and a shot-down translation
    /// always misses on its next access.
    #[test]
    fn tlb_conservation_and_shootdown(
        pages in prop::collection::vec(0u64..256, 1..1000),
        victim in 0u64..256,
    ) {
        let mut tlb = Tlb::new(TlbConfig::tiny());
        for &p in &pages {
            tlb.access(VirtPage::new(p));
        }
        let stats = tlb.stats();
        prop_assert_eq!(stats.hits + stats.misses, pages.len() as u64);
        let was_resident = tlb.shootdown(VirtPage::new(victim));
        let hit_after = tlb.access(VirtPage::new(victim));
        prop_assert!(!hit_after, "victim must miss after shootdown");
        // And the shootdown return value reflects prior residency: if it
        // claimed residency, the page had indeed been touched.
        if was_resident {
            prop_assert!(pages.contains(&victim));
        }
    }

    /// Cache behaviour is deterministic: identical streams produce
    /// identical statistics.
    #[test]
    fn deterministic_stats(lines in prop::collection::vec(0u64..4096, 0..1500)) {
        let mut a = tiny_hierarchy();
        let mut b = tiny_hierarchy();
        for &l in &lines {
            a.access(CacheLine::new(l), AccessKind::Write);
            b.access(CacheLine::new(l), AccessKind::Write);
        }
        prop_assert_eq!(a.stats(), b.stats());
    }
}

/// Every associativity the reference-model tests drive: the dispatched
/// widths, the runtime-width fallback (odd and large), and the 64-way
/// cap.
const MODEL_WAYS: [usize; 10] = [1, 2, 3, 4, 6, 8, 12, 16, 32, 64];

/// Sets per structure in the reference-model tests: few, so random
/// streams keep revisiting and evicting within each set.
const MODEL_SETS: usize = 4;

/// The replacement semantics the recency-ordered sets must reproduce,
/// kept naive as the oracle: a `u64` tick bumped on every probe and
/// fill and stamped on the way a hit or fill touches; the fill victim
/// is the first invalid way, else the strict-less minimum stamp (the
/// earliest way on ties). Its state is exactly what the older `u64`-stamp
/// snapshots carried, so it also writes them.
struct RefCache {
    ways: usize,
    valid: Vec<bool>,
    tags: Vec<u64>,
    dirty: Vec<bool>,
    stamps: Vec<u64>,
    tick: u64,
    stats: CacheStats,
}

/// `MODEL_SETS` = 4 sets, so a line's set is its low two bits.
const MODEL_SET_BITS: u32 = 2;

/// Per set, the way indices of the resident entries in recency order:
/// valid ways by descending stamp, ties to the later way (the earlier
/// one is what the min-scan evicts first).
fn recency_order(valid: &[bool], stamps: &[u64], ways: usize) -> Vec<Vec<usize>> {
    (0..valid.len() / ways)
        .map(|set| {
            let mut order: Vec<usize> =
                (set * ways..set * ways + ways).filter(|&i| valid[i]).collect();
            order.sort_unstable_by_key(|&i| std::cmp::Reverse((stamps[i], i)));
            order
        })
        .collect()
}

fn lru_victim(valid: &[bool], stamps: &[u64]) -> usize {
    if let Some(i) = valid.iter().position(|v| !v) {
        return i;
    }
    let mut victim = 0;
    for (i, s) in stamps.iter().enumerate() {
        if *s < stamps[victim] {
            victim = i;
        }
    }
    victim
}

impl RefCache {
    fn new(ways: usize) -> Self {
        let n = MODEL_SETS * ways;
        Self {
            ways,
            valid: vec![false; n],
            tags: vec![0; n],
            dirty: vec![false; n],
            stamps: vec![0; n],
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    fn config(ways: usize) -> CacheConfig {
        CacheConfig::new((MODEL_SETS * ways * 64) as u64, ways)
    }

    fn locate(&self, line: u64) -> (usize, u64) {
        let set = (line as usize) & (MODEL_SETS - 1);
        (set * self.ways, line >> MODEL_SET_BITS)
    }

    fn find(&self, line: u64) -> Option<usize> {
        let (base, tag) = self.locate(line);
        (base..base + self.ways).find(|&i| self.valid[i] && self.tags[i] == tag)
    }

    fn probe(&mut self, line: u64, dirty: bool) -> bool {
        self.tick += 1;
        match self.find(line) {
            Some(i) => {
                self.stamps[i] = self.tick;
                self.dirty[i] |= dirty;
                self.stats.hits += 1;
                true
            }
            None => {
                self.stats.misses += 1;
                false
            }
        }
    }

    fn fill(&mut self, line: u64, dirty: bool) -> Option<CacheLine> {
        self.tick += 1;
        let (base, tag) = self.locate(line);
        let end = base + self.ways;
        let v = base + lru_victim(&self.valid[base..end], &self.stamps[base..end]);
        let writeback = (self.valid[v] && self.dirty[v]).then(|| {
            self.stats.writebacks += 1;
            CacheLine::new(self.tags[v] << MODEL_SET_BITS | (line & (MODEL_SETS as u64 - 1)))
        });
        (self.valid[v], self.tags[v], self.dirty[v], self.stamps[v]) =
            (true, tag, dirty, self.tick);
        writeback
    }

    fn access(&mut self, line: u64, dirty: bool) -> LevelOutcome {
        if self.probe(line, dirty) {
            LevelOutcome { hit: true, writeback: None }
        } else {
            LevelOutcome { hit: false, writeback: self.fill(line, dirty) }
        }
    }

    fn invalidate(&mut self, line: u64) -> bool {
        let Some(i) = self.find(line) else { return false };
        let was_dirty = self.dirty[i];
        (self.valid[i], self.tags[i], self.dirty[i], self.stamps[i]) = (false, 0, false, 0);
        was_dirty
    }

    /// The snapshot the `u64`-stamp cache wrote: one packed word per way
    /// with valid (bit 63) | dirty (bit 62) | tick stamp.
    fn legacy_snapshot(&self) -> Json {
        let metas: Vec<u64> = (0..self.valid.len())
            .map(|i| {
                u64::from(self.valid[i]) << 63 | u64::from(self.dirty[i]) << 62 | self.stamps[i]
            })
            .collect();
        Json::obj([
            ("tags", Json::Str(hex_from_u64s(&self.tags))),
            ("metas", Json::Str(hex_from_u64s(&metas))),
            ("tick", Json::U64(self.tick)),
            ("hits", Json::U64(self.stats.hits)),
            ("misses", Json::U64(self.stats.misses)),
            ("writebacks", Json::U64(self.stats.writebacks)),
        ])
    }

    /// Per set, the resident `(tag, dirty)` pairs, most recent first.
    fn recency(&self) -> Vec<Vec<(u64, bool)>> {
        recency_order(&self.valid, &self.stamps, self.ways)
            .into_iter()
            .map(|set| set.into_iter().map(|i| (self.tags[i], self.dirty[i])).collect())
            .collect()
    }
}

/// [`RefCache::recency`] read from the cache's own snapshot.
fn cache_recency(cache: &SetAssocCache) -> Vec<Vec<(u64, bool)>> {
    let snap = cache.snapshot();
    let tags = snap.req_u64s("tags").unwrap();
    let metas = snap.req_u64s("metas").unwrap();
    let valid: Vec<bool> = metas.iter().map(|m| m >> 63 == 1).collect();
    let stamps: Vec<u64> = metas.iter().map(|m| m & !(3 << 62)).collect();
    recency_order(&valid, &stamps, cache.config().ways)
        .into_iter()
        .map(|set| set.into_iter().map(|i| (tags[i], metas[i] >> 62 & 1 == 1)).collect())
        .collect()
}

/// The TLB twin of [`RefCache`].
struct RefTlb {
    ways: usize,
    valid: Vec<bool>,
    vpns: Vec<u64>,
    stamps: Vec<u64>,
    tick: u64,
    stats: TlbStats,
}

impl RefTlb {
    fn new(ways: usize) -> Self {
        let n = MODEL_SETS * ways;
        Self {
            ways,
            valid: vec![false; n],
            vpns: vec![0; n],
            stamps: vec![0; n],
            tick: 0,
            stats: TlbStats::default(),
        }
    }

    fn config(ways: usize) -> TlbConfig {
        TlbConfig { entries: MODEL_SETS * ways, ways }
    }

    fn find(&self, vpn: u64) -> Option<usize> {
        let base = (vpn as usize & (MODEL_SETS - 1)) * self.ways;
        (base..base + self.ways).find(|&i| self.valid[i] && self.vpns[i] == vpn)
    }

    fn access(&mut self, vpn: u64) -> bool {
        self.tick += 1;
        if let Some(i) = self.find(vpn) {
            self.stamps[i] = self.tick;
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        let base = (vpn as usize & (MODEL_SETS - 1)) * self.ways;
        let end = base + self.ways;
        let v = base + lru_victim(&self.valid[base..end], &self.stamps[base..end]);
        (self.valid[v], self.vpns[v], self.stamps[v]) = (true, vpn, self.tick);
        false
    }

    fn shootdown(&mut self, vpn: u64) -> bool {
        let Some(i) = self.find(vpn) else { return false };
        (self.valid[i], self.vpns[i], self.stamps[i]) = (false, 0, 0);
        self.stats.shootdowns += 1;
        true
    }

    fn flush(&mut self) {
        for i in 0..self.valid.len() {
            if self.valid[i] {
                self.stats.shootdowns += 1;
                (self.valid[i], self.vpns[i], self.stamps[i]) = (false, 0, 0);
            }
        }
    }

    /// The snapshot the `u64`-stamp TLB wrote.
    fn legacy_snapshot(&self) -> Json {
        let mut valid = vec![0u64; self.valid.len().div_ceil(64)];
        for (i, v) in self.valid.iter().enumerate() {
            valid[i / 64] |= u64::from(*v) << (i % 64);
        }
        Json::obj([
            ("vpns", Json::Str(hex_from_u64s(&self.vpns))),
            ("last_uses", Json::Str(hex_from_u64s(&self.stamps))),
            ("valid", Json::Str(hex_from_u64s(&valid))),
            ("tick", Json::U64(self.tick)),
            ("hits", Json::U64(self.stats.hits)),
            ("misses", Json::U64(self.stats.misses)),
            ("shootdowns", Json::U64(self.stats.shootdowns)),
        ])
    }

    /// Per set, the resident VPNs, most recent first.
    fn recency(&self) -> Vec<Vec<u64>> {
        recency_order(&self.valid, &self.stamps, self.ways)
            .into_iter()
            .map(|set| set.into_iter().map(|i| self.vpns[i]).collect())
            .collect()
    }
}

/// [`RefTlb::recency`] read from the TLB's own snapshot.
fn tlb_recency(tlb: &Tlb) -> Vec<Vec<u64>> {
    let snap = tlb.snapshot();
    let vpns = snap.req_u64s("vpns").unwrap();
    let stamps = snap.req_u64s("last_uses").unwrap();
    let words = snap.req_u64s("valid").unwrap();
    let valid: Vec<bool> = (0..vpns.len()).map(|i| words[i / 64] >> (i % 64) & 1 == 1).collect();
    recency_order(&valid, &stamps, tlb.config().ways)
        .into_iter()
        .map(|set| set.into_iter().map(|i| vpns[i]).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        failure_persistence: None,
        ..ProptestConfig::default()
    })]
    /// `SetAssocCache` makes exactly the reference model's decisions —
    /// hit flags, victims, writebacks, invalidations and counters — and
    /// keeps the same resident lines, dirty flags and recency order per
    /// set, at every associativity. At step `cut` the cache's own
    /// snapshot and the model's `u64`-stamp snapshot are restored into
    /// fresh caches, and all of them continue in lockstep with the
    /// model.
    #[test]
    fn cache_matches_the_tick_stamp_reference(
        ops in prop::collection::vec((0u8..12, 0u64..1 << 20, prop::bool::ANY), 1..300),
        cut in 0usize..300,
    ) {
        for ways in MODEL_WAYS {
            let mut model = RefCache::new(ways);
            let mut caches = vec![SetAssocCache::new(RefCache::config(ways))];
            for (step, &(op, raw, dirty)) in ops.iter().enumerate() {
                if step == cut {
                    let mut own = SetAssocCache::new(RefCache::config(ways));
                    own.restore(&caches[0].snapshot()).unwrap();
                    let mut legacy = SetAssocCache::new(RefCache::config(ways));
                    legacy.restore(&model.legacy_snapshot()).unwrap();
                    caches.extend([own, legacy]);
                }
                // Two more tags than ways per set: constant conflict.
                let line = raw % (MODEL_SETS * (ways + 2)) as u64;
                let l = CacheLine::new(line);
                match op {
                    0..=5 => {
                        let want = model.access(line, dirty);
                        for c in &mut caches {
                            prop_assert_eq!(c.access(l, dirty), want, "{} ways step {}", ways, step);
                        }
                    }
                    // Fills never duplicate a resident line.
                    6..=7 if model.find(line).is_none() => {
                        let want = model.fill(line, dirty);
                        for c in &mut caches {
                            prop_assert_eq!(c.fill(l, dirty), want, "{} ways step {}", ways, step);
                        }
                    }
                    6..=9 => {
                        let want = model.probe(line, dirty);
                        for c in &mut caches {
                            prop_assert_eq!(c.probe(l, dirty), want, "{} ways step {}", ways, step);
                        }
                    }
                    10 => {
                        let want = model.invalidate(line);
                        for c in &mut caches {
                            prop_assert_eq!(c.invalidate(l), want, "{} ways step {}", ways, step);
                        }
                    }
                    _ if raw.is_multiple_of(8) => {
                        model = RefCache::new(ways);
                        for c in &mut caches {
                            c.reset();
                        }
                    }
                    _ => {}
                }
                if step % 8 == 0 || step + 1 == ops.len() {
                    for c in &caches {
                        prop_assert_eq!(cache_recency(c), model.recency(), "{} ways step {}", ways, step);
                        prop_assert_eq!(c.stats(), model.stats, "{} ways step {}", ways, step);
                    }
                }
            }
        }
    }

    /// The TLB twin of the cache reference test: access / shootdown /
    /// flush against the `u64`-stamp model, with the same snapshot
    /// cut.
    #[test]
    fn tlb_matches_the_tick_stamp_reference(
        ops in prop::collection::vec((0u8..10, 0u64..1 << 20), 1..300),
        cut in 0usize..300,
    ) {
        for ways in MODEL_WAYS {
            let mut model = RefTlb::new(ways);
            let mut tlbs = vec![Tlb::new(RefTlb::config(ways))];
            for (step, &(op, raw)) in ops.iter().enumerate() {
                if step == cut {
                    let mut own = Tlb::new(RefTlb::config(ways));
                    own.restore(&tlbs[0].snapshot()).unwrap();
                    let mut legacy = Tlb::new(RefTlb::config(ways));
                    legacy.restore(&model.legacy_snapshot()).unwrap();
                    tlbs.extend([own, legacy]);
                }
                let vpn = raw % (MODEL_SETS * (ways + 2)) as u64;
                let page = VirtPage::new(vpn);
                match op {
                    0..=7 => {
                        let want = model.access(vpn);
                        for t in &mut tlbs {
                            prop_assert_eq!(t.access(page), want, "{} ways step {}", ways, step);
                        }
                    }
                    8 => {
                        let want = model.shootdown(vpn);
                        for t in &mut tlbs {
                            prop_assert_eq!(t.shootdown(page), want, "{} ways step {}", ways, step);
                        }
                    }
                    _ if raw.is_multiple_of(8) => {
                        model.flush();
                        for t in &mut tlbs {
                            t.flush();
                        }
                    }
                    _ => {}
                }
                if step % 8 == 0 || step + 1 == ops.len() {
                    for t in &tlbs {
                        prop_assert_eq!(tlb_recency(t), model.recency(), "{} ways step {}", ways, step);
                        prop_assert_eq!(t.stats(), model.stats, "{} ways step {}", ways, step);
                    }
                }
            }
        }
    }
}
