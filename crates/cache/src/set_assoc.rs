//! A single set-associative, write-back, write-allocate cache level.

use neomem_types::json::{hex_from_u64s, Json};
use neomem_types::{CacheLine, Error, Result, LINES_PER_PAGE};

use crate::swar::{self, with_ways, KEY_VALID, MAX_TAG, MAX_WAYS};

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Capacity in bytes. Must be `ways * line_size * 2^k` for integer `k`.
    pub capacity_bytes: u64,
    /// Associativity (ways per set), at most 64.
    pub ways: usize,
    /// Line size in bytes (64 everywhere in this workspace).
    pub line_bytes: u64,
}

impl CacheConfig {
    /// Creates a config with 64-byte lines.
    pub fn new(capacity_bytes: u64, ways: usize) -> Self {
        Self { capacity_bytes, ways, line_bytes: 64 }
    }

    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> u64 {
        self.capacity_bytes / (self.ways as u64 * self.line_bytes)
    }

    /// Validates the geometry.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] unless the set count is a power of
    /// two, every dimension is non-zero and there are at most 64 ways.
    pub fn validate(&self) -> Result<()> {
        if self.ways == 0 || self.line_bytes == 0 || self.capacity_bytes == 0 {
            return Err(Error::invalid_config("cache dimensions must be non-zero"));
        }
        if self.ways > MAX_WAYS {
            return Err(Error::invalid_config(format!(
                "cache has {} ways, at most {MAX_WAYS} are supported",
                self.ways
            )));
        }
        if !self.capacity_bytes.is_multiple_of(self.ways as u64 * self.line_bytes) {
            return Err(Error::invalid_config("capacity must be a multiple of ways*line"));
        }
        if !self.sets().is_power_of_two() {
            return Err(Error::invalid_config("cache set count must be a power of two"));
        }
        Ok(())
    }

    /// Checks that every line of a `rss_pages`-page footprint has a tag
    /// the key lane can hold (31 bits), naming the level as `level` in
    /// the error. The geometry must already be valid.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when the footprint's largest line
    /// tag needs more than 31 bits.
    pub(crate) fn validate_footprint(&self, level: &str, rss_pages: u64) -> Result<()> {
        let last_line = rss_pages.saturating_mul(LINES_PER_PAGE).saturating_sub(1);
        let tag = last_line >> self.sets().trailing_zeros();
        if tag > MAX_TAG {
            return Err(Error::invalid_config(format!(
                "footprint of {rss_pages} pages is too large for the {level} cache: its \
                 largest line tag {tag:#x} needs more than 31 bits"
            )));
        }
        Ok(())
    }
}

/// Hit/miss/writeback counters for one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Dirty victims written back on eviction.
    pub writebacks: u64,
}

/// Wire-format bits of a snapshot meta word: valid (bit 63), dirty
/// (bit 62), and the recency stamp below them.
const META_VALID: u64 = 1 << 63;
const META_DIRTY: u64 = 1 << 62;
const META_STAMP_MASK: u64 = META_DIRTY - 1;

/// One set-associative cache level with true-LRU replacement.
///
/// The cache stores line *tags* only — the simulation has no data —
/// and models write-back/write-allocate: a store marks the line dirty;
/// evicting a dirty line surfaces a writeback the caller must forward to
/// the next level (or to memory, for the LLC).
///
/// Each set is a contiguous run of `u32` keys (`valid | tag`) kept in
/// recency order — most recently used first, invalid ways last — plus
/// one `u64` dirty mask whose bit `i` belongs to position `i`. A hit
/// moves its way to the front, and a fill drops the last way and
/// inserts at the front, so the victim needs no search. A 16-way set's
/// keys are 64 bytes, but the lane is not aligned to host lines, so a
/// set may span two of them.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    config: CacheConfig,
    /// `KEY_VALID | tag` per way, each set in recency order; invalid
    /// ways are `0` and never match a probe.
    keys: Vec<u32>,
    /// One dirty mask per set, bit `i` for position `i`. Invalid ways
    /// are never dirty.
    dirty: Vec<u64>,
    set_mask: u64,
    /// Bits of the set index — cached at construction so the hot
    /// probe/fill/writeback paths never recount mask bits.
    set_bits: u32,
    stats: CacheStats,
}

/// Outcome of one cache access or fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelOutcome {
    /// Whether the line was present.
    pub hit: bool,
    /// A dirty victim evicted to make room (only on fills that replace a
    /// dirty line).
    pub writeback: Option<CacheLine>,
}

impl SetAssocCache {
    /// Creates the cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; use
    /// [`CacheConfig::validate`] to pre-check untrusted configs.
    pub fn new(config: CacheConfig) -> Self {
        config.validate().expect("invalid cache config");
        let sets = config.sets() as usize;
        Self {
            config,
            keys: vec![0; sets * config.ways],
            dirty: vec![0; sets],
            set_mask: sets as u64 - 1,
            set_bits: (sets as u64).trailing_zeros(),
            stats: CacheStats::default(),
        }
    }

    /// Returns the configured geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Returns accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Set index of `line` and its probe key.
    #[inline(always)]
    fn locate(&self, line: CacheLine) -> (usize, u32) {
        let set = line.index() & self.set_mask;
        let tag = line.index() >> self.set_bits;
        debug_assert!(tag <= MAX_TAG, "line {line:?} exceeds the 31-bit tag");
        (set as usize, KEY_VALID | tag as u32)
    }

    /// Probes for `line`; on hit, refreshes LRU and applies `dirty`.
    /// Does **not** allocate on miss — pair with [`fill`](Self::fill).
    #[inline]
    pub fn probe(&mut self, line: CacheLine, dirty: bool) -> bool {
        with_ways!(self.config.ways, ways => {
            let (set, key) = self.locate(line);
            self.lookup(ways, set, key, dirty)
        })
    }

    /// Hit-or-miss half of a probe: on a hit, moves the way to the front
    /// and ORs in `dirty`; counts the hit or miss.
    #[inline(always)]
    fn lookup(&mut self, ways: usize, set: usize, key: u32, dirty: bool) -> bool {
        let keys = &mut self.keys[set * ways..set * ways + ways];
        match swar::find(keys, key) {
            Some(pos) => {
                swar::move_to_front(keys, pos);
                let flags = &mut self.dirty[set];
                *flags = swar::flags_to_front(*flags, pos) | u64::from(dirty);
                self.stats.hits += 1;
                true
            }
            None => {
                self.stats.misses += 1;
                false
            }
        }
    }

    /// Inserts `line` (after a miss), evicting the LRU way of its set.
    /// Returns the dirty victim, if any.
    #[inline]
    pub fn fill(&mut self, line: CacheLine, dirty: bool) -> Option<CacheLine> {
        with_ways!(self.config.ways, ways => {
            let (set, key) = self.locate(line);
            self.replace(ways, set, key, dirty)
        })
    }

    /// Shared fill tail: drops the last way of the set (an invalid way
    /// if the set has one, else the least recently used), counting a
    /// dirty writeback and reconstructing its line address, and installs
    /// `key` at the front.
    #[inline(always)]
    fn replace(&mut self, ways: usize, set: usize, key: u32, dirty: bool) -> Option<CacheLine> {
        let victim = swar::insert_front(&mut self.keys[set * ways..set * ways + ways], key);
        let flags = &mut self.dirty[set];
        let victim_dirty = *flags >> (ways - 1) & 1 != 0;
        *flags = (swar::flags_to_front(*flags, ways - 1) & !1) | u64::from(dirty);
        victim_dirty.then(|| {
            self.stats.writebacks += 1;
            let tag = u64::from(victim & !KEY_VALID);
            CacheLine::new((tag << self.set_bits) | set as u64)
        })
    }

    /// Fused probe-or-fill: identical to `probe` followed (on miss) by
    /// `fill` — same stats, same victim — without a second dispatch.
    #[inline]
    pub fn access(&mut self, line: CacheLine, dirty: bool) -> LevelOutcome {
        with_ways!(self.config.ways, ways => {
            let (set, key) = self.locate(line);
            if self.lookup(ways, set, key, dirty) {
                return LevelOutcome { hit: true, writeback: None };
            }
            LevelOutcome { hit: false, writeback: self.replace(ways, set, key, dirty) }
        })
    }

    /// Invalidates `line` if present; returns `true` if it was dirty.
    /// The way leaves the set's recency order and the freed slot goes
    /// to the back, where the next fill of the set takes it.
    pub fn invalidate(&mut self, line: CacheLine) -> bool {
        let ways = self.config.ways;
        let (set, key) = self.locate(line);
        let keys = &mut self.keys[set * ways..set * ways + ways];
        let Some(pos) = swar::find(keys, key) else {
            return false;
        };
        swar::remove(keys, pos);
        let flags = &mut self.dirty[set];
        let was_dirty = *flags >> pos & 1 != 0;
        *flags = swar::flags_remove(*flags, pos);
        was_dirty
    }

    /// Drops all contents and statistics.
    pub fn reset(&mut self) {
        *self = Self::new(self.config);
    }

    /// Number of currently valid lines (diagnostics).
    pub fn resident_lines(&self) -> usize {
        self.keys.iter().filter(|k| **k & KEY_VALID != 0).count()
    }

    /// Serialises the tag array, packed metadata words and counters for a
    /// machine snapshot.
    ///
    /// The wire format predates recency-ordered sets: one word per way
    /// with valid (bit 63) | dirty (bit 62) | recency stamp, plus a
    /// `tick` above every stamp. Ways are written in recency order with
    /// stamps `ways - position` and `tick = ways`, which orders them
    /// exactly as the per-access ticks this format once carried did.
    pub fn snapshot(&self) -> Json {
        let ways = self.config.ways;
        let tags: Vec<u64> = self.keys.iter().map(|k| u64::from(k & !KEY_VALID)).collect();
        let mut metas = Vec::with_capacity(self.keys.len());
        for (keys, flags) in self.keys.chunks_exact(ways).zip(&self.dirty) {
            for (pos, k) in keys.iter().enumerate() {
                let valid = if k & KEY_VALID != 0 { META_VALID } else { 0 };
                let dirty = if flags >> pos & 1 != 0 { META_DIRTY } else { 0 };
                metas.push(valid | dirty | (ways - pos) as u64);
            }
        }
        Json::obj([
            ("tags", Json::Str(hex_from_u64s(&tags))),
            ("metas", Json::Str(hex_from_u64s(&metas))),
            ("tick", Json::U64(ways as u64)),
            ("hits", Json::U64(self.stats.hits)),
            ("misses", Json::U64(self.stats.misses)),
            ("writebacks", Json::U64(self.stats.writebacks)),
        ])
    }

    /// Restores [`SetAssocCache::snapshot`] state onto a cache with the
    /// same geometry. Each set's valid ways are ordered by descending
    /// stamp, ties going to the later way, and its invalid ways go last,
    /// so snapshots whose stamps are sparse per-access ticks, or whose
    /// ways are not in recency order, restore to the same replacement
    /// order.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Snapshot`] on missing/malformed fields, a tag
    /// array sized for a different geometry, or a tag wider than the key
    /// lane's 31 bits.
    pub fn restore(&mut self, snap: &Json) -> Result<()> {
        let tags = snap.req_u64s("tags")?;
        let metas = snap.req_u64s("metas")?;
        if tags.len() != self.keys.len() || metas.len() != self.keys.len() {
            return Err(Error::snapshot(format!(
                "cache tag array has {} ways, expected {}",
                tags.len(),
                self.keys.len()
            )));
        }
        if let Some(tag) = tags.iter().find(|t| **t > MAX_TAG) {
            return Err(Error::snapshot(format!("cache tag {tag:#x} exceeds the key lane")));
        }
        // Recency lives in the stamps' order; the tick is only checked
        // for presence.
        snap.req_u64("tick")?;
        self.stats = CacheStats {
            hits: snap.req_u64("hits")?,
            misses: snap.req_u64("misses")?,
            writebacks: snap.req_u64("writebacks")?,
        };
        let ways = self.config.ways;
        for (set, (keys, flags)) in
            self.keys.chunks_exact_mut(ways).zip(&mut self.dirty).enumerate()
        {
            let (tags, metas) = (&tags[set * ways..][..ways], &metas[set * ways..][..ways]);
            let stamps: Vec<u64> = metas.iter().map(|m| m & META_STAMP_MASK).collect();
            let order = swar::recency_order(&stamps, |i| metas[i] & META_VALID != 0);
            keys.fill(0);
            *flags = 0;
            for (pos, &i) in order.iter().enumerate() {
                keys[pos] = KEY_VALID | tags[i] as u32;
                *flags |= u64::from(metas[i] & META_DIRTY != 0) << pos;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        // 4 sets x 2 ways x 64B = 512B.
        SetAssocCache::new(CacheConfig::new(512, 2))
    }

    #[test]
    fn geometry() {
        let c = CacheConfig::new(512, 2);
        assert_eq!(c.sets(), 4);
        c.validate().unwrap();
        assert!(CacheConfig::new(0, 2).validate().is_err());
        assert!(CacheConfig::new(500, 2).validate().is_err());
        assert!(CacheConfig { capacity_bytes: 512, ways: 0, line_bytes: 64 }.validate().is_err());
        CacheConfig::new(64 * 64, 64).validate().unwrap();
        assert_eq!(
            CacheConfig::new(65 * 64, 65).validate().unwrap_err().to_string(),
            "invalid configuration: cache has 65 ways, at most 64 are supported"
        );
    }

    #[test]
    fn footprint_tags_must_fit_31_bits() {
        // 4 sets: a line's tag is its index >> 2, so 2^27 pages
        // (2^33 lines) is the largest footprint that fits.
        let c = CacheConfig::new(512, 2);
        c.validate_footprint("l1", 1 << 27).unwrap();
        assert_eq!(
            c.validate_footprint("l1", (1 << 27) + 1).unwrap_err().to_string(),
            "invalid configuration: footprint of 134217729 pages is too large for the l1 \
             cache: its largest line tag 0x8000000f needs more than 31 bits"
        );
        assert!(c.validate_footprint("l1", u64::MAX).is_err(), "line count overflow");
    }

    #[test]
    fn restore_rejects_tags_wider_than_the_key_lane() {
        let mut c = tiny();
        c.access(CacheLine::new(5), false);
        let mut snap = c.snapshot();
        let mut tags = snap.req_u64s("tags").unwrap();
        tags[3] = MAX_TAG + 1;
        if let Json::Obj(fields) = &mut snap {
            fields.iter_mut().find(|(k, _)| k == "tags").unwrap().1 =
                Json::Str(hex_from_u64s(&tags));
        }
        assert_eq!(
            tiny().restore(&snap).unwrap_err().to_string(),
            "invalid snapshot: cache tag 0x80000000 exceeds the key lane"
        );
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        let line = CacheLine::new(10);
        assert!(!c.access(line, false).hit);
        assert!(c.access(line, false).hit);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Lines mapping to set 0: indices 0, 4, 8 (4 sets).
        c.access(CacheLine::new(0), false);
        c.access(CacheLine::new(4), false);
        c.access(CacheLine::new(0), false); // refresh 0; LRU is now 4
        c.access(CacheLine::new(8), false); // evicts 4
        assert!(c.access(CacheLine::new(0), false).hit, "0 should survive");
        assert!(!c.access(CacheLine::new(4), false).hit, "4 was evicted");
    }

    #[test]
    fn dirty_eviction_surfaces_writeback() {
        let mut c = tiny();
        c.access(CacheLine::new(0), true); // dirty
        c.access(CacheLine::new(4), false);
        let out = c.access(CacheLine::new(8), false); // evicts 0 (LRU, dirty)
        assert_eq!(out.writeback, Some(CacheLine::new(0)));
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_no_writeback() {
        let mut c = tiny();
        c.access(CacheLine::new(0), false);
        c.access(CacheLine::new(4), false);
        let out = c.access(CacheLine::new(8), false);
        assert_eq!(out.writeback, None);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = tiny();
        c.access(CacheLine::new(0), false); // clean fill
        c.access(CacheLine::new(0), true); // write hit dirties it
        c.access(CacheLine::new(4), false);
        let out = c.access(CacheLine::new(8), false);
        assert_eq!(out.writeback, Some(CacheLine::new(0)));
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = tiny();
        c.access(CacheLine::new(0), true);
        assert!(c.invalidate(CacheLine::new(0)), "was dirty");
        assert!(!c.access(CacheLine::new(0), false).hit);
        assert!(!c.invalidate(CacheLine::new(99)), "absent line");
    }

    #[test]
    fn reset_clears_all() {
        let mut c = tiny();
        c.access(CacheLine::new(3), false);
        c.reset();
        assert_eq!(c.resident_lines(), 0);
        assert_eq!(c.stats(), CacheStats::default());
    }

    #[test]
    fn writeback_reconstructs_full_line_address() {
        // 4 sets → set bits = 2. Line 0b1101 = set 1, tag 3.
        let mut c = tiny();
        let line = CacheLine::new(0b1101);
        c.access(line, true);
        // Fill the same set with two more lines to force eviction.
        c.access(CacheLine::new(0b0101), false);
        let out = c.access(CacheLine::new(0b1001), false);
        assert_eq!(out.writeback, Some(line), "victim address must round-trip");
    }

    #[test]
    fn tag_zero_is_a_real_line() {
        let mut c = tiny();
        // Line 0 has tag 0: its key must still be distinguishable from
        // an empty way.
        assert!(!c.access(CacheLine::new(0), false).hit);
        assert!(c.access(CacheLine::new(0), false).hit);
        assert!(!c.invalidate(CacheLine::new(0)), "clean line");
        assert!(!c.access(CacheLine::new(0), false).hit, "gone after invalidate");
    }
}
