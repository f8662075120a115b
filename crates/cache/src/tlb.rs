//! A set-associative TLB model.
//!
//! The TLB determines what the *software* profiling baselines can see:
//! PTE accessed bits are set by the page walker on TLB fills, and
//! hint-fault "poisoned" pages fault when their translation is absent.
//! Page migration and PTE poisoning trigger TLB shootdowns, which the
//! simulator charges time for.

use neomem_types::json::{hex_from_u64s, Json};
use neomem_types::{Error, Result, VirtPage};

use crate::swar::{self, with_ways, KEY_VALID, MAX_TAG, MAX_WAYS};

/// TLB geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// Total entries.
    pub entries: usize,
    /// Associativity, at most 64.
    pub ways: usize,
}

impl TlbConfig {
    /// A 2048-entry, 8-way TLB, in the range of modern x86 STLBs.
    pub fn scaled_default() -> Self {
        Self { entries: 2048, ways: 8 }
    }

    /// A 256-entry TLB whose coverage relative to quick-simulation
    /// footprints matches a real STLB's coverage of a 10+ GB RSS.
    pub fn scaled_small() -> Self {
        Self { entries: 256, ways: 4 }
    }

    /// A 8-entry TLB for unit tests.
    pub fn tiny() -> Self {
        Self { entries: 8, ways: 2 }
    }

    /// Validates the geometry.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] unless `entries` is a non-zero
    /// multiple of `ways` with a power-of-two set count, and there are
    /// at most 64 ways.
    pub fn validate(&self) -> Result<()> {
        if self.entries == 0 || self.ways == 0 || !self.entries.is_multiple_of(self.ways) {
            return Err(Error::invalid_config("tlb entries must be a non-zero multiple of ways"));
        }
        if self.ways > MAX_WAYS {
            return Err(Error::invalid_config(format!(
                "tlb has {} ways, at most {MAX_WAYS} are supported",
                self.ways
            )));
        }
        if !(self.entries / self.ways).is_power_of_two() {
            return Err(Error::invalid_config("tlb set count must be a power of two"));
        }
        Ok(())
    }

    /// Checks that every page of a `rss_pages`-page footprint fits the
    /// key lane (31 bits).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when the footprint's largest page
    /// number needs more than 31 bits.
    pub fn validate_footprint(&self, rss_pages: u64) -> Result<()> {
        let last_page = rss_pages.saturating_sub(1);
        if last_page > MAX_TAG {
            return Err(Error::invalid_config(format!(
                "footprint of {rss_pages} pages is too large for the tlb: its largest \
                 page {last_page:#x} needs more than 31 bits"
            )));
        }
        Ok(())
    }
}

/// Hit/miss/shootdown counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Translations served from the TLB.
    pub hits: u64,
    /// Translations requiring a page walk.
    pub misses: u64,
    /// Entries invalidated by shootdowns.
    pub shootdowns: u64,
}

impl TlbStats {
    /// Miss ratio in `[0, 1]`.
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// A set-associative, LRU TLB over virtual pages.
///
/// Each set is a contiguous run of `u32` keys (`valid | vpn`, so the
/// lookup compares one word per way) kept in recency order — most
/// recently used first, invalid entries last — the same layout and
/// kernels as the caches, without the dirty mask.
///
/// ```
/// use neomem_cache::{Tlb, TlbConfig};
/// use neomem_types::VirtPage;
///
/// let mut tlb = Tlb::new(TlbConfig::tiny());
/// assert!(!tlb.access(VirtPage::new(3))); // cold miss, then filled
/// assert!(tlb.access(VirtPage::new(3))); // hit
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    config: TlbConfig,
    /// `KEY_VALID | vpn` per entry, each set in recency order; invalid
    /// entries are `0` and never match a lookup key.
    keys: Vec<u32>,
    set_mask: u64,
    stats: TlbStats,
}

impl Tlb {
    /// Creates the TLB.
    ///
    /// # Panics
    ///
    /// Panics on invalid geometry; pre-validate with
    /// [`TlbConfig::validate`].
    pub fn new(config: TlbConfig) -> Self {
        config.validate().expect("invalid tlb config");
        let sets = config.entries / config.ways;
        Self {
            config,
            keys: vec![0; config.entries],
            set_mask: sets as u64 - 1,
            stats: TlbStats::default(),
        }
    }

    /// First entry of `vpage`'s set and its lookup key.
    #[inline(always)]
    fn locate(&self, vpage: VirtPage, ways: usize) -> (usize, u32) {
        debug_assert!(vpage.index() <= MAX_TAG, "{vpage:?} exceeds the 31-bit key lane");
        let set = (vpage.index() & self.set_mask) as usize;
        (set * ways, KEY_VALID | vpage.index() as u32)
    }

    /// Looks up `vpage`, filling the entry on miss. Returns `true` on hit.
    #[inline]
    pub fn access(&mut self, vpage: VirtPage) -> bool {
        with_ways!(self.config.ways, ways => {
            let (base, key) = self.locate(vpage, ways);
            let keys = &mut self.keys[base..base + ways];
            match swar::find(keys, key) {
                Some(pos) => {
                    swar::move_to_front(keys, pos);
                    self.stats.hits += 1;
                    true
                }
                None => {
                    swar::insert_front(keys, key);
                    self.stats.misses += 1;
                    false
                }
            }
        })
    }

    /// Invalidates `vpage` (one shootdown), returning whether it was
    /// present. The entry leaves the set's recency order and the freed
    /// slot goes to the back, where the next fill of the set takes it.
    pub fn shootdown(&mut self, vpage: VirtPage) -> bool {
        let ways = self.config.ways;
        let (base, key) = self.locate(vpage, ways);
        let keys = &mut self.keys[base..base + ways];
        let Some(pos) = swar::find(keys, key) else {
            return false;
        };
        swar::remove(keys, pos);
        self.stats.shootdowns += 1;
        true
    }

    /// Flushes the whole TLB (counted as one shootdown per valid entry).
    pub fn flush(&mut self) {
        for k in &mut self.keys {
            if *k & KEY_VALID != 0 {
                self.stats.shootdowns += 1;
                *k = 0;
            }
        }
    }

    /// Returns accumulated statistics.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Returns the geometry.
    pub fn config(&self) -> &TlbConfig {
        &self.config
    }

    /// Serialises the translation entries, recency stamps and counters
    /// for a machine snapshot. Validity is packed as a bitmask word
    /// array; entries are written in recency order with stamps
    /// `ways - position` and `tick = ways`, the same wire format as the
    /// cache levels.
    pub fn snapshot(&self) -> Json {
        let ways = self.config.ways;
        let vpns: Vec<u64> = self.keys.iter().map(|k| u64::from(k & !KEY_VALID)).collect();
        let mut valid = vec![0u64; self.keys.len().div_ceil(64)];
        for (i, k) in self.keys.iter().enumerate() {
            if k & KEY_VALID != 0 {
                valid[i / 64] |= 1 << (i % 64);
            }
        }
        let last_uses: Vec<u64> = (0..self.keys.len()).map(|i| (ways - i % ways) as u64).collect();
        Json::obj([
            ("vpns", Json::Str(hex_from_u64s(&vpns))),
            ("last_uses", Json::Str(hex_from_u64s(&last_uses))),
            ("valid", Json::Str(hex_from_u64s(&valid))),
            ("tick", Json::U64(ways as u64)),
            ("hits", Json::U64(self.stats.hits)),
            ("misses", Json::U64(self.stats.misses)),
            ("shootdowns", Json::U64(self.stats.shootdowns)),
        ])
    }

    /// Restores [`Tlb::snapshot`] state onto a TLB with the same
    /// geometry, ordering each set by its stamps as
    /// [`crate::SetAssocCache::restore`] does.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Snapshot`] on missing/malformed fields, arrays
    /// sized for a different geometry, or a VPN wider than the key
    /// lane's 31 bits.
    pub fn restore(&mut self, snap: &Json) -> Result<()> {
        let vpns = snap.req_u64s("vpns")?;
        let last_uses = snap.req_u64s("last_uses")?;
        let valid = snap.req_u64s("valid")?;
        if vpns.len() != self.keys.len()
            || last_uses.len() != self.keys.len()
            || valid.len() != self.keys.len().div_ceil(64)
        {
            return Err(Error::snapshot(format!(
                "tlb snapshot has {} entries, expected {}",
                vpns.len(),
                self.keys.len()
            )));
        }
        if let Some(vpn) = vpns.iter().find(|v| **v > MAX_TAG) {
            return Err(Error::snapshot(format!("tlb vpn {vpn:#x} exceeds the key lane")));
        }
        snap.req_u64("tick")?;
        self.stats = TlbStats {
            hits: snap.req_u64("hits")?,
            misses: snap.req_u64("misses")?,
            shootdowns: snap.req_u64("shootdowns")?,
        };
        let ways = self.config.ways;
        for (set, keys) in self.keys.chunks_exact_mut(ways).enumerate() {
            let base = set * ways;
            let is_valid = |i: usize| (valid[(base + i) / 64] >> ((base + i) % 64)) & 1 == 1;
            let order = swar::recency_order(&last_uses[base..base + ways], is_valid);
            keys.fill(0);
            for (key, &i) in keys.iter_mut().zip(&order) {
                *key = KEY_VALID | vpns[base + i] as u32;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation() {
        TlbConfig::scaled_default().validate().unwrap();
        TlbConfig::tiny().validate().unwrap();
        assert!(TlbConfig { entries: 0, ways: 1 }.validate().is_err());
        assert!(TlbConfig { entries: 9, ways: 2 }.validate().is_err());
        assert!(TlbConfig { entries: 12, ways: 2 }.validate().is_err());
        TlbConfig { entries: 128, ways: 64 }.validate().unwrap();
        assert_eq!(
            TlbConfig { entries: 130, ways: 65 }.validate().unwrap_err().to_string(),
            "invalid configuration: tlb has 65 ways, at most 64 are supported"
        );
    }

    #[test]
    fn footprint_pages_must_fit_31_bits() {
        let tlb = TlbConfig::tiny();
        tlb.validate_footprint(1 << 31).unwrap();
        assert_eq!(
            tlb.validate_footprint((1 << 31) + 1).unwrap_err().to_string(),
            "invalid configuration: footprint of 2147483649 pages is too large for the \
             tlb: its largest page 0x80000000 needs more than 31 bits"
        );
    }

    #[test]
    fn restore_rejects_vpns_wider_than_the_key_lane() {
        let mut snap = Tlb::new(TlbConfig::tiny()).snapshot();
        let mut vpns = snap.req_u64s("vpns").unwrap();
        vpns[0] = MAX_TAG + 1;
        if let Json::Obj(fields) = &mut snap {
            fields.iter_mut().find(|(k, _)| k == "vpns").unwrap().1 =
                Json::Str(hex_from_u64s(&vpns));
        }
        assert_eq!(
            Tlb::new(TlbConfig::tiny()).restore(&snap).unwrap_err().to_string(),
            "invalid snapshot: tlb vpn 0x80000000 exceeds the key lane"
        );
    }

    #[test]
    fn miss_then_hit() {
        let mut tlb = Tlb::new(TlbConfig::tiny());
        assert!(!tlb.access(VirtPage::new(1)));
        assert!(tlb.access(VirtPage::new(1)));
        assert_eq!(tlb.stats().hits, 1);
        assert_eq!(tlb.stats().misses, 1);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut tlb = Tlb::new(TlbConfig::tiny()); // 4 sets x 2 ways
        // Pages 0, 4, 8 all map to set 0.
        tlb.access(VirtPage::new(0));
        tlb.access(VirtPage::new(4));
        tlb.access(VirtPage::new(0)); // refresh
        tlb.access(VirtPage::new(8)); // evicts 4
        assert!(tlb.access(VirtPage::new(0)));
        assert!(!tlb.access(VirtPage::new(4)));
    }

    #[test]
    fn shootdown_removes_translation() {
        let mut tlb = Tlb::new(TlbConfig::tiny());
        tlb.access(VirtPage::new(2));
        assert!(tlb.shootdown(VirtPage::new(2)));
        assert!(!tlb.access(VirtPage::new(2)), "must miss after shootdown");
        assert!(!tlb.shootdown(VirtPage::new(99)), "absent page");
        assert_eq!(tlb.stats().shootdowns, 1);
    }

    #[test]
    fn flush_empties_everything() {
        let mut tlb = Tlb::new(TlbConfig::tiny());
        for i in 0..8u64 {
            tlb.access(VirtPage::new(i));
        }
        tlb.flush();
        for i in 0..8u64 {
            assert!(!tlb.access(VirtPage::new(i)), "page {i} must miss after flush");
        }
        assert!(tlb.stats().shootdowns >= 8);
    }

    #[test]
    fn page_zero_translates_like_any_other() {
        let mut tlb = Tlb::new(TlbConfig::tiny());
        assert!(!tlb.access(VirtPage::new(0)), "cold miss");
        assert!(tlb.access(VirtPage::new(0)), "page 0 is a real entry, not an empty slot");
        assert!(tlb.shootdown(VirtPage::new(0)));
        assert!(!tlb.access(VirtPage::new(0)));
    }

    #[test]
    fn miss_ratio_empty_is_zero() {
        let tlb = Tlb::new(TlbConfig::tiny());
        assert_eq!(tlb.stats().miss_ratio(), 0.0);
    }
}
