//! Transparent Huge Page (THP) grouping.
//!
//! The paper's Table VI experiment enables THP: base pages consolidate
//! into 2 MiB huge pages, and NeoMem migrates whole huge pages when the
//! profiled hot 4 KiB pages fall inside them (§VII "Huge Page Support").
//! We model THP as virtual-address grouping: 512 consecutive base pages
//! aligned to a 512-page boundary form one huge region.

use std::collections::HashMap;

use neomem_types::json::{hex_from_u64s, Json};
use neomem_types::{Error, Result, VirtPage};

/// Base pages per 2 MiB huge page.
pub const PAGES_PER_HUGE: u64 = 512;

/// The first base page of the huge region containing `vpage`.
pub fn huge_base(vpage: VirtPage) -> VirtPage {
    VirtPage::new(vpage.index() / PAGES_PER_HUGE * PAGES_PER_HUGE)
}

/// Tracks which huge regions are THP-backed and their hot-page votes.
///
/// NeoProf keeps reporting hot 4 KiB pages; the host aggregates them per
/// huge region and migrates the region once enough distinct hot base
/// pages accumulate.
#[derive(Debug, Clone, Default)]
pub struct HugePageMap {
    /// Hot votes per huge-region base page.
    votes: HashMap<u64, u32>,
    /// Distinct hot base pages needed before a huge migration triggers.
    vote_threshold: u32,
}

impl HugePageMap {
    /// Creates a map requiring `vote_threshold` hot base-page reports per
    /// region before the region is offered for huge migration.
    ///
    /// # Panics
    ///
    /// Panics if `vote_threshold` is zero.
    pub fn new(vote_threshold: u32) -> Self {
        assert!(vote_threshold > 0, "vote threshold must be positive");
        Self { votes: HashMap::new(), vote_threshold }
    }

    /// Records a hot base page; returns `Some(region_base)` when the
    /// containing region just crossed the vote threshold.
    pub fn record_hot(&mut self, vpage: VirtPage) -> Option<VirtPage> {
        let base = huge_base(vpage);
        let votes = self.votes.entry(base.index()).or_insert(0);
        *votes += 1;
        if *votes == self.vote_threshold {
            Some(base)
        } else {
            None
        }
    }

    /// Clears vote state (per profiling period).
    pub fn clear(&mut self) {
        self.votes.clear();
    }

    /// Iterates the base pages of one huge region.
    pub fn region_pages(base: VirtPage) -> impl Iterator<Item = VirtPage> {
        let start = huge_base(base).index();
        (start..start + PAGES_PER_HUGE).map(VirtPage::new)
    }

    /// Serialises the vote table for a machine snapshot, as interleaved
    /// `(region_base, votes)` pairs sorted by base so the rendering is
    /// independent of hash-map iteration order.
    pub fn snapshot(&self) -> Json {
        let mut pairs: Vec<(u64, u32)> = self.votes.iter().map(|(&b, &v)| (b, v)).collect();
        pairs.sort_unstable();
        let flat: Vec<u64> = pairs.iter().flat_map(|&(b, v)| [b, u64::from(v)]).collect();
        Json::obj([("votes", Json::Str(hex_from_u64s(&flat)))])
    }

    /// Restores [`HugePageMap::snapshot`] state. The vote threshold is
    /// construction config and is kept as-is.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Snapshot`] on missing/malformed fields, an
    /// odd-length pair array, or a vote count exceeding `u32`.
    pub fn restore(&mut self, snap: &Json) -> Result<()> {
        let flat = snap.req_u64s("votes")?;
        if flat.len() % 2 != 0 {
            return Err(Error::snapshot("odd-length huge-page vote array"));
        }
        let mut votes = HashMap::with_capacity(flat.len() / 2);
        for pair in flat.chunks_exact(2) {
            let count = u32::try_from(pair[1])
                .map_err(|_| Error::snapshot(format!("vote count {} exceeds u32", pair[1])))?;
            votes.insert(pair[0], count);
        }
        self.votes = votes;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn huge_base_alignment() {
        assert_eq!(huge_base(VirtPage::new(0)).index(), 0);
        assert_eq!(huge_base(VirtPage::new(511)).index(), 0);
        assert_eq!(huge_base(VirtPage::new(512)).index(), 512);
        assert_eq!(huge_base(VirtPage::new(1300)).index(), 1024);
    }

    #[test]
    fn votes_trigger_once_at_threshold() {
        let mut m = HugePageMap::new(3);
        assert_eq!(m.record_hot(VirtPage::new(10)), None);
        assert_eq!(m.record_hot(VirtPage::new(20)), None);
        assert_eq!(m.record_hot(VirtPage::new(30)), Some(VirtPage::new(0)));
        // Further votes do not re-trigger.
        assert_eq!(m.record_hot(VirtPage::new(40)), None);
    }

    #[test]
    fn regions_are_independent() {
        let mut m = HugePageMap::new(1);
        assert_eq!(m.record_hot(VirtPage::new(5)), Some(VirtPage::new(0)));
        assert_eq!(m.record_hot(VirtPage::new(600)), Some(VirtPage::new(512)));
    }

    #[test]
    fn clear_resets_votes() {
        let mut m = HugePageMap::new(2);
        m.record_hot(VirtPage::new(1));
        m.clear();
        assert_eq!(m.record_hot(VirtPage::new(1)), None, "count restarts");
    }

    #[test]
    fn region_pages_covers_512() {
        let pages: Vec<_> = HugePageMap::region_pages(VirtPage::new(700)).collect();
        assert_eq!(pages.len(), 512);
        assert_eq!(pages[0].index(), 512);
        assert_eq!(pages[511].index(), 1023);
    }

    #[test]
    #[should_panic(expected = "vote threshold")]
    fn zero_threshold_rejected() {
        let _ = HugePageMap::new(0);
    }
}
