//! Btree: Mitosis-style in-memory index lookups.
//!
//! Each lookup walks root → internal → leaf. Upper levels occupy few
//! pages but are touched on *every* lookup (extremely hot); leaves are
//! uniform-random (cold). This produces the clean hot/cold split that
//! lets accurate profilers shine as the fast tier shrinks (Fig. 12's
//! widening NeoMem-vs-PEBS gap on Btree).
//!
//! Address layout mirrors a bulk-loaded tree: leaves are written first
//! (low addresses) and the index levels are built on top of them (high
//! addresses) — so the hot inner nodes do *not* coincide with the pages
//! first-touch NUMA happens to place in fast memory.

use neomem_types::{Access, AccessKind, VirtPage};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::{Workload, WorkloadEvent, MIN_RSS_PAGES};

/// Tree depth (levels touched per lookup). Level 0 is the root, level
/// `LEVELS - 1` the leaves.
pub const LEVELS: usize = 4;
/// Fraction of pages per inner level, root-first; leaves get the rest.
const LEVEL_FRACTIONS: [f64; LEVELS - 1] = [0.0005, 0.005, 0.05];
/// Probability a lookup is an insert (leaf write).
const INSERT_PROB: f64 = 0.1;

/// The Btree generator.
#[derive(Debug, Clone)]
pub struct Btree {
    rss_pages: u64,
    /// `(lo, hi)` page range per level, root-first.
    ranges: [(u64, u64); LEVELS],
    rng: SmallRng,
    queued: Vec<Access>,
}

impl Btree {
    /// Creates the generator.
    ///
    /// # Panics
    ///
    /// Panics if `rss_pages` is below [`crate::MIN_RSS_PAGES`].
    pub fn new(rss_pages: u64, seed: u64) -> Self {
        assert!(rss_pages >= MIN_RSS_PAGES, "btree needs at least {MIN_RSS_PAGES} pages");
        let mut ranges = [(0u64, 0u64); LEVELS];
        let mut top = rss_pages;
        for (level, frac) in LEVEL_FRACTIONS.iter().enumerate() {
            let size = ((rss_pages as f64 * frac) as u64).max(1);
            ranges[level] = (top - size, top);
            top -= size;
        }
        ranges[LEVELS - 1] = (0, top); // leaves fill the low addresses
        Self {
            rss_pages,
            ranges,
            rng: SmallRng::seed_from_u64(seed ^ 0x4254_5245),
            queued: Vec::new(),
        }
    }

    /// Page range of one level (root is level 0).
    pub fn level_range(&self, level: usize) -> (u64, u64) {
        self.ranges[level]
    }

    fn page_in_level(&mut self, level: usize) -> VirtPage {
        let (lo, hi) = self.ranges[level];
        VirtPage::new(self.rng.gen_range(lo..hi))
    }
}

impl Workload for Btree {
    crate::impl_batched_fill_events!();

    fn name(&self) -> &'static str {
        "Btree"
    }

    fn rss_pages(&self) -> u64 {
        self.rss_pages
    }

    fn next_event(&mut self) -> WorkloadEvent {
        if let Some(a) = self.queued.pop() {
            return WorkloadEvent::Access(a);
        }
        // One lookup: queue leaf + mid levels, return the root access.
        let is_insert = self.rng.gen_bool(INSERT_PROB);
        let leaf = self.page_in_level(LEVELS - 1);
        let leaf_kind = if is_insert { AccessKind::Write } else { AccessKind::Read };
        self.queued.push(Access::new(leaf, self.rng.gen_range(0..64u8), leaf_kind));
        for level in (1..LEVELS - 1).rev() {
            let page = self.page_in_level(level);
            self.queued.push(Access::new(page, self.rng.gen_range(0..64u8), AccessKind::Read));
        }
        let root = self.page_in_level(0);
        WorkloadEvent::Access(Access::new(root, self.rng.gen_range(0..64u8), AccessKind::Read))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_partition_rss() {
        let b = Btree::new(10_000, 1);
        // Leaves start at 0; inner levels stack contiguously to the top.
        let (leaf_lo, leaf_hi) = b.level_range(LEVELS - 1);
        assert_eq!(leaf_lo, 0);
        let mut cursor = leaf_hi;
        for level in (0..LEVELS - 1).rev() {
            let (lo, hi) = b.level_range(level);
            assert_eq!(lo, cursor, "level {level} must stack on the previous");
            assert!(hi > lo);
            cursor = hi;
        }
        assert_eq!(cursor, 10_000);
    }

    #[test]
    fn inner_levels_live_above_leaves() {
        let b = Btree::new(10_000, 1);
        let (_, leaf_hi) = b.level_range(LEVELS - 1);
        for level in 0..LEVELS - 1 {
            let (lo, _) = b.level_range(level);
            assert!(lo >= leaf_hi, "inner level {level} must sit above the leaves");
        }
        // Root occupies the very top of the address space.
        let (_, root_hi) = b.level_range(0);
        assert_eq!(root_hi, 10_000);
    }

    #[test]
    fn upper_levels_exponentially_hotter() {
        let mut b = Btree::new(10_000, 2);
        let mut level_hits = [0u64; LEVELS];
        for _ in 0..100_000 {
            if let WorkloadEvent::Access(a) = b.next_event() {
                let p = a.vpage.index();
                for (level, hits) in level_hits.iter_mut().enumerate() {
                    let (lo, hi) = b.level_range(level);
                    if p >= lo && p < hi {
                        *hits += 1;
                        break;
                    }
                }
            }
        }
        // Per-page intensity must decrease sharply with level.
        let mut prev = f64::INFINITY;
        for (level, &hits) in level_hits.iter().enumerate() {
            let (lo, hi) = b.level_range(level);
            let per_page = hits as f64 / (hi - lo) as f64;
            assert!(per_page < prev, "level {level} per-page {per_page} not colder");
            prev = per_page;
        }
    }

    #[test]
    fn every_lookup_touches_all_levels() {
        let mut b = Btree::new(1000, 3);
        let mut touched = [false; LEVELS];
        for _ in 0..LEVELS {
            if let WorkloadEvent::Access(a) = b.next_event() {
                for (level, touched) in touched.iter_mut().enumerate() {
                    let (lo, hi) = b.level_range(level);
                    if a.vpage.index() >= lo && a.vpage.index() < hi {
                        *touched = true;
                    }
                }
            }
        }
        assert!(touched.iter().all(|&t| t), "one lookup must touch all {LEVELS} levels");
    }

    #[test]
    fn inserts_write_leaves_only() {
        let mut b = Btree::new(1000, 4);
        let (_, leaf_hi) = b.level_range(LEVELS - 1);
        for _ in 0..10_000 {
            if let WorkloadEvent::Access(a) = b.next_event() {
                if a.kind == AccessKind::Write {
                    assert!(a.vpage.index() < leaf_hi, "writes must target leaves");
                }
            }
        }
    }
}
