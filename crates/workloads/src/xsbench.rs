//! XSBench: Monte-Carlo neutronics cross-section lookups.
//!
//! XSBench's working set is a large read-only nuclide grid; each lookup
//! binary-searches an energy grid and gathers cross-section rows. The
//! paper classes it (with GUPS) as an "HPC workload characterized by
//! skewed hot memory regions" — a minority of grid pages absorbs most
//! lookups. We model each lookup as a short burst of zipf-skewed reads
//! over the table region plus an occasional uniform tally write.

use neomem_types::{Access, AccessKind, VirtPage};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::perm::Permutation;
use crate::zipf::Zipf;
use crate::{Workload, WorkloadEvent, MIN_RSS_PAGES};

/// Fraction of the footprint holding the read-only cross-section tables.
const TABLE_FRACTION: f64 = 0.85;
/// Pages touched per lookup (energy grid walk + gather).
const PAGES_PER_LOOKUP: usize = 5;
/// Probability a lookup ends with a tally write.
const TALLY_WRITE_PROB: f64 = 0.05;

/// The XSBench generator.
#[derive(Debug, Clone)]
pub struct XsBench {
    rss_pages: u64,
    table_pages: u64,
    skew: Zipf,
    /// Popularity rank → table page: hot grid rows are scattered across
    /// the tables by construction order, not packed at low addresses.
    placement: Permutation,
    rng: SmallRng,
    queued: Vec<Access>,
}

impl XsBench {
    /// Creates the generator.
    ///
    /// # Panics
    ///
    /// Panics if `rss_pages` is below [`crate::MIN_RSS_PAGES`].
    pub fn new(rss_pages: u64, seed: u64) -> Self {
        assert!(rss_pages >= MIN_RSS_PAGES, "xsbench needs at least {MIN_RSS_PAGES} pages");
        let table_pages = ((rss_pages as f64 * TABLE_FRACTION) as u64).max(16);
        Self {
            rss_pages,
            table_pages,
            // Strong skew: unionised energy grid hot rows.
            skew: Zipf::new(table_pages as usize, 1.1),
            placement: Permutation::new(table_pages as usize, seed),
            rng: SmallRng::seed_from_u64(seed ^ 0x5853_4245),
            queued: Vec::new(),
        }
    }

    fn table_page(&mut self) -> u64 {
        let rank = self.skew.sample(&mut self.rng);
        self.placement.apply(rank)
    }

    /// Pages of the read-only table region.
    pub fn table_pages(&self) -> u64 {
        self.table_pages
    }
}

impl Workload for XsBench {
    crate::impl_batched_fill_events!();

    fn name(&self) -> &'static str {
        "XSBench"
    }

    fn rss_pages(&self) -> u64 {
        self.rss_pages
    }

    fn next_event(&mut self) -> WorkloadEvent {
        if let Some(a) = self.queued.pop() {
            return WorkloadEvent::Access(a);
        }
        // Start a new lookup burst.
        for _ in 0..PAGES_PER_LOOKUP - 1 {
            let page = self.table_page();
            let line = self.rng.gen_range(0..64u8);
            self.queued.push(Access::new(VirtPage::new(page), line, AccessKind::Read));
        }
        if self.rng.gen_bool(TALLY_WRITE_PROB) {
            let tally = self.table_pages + self.rng.gen_range(0..self.rss_pages - self.table_pages);
            self.queued.push(Access::new(
                VirtPage::new(tally),
                self.rng.gen_range(0..64u8),
                AccessKind::Write,
            ));
        }
        let first = self.table_page();
        WorkloadEvent::Access(Access::new(
            VirtPage::new(first),
            self.rng.gen_range(0..64u8),
            AccessKind::Read,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_dominated() {
        let mut x = XsBench::new(1024, 1);
        let mut reads = 0u32;
        let mut writes = 0u32;
        for _ in 0..20_000 {
            if let WorkloadEvent::Access(a) = x.next_event() {
                match a.kind {
                    AccessKind::Read => reads += 1,
                    AccessKind::Write => writes += 1,
                }
            }
        }
        assert!(reads as f64 / (reads + writes) as f64 > 0.95, "reads {reads} writes {writes}");
    }

    #[test]
    fn skewed_hot_region() {
        let mut x = XsBench::new(4096, 2);
        let mut counts = vec![0u32; 4096];
        for _ in 0..100_000 {
            if let WorkloadEvent::Access(a) = x.next_event() {
                counts[a.vpage.index() as usize] += 1;
            }
        }
        let total: u32 = counts.iter().sum();
        let mut sorted = counts.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let top10: u32 = sorted[..409].iter().sum();
        assert!(
            top10 as f64 / total as f64 > 0.5,
            "top-10% pages should absorb most accesses, got {}",
            top10 as f64 / total as f64
        );
    }

    #[test]
    fn table_region_is_majority() {
        let x = XsBench::new(1000, 3);
        assert!(x.table_pages() >= 800);
        assert!(x.table_pages() < 1000);
    }
}
