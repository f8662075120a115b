//! Silo under YCSB-C: zipfian point reads over an in-memory table.
//!
//! YCSB-C is 100 % reads with zipfian key popularity (α = 0.99); Silo
//! additionally appends to a redo log and touches index nodes. We model:
//! 80 % of the footprint as records read via zipf, 10 % as a hot index
//! region touched on every transaction, and 10 % as a circularly-written
//! log (a small write fraction keeps the YCSB-C spirit while exercising
//! the demotion path).

use neomem_types::{Access, AccessKind, VirtPage};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::perm::Permutation;
use crate::zipf::Zipf;
use crate::{Workload, WorkloadEvent, MIN_RSS_PAGES};

const RECORD_FRACTION: f64 = 0.8;
const INDEX_FRACTION: f64 = 0.1;
/// Fraction of transactions that append to the log.
const LOG_WRITE_PROB: f64 = 0.05;

/// The Silo/YCSB-C generator.
#[derive(Debug, Clone)]
pub struct Silo {
    rss_pages: u64,
    record_pages: u64,
    index_pages: u64,
    skew: Zipf,
    /// Key rank → record page: hot records are heap-scattered.
    placement: Permutation,
    rng: SmallRng,
    log_cursor: u64,
    queued: Vec<Access>,
}

impl Silo {
    /// Creates the generator.
    ///
    /// # Panics
    ///
    /// Panics if `rss_pages` is below [`crate::MIN_RSS_PAGES`].
    pub fn new(rss_pages: u64, seed: u64) -> Self {
        assert!(rss_pages >= MIN_RSS_PAGES, "silo needs at least {MIN_RSS_PAGES} pages");
        let record_pages = ((rss_pages as f64 * RECORD_FRACTION) as u64).max(16);
        let index_pages = ((rss_pages as f64 * INDEX_FRACTION) as u64).max(4);
        Self {
            rss_pages,
            record_pages,
            index_pages,
            skew: Zipf::new(record_pages as usize, 0.99),
            placement: Permutation::new(record_pages as usize, seed),
            rng: SmallRng::seed_from_u64(seed ^ 0x5349_4C4F),
            log_cursor: 0,
            queued: Vec::new(),
        }
    }
}

impl Workload for Silo {
    crate::impl_batched_fill_events!();

    fn name(&self) -> &'static str {
        "Silo"
    }

    fn rss_pages(&self) -> u64 {
        self.rss_pages
    }

    fn next_event(&mut self) -> WorkloadEvent {
        if let Some(a) = self.queued.pop() {
            return WorkloadEvent::Access(a);
        }
        // One transaction: index probe → record read [→ log append].
        let record = self.placement.apply(self.skew.sample(&mut self.rng));
        self.queued.push(Access::new(
            VirtPage::new(record),
            self.rng.gen_range(0..64u8),
            AccessKind::Read,
        ));
        if self.rng.gen_bool(LOG_WRITE_PROB) {
            let log_base = self.record_pages + self.index_pages;
            let log_pages = self.rss_pages - log_base;
            let page = log_base + self.log_cursor % log_pages;
            self.log_cursor += 1;
            self.queued.push(Access::new(
                VirtPage::new(page),
                (self.log_cursor % 64) as u8,
                AccessKind::Write,
            ));
        }
        let index = self.record_pages + self.rng.gen_range(0..self.index_pages);
        WorkloadEvent::Access(Access::new(
            VirtPage::new(index),
            self.rng.gen_range(0..64u8),
            AccessKind::Read,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mostly_reads_ycsb_c() {
        let mut s = Silo::new(1024, 1);
        let mut reads = 0u32;
        let mut writes = 0u32;
        for _ in 0..20_000 {
            if let WorkloadEvent::Access(a) = s.next_event() {
                match a.kind {
                    AccessKind::Read => reads += 1,
                    AccessKind::Write => writes += 1,
                }
            }
        }
        let frac = reads as f64 / (reads + writes) as f64;
        assert!(frac > 0.95, "read fraction {frac}");
    }

    #[test]
    fn index_region_hotter_per_page_than_records() {
        let mut s = Silo::new(2048, 2);
        let rec = s.record_pages;
        let idx_end = rec + s.index_pages;
        let mut index_hits = 0u64;
        let mut record_hits = 0u64;
        for _ in 0..100_000 {
            if let WorkloadEvent::Access(a) = s.next_event() {
                let p = a.vpage.index();
                if p >= rec && p < idx_end {
                    index_hits += 1;
                } else if p < rec {
                    record_hits += 1;
                }
            }
        }
        let per_index_page = index_hits as f64 / s.index_pages as f64;
        let per_record_page = record_hits as f64 / rec as f64;
        assert!(per_index_page > per_record_page * 2.0);
    }

    #[test]
    fn log_writes_are_sequential_circular() {
        let mut s = Silo::new(512, 3);
        let log_base = s.record_pages + s.index_pages;
        let mut log_pages = Vec::new();
        for _ in 0..200_000 {
            if let WorkloadEvent::Access(a) = s.next_event() {
                if a.kind == AccessKind::Write {
                    log_pages.push(a.vpage.index());
                    if log_pages.len() > 50 {
                        break;
                    }
                }
            }
        }
        assert!(log_pages.iter().all(|&p| p >= log_base));
    }
}
