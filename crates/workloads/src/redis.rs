//! Redis: zipfian GET/SET over a key/value heap.
//!
//! Used by the paper's Fig. 4b motivation study (TLB-vs-LLC access
//! decorrelation on a Redis trace) and the Fig. 3b slowdown
//! characterisation. GETs dominate; each operation touches a hashtable
//! bucket page and the value's heap page(s). Hot keys are concentrated
//! by zipf, but bucket pages are *hash-scattered*, which is exactly what
//! makes TLB-level profiling misleading: a bucket page can be TLB-hot
//! (many key probes) while its values are cache-resident.

use neomem_types::{Access, AccessKind, VirtPage};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::zipf::Zipf;
use crate::{Workload, WorkloadEvent, MIN_RSS_PAGES};

/// Fraction of the footprint holding the hash table (buckets).
const TABLE_FRACTION: f64 = 0.25;
/// Probability of a SET (write) operation.
const SET_PROB: f64 = 0.1;
/// Number of distinct logical keys modelled.
const KEY_SPACE: usize = 1 << 16;

/// The Redis generator.
#[derive(Debug, Clone)]
pub struct Redis {
    rss_pages: u64,
    table_pages: u64,
    key_skew: Zipf,
    rng: SmallRng,
    queued: Vec<Access>,
}

impl Redis {
    /// Creates the generator.
    ///
    /// # Panics
    ///
    /// Panics if `rss_pages` is below [`crate::MIN_RSS_PAGES`].
    pub fn new(rss_pages: u64, seed: u64) -> Self {
        assert!(rss_pages >= MIN_RSS_PAGES, "redis needs at least {MIN_RSS_PAGES} pages");
        let table_pages = ((rss_pages as f64 * TABLE_FRACTION) as u64).max(8);
        Self {
            rss_pages,
            table_pages,
            key_skew: Zipf::new(KEY_SPACE, 1.0),
            rng: SmallRng::seed_from_u64(seed ^ 0x5245_4449),
            queued: Vec::new(),
        }
    }

    /// Deterministic hash spreading keys over pages (FNV-1a fold).
    fn hash_key(key: u64, salt: u64) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ salt;
        for byte in key.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h
    }
}

impl Workload for Redis {
    crate::impl_batched_fill_events!();

    fn name(&self) -> &'static str {
        "Redis"
    }

    fn rss_pages(&self) -> u64 {
        self.rss_pages
    }

    fn next_event(&mut self) -> WorkloadEvent {
        if let Some(a) = self.queued.pop() {
            return WorkloadEvent::Access(a);
        }
        let key = self.key_skew.sample(&mut self.rng) as u64;
        let is_set = self.rng.gen_bool(SET_PROB);
        // Value heap page, hash-placed above the table region.
        let value_span = self.rss_pages - self.table_pages;
        let value_page = self.table_pages + Self::hash_key(key, 1) % value_span;
        let value_kind = if is_set { AccessKind::Write } else { AccessKind::Read };
        self.queued.push(Access::new(
            VirtPage::new(value_page),
            (Self::hash_key(key, 2) % 64) as u8,
            value_kind,
        ));
        // Bucket probe first.
        let bucket = Self::hash_key(key, 0) % self.table_pages;
        WorkloadEvent::Access(Access::new(
            VirtPage::new(bucket),
            (Self::hash_key(key, 3) % 64) as u8,
            AccessKind::Read,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_dominated() {
        let mut r = Redis::new(1024, 1);
        let (mut reads, mut writes) = (0u32, 0u32);
        for _ in 0..20_000 {
            if let WorkloadEvent::Access(a) = r.next_event() {
                match a.kind {
                    AccessKind::Read => reads += 1,
                    AccessKind::Write => writes += 1,
                }
            }
        }
        let frac = reads as f64 / (reads + writes) as f64;
        assert!(frac > 0.9, "read fraction {frac}");
    }

    #[test]
    fn same_key_maps_to_same_pages() {
        assert_eq!(Redis::hash_key(42, 0), Redis::hash_key(42, 0));
        assert_ne!(Redis::hash_key(42, 0), Redis::hash_key(42, 1));
        assert_ne!(Redis::hash_key(42, 0), Redis::hash_key(43, 0));
    }

    #[test]
    fn hot_keys_concentrate_value_accesses() {
        let mut r = Redis::new(4096, 2);
        let table = r.table_pages;
        let mut counts = std::collections::HashMap::<u64, u32>::new();
        for _ in 0..100_000 {
            if let WorkloadEvent::Access(a) = r.next_event() {
                if a.vpage.index() >= table {
                    *counts.entry(a.vpage.index()).or_default() += 1;
                }
            }
        }
        let mut sorted: Vec<u32> = counts.values().copied().collect();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let total: u32 = sorted.iter().sum();
        let top_decile: u32 = sorted[..sorted.len() / 10].iter().sum();
        assert!(
            top_decile as f64 / total as f64 > 0.3,
            "zipf keys must concentrate value pages ({})",
            top_decile as f64 / total as f64
        );
    }
}
