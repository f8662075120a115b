//! A standalone Bloom filter — the ablation counterpart of the in-entry
//! hot bits.
//!
//! The paper notes that the hot-page filter "can be thought of as
//! equivalent to adding a bloom filter after the CM-Sketch unit", but
//! argues the hot-bit design "is more efficient as it reuses the hashing
//! results and introduces only a minimal number of additional hot bits".
//! This module provides the strawman so the claim can be measured
//! (DESIGN.md decision #1).

use neomem_types::json::{hex_from_u64s, Json};
use neomem_types::{DevicePage, Error, Result};

use crate::bitset::BitSet;
use crate::h3::H3Hash;

/// A classic Bloom filter over device pages with its own hash stage.
#[derive(Debug, Clone)]
pub struct BloomFilter {
    bits: BitSet,
    hashes: Vec<H3Hash>,
}

impl BloomFilter {
    /// Creates a filter with `2^log2_bits` bits and `k` independent H3
    /// hash functions.
    ///
    /// # Panics
    ///
    /// Panics if `log2_bits` is outside `3..=32` or `k` is zero.
    pub fn new(log2_bits: u32, k: usize, seed: u64) -> Self {
        assert!((3..=32).contains(&log2_bits), "log2_bits must be 3..=32");
        assert!(k > 0, "need at least one hash");
        let hashes = (0..k)
            .map(|i| H3Hash::new(32, log2_bits, seed.wrapping_add(i as u64 * 0xB10F)))
            .collect();
        Self { bits: BitSet::new(1 << log2_bits), hashes }
    }

    /// Tests whether `page` was (probably) inserted, then inserts it.
    /// Returns `true` when the page was probably already present.
    ///
    /// Unlike the hot-bit filter, this performs `k` *additional* hash
    /// evaluations per call — the cost the paper's design avoids.
    pub fn test_and_set(&mut self, page: DevicePage) -> bool {
        let mut all = true;
        for h in &self.hashes {
            let idx = h.hash(page.index()) as usize;
            if !self.bits.get(idx) {
                all = false;
            }
            self.bits.set(idx);
        }
        all
    }

    /// Clears the filter.
    pub fn clear(&mut self) {
        self.bits.clear_all();
    }

    /// Bits currently set (diagnostics / load factor).
    pub fn popcount(&self) -> usize {
        self.bits.count_ones()
    }

    /// Serialises the filter's bit array for a machine snapshot.
    pub fn snapshot(&self) -> Json {
        Json::obj([("bits", Json::Str(hex_from_u64s(self.bits.words())))])
    }

    /// Restores [`BloomFilter::snapshot`] state onto a filter built with
    /// the same size and hash parameters.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Snapshot`] on missing/malformed fields or a bit
    /// array sized for a different filter.
    pub fn restore(&mut self, snap: &Json) -> Result<()> {
        let bits = snap.req_u64s("bits")?;
        if !self.bits.load_words(&bits) {
            return Err(Error::snapshot("bloom filter bit array size mismatch"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_insert_is_new_second_is_duplicate() {
        let mut bloom = BloomFilter::new(12, 2, 7);
        assert!(!bloom.test_and_set(DevicePage::new(42)));
        assert!(bloom.test_and_set(DevicePage::new(42)));
    }

    #[test]
    fn distinct_pages_rarely_collide_when_sized_well() {
        let mut bloom = BloomFilter::new(16, 2, 9);
        let mut false_positives = 0;
        for p in 0..1000u64 {
            if bloom.test_and_set(DevicePage::new(p)) {
                false_positives += 1;
            }
        }
        assert!(false_positives < 5, "{false_positives} false positives at low load");
    }

    #[test]
    fn clear_resets_membership() {
        let mut bloom = BloomFilter::new(10, 2, 3);
        bloom.test_and_set(DevicePage::new(5));
        assert!(bloom.popcount() > 0);
        bloom.clear();
        assert_eq!(bloom.popcount(), 0);
        assert!(!bloom.test_and_set(DevicePage::new(5)));
    }

    #[test]
    #[should_panic(expected = "log2_bits")]
    fn rejects_oversized_filter() {
        let _ = BloomFilter::new(33, 2, 0);
    }
}
