//! The Count-Min sketch with hot/valid bits (paper Fig. 7).

use neomem_types::json::{hex_from_u64s, hex_from_u16s, Json};
use neomem_types::{DevicePage, Error, Result};

use crate::bitset::BitSet;
use crate::h3::H3Hash;

/// Maximum supported sketch depth (number of lanes `D`).
///
/// The paper's prototype uses `D = 2` and reports no benefit beyond it
/// (§VI-D "Sensitivity to NeoProf Parameters"); 8 leaves ample headroom
/// for ablations while letting us use fixed-size index arrays.
pub const MAX_DEPTH: usize = 8;

/// Construction parameters for [`CmSketch`] (paper Table IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SketchParams {
    /// Sketch width `W` — counters per lane. Must be a power of two
    /// (the hardware indexes lanes with an `m`-bit H3 hash).
    pub width: usize,
    /// Sketch depth `D` — number of lanes, `1..=MAX_DEPTH`.
    pub depth: usize,
    /// Seed for the H3 hash seeds (deterministic reproduction).
    pub seed: u64,
    /// Capacity of the hot-page output buffer (Table IV: 16 K entries).
    pub hot_buffer_entries: usize,
}

impl SketchParams {
    /// The paper's default prototype configuration (Table IV):
    /// `W = 512K`, `D = 2`, 16 K hot-buffer entries.
    pub fn paper_default() -> Self {
        Self { width: 512 * 1024, depth: 2, seed: 0x5EED, hot_buffer_entries: 16 * 1024 }
    }

    /// A small configuration for tests and quick simulations.
    pub fn small() -> Self {
        Self { width: 1 << 12, depth: 2, seed: 0x5EED, hot_buffer_entries: 1024 }
    }

    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when the width is not a power of
    /// two, the depth is out of `1..=MAX_DEPTH`, or the hot buffer is empty.
    pub fn validate(&self) -> Result<()> {
        if !self.width.is_power_of_two() || self.width < 2 {
            return Err(Error::invalid_config("sketch width must be a power of two >= 2"));
        }
        if self.depth == 0 || self.depth > MAX_DEPTH {
            return Err(Error::invalid_config(format!("sketch depth must be 1..={MAX_DEPTH}")));
        }
        if self.hot_buffer_entries == 0 {
            return Err(Error::invalid_config("hot buffer must have at least one entry"));
        }
        Ok(())
    }
}

/// Flat index of (lane, slot) pairs selected by the hash stage for one page.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LaneIndices {
    pub(crate) idx: [usize; MAX_DEPTH],
    pub(crate) depth: usize,
}

impl LaneIndices {
    #[inline]
    pub(crate) fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.idx[..self.depth].iter().copied()
    }
}

/// A Count-Min sketch whose entries carry `(counter, hot bit, valid bit)`.
///
/// Counters are 16-bit saturating, matching Table IV. The *valid bit*
/// implements the hardware's rapid clear: `clear()` only zeroes the valid
/// bitset, and a counter is treated as zero until its entry is re-validated
/// by the next touch. The *hot bit* backs the hot-page filter; see
/// [`crate::HotPageDetector`].
///
/// ```
/// use neomem_sketch::{CmSketch, SketchParams};
/// use neomem_types::DevicePage;
///
/// let mut s = CmSketch::new(SketchParams::small())?;
/// let p = DevicePage::new(99);
/// assert_eq!(s.estimate(p), 0);
/// for _ in 0..4 { s.update(p); }
/// assert!(s.estimate(p) >= 4); // never underestimates
/// s.clear();
/// assert_eq!(s.estimate(p), 0);
/// # Ok::<(), neomem_types::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct CmSketch {
    params: SketchParams,
    hashes: Vec<H3Hash>,
    /// `depth * width` counters, lane-major.
    counters: Vec<u16>,
    hot: BitSet,
    valid: BitSet,
    /// Total updates since the last clear (the `N` of Eq. 3).
    stream_len: u64,
}

impl CmSketch {
    /// Creates a sketch.
    ///
    /// # Errors
    ///
    /// Propagates [`SketchParams::validate`] failures.
    pub fn new(params: SketchParams) -> Result<Self> {
        params.validate()?;
        let index_bits = params.width.trailing_zeros();
        // Table IV: 32 address bits cover 16 TB of device memory at 4 KiB.
        let hashes = (0..params.depth)
            .map(|lane| H3Hash::new(32, index_bits, params.seed.wrapping_add(lane as u64 * 0x9E37)))
            .collect();
        let total = params.depth * params.width;
        Ok(Self {
            params,
            hashes,
            counters: vec![0; total],
            hot: BitSet::new(total),
            valid: BitSet::new(total),
            stream_len: 0,
        })
    }

    /// Returns the construction parameters.
    pub fn params(&self) -> &SketchParams {
        &self.params
    }

    /// Total updates observed since the last [`clear`](Self::clear)
    /// (the `N` of the error bound `â(P) ≤ a(P) + εN`).
    pub fn stream_len(&self) -> u64 {
        self.stream_len
    }

    #[inline]
    pub(crate) fn lane_indices(&self, page: DevicePage) -> LaneIndices {
        let mut idx = [0usize; MAX_DEPTH];
        for (lane, h) in self.hashes.iter().enumerate() {
            idx[lane] = lane * self.params.width + h.hash(page.index()) as usize;
        }
        LaneIndices { idx, depth: self.params.depth }
    }

    #[inline]
    fn counter_at(&self, flat: usize) -> u16 {
        if self.valid.get(flat) {
            self.counters[flat]
        } else {
            0
        }
    }

    /// Records one access to `page` and returns the updated frequency
    /// estimate `â(P) = min_i A[i][h_i(P)]` (Eqs. 1–2).
    pub fn update(&mut self, page: DevicePage) -> u16 {
        let indices = self.lane_indices(page);
        self.stream_len += 1;
        let mut min = u16::MAX;
        for flat in indices.iter() {
            let cur = if self.valid.test_and_set(flat) { self.counters[flat] } else { 0 };
            let next = cur.saturating_add(1);
            self.counters[flat] = next;
            min = min.min(next);
        }
        min
    }

    /// Records one access per page of `pages`, filling `estimates` with
    /// the per-page updated estimate (same values [`update`](Self::update)
    /// would have returned, in order).
    ///
    /// The updates run *lane-major*: all of lane 0's counter bumps and
    /// valid-bit writes over the contiguous lane words, then lane 1's,
    /// and so on. Lanes are disjoint counter ranges, so per-lane program
    /// order is all that counter evolution depends on — the batched
    /// schedule produces bit-identical counters, valid bits and
    /// estimates to per-page updates, while touching one lane's memory
    /// at a time.
    pub fn update_batch(&mut self, pages: &[DevicePage], estimates: &mut Vec<u16>) {
        estimates.clear();
        estimates.resize(pages.len(), u16::MAX);
        self.stream_len += pages.len() as u64;
        let width = self.params.width;
        let Self { hashes, counters, valid, .. } = self;
        for (lane, h) in hashes.iter().enumerate() {
            let base = lane * width;
            for (est, page) in estimates.iter_mut().zip(pages) {
                let flat = base + h.hash(page.index()) as usize;
                let cur = if valid.test_and_set(flat) { counters[flat] } else { 0 };
                let next = cur.saturating_add(1);
                counters[flat] = next;
                *est = (*est).min(next);
            }
        }
    }

    /// Returns the current frequency estimate without updating (Eq. 2).
    pub fn estimate(&self, page: DevicePage) -> u16 {
        self.lane_indices(page).iter().map(|flat| self.counter_at(flat)).min().unwrap_or(0)
    }

    /// Tests whether *all* hot bits of the page's entries are set, then
    /// sets them. Returns `true` if they were all already set — i.e. the
    /// page was (probabilistically) already reported hot this period.
    ///
    /// This is the hot-page filter primitive (Fig. 7 ❺): reusing the hash
    /// results instead of a separate Bloom filter.
    pub fn test_and_set_hot(&mut self, page: DevicePage) -> bool {
        let indices = self.lane_indices(page);
        let mut all = true;
        for flat in indices.iter() {
            // Setting an already-set bit is a no-op, so unconditionally
            // folding test-and-set over the lanes leaves exactly the
            // state the old test-then-set-all sequence produced.
            all &= self.hot.test_and_set(flat);
        }
        all
    }

    /// Clears all counters, hot bits and the stream length.
    ///
    /// The clear is lazy, as in hardware, and O(W·D/64): only the
    /// valid/hot bitsets are zeroed, and a counter whose valid bit is
    /// clear reads as zero.
    pub fn clear(&mut self) {
        self.valid.clear_all();
        self.hot.clear_all();
        self.stream_len = 0;
    }

    /// Iterates the effective counter values of one lane (invalid entries
    /// read as zero). Lane 0 feeds the histogram unit (Fig. 9).
    ///
    /// # Panics
    ///
    /// Panics if `lane >= depth`.
    pub fn lane_counters(&self, lane: usize) -> impl Iterator<Item = u16> + '_ {
        assert!(lane < self.params.depth, "lane out of range");
        let base = lane * self.params.width;
        (0..self.params.width).map(move |i| self.counter_at(base + i))
    }

    /// Sweeps `lane`'s counters into the 64-bin histogram — the
    /// hardware `SetHistEn` unit. Produces exactly
    /// `CounterHistogram::from_counters(self.lane_counters(lane))`,
    /// but walks the validity bitmap a word at a time: invalid slots
    /// (reading as zero, the common case right after a clear)
    /// cost one popcount per 64 instead of a lookup each, and live
    /// counters bin through a value table instead of a binary search.
    pub fn lane_histogram(&self, lane: usize) -> crate::CounterHistogram {
        assert!(lane < self.params.depth, "lane out of range");
        let base = lane * self.params.width;
        let end = base + self.params.width;
        let lut = crate::histogram::default_bin_lut();
        let words = self.valid.words();
        let mut bins = [0u64; crate::HISTOGRAM_BINS];
        for (wi, &word) in words.iter().enumerate().take(end.div_ceil(64)).skip(base / 64) {
            let lo = (wi * 64).max(base);
            let hi = ((wi + 1) * 64).min(end);
            let mut w = word;
            if hi - lo < 64 {
                // Partial word at a lane edge (lanes narrower than a
                // word): mask to the covered bit range.
                let mask = if hi - wi * 64 == 64 { u64::MAX } else { (1u64 << (hi - wi * 64)) - 1 };
                w = (w & mask) >> (lo - wi * 64);
            }
            // After the shift, bit `b` is the counter at `lo + b` in
            // the full and partial cases alike (`lo == wi * 64` when
            // the word is fully covered).
            bins[0] += (hi - lo) as u64 - u64::from(w.count_ones());
            while w != 0 {
                let flat = lo + w.trailing_zeros() as usize;
                bins[usize::from(lut[usize::from(self.counters[flat])])] += 1;
                w &= w - 1;
            }
        }
        crate::CounterHistogram::from_bins(bins)
    }

    /// Serialises the mutable sketch state (counters, hot/valid bits,
    /// stream length) for a machine snapshot. Construction parameters
    /// and the derived hash stage are *not* included: a snapshot is
    /// restored onto a sketch freshly built with the same params.
    pub fn snapshot(&self) -> Json {
        Json::obj([
            ("counters", Json::Str(hex_from_u16s(&self.counters))),
            ("hot", Json::Str(hex_from_u64s(self.hot.words()))),
            ("valid", Json::Str(hex_from_u64s(self.valid.words()))),
            ("stream_len", Json::U64(self.stream_len)),
        ])
    }

    /// Restores the state captured by [`CmSketch::snapshot`] onto this
    /// sketch, which must have been built with the same parameters.
    /// The `eager_clear` flag that snapshot versions 1–2 carry is
    /// ignored: both clear modes left the same observable state.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Snapshot`] when a field is missing, malformed,
    /// or sized for a different sketch geometry.
    pub fn restore(&mut self, snap: &Json) -> Result<()> {
        let counters = snap.req_u16s("counters")?;
        if counters.len() != self.counters.len() {
            return Err(Error::snapshot(format!(
                "sketch counter array has {} entries, expected {}",
                counters.len(),
                self.counters.len()
            )));
        }
        let hot = snap.req_u64s("hot")?;
        let valid = snap.req_u64s("valid")?;
        let stream_len = snap.req_u64("stream_len")?;
        if !self.hot.load_words(&hot) || !self.valid.load_words(&valid) {
            return Err(Error::snapshot("sketch bitset word count mismatch"));
        }
        self.counters = counters;
        self.stream_len = stream_len;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(i: u64) -> DevicePage {
        DevicePage::new(i)
    }

    #[test]
    fn paper_default_params_match_table_iv() {
        let p = SketchParams::paper_default();
        assert_eq!(p.width, 512 * 1024);
        assert_eq!(p.depth, 2);
        assert_eq!(p.hot_buffer_entries, 16 * 1024);
        p.validate().expect("paper defaults are valid");
    }

    #[test]
    fn rejects_bad_params() {
        let mut p = SketchParams::small();
        p.width = 1000; // not a power of two
        assert!(p.validate().is_err());
        p = SketchParams::small();
        p.depth = 0;
        assert!(p.validate().is_err());
        p = SketchParams::small();
        p.depth = MAX_DEPTH + 1;
        assert!(p.validate().is_err());
        p = SketchParams::small();
        p.hot_buffer_entries = 0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn never_underestimates_single_page() {
        let mut s = CmSketch::new(SketchParams::small()).unwrap();
        for n in 1..=100u16 {
            let est = s.update(page(7));
            assert!(est >= n, "estimate {est} below true count {n}");
        }
    }

    #[test]
    fn distinct_pages_mostly_independent() {
        let mut s = CmSketch::new(SketchParams::small()).unwrap();
        for _ in 0..10 {
            s.update(page(1));
        }
        // With W=4096 and 2 pages, collision probability is tiny.
        assert!(s.estimate(page(2)) <= 10);
        assert!(s.estimate(page(1)) >= 10);
    }

    #[test]
    fn clear_resets_estimates_and_stream_len() {
        let mut s = CmSketch::new(SketchParams::small()).unwrap();
        for i in 0..100 {
            s.update(page(i));
        }
        assert_eq!(s.stream_len(), 100);
        s.clear();
        assert_eq!(s.stream_len(), 0);
        for i in 0..100 {
            assert_eq!(s.estimate(page(i)), 0, "page {i} must read 0 after clear");
        }
    }

    #[test]
    fn cleared_sketch_behaves_like_a_fresh_one() {
        let params = SketchParams::small();
        let mut cleared = CmSketch::new(params).unwrap();
        for round in 0..3 {
            let mut fresh = CmSketch::new(params).unwrap();
            for i in 0..500u64 {
                let p = page(i * 31 % 97 + round);
                assert_eq!(cleared.update(p), fresh.update(p));
            }
            for i in 0..200u64 {
                assert_eq!(cleared.estimate(page(i)), fresh.estimate(page(i)));
            }
            assert_eq!(cleared.lane_histogram(0), fresh.lane_histogram(0));
            cleared.clear();
        }
    }

    #[test]
    fn counters_saturate_at_u16_max() {
        let mut s = CmSketch::new(SketchParams { width: 2, depth: 1, seed: 1, hot_buffer_entries: 4 }).unwrap();
        for _ in 0..70_000u32 {
            s.update(page(5));
        }
        assert_eq!(s.estimate(page(5)), u16::MAX);
    }

    #[test]
    fn test_and_set_hot_reports_duplicates() {
        let mut s = CmSketch::new(SketchParams::small()).unwrap();
        assert!(!s.test_and_set_hot(page(3)), "first report is new");
        assert!(s.test_and_set_hot(page(3)), "second report is duplicate");
        s.clear();
        assert!(!s.test_and_set_hot(page(3)), "clear resets hot bits");
    }

    #[test]
    fn lane_counters_reflect_updates() {
        let mut s = CmSketch::new(SketchParams::small()).unwrap();
        for _ in 0..5 {
            s.update(page(11));
        }
        let total: u64 = s.lane_counters(0).map(u64::from).sum();
        assert_eq!(total, 5, "lane 0 must hold exactly the 5 increments");
    }

    #[test]
    fn lane_histogram_matches_naive_binning() {
        // Wide sketch (whole words per lane) and a narrow one (lanes
        // smaller than a 64-bit word, exercising the partial-word
        // masking) must both agree with the element-at-a-time path.
        for params in [
            SketchParams::small(),
            SketchParams { width: 32, depth: 3, seed: 9, hot_buffer_entries: 4 },
        ] {
            let mut s = CmSketch::new(params).unwrap();
            for i in 0..10_000u64 {
                s.update(page(i % 311));
            }
            for lane in 0..params.depth {
                let naive = crate::CounterHistogram::from_counters(s.lane_counters(lane));
                assert_eq!(s.lane_histogram(lane), naive, "lane {lane} of {params:?}");
            }
        }
    }

    #[test]
    fn batched_updates_match_serial() {
        let params = SketchParams::small();
        let mut serial = CmSketch::new(params).unwrap();
        let mut batched = CmSketch::new(params).unwrap();
        let pages: Vec<DevicePage> = (0..1000u64).map(|i| page(i * 37 % 211)).collect();
        let serial_ests: Vec<u16> = pages.iter().map(|&p| serial.update(p)).collect();
        let mut ests = Vec::new();
        let mut all = Vec::new();
        // Uneven chunk sizes exercise batch tails.
        for chunk in pages.chunks(17) {
            batched.update_batch(chunk, &mut ests);
            all.extend_from_slice(&ests);
        }
        assert_eq!(all, serial_ests, "per-page estimates must match");
        assert_eq!(batched.stream_len(), serial.stream_len());
        for i in 0..300u64 {
            assert_eq!(batched.estimate(page(i)), serial.estimate(page(i)), "page {i}");
        }
    }

    #[test]
    fn stream_len_counts_every_update() {
        let mut s = CmSketch::new(SketchParams::small()).unwrap();
        for i in 0..37 {
            s.update(page(i % 5));
        }
        assert_eq!(s.stream_len(), 37);
    }
}
