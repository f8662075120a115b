//! The 64-bin counter histogram unit (paper Fig. 9).
//!
//! NeoProf summarises the first sketch lane's counters as a 64-bin
//! histogram so the host can estimate (a) the tight error bound and (b)
//! the page access-frequency distribution driving Algorithm 1's dynamic
//! threshold — without streaming out and sorting 512 K raw counters.

use core::fmt;

use neomem_types::json::{hex_from_u64s, Json};
use neomem_types::{Error, Result};

/// Number of histogram bins in the hardware unit.
pub const HISTOGRAM_BINS: usize = 64;

/// The bin-edge layout shared by all histograms.
///
/// Bin 0 holds exactly the zero counters; bins 1.. grow geometrically up
/// to the 16-bit counter maximum, giving width-1 bins for small counts
/// (where thresholds live) and coarser bins toward saturation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSpec {
    /// `edges[i]..edges[i+1]` is the half-open value range of bin `i`.
    edges: [u32; HISTOGRAM_BINS + 1],
}

impl HistogramSpec {
    /// The default log-scale layout over `0..=u16::MAX`.
    pub fn log2_default() -> Self {
        let mut edges = [0u32; HISTOGRAM_BINS + 1];
        edges[0] = 0;
        edges[1] = 1;
        // Geometric growth from 1 to 2^16 across the remaining bins,
        // with strict monotonicity enforced (low bins become width 1).
        let steps = (HISTOGRAM_BINS - 1) as f64;
        for (i, edge) in edges.iter_mut().enumerate().skip(2) {
            let geometric = 2f64.powf((i as f64 - 1.0) * 16.0 / steps);
            *edge = geometric.round() as u32;
        }
        for i in 2..=HISTOGRAM_BINS {
            if edges[i] <= edges[i - 1] {
                edges[i] = edges[i - 1] + 1;
            }
        }
        edges[HISTOGRAM_BINS] = edges[HISTOGRAM_BINS].max(u16::MAX as u32 + 1);
        Self { edges }
    }

    /// Returns the bin index holding `value`.
    pub fn bin_of(&self, value: u16) -> usize {
        let v = value as u32;
        // partition_point: first edge > v, minus one.
        self.edges.partition_point(|&e| e <= v) - 1
    }

    /// Lower edge (smallest value) of bin `bin`.
    ///
    /// # Panics
    ///
    /// Panics if `bin >= HISTOGRAM_BINS`.
    pub fn lower_edge(&self, bin: usize) -> u32 {
        assert!(bin < HISTOGRAM_BINS);
        self.edges[bin]
    }

    /// Highest representable value of bin `bin` (inclusive upper edge).
    ///
    /// # Panics
    ///
    /// Panics if `bin >= HISTOGRAM_BINS`.
    pub fn upper_value(&self, bin: usize) -> u32 {
        assert!(bin < HISTOGRAM_BINS);
        self.edges[bin + 1] - 1
    }
}

impl Default for HistogramSpec {
    fn default() -> Self {
        Self::log2_default()
    }
}

/// Per-value bin lookup for the default layout, built once per process:
/// the `SetHistEn` sweep bins hundreds of thousands of counters per
/// tick, and a table load replaces a binary search over the edges.
pub(crate) fn default_bin_lut() -> &'static [u8; 1 << 16] {
    static LUT: std::sync::OnceLock<Box<[u8; 1 << 16]>> = std::sync::OnceLock::new();
    LUT.get_or_init(|| {
        let spec = HistogramSpec::log2_default();
        let mut lut = Box::new([0u8; 1 << 16]);
        for (v, bin) in lut.iter_mut().enumerate() {
            *bin = spec.bin_of(v as u16) as u8;
        }
        lut
    })
}

/// A populated 64-bin histogram of sketch-counter values.
///
/// ```
/// use neomem_sketch::CounterHistogram;
///
/// let mut h = CounterHistogram::new();
/// for c in [0u16, 0, 0, 1, 1, 5, 100] { h.add(c); }
/// assert_eq!(h.total(), 7);
/// // ~3/7 of counters are zero, so the 0.3-quantile is still 0.
/// assert_eq!(h.quantile(0.3), 0);
/// // The top counter dominates high quantiles.
/// assert!(h.quantile(0.99) >= 100);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterHistogram {
    spec: HistogramSpec,
    bins: [u64; HISTOGRAM_BINS],
    total: u64,
}

impl CounterHistogram {
    /// Creates an empty histogram with the default log-scale layout.
    pub fn new() -> Self {
        Self::with_spec(HistogramSpec::log2_default())
    }

    /// Creates an empty histogram with a custom bin layout.
    pub fn with_spec(spec: HistogramSpec) -> Self {
        Self { spec, bins: [0; HISTOGRAM_BINS], total: 0 }
    }

    /// Builds a histogram from an iterator of counter values — the
    /// hardware's `SetHistEn` sweep over lane 0.
    pub fn from_counters<I: IntoIterator<Item = u16>>(counters: I) -> Self {
        let mut h = Self::new();
        for c in counters {
            h.add(c);
        }
        h
    }

    /// Reconstructs a histogram from raw bin counts, as read back over
    /// MMIO (`GetHist` × 64). Assumes the default bin layout — both ends
    /// of the wire are NeoProf components sharing [`HistogramSpec`].
    pub fn from_bins(bins: [u64; HISTOGRAM_BINS]) -> Self {
        let total = bins.iter().sum();
        Self { spec: HistogramSpec::log2_default(), bins, total }
    }

    /// Adds one counter observation.
    pub fn add(&mut self, value: u16) {
        self.bins[self.spec.bin_of(value)] += 1;
        self.total += 1;
    }

    /// Total number of counters recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Raw bin contents (the `GetHist` MMIO read-out).
    pub fn bins(&self) -> &[u64; HISTOGRAM_BINS] {
        &self.bins
    }

    /// Returns the bin layout.
    pub fn spec(&self) -> &HistogramSpec {
        &self.spec
    }

    /// The histogram's quantile function `QF`: returns a value `y` such
    /// that (approximately) a fraction `frac` of the counters are `<= y`.
    ///
    /// Used by Algorithm 1 as `θ = QF(1 − p)`: pages whose estimated
    /// frequency exceeds the returned value form roughly the top-`p`
    /// fraction.
    ///
    /// `frac` is clamped to `[0, 1]`. An empty histogram returns 0.
    pub fn quantile(&self, frac: f64) -> u16 {
        if self.total == 0 {
            return 0;
        }
        let frac = frac.clamp(0.0, 1.0);
        let target = ((frac * self.total as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (bin, &count) in self.bins.iter().enumerate() {
            cum += count;
            if cum >= target {
                return self.spec.upper_value(bin).min(u16::MAX as u32) as u16;
            }
        }
        u16::MAX
    }

    /// Fraction of non-zero counters — a cheap sketch-occupancy signal.
    pub fn occupancy(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        1.0 - self.bins[0] as f64 / self.total as f64
    }

    /// Serialises the bin contents for a machine snapshot. The total is
    /// not stored — it is always the sum of the bins.
    pub fn snapshot(&self) -> Json {
        Json::obj([("bins", Json::Str(hex_from_u64s(&self.bins)))])
    }

    /// Restores [`CounterHistogram::snapshot`] state. The histogram keeps
    /// its current bin layout (snapshots are restored onto a histogram
    /// built the same way).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Snapshot`] on missing/malformed fields or a bin
    /// count other than [`HISTOGRAM_BINS`].
    pub fn restore(&mut self, snap: &Json) -> Result<()> {
        let bins = snap.req_u64s("bins")?;
        if bins.len() != HISTOGRAM_BINS {
            return Err(Error::snapshot(format!(
                "histogram has {} bins, expected {HISTOGRAM_BINS}",
                bins.len()
            )));
        }
        self.bins.copy_from_slice(&bins);
        self.total = self.bins.iter().sum();
        Ok(())
    }
}

impl Default for CounterHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Display for CounterHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "hist[total={}, occ={:.3}]", self.total, self.occupancy())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_edges_strictly_increasing() {
        let spec = HistogramSpec::log2_default();
        for i in 0..HISTOGRAM_BINS {
            assert!(
                spec.edges[i] < spec.edges[i + 1],
                "edge {i}: {} !< {}",
                spec.edges[i],
                spec.edges[i + 1]
            );
        }
        assert_eq!(spec.edges[0], 0);
        assert_eq!(spec.edges[1], 1);
        assert!(spec.edges[HISTOGRAM_BINS] > u16::MAX as u32);
    }

    #[test]
    fn bin_of_and_edges_consistent() {
        let spec = HistogramSpec::log2_default();
        for v in [0u16, 1, 2, 3, 10, 100, 1000, 10_000, u16::MAX] {
            let b = spec.bin_of(v);
            assert!(spec.lower_edge(b) <= v as u32);
            assert!(v as u32 <= spec.upper_value(b), "value {v} above bin {b} upper");
        }
    }

    #[test]
    fn zero_counters_land_in_bin_zero() {
        let spec = HistogramSpec::log2_default();
        assert_eq!(spec.bin_of(0), 0);
        assert_eq!(spec.bin_of(1), 1);
    }

    #[test]
    fn quantile_monotone() {
        let mut h = CounterHistogram::new();
        for i in 0..1000u16 {
            h.add(i % 50);
        }
        let mut prev = 0u16;
        for step in 0..=10 {
            let q = h.quantile(step as f64 / 10.0);
            assert!(q >= prev, "quantile must be monotone");
            prev = q;
        }
    }

    #[test]
    fn quantile_empty_is_zero() {
        let h = CounterHistogram::new();
        assert_eq!(h.quantile(0.5), 0);
    }

    #[test]
    fn quantile_clamps_fraction() {
        let mut h = CounterHistogram::new();
        h.add(7);
        assert_eq!(h.quantile(-3.0), h.quantile(0.0));
        assert_eq!(h.quantile(9.0), h.quantile(1.0));
    }

    #[test]
    fn occupancy_is_the_nonzero_share() {
        let mut h = CounterHistogram::new();
        for c in [0u16, 0, 4, 4] {
            h.add(c);
        }
        assert!((h.occupancy() - 0.5).abs() < 1e-12);
        assert_eq!(CounterHistogram::new().occupancy(), 0.0);
    }

    #[test]
    fn from_counters_matches_manual_adds() {
        let values = [3u16, 0, 9, 9, 100];
        let a = CounterHistogram::from_counters(values);
        let mut b = CounterHistogram::new();
        for v in values {
            b.add(v);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn display_nonempty() {
        assert!(!format!("{}", CounterHistogram::new()).is_empty());
    }
}
