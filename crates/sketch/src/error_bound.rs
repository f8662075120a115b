//! Tight error-bound estimation for the Count-Min sketch.
//!
//! Equation 3's classical bound `â(P) ≤ a(P) + εN` is "overly loose" in
//! practice (paper §IV-B citing Chen et al.). The tight bound `e` is the
//! `(W · δ^{1/D})`-th largest counter of any sketch row: with probability
//! `1 − δ`, `â(P) ≤ a(P) + e`. For the prototype's `D = 2`, `δ = 0.25`,
//! this is simply the row median.
//!
//! Two implementations are provided:
//!
//! * [`exact`] — sort the row and pick the rank (what a naive host driver
//!   would do after streaming out the whole row);
//! * [`from_histogram`] — the hardware path: read the 64-bin histogram
//!   and locate the rank by accumulating bins from the top. Accurate to
//!   one bin; property-tested against [`exact`].

use crate::histogram::CounterHistogram;

/// Computes the descending rank `⌈W · δ^{1/D}⌉` used by the tight bound.
///
/// # Panics
///
/// Panics if `delta` is not in `(0, 1)` or `depth == 0`.
pub fn rank_for(width: usize, delta: f64, depth: usize) -> usize {
    assert!(delta > 0.0 && delta < 1.0, "delta must be in (0,1)");
    assert!(depth > 0, "depth must be positive");
    let frac = delta.powf(1.0 / depth as f64);
    ((width as f64 * frac).ceil() as usize).clamp(1, width)
}

/// Exact tight error bound: the `rank_for`-th largest counter of the row.
///
/// Returns 0 for an empty row.
pub fn exact<I: IntoIterator<Item = u16>>(row: I, delta: f64, depth: usize) -> u16 {
    let mut counters: Vec<u16> = row.into_iter().collect();
    if counters.is_empty() {
        return 0;
    }
    let rank = rank_for(counters.len(), delta, depth);
    // Select the rank-th largest (1-based): descending sort, index rank-1.
    counters.sort_unstable_by(|a, b| b.cmp(a));
    counters[rank - 1]
}

/// Histogram-approximated tight error bound (the hardware path).
///
/// Accumulates bins from the highest value downward until the cumulative
/// count reaches the rank; returns that bin's lower edge (a conservative
/// *under*-approximation by at most one bin width, so saturation is never
/// reported spuriously).
///
/// Returns 0 for an empty histogram.
pub fn from_histogram(hist: &CounterHistogram, delta: f64, depth: usize) -> u16 {
    let total = hist.total();
    if total == 0 {
        return 0;
    }
    let rank = rank_for(total as usize, delta, depth) as u64;
    let mut cum = 0u64;
    for bin in (0..hist.bins().len()).rev() {
        cum += hist.bins()[bin];
        if cum >= rank {
            return hist.spec().lower_edge(bin).min(u16::MAX as u32) as u16;
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_median_for_paper_params() {
        // D=2, δ=0.25 → δ^(1/2)=0.5 → the row median.
        assert_eq!(rank_for(512 * 1024, 0.25, 2), 256 * 1024);
        assert_eq!(rank_for(100, 0.25, 2), 50);
    }

    #[test]
    fn exact_on_known_row() {
        // Row: [9, 7, 5, 3, 1]; δ=0.25, D=2 → rank ⌈5·0.5⌉=3 → 3rd largest = 5.
        assert_eq!(exact([1u16, 3, 5, 7, 9], 0.25, 2), 5);
    }

    #[test]
    fn exact_empty_row_is_zero() {
        assert_eq!(exact(Vec::<u16>::new(), 0.25, 2), 0);
    }

    #[test]
    fn exact_all_zero_row() {
        assert_eq!(exact(vec![0u16; 128], 0.25, 2), 0);
    }

    #[test]
    fn histogram_matches_exact_within_bin() {
        let row: Vec<u16> = (0..4096u32).map(|i| ((i * i) % 997) as u16).collect();
        let hist = CounterHistogram::from_counters(row.iter().copied());
        let e_exact = exact(row, 0.25, 2);
        let e_hist = from_histogram(&hist, 0.25, 2);
        // Histogram path returns the lower edge of the bin holding the
        // exact answer: never above, within ~19% below (geometric bins).
        assert!(e_hist <= e_exact, "hist {e_hist} must not exceed exact {e_exact}");
        let bin_exact = hist.spec().bin_of(e_exact);
        let bin_hist = hist.spec().bin_of(e_hist);
        assert!(bin_exact.saturating_sub(bin_hist) <= 1, "off by more than one bin");
    }

    #[test]
    fn lightly_loaded_sketch_has_zero_bound() {
        // 10 non-zero counters in a row of 1024: the median is 0.
        let mut row = vec![0u16; 1024];
        for (i, slot) in row.iter_mut().enumerate().take(10) {
            *slot = (i + 1) as u16;
        }
        assert_eq!(exact(row.iter().copied(), 0.25, 2), 0);
        let hist = CounterHistogram::from_counters(row);
        assert_eq!(from_histogram(&hist, 0.25, 2), 0);
    }

    #[test]
    #[should_panic(expected = "delta")]
    fn rank_rejects_bad_delta() {
        let _ = rank_for(10, 1.5, 2);
    }
}
