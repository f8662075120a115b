//! Property-based tests for the sketch algorithms.
//!
//! These pin down the mathematical invariants the paper relies on:
//! CM-sketch one-sided error, hot-filter completeness, a cleared sketch
//! matching a fresh one, histogram/quantile consistency, and the
//! agreement of the histogram error bound with the exact sorted
//! computation.

use std::collections::HashMap;

use neomem_sketch::{error_bound, CmSketch, CounterHistogram, HotPageDetector, SketchParams};
use neomem_types::DevicePage;
use proptest::prelude::*;

fn small_params() -> SketchParams {
    SketchParams { width: 1 << 10, depth: 2, seed: 0xC0FFEE, hot_buffer_entries: 4096 }
}

proptest! {
    // Fixed case count and no failure-persistence files: runs are
    // deterministic and CI-reproducible.
    #![proptest_config(ProptestConfig {
        cases: 64,
        failure_persistence: None,
        ..ProptestConfig::default()
    })]
    /// CM sketch never underestimates: `â(P) >= a(P)` (Eq. 3 lower side).
    #[test]
    fn sketch_never_underestimates(stream in prop::collection::vec(0u64..256, 1..2000)) {
        let mut sketch = CmSketch::new(small_params()).unwrap();
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for &p in &stream {
            sketch.update(DevicePage::new(p));
            *truth.entry(p).or_default() += 1;
        }
        for (&p, &count) in &truth {
            let est = sketch.estimate(DevicePage::new(p)) as u64;
            prop_assert!(est >= count.min(u16::MAX as u64),
                "page {} estimated {} < true {}", p, est, count);
        }
    }

    /// The classical bound holds: `â(P) <= a(P) + εN` (Eq. 3 upper side),
    /// which for ε = 2/W follows deterministically per-lane... but only in
    /// expectation per lane; the min over D lanes satisfies it with
    /// probability 1-δ. We check the *lane-sum conservation* instead, which
    /// is exact: each lane's counters sum to N.
    #[test]
    fn lane_sums_equal_stream_length(stream in prop::collection::vec(0u64..100_000, 0..3000)) {
        let mut sketch = CmSketch::new(small_params()).unwrap();
        for &p in &stream {
            sketch.update(DevicePage::new(p));
        }
        for lane in 0..2 {
            let sum: u64 = sketch.lane_counters(lane).map(u64::from).sum();
            prop_assert_eq!(sum, stream.len() as u64, "lane {} must conserve mass", lane);
        }
    }

    /// The lazy (valid-bit) clear leaves a sketch that behaves exactly
    /// like a freshly built one: same updates, estimates, hot-bit
    /// reports, lane histograms and stream length, across interleaved
    /// update/estimate/clear sequences.
    #[test]
    fn cleared_sketch_matches_a_fresh_one(
        rounds in prop::collection::vec(prop::collection::vec(0u64..512, 0..300), 1..5),
    ) {
        let mut cleared = CmSketch::new(small_params()).unwrap();
        for round in &rounds {
            let mut fresh = CmSketch::new(small_params()).unwrap();
            for &p in round {
                let page = DevicePage::new(p);
                prop_assert_eq!(cleared.update(page), fresh.update(page));
            }
            for probe in 0..64u64 {
                let page = DevicePage::new(probe);
                prop_assert_eq!(cleared.estimate(page), fresh.estimate(page));
                prop_assert_eq!(cleared.test_and_set_hot(page), fresh.test_and_set_hot(page));
            }
            for lane in 0..2 {
                prop_assert_eq!(cleared.lane_histogram(lane), fresh.lane_histogram(lane));
            }
            prop_assert_eq!(cleared.stream_len(), fresh.stream_len());
            cleared.clear();
        }
    }

    /// Hot-page detection is *complete*: every page whose true count
    /// exceeds θ is reported (CM sketch cannot underestimate, and the
    /// filter only suppresses duplicates).
    #[test]
    fn detector_reports_every_truly_hot_page(
        stream in prop::collection::vec(0u64..64, 1..4000),
        threshold in 1u16..20,
    ) {
        let mut det = HotPageDetector::new(small_params()).unwrap();
        det.set_threshold(threshold);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for &p in &stream {
            det.observe(DevicePage::new(p));
            *truth.entry(p).or_default() += 1;
        }
        let reported: std::collections::HashSet<u64> =
            det.drain_hot_pages().map(|p| p.index()).collect();
        for (&p, &count) in &truth {
            if count > threshold as u64 {
                prop_assert!(reported.contains(&p),
                    "page {} with count {} > θ={} missing from reports", p, count, threshold);
            }
        }
    }

    /// Each page is reported at most once per detection period.
    #[test]
    fn detector_never_duplicates(stream in prop::collection::vec(0u64..32, 1..4000)) {
        let mut det = HotPageDetector::new(small_params()).unwrap();
        det.set_threshold(2);
        for &p in &stream {
            det.observe(DevicePage::new(p));
        }
        let reported: Vec<u64> = det.drain_hot_pages().map(|p| p.index()).collect();
        let mut dedup = reported.clone();
        dedup.sort_unstable();
        dedup.dedup();
        prop_assert_eq!(reported.len(), dedup.len(), "duplicate hot-page reports");
    }

    /// Histogram total equals the number of added counters, and the
    /// quantile function is monotone in the fraction.
    #[test]
    fn histogram_total_and_monotonicity(values in prop::collection::vec(0u16..u16::MAX, 0..2000)) {
        let hist = CounterHistogram::from_counters(values.iter().copied());
        prop_assert_eq!(hist.total(), values.len() as u64);
        let mut prev = 0u16;
        for i in 0..=20 {
            let q = hist.quantile(i as f64 / 20.0);
            prop_assert!(q >= prev);
            prev = q;
        }
    }

    /// The histogram quantile brackets the exact quantile: the exact
    /// order statistic falls inside the bin the histogram answers from.
    #[test]
    fn histogram_quantile_brackets_exact(
        mut values in prop::collection::vec(0u16..10_000, 1..1000),
        frac_millis in 0u32..=1000,
    ) {
        let frac = frac_millis as f64 / 1000.0;
        let hist = CounterHistogram::from_counters(values.iter().copied());
        values.sort_unstable();
        let rank = ((frac * values.len() as f64).ceil() as usize).clamp(1, values.len());
        let exact_q = values[rank - 1];
        let hist_q = hist.quantile(frac);
        // hist_q is the inclusive upper value of the bin containing the
        // exact order statistic.
        let bin = hist.spec().bin_of(exact_q);
        prop_assert_eq!(u32::from(hist_q), hist.spec().upper_value(bin).min(u16::MAX as u32),
            "exact {} (bin {}) vs hist {}", exact_q, bin, hist_q);
    }

    /// Histogram-based error bound never exceeds the exact bound and is
    /// within one geometric bin below it.
    #[test]
    fn error_bound_paths_agree(values in prop::collection::vec(0u16..50_000, 1..2000)) {
        let hist = CounterHistogram::from_counters(values.iter().copied());
        let e_exact = error_bound::exact(values.iter().copied(), 0.25, 2);
        let e_hist = error_bound::from_histogram(&hist, 0.25, 2);
        prop_assert!(e_hist <= e_exact, "hist bound {} above exact {}", e_hist, e_exact);
        let bin_gap = hist.spec().bin_of(e_exact).saturating_sub(hist.spec().bin_of(e_hist));
        prop_assert!(bin_gap <= 1, "bounds {} / {} differ by {} bins", e_hist, e_exact, bin_gap);
    }

    /// After clear, the detector re-reports pages that become hot again —
    /// the periodic `clear_interval` reset must not permanently mute pages.
    #[test]
    fn clear_unmutes_pages(page in 0u64..1000, reps in 3u16..30) {
        let mut det = HotPageDetector::new(small_params()).unwrap();
        det.set_threshold(2);
        for _ in 0..reps {
            det.observe(DevicePage::new(page));
        }
        let first: Vec<_> = det.drain_hot_pages().collect();
        prop_assert_eq!(first.len(), 1);
        det.clear();
        det.set_threshold(2);
        for _ in 0..reps {
            det.observe(DevicePage::new(page));
        }
        let second: Vec<_> = det.drain_hot_pages().collect();
        prop_assert_eq!(second.len(), 1, "page must be reportable after clear");
    }
}
