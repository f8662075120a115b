//! The hot-page detector pipeline (paper Fig. 7/8).

use neomem_types::json::{hex_from_u64s, Json};
use neomem_types::{DevicePage, Error, Result};

use crate::cm_sketch::{CmSketch, SketchParams};

/// Running statistics of a [`HotPageDetector`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DetectorStats {
    /// Pages observed since the last clear.
    pub observed: u64,
    /// Newly detected hot pages pushed to the buffer.
    pub detected: u64,
    /// Reports suppressed by the hot-page filter (duplicates).
    pub filtered_duplicates: u64,
    /// Hot pages dropped because the output buffer was full.
    pub buffer_overflows: u64,
}

/// The NeoProf hot-page detector: sketch update → threshold compare →
/// hot-page filter → bounded output buffer.
///
/// A page is *hot* when its estimated access frequency `â(P)` exceeds the
/// threshold `θ` (Eq. 4). Once reported, the hot bits of the page's sketch
/// entries suppress duplicate reports until the next clear.
///
/// ```
/// use neomem_sketch::{HotPageDetector, SketchParams};
/// use neomem_types::DevicePage;
///
/// let mut det = HotPageDetector::new(SketchParams::small())?;
/// det.set_threshold(2);
/// for i in 0..3 { det.observe(DevicePage::new(1)); let _ = i; }
/// assert_eq!(det.pending_hot_pages(), 1);
/// # Ok::<(), neomem_types::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct HotPageDetector {
    sketch: CmSketch,
    threshold: u16,
    buffer: Vec<DevicePage>,
    capacity: usize,
    stats: DetectorStats,
    /// Reused per-page estimate lane for [`Self::observe_batch`];
    /// scratch only, never snapshotted.
    batch_estimates: Vec<u16>,
}

impl HotPageDetector {
    /// Creates a detector with threshold 0 (report everything above 0).
    ///
    /// # Errors
    ///
    /// Propagates [`SketchParams::validate`] failures.
    pub fn new(params: SketchParams) -> Result<Self> {
        let capacity = params.hot_buffer_entries;
        Ok(Self {
            sketch: CmSketch::new(params)?,
            threshold: 0,
            buffer: Vec::with_capacity(capacity.min(4096)),
            capacity,
            stats: DetectorStats::default(),
            batch_estimates: Vec::new(),
        })
    }

    /// Sets the hot-page threshold `θ` (the `SetThreshold` MMIO command).
    pub fn set_threshold(&mut self, threshold: u16) {
        self.threshold = threshold;
    }

    /// Returns the current threshold `θ`.
    pub fn threshold(&self) -> u16 {
        self.threshold
    }

    /// Grants read access to the underlying sketch (histogram unit, error
    /// bound estimation, diagnostics).
    pub fn sketch(&self) -> &CmSketch {
        &self.sketch
    }

    /// Processes one observed page access through the full pipeline.
    ///
    /// Returns `Some(page)` when this access caused a *new* hot-page
    /// report (i.e. it crossed `θ` and passed the duplicate filter and the
    /// buffer had space).
    pub fn observe(&mut self, page: DevicePage) -> Option<DevicePage> {
        self.stats.observed += 1;
        let estimate = self.sketch.update(page);
        self.report(page, estimate).then_some(page)
    }

    /// Processes a batch of observed page accesses; returns how many
    /// produced *new* hot-page reports.
    ///
    /// The sketch updates run lane-major over the whole batch first
    /// ([`CmSketch::update_batch`], bit-identical counters and per-page
    /// estimates to the per-page schedule); the threshold compare, the
    /// duplicate filter and the buffer push then run per page in batch
    /// order — the same tail [`Self::observe`] runs. The sketch update
    /// is the only mutation `observe`'s head makes, so detector state
    /// and the report sequence match per-page observation bit for bit.
    pub fn observe_batch(&mut self, pages: &[DevicePage]) -> u64 {
        self.stats.observed += pages.len() as u64;
        let mut estimates = std::mem::take(&mut self.batch_estimates);
        self.sketch.update_batch(pages, &mut estimates);
        let mut reported = 0;
        for (&page, &estimate) in pages.iter().zip(&estimates) {
            reported += u64::from(self.report(page, estimate));
        }
        self.batch_estimates = estimates;
        reported
    }

    /// The pipeline after the sketch update: hot-page checker, then the
    /// duplicate filter, then the bounded output buffer. Returns whether
    /// `page` (whose updated estimate is `estimate`) was newly reported.
    #[inline]
    fn report(&mut self, page: DevicePage, estimate: u16) -> bool {
        if estimate <= self.threshold {
            return false;
        }
        if self.sketch.test_and_set_hot(page) {
            self.stats.filtered_duplicates += 1;
            return false;
        }
        if self.buffer.len() >= self.capacity {
            self.stats.buffer_overflows += 1;
            return false;
        }
        self.stats.detected += 1;
        self.buffer.push(page);
        true
    }

    /// Number of hot pages waiting in the output buffer
    /// (the `GetNrHotPage` MMIO command).
    pub fn pending_hot_pages(&self) -> usize {
        self.buffer.len()
    }

    /// Pops one hot page from the buffer (the `GetHotPage` MMIO command).
    pub fn pop_hot_page(&mut self) -> Option<DevicePage> {
        // FIFO order: the hardware buffer drains oldest-first.
        if self.buffer.is_empty() {
            None
        } else {
            Some(self.buffer.remove(0))
        }
    }

    /// Drains all pending hot pages.
    pub fn drain_hot_pages(&mut self) -> impl Iterator<Item = DevicePage> + '_ {
        self.buffer.drain(..)
    }

    /// Clears sketch counters, hot bits, the buffer and stats
    /// (the `Reset` MMIO command and the periodic `clear_interval` reset).
    pub fn clear(&mut self) {
        self.sketch.clear();
        self.buffer.clear();
        self.stats = DetectorStats::default();
    }

    /// Returns detector statistics since the last clear.
    pub fn stats(&self) -> DetectorStats {
        self.stats
    }

    /// Serialises the detector's mutable state (sketch, threshold, output
    /// buffer, stats) for a machine snapshot.
    pub fn snapshot(&self) -> Json {
        Json::obj([
            ("sketch", self.sketch.snapshot()),
            ("threshold", Json::U64(u64::from(self.threshold))),
            (
                "buffer",
                Json::Str(hex_from_u64s(
                    &self.buffer.iter().map(|p| p.index()).collect::<Vec<u64>>(),
                )),
            ),
            ("observed", Json::U64(self.stats.observed)),
            ("detected", Json::U64(self.stats.detected)),
            ("filtered_duplicates", Json::U64(self.stats.filtered_duplicates)),
            ("buffer_overflows", Json::U64(self.stats.buffer_overflows)),
        ])
    }

    /// Restores [`HotPageDetector::snapshot`] state onto a detector built
    /// with the same parameters. Snapshot versions 1–2 also carry a
    /// `bloom` field, `null` unless the run used an external Bloom
    /// filter instead of the hot bits; that filter no longer exists.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Snapshot`] on missing/malformed fields, a buffer
    /// exceeding this detector's capacity, or a `bloom` field that is
    /// not `null`.
    pub fn restore(&mut self, snap: &Json) -> Result<()> {
        let threshold = snap.req_u64("threshold")?;
        let threshold = u16::try_from(threshold)
            .map_err(|_| Error::snapshot(format!("threshold {threshold} exceeds u16")))?;
        let buffer = snap.req_u64s("buffer")?;
        if buffer.len() > self.capacity {
            return Err(Error::snapshot(format!(
                "hot buffer has {} entries, capacity is {}",
                buffer.len(),
                self.capacity
            )));
        }
        if !matches!(snap.get("bloom"), None | Some(Json::Null)) {
            return Err(Error::snapshot(
                "snapshot carries external bloom filter state; only hot bits are supported",
            ));
        }
        self.sketch.restore(snap.req("sketch")?)?;
        self.threshold = threshold;
        self.buffer = buffer.into_iter().map(DevicePage::new).collect();
        self.stats = DetectorStats {
            observed: snap.req_u64("observed")?,
            detected: snap.req_u64("detected")?,
            filtered_duplicates: snap.req_u64("filtered_duplicates")?,
            buffer_overflows: snap.req_u64("buffer_overflows")?,
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detector(threshold: u16) -> HotPageDetector {
        let mut d = HotPageDetector::new(SketchParams::small()).unwrap();
        d.set_threshold(threshold);
        d
    }

    #[test]
    fn page_below_threshold_not_reported() {
        let mut d = detector(10);
        for _ in 0..10 {
            assert!(d.observe(DevicePage::new(1)).is_none());
        }
        assert_eq!(d.pending_hot_pages(), 0);
    }

    #[test]
    fn page_crossing_threshold_reported_once() {
        let mut d = detector(3);
        let mut reports = 0;
        for _ in 0..20 {
            if d.observe(DevicePage::new(1)).is_some() {
                reports += 1;
            }
        }
        assert_eq!(reports, 1, "filter must suppress duplicates");
        assert_eq!(d.stats().filtered_duplicates, 16);
        assert_eq!(d.pending_hot_pages(), 1);
    }

    #[test]
    fn drain_returns_fifo_order() {
        let mut d = detector(1);
        for p in [5u64, 9, 2] {
            d.observe(DevicePage::new(p));
            d.observe(DevicePage::new(p));
        }
        let order: Vec<u64> = d.drain_hot_pages().map(|p| p.index()).collect();
        assert_eq!(order, vec![5, 9, 2]);
    }

    #[test]
    fn pop_hot_page_single() {
        let mut d = detector(1);
        d.observe(DevicePage::new(4));
        d.observe(DevicePage::new(4));
        assert_eq!(d.pop_hot_page(), Some(DevicePage::new(4)));
        assert_eq!(d.pop_hot_page(), None);
    }

    #[test]
    fn buffer_overflow_counted_and_dropped() {
        let params = SketchParams { hot_buffer_entries: 2, ..SketchParams::small() };
        let mut d = HotPageDetector::new(params).unwrap();
        d.set_threshold(1);
        for p in 0..5u64 {
            d.observe(DevicePage::new(p));
            d.observe(DevicePage::new(p));
        }
        assert_eq!(d.pending_hot_pages(), 2);
        assert_eq!(d.stats().buffer_overflows, 3);
    }

    #[test]
    fn clear_resets_everything() {
        let mut d = detector(1);
        d.observe(DevicePage::new(3));
        d.observe(DevicePage::new(3));
        d.clear();
        assert_eq!(d.pending_hot_pages(), 0);
        assert_eq!(d.stats(), DetectorStats::default());
        // Page becomes reportable again after clear.
        d.set_threshold(1);
        d.observe(DevicePage::new(3));
        assert!(d.observe(DevicePage::new(3)).is_some());
    }

    #[test]
    fn zero_threshold_reports_first_touch() {
        let mut d = detector(0);
        assert!(d.observe(DevicePage::new(8)).is_some(), "estimate 1 > θ=0");
    }

    #[test]
    fn observe_batch_matches_per_page_observe() {
        let params = SketchParams { hot_buffer_entries: 8, ..SketchParams::small() };
        let mut serial = HotPageDetector::new(params).unwrap();
        let mut batched = HotPageDetector::new(params).unwrap();
        serial.set_threshold(2);
        batched.set_threshold(2);
        let pages: Vec<DevicePage> = (0..600u64).map(|i| DevicePage::new(i * 13 % 23)).collect();
        let mut serial_reports = 0;
        for &p in &pages {
            serial_reports += u64::from(serial.observe(p).is_some());
        }
        let mut batched_reports = 0;
        // Uneven batches exercise the lane-major tail handling.
        for chunk in pages.chunks(31) {
            batched_reports += batched.observe_batch(chunk);
        }
        assert_eq!(batched_reports, serial_reports);
        assert_eq!(batched.stats(), serial.stats());
        let a: Vec<_> = serial.drain_hot_pages().collect();
        let b: Vec<_> = batched.drain_hot_pages().collect();
        assert_eq!(a, b, "report order must match");
    }
}
