//! The assembled NeoProf device.

use neomem_sketch::{CounterHistogram, HotPageDetector, SketchParams, HISTOGRAM_BINS};
use neomem_types::json::Json;
use neomem_types::{DevicePage, Error, MemRequest, Nanos, PageNum, Result};

use crate::fifo::AsyncFifo;
use crate::mmio;
use crate::monitors::{PageMonitor, StateMonitor, StateSnapshot};

/// Construction parameters for the device.
#[derive(Debug, Clone, Copy)]
pub struct NeoProfConfig {
    /// Sketch/detector parameters (Table IV).
    pub sketch: SketchParams,
    /// First host frame of the device's memory window.
    pub device_base: PageNum,
    /// Depth of the monitor→core async FIFO.
    pub fifo_depth: usize,
    /// Pages the low-frequency core drains from the FIFO per
    /// [`NeoProf::tick`].
    pub drain_per_tick: usize,
}

impl NeoProfConfig {
    /// Paper-default hardware parameters (Table IV).
    pub fn paper_default(device_base: PageNum) -> Self {
        Self {
            sketch: SketchParams::paper_default(),
            device_base,
            fifo_depth: 4096,
            drain_per_tick: 4096,
        }
    }

    /// A small configuration for tests and fast simulations.
    pub fn small(device_base: PageNum) -> Self {
        Self { sketch: SketchParams::small(), device_base, fifo_depth: 1024, drain_per_tick: 1024 }
    }
}

/// Aggregate device statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct NeoProfStats {
    /// Requests snooped off the CXL channel.
    pub snooped: u64,
    /// Page samples dropped at the async FIFO.
    pub fifo_dropped: u64,
    /// Hot pages reported (pushed to the hot-page buffer).
    pub hot_reported: u64,
    /// MMIO commands processed.
    pub mmio_ops: u64,
}

/// The NeoProf device: monitors + FIFO + detector core + MMIO decoder.
#[derive(Debug, Clone)]
pub struct NeoProf {
    page_monitor: PageMonitor,
    state_monitor: StateMonitor,
    fifo: AsyncFifo<DevicePage>,
    detector: HotPageDetector,
    drain_per_tick: usize,
    /// Histogram latched by `SetHistEn`, streamed out by `GetHist`.
    hist: Option<CounterHistogram>,
    hist_read_idx: usize,
    /// State snapshot latched by `GetNrSample`.
    latched_state: StateSnapshot,
    stats: NeoProfStats,
}

impl NeoProf {
    /// Creates the device.
    ///
    /// # Errors
    ///
    /// Propagates invalid sketch parameters.
    pub fn new(config: NeoProfConfig) -> Result<Self> {
        Ok(Self {
            page_monitor: PageMonitor::new(config.device_base),
            state_monitor: StateMonitor::new(),
            fifo: AsyncFifo::new(config.fifo_depth),
            detector: HotPageDetector::new(config.sketch)?,
            drain_per_tick: config.drain_per_tick.max(1),
            hist: None,
            hist_read_idx: 0,
            latched_state: StateSnapshot::default(),
            stats: NeoProfStats::default(),
        })
    }

    /// Snoops one CXL.mem request occupying the channel for `occupancy`.
    ///
    /// This is the high-frequency path: the page monitor extracts the
    /// page and enqueues it; the state monitor accumulates busy cycles.
    /// Call [`tick`](Self::tick) to let the low-frequency core drain.
    pub fn snoop(&mut self, req: MemRequest, occupancy: Nanos) {
        self.stats.snooped += 1;
        self.state_monitor.record(req.kind, occupancy);
        if let Some(page) = self.page_monitor.extract(&req) {
            if !self.fifo.push(page) {
                self.stats.fifo_dropped += 1;
            }
        }
    }

    /// Runs the low-frequency core: drains up to `drain_per_tick` pages
    /// through the hot-page detector pipeline in one allocation-free
    /// sweep.
    pub fn tick(&mut self) {
        let n = self.drain_per_tick;
        let Self { fifo, detector, stats, .. } = self;
        for page in fifo.drain_up_to(n) {
            if detector.observe(page).is_some() {
                stats.hot_reported += 1;
            }
        }
    }

    /// Handles an MMIO write (host → device command).
    ///
    /// # Errors
    ///
    /// [`Error::UnknownCommand`] for an unmapped offset and
    /// [`Error::CommandDirection`] for writing a read-only register.
    pub fn mmio_write(&mut self, offset: u64, value: u64, now: Nanos) -> Result<()> {
        self.stats.mmio_ops += 1;
        match offset {
            mmio::RESET => {
                self.detector.clear();
                self.fifo.clear();
                self.state_monitor.reset(now);
                self.page_monitor.reset();
                self.hist = None;
                self.hist_read_idx = 0;
                Ok(())
            }
            mmio::SET_THRESHOLD => {
                self.detector.set_threshold(value.min(u16::MAX as u64) as u16);
                Ok(())
            }
            mmio::SET_HIST_EN => {
                // The histogram unit sweeps sketch lane 0 (Fig. 9).
                self.hist = Some(self.detector.sketch().lane_histogram(0));
                self.hist_read_idx = 0;
                Ok(())
            }
            off if mmio::is_read_command(off) => Err(Error::CommandDirection { offset }),
            _ => Err(Error::UnknownCommand { offset }),
        }
    }

    /// Handles an MMIO read (host ← device).
    ///
    /// # Errors
    ///
    /// [`Error::UnknownCommand`] for an unmapped offset and
    /// [`Error::CommandDirection`] for reading a write-only register.
    pub fn mmio_read(&mut self, offset: u64, now: Nanos) -> Result<u64> {
        self.stats.mmio_ops += 1;
        match offset {
            mmio::GET_NR_HOT_PAGE => Ok(self.detector.pending_hot_pages() as u64),
            mmio::GET_HOT_PAGE => {
                Ok(self.detector.pop_hot_page().map_or(mmio::EMPTY_SENTINEL, |p| p.index()))
            }
            mmio::GET_NR_SAMPLE => {
                self.latched_state = self.state_monitor.roll(now);
                Ok(self.latched_state.sampled_cycles)
            }
            mmio::GET_RD_CNT => Ok(self.latched_state.read_cycles),
            mmio::GET_WR_CNT => Ok(self.latched_state.write_cycles),
            mmio::GET_NR_HIST_BIN => Ok(HISTOGRAM_BINS as u64),
            mmio::GET_HIST => match &self.hist {
                Some(h) if self.hist_read_idx < HISTOGRAM_BINS => {
                    let v = h.bins()[self.hist_read_idx];
                    self.hist_read_idx += 1;
                    Ok(v)
                }
                _ => Ok(mmio::EMPTY_SENTINEL),
            },
            off if mmio::is_write_command(off) => Err(Error::CommandDirection { offset }),
            _ => Err(Error::UnknownCommand { offset }),
        }
    }

    /// Direct access to the detector (white-box tests and the in-process
    /// driver fast path; the MMIO interface is the architectural contract).
    pub fn detector(&self) -> &HotPageDetector {
        &self.detector
    }

    /// Latched histogram, if `SetHistEn` ran since the last reset.
    pub fn histogram(&self) -> Option<&CounterHistogram> {
        self.hist.as_ref()
    }

    /// Peeks at the live (unlatched) state window.
    pub fn peek_state(&self, now: Nanos) -> StateSnapshot {
        self.state_monitor.peek(now)
    }

    /// Device statistics.
    pub fn stats(&self) -> NeoProfStats {
        let mut s = self.stats;
        s.fifo_dropped = self.fifo.dropped();
        s
    }

    /// Serialises the full device state for a machine snapshot. The
    /// construction config (sketch parameters, FIFO depth, drain rate,
    /// device base) is not stored — snapshots are restored onto a device
    /// built with the same config.
    pub fn snapshot(&self) -> Json {
        Json::obj([
            ("page_monitor", self.page_monitor.snapshot()),
            ("state_monitor", self.state_monitor.snapshot()),
            ("fifo", self.fifo.snapshot_with(|p| p.index())),
            ("detector", self.detector.snapshot()),
            ("hist", self.hist.as_ref().map_or(Json::Null, CounterHistogram::snapshot)),
            ("hist_read_idx", Json::U64(self.hist_read_idx as u64)),
            (
                "latched",
                Json::obj([
                    ("sampled_cycles", Json::U64(self.latched_state.sampled_cycles)),
                    ("read_cycles", Json::U64(self.latched_state.read_cycles)),
                    ("write_cycles", Json::U64(self.latched_state.write_cycles)),
                ]),
            ),
            ("snooped", Json::U64(self.stats.snooped)),
            ("hot_reported", Json::U64(self.stats.hot_reported)),
            ("mmio_ops", Json::U64(self.stats.mmio_ops)),
        ])
    }

    /// Restores [`NeoProf::snapshot`] state onto a same-config device.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Snapshot`] on missing/malformed fields or state
    /// sized for a differently-configured device.
    pub fn restore(&mut self, snap: &Json) -> Result<()> {
        let hist_read_idx = snap.req_u64("hist_read_idx")? as usize;
        if hist_read_idx > HISTOGRAM_BINS {
            return Err(Error::snapshot(format!(
                "histogram read index {hist_read_idx} exceeds {HISTOGRAM_BINS} bins"
            )));
        }
        let hist = match snap.req("hist")? {
            Json::Null => None,
            state => {
                let mut h = CounterHistogram::new();
                h.restore(state)?;
                Some(h)
            }
        };
        self.page_monitor.restore(snap.req("page_monitor")?)?;
        self.state_monitor.restore(snap.req("state_monitor")?)?;
        self.fifo.restore_with(snap.req("fifo")?, DevicePage::new)?;
        self.detector.restore(snap.req("detector")?)?;
        self.hist = hist;
        self.hist_read_idx = hist_read_idx;
        let latched = snap.req("latched")?;
        self.latched_state = StateSnapshot {
            sampled_cycles: latched.req_u64("sampled_cycles")?,
            read_cycles: latched.req_u64("read_cycles")?,
            write_cycles: latched.req_u64("write_cycles")?,
        };
        self.stats = NeoProfStats {
            snooped: snap.req_u64("snooped")?,
            fifo_dropped: self.fifo.dropped(),
            hot_reported: snap.req_u64("hot_reported")?,
            mmio_ops: snap.req_u64("mmio_ops")?,
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neomem_types::AccessKind;

    fn req(frame: u64, kind: AccessKind) -> MemRequest {
        MemRequest::new(PageNum::new(frame), 0, kind)
    }

    fn device() -> NeoProf {
        NeoProf::new(NeoProfConfig::small(PageNum::new(1000))).unwrap()
    }

    #[test]
    fn snoop_tick_detect_readout_cycle() {
        let mut dev = device();
        dev.mmio_write(mmio::SET_THRESHOLD, 2, Nanos::ZERO).unwrap();
        for _ in 0..5 {
            dev.snoop(req(1042, AccessKind::Read), Nanos::new(5));
        }
        dev.tick();
        assert_eq!(dev.mmio_read(mmio::GET_NR_HOT_PAGE, Nanos::ZERO).unwrap(), 1);
        assert_eq!(dev.mmio_read(mmio::GET_HOT_PAGE, Nanos::ZERO).unwrap(), 42);
        assert_eq!(dev.mmio_read(mmio::GET_HOT_PAGE, Nanos::ZERO).unwrap(), mmio::EMPTY_SENTINEL);
    }

    #[test]
    fn state_readout_protocol() {
        let mut dev = device();
        dev.snoop(req(1001, AccessKind::Read), Nanos::new(100));
        dev.snoop(req(1002, AccessKind::Write), Nanos::new(50));
        let sampled = dev.mmio_read(mmio::GET_NR_SAMPLE, Nanos::from_micros(1)).unwrap();
        assert_eq!(sampled, 400);
        assert_eq!(dev.mmio_read(mmio::GET_RD_CNT, Nanos::from_micros(1)).unwrap(), 40);
        assert_eq!(dev.mmio_read(mmio::GET_WR_CNT, Nanos::from_micros(1)).unwrap(), 20);
        // Second roll: window restarted, no new traffic.
        let sampled2 = dev.mmio_read(mmio::GET_NR_SAMPLE, Nanos::from_micros(2)).unwrap();
        assert_eq!(sampled2, 400);
        assert_eq!(dev.mmio_read(mmio::GET_RD_CNT, Nanos::from_micros(2)).unwrap(), 0);
    }

    #[test]
    fn histogram_stream_readout() {
        let mut dev = device();
        dev.mmio_write(mmio::SET_THRESHOLD, 1, Nanos::ZERO).unwrap();
        for i in 0..50u64 {
            dev.snoop(req(1000 + i, AccessKind::Read), Nanos::new(5));
        }
        dev.tick();
        dev.mmio_write(mmio::SET_HIST_EN, 1, Nanos::ZERO).unwrap();
        let n = dev.mmio_read(mmio::GET_NR_HIST_BIN, Nanos::ZERO).unwrap();
        assert_eq!(n, 64);
        let mut total = 0u64;
        for _ in 0..n {
            let bin = dev.mmio_read(mmio::GET_HIST, Nanos::ZERO).unwrap();
            assert_ne!(bin, mmio::EMPTY_SENTINEL);
            total += bin;
        }
        // Lane 0 has `width` counters.
        assert_eq!(total, SketchParams::small().width as u64);
        assert_eq!(dev.mmio_read(mmio::GET_HIST, Nanos::ZERO).unwrap(), mmio::EMPTY_SENTINEL);
    }

    #[test]
    fn hist_read_before_enable_is_sentinel() {
        let mut dev = device();
        assert_eq!(dev.mmio_read(mmio::GET_HIST, Nanos::ZERO).unwrap(), mmio::EMPTY_SENTINEL);
    }

    #[test]
    fn reset_clears_everything() {
        let mut dev = device();
        dev.mmio_write(mmio::SET_THRESHOLD, 1, Nanos::ZERO).unwrap();
        for _ in 0..3 {
            dev.snoop(req(1005, AccessKind::Read), Nanos::new(5));
        }
        dev.tick();
        dev.mmio_write(mmio::SET_HIST_EN, 1, Nanos::ZERO).unwrap();
        dev.mmio_write(mmio::RESET, 1, Nanos::from_micros(3)).unwrap();
        assert_eq!(dev.mmio_read(mmio::GET_NR_HOT_PAGE, Nanos::from_micros(3)).unwrap(), 0);
        assert!(dev.histogram().is_none());
        let snap = dev.peek_state(Nanos::from_micros(3));
        assert_eq!(snap.read_cycles, 0);
    }

    #[test]
    fn wrong_direction_and_unknown_offsets_error() {
        let mut dev = device();
        assert!(matches!(
            dev.mmio_write(mmio::GET_NR_HOT_PAGE, 0, Nanos::ZERO),
            Err(Error::CommandDirection { .. })
        ));
        assert!(matches!(
            dev.mmio_read(mmio::RESET, Nanos::ZERO),
            Err(Error::CommandDirection { .. })
        ));
        assert!(matches!(
            dev.mmio_write(0xF00, 0, Nanos::ZERO),
            Err(Error::UnknownCommand { .. })
        ));
        assert!(matches!(dev.mmio_read(0xF00, Nanos::ZERO), Err(Error::UnknownCommand { .. })));
    }

    #[test]
    fn fifo_overflow_degrades_not_stalls() {
        let cfg = NeoProfConfig {
            fifo_depth: 4,
            drain_per_tick: 4,
            ..NeoProfConfig::small(PageNum::new(0))
        };
        let mut dev = NeoProf::new(cfg).unwrap();
        for i in 0..100u64 {
            dev.snoop(req(i, AccessKind::Read), Nanos::new(5));
        }
        let stats = dev.stats();
        assert_eq!(stats.snooped, 100);
        assert!(stats.fifo_dropped > 0, "burst must overflow the tiny FIFO");
        dev.tick();
        // The device still works after overflow.
        dev.snoop(req(1, AccessKind::Read), Nanos::new(5));
        dev.tick();
    }

    #[test]
    fn threshold_clamps_to_u16() {
        let mut dev = device();
        dev.mmio_write(mmio::SET_THRESHOLD, u64::MAX, Nanos::ZERO).unwrap();
        assert_eq!(dev.detector().threshold(), u16::MAX);
    }
}
