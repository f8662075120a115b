//! The host-side NeoProf driver (paper Fig. 5 ❹).
//!
//! Wraps the [`neomem_neoprof::NeoProf`] device behind the MMIO command
//! protocol, charging explicit MMIO round-trip costs — the *only* CPU
//! overhead of NeoProf-based profiling (§VI-D measures 0.021 % total).

use neomem_kernel::Kernel;
use neomem_neoprof::{mmio, NeoProf, NeoProfConfig, StateSnapshot};
use neomem_sketch::{CounterHistogram, HISTOGRAM_BINS};
use neomem_types::json::Json;
use neomem_types::{MemRequest, Nanos, Result, VirtPage};

/// Driver cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NeoProfDriverConfig {
    /// One MMIO read over the CXL link (uncached, strongly ordered).
    pub mmio_read_cost: Nanos,
    /// One MMIO write.
    pub mmio_write_cost: Nanos,
    /// Channel occupancy per snooped 64-byte request (used for the state
    /// monitor's busy accounting).
    pub snoop_occupancy: Nanos,
}

impl Default for NeoProfDriverConfig {
    fn default() -> Self {
        Self {
            mmio_read_cost: Nanos::new(700),
            mmio_write_cost: Nanos::new(600),
            snoop_occupancy: Nanos::new(5),
        }
    }
}

impl NeoProfDriverConfig {
    /// MMIO costs divided by `factor` for time-compressed simulations:
    /// when daemon cadences shrink by `factor`, per-readout costs must
    /// shrink equally or the *relative* daemon overhead is inflated by
    /// the same factor.
    pub fn scaled(factor: u64) -> Self {
        let d = Self::default();
        Self {
            mmio_read_cost: (d.mmio_read_cost / factor.max(1)).max(Nanos::new(1)),
            mmio_write_cost: (d.mmio_write_cost / factor.max(1)).max(Nanos::new(1)),
            snoop_occupancy: d.snoop_occupancy,
        }
    }
}

/// MMIO round trips charged when a command times out against an
/// offline device (the host retries until the protocol deadline).
const MMIO_TIMEOUT_X: u64 = 4;

/// The kernel driver for one NeoProf device.
#[derive(Debug, Clone)]
pub struct NeoProfDriver {
    device: NeoProf,
    config: NeoProfDriverConfig,
    device_base: neomem_types::PageNum,
    mmio_time: Nanos,
    /// Device outage (fault injection): snoops are dropped and MMIO
    /// commands time out instead of reaching the device.
    outage: bool,
}

impl NeoProfDriver {
    /// Creates the driver and its device.
    ///
    /// # Errors
    ///
    /// Propagates invalid sketch parameters.
    pub fn new(dev_config: NeoProfConfig, config: NeoProfDriverConfig) -> Result<Self> {
        Ok(Self {
            device_base: dev_config.device_base,
            device: NeoProf::new(dev_config)?,
            config,
            mmio_time: Nanos::ZERO,
            outage: false,
        })
    }

    /// Marks the device offline (`true`) or back online (`false`).
    ///
    /// While offline the device is invisible to the memory system:
    /// snoops are dropped on the floor (sampling dropout) and every
    /// MMIO command burns a timeout multiple of round trips before failing
    /// back to the caller with an empty result. Device state is frozen,
    /// not cleared — whatever the sketch held when the link dropped is
    /// still there on recovery, which is why callers are expected to
    /// [`NeoProfDriver::reset`] and re-arm the threshold when the
    /// device returns.
    pub fn set_outage(&mut self, outage: bool) {
        self.outage = outage;
    }

    /// Whether the device is currently offline.
    pub fn outage(&self) -> bool {
        self.outage
    }

    /// Hardware path: the device snoops one slow-tier memory request.
    /// Costs zero CPU time.
    pub fn snoop(&mut self, req: MemRequest) {
        if self.outage {
            return;
        }
        self.device.snoop(req, self.config.snoop_occupancy);
        self.device.tick();
    }

    /// Sets the hot-page threshold θ; returns the MMIO cost.
    pub fn set_threshold(&mut self, theta: u16, now: Nanos) -> Nanos {
        if self.outage {
            return self.charge(self.config.mmio_write_cost * MMIO_TIMEOUT_X);
        }
        self.device
            .mmio_write(mmio::SET_THRESHOLD, theta as u64, now)
            .expect("SetThreshold is a valid write");
        self.charge(self.config.mmio_write_cost)
    }

    /// Resets the device (the periodic `clear_interval` reset).
    pub fn reset(&mut self, now: Nanos) -> Nanos {
        if self.outage {
            return self.charge(self.config.mmio_write_cost * MMIO_TIMEOUT_X);
        }
        self.device.mmio_write(mmio::RESET, 1, now).expect("Reset is a valid write");
        self.charge(self.config.mmio_write_cost)
    }

    /// Reads out all pending hot pages and resolves them to virtual
    /// pages via the kernel rmap. Returns `(pages, mmio_cost)`.
    pub fn read_hot_pages(&mut self, kernel: &Kernel, now: Nanos) -> (Vec<VirtPage>, Nanos) {
        if self.outage {
            return (Vec::new(), self.charge(self.config.mmio_read_cost * MMIO_TIMEOUT_X));
        }
        let mut cost = self.config.mmio_read_cost;
        let n = self
            .device
            .mmio_read(mmio::GET_NR_HOT_PAGE, now)
            .expect("GetNrHotPage is a valid read");
        let mut pages = Vec::with_capacity(n as usize);
        for _ in 0..n {
            cost += self.config.mmio_read_cost;
            let raw = self.device.mmio_read(mmio::GET_HOT_PAGE, now).expect("GetHotPage read");
            if raw == mmio::EMPTY_SENTINEL {
                break;
            }
            let frame = neomem_types::DevicePage::new(raw).to_host(self.device_base);
            if let Some(vpage) = kernel.vpage_of(frame) {
                pages.push(vpage);
            }
        }
        (pages, self.charge(cost))
    }

    /// Reads the state monitor (bandwidth window): three MMIO reads.
    pub fn read_state(&mut self, now: Nanos) -> (StateSnapshot, Nanos) {
        if self.outage {
            let empty = StateSnapshot { sampled_cycles: 0, read_cycles: 0, write_cycles: 0 };
            return (empty, self.charge(self.config.mmio_read_cost * MMIO_TIMEOUT_X));
        }
        let sampled = self.device.mmio_read(mmio::GET_NR_SAMPLE, now).expect("GetNrSample");
        let read_cycles = self.device.mmio_read(mmio::GET_RD_CNT, now).expect("GetRdCnt");
        let write_cycles = self.device.mmio_read(mmio::GET_WR_CNT, now).expect("GetWrCnt");
        let snap = StateSnapshot { sampled_cycles: sampled, read_cycles, write_cycles };
        (snap, self.charge(self.config.mmio_read_cost * 3))
    }

    /// Triggers the histogram sweep and streams out the 64 bins.
    pub fn read_histogram(&mut self, now: Nanos) -> (CounterHistogram, Nanos) {
        if self.outage {
            let empty = CounterHistogram::from_bins([0; HISTOGRAM_BINS]);
            return (empty, self.charge(self.config.mmio_write_cost * MMIO_TIMEOUT_X));
        }
        self.device.mmio_write(mmio::SET_HIST_EN, 1, now).expect("SetHistEn");
        let mut bins = [0u64; HISTOGRAM_BINS];
        for bin in bins.iter_mut() {
            let v = self.device.mmio_read(mmio::GET_HIST, now).expect("GetHist");
            if v == mmio::EMPTY_SENTINEL {
                break;
            }
            *bin = v;
        }
        let cost = self.config.mmio_write_cost + self.config.mmio_read_cost * HISTOGRAM_BINS as u64;
        (CounterHistogram::from_bins(bins), self.charge(cost))
    }

    /// Total MMIO time spent by the host so far — the whole CPU cost of
    /// NeoProf profiling.
    pub fn mmio_time(&self) -> Nanos {
        self.mmio_time
    }

    /// Direct device access (diagnostics / state-monitor peeks).
    pub fn device(&self) -> &NeoProf {
        &self.device
    }

    fn charge(&mut self, cost: Nanos) -> Nanos {
        self.mmio_time += cost;
        cost
    }

    /// Serialises the driver (device state plus accumulated MMIO time)
    /// for a machine snapshot.
    pub fn snapshot(&self) -> Json {
        Json::obj([
            ("device", self.device.snapshot()),
            ("mmio_time", Json::U64(self.mmio_time.as_nanos())),
            ("outage", Json::Bool(self.outage)),
        ])
    }

    /// Restores [`NeoProfDriver::snapshot`] state onto a same-config
    /// driver.
    ///
    /// # Errors
    ///
    /// Returns [`neomem_types::Error::Snapshot`] on missing/malformed
    /// fields or device state sized for a different configuration.
    pub fn restore(&mut self, snap: &Json) -> Result<()> {
        let mmio_time = Nanos::new(snap.req_u64("mmio_time")?);
        let outage = snap.req_bool("outage")?;
        self.device.restore(snap.req("device")?)?;
        self.mmio_time = mmio_time;
        self.outage = outage;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neomem_kernel::KernelConfig;
    use neomem_types::{AccessKind, PageNum};

    fn setup() -> (Kernel, NeoProfDriver) {
        // 4 fast + 16 slow frames; slow window starts at frame 4.
        let mut kernel = Kernel::new(KernelConfig::with_frames(4, 16));
        for p in 0..12 {
            kernel.touch_alloc(VirtPage::new(p), Nanos::ZERO).unwrap();
        }
        let dev_cfg = NeoProfConfig::small(kernel.memory().slow_base());
        let driver = NeoProfDriver::new(dev_cfg, NeoProfDriverConfig::default()).unwrap();
        (kernel, driver)
    }

    #[test]
    fn hot_page_readout_resolves_virtual_pages() {
        let (kernel, mut driver) = setup();
        driver.set_threshold(2, Nanos::ZERO);
        // Page 7 lives on the slow tier (first 4 pages filled fast).
        let frame = kernel.translate(VirtPage::new(7)).unwrap();
        assert!(kernel.memory().tier_of(frame).is_slow());
        for _ in 0..5 {
            driver.snoop(MemRequest::new(frame, 0, AccessKind::Read));
        }
        let (pages, cost) = driver.read_hot_pages(&kernel, Nanos::from_micros(10));
        assert_eq!(pages, vec![VirtPage::new(7)]);
        assert!(cost >= NeoProfDriverConfig::default().mmio_read_cost * 2);
    }

    #[test]
    fn state_readout_reflects_snoops() {
        let (kernel, mut driver) = setup();
        let frame = kernel.translate(VirtPage::new(8)).unwrap();
        for _ in 0..10 {
            driver.snoop(MemRequest::new(frame, 0, AccessKind::Write));
        }
        let (snap, _) = driver.read_state(Nanos::from_micros(100));
        assert!(snap.write_cycles > 0);
        assert_eq!(snap.read_cycles, 0);
        assert!(snap.sampled_cycles > 0);
    }

    #[test]
    fn histogram_roundtrip_totals_sketch_width() {
        let (kernel, mut driver) = setup();
        let frame = kernel.translate(VirtPage::new(9)).unwrap();
        driver.snoop(MemRequest::new(frame, 0, AccessKind::Read));
        let (hist, cost) = driver.read_histogram(Nanos::ZERO);
        assert_eq!(hist.total(), neomem_sketch::SketchParams::small().width as u64);
        assert!(cost > Nanos::from_micros(40), "64 MMIO reads are expensive: {cost}");
    }

    #[test]
    fn mmio_time_accumulates() {
        let (kernel, mut driver) = setup();
        assert_eq!(driver.mmio_time(), Nanos::ZERO);
        driver.set_threshold(1, Nanos::ZERO);
        driver.read_hot_pages(&kernel, Nanos::ZERO);
        driver.reset(Nanos::ZERO);
        assert!(driver.mmio_time() > Nanos::ZERO);
    }

    #[test]
    fn outage_drops_snoops_and_times_out_mmio() {
        let (kernel, mut driver) = setup();
        driver.set_threshold(1, Nanos::ZERO);
        let frame = kernel.translate(VirtPage::new(7)).unwrap();
        driver.set_outage(true);
        assert!(driver.outage());
        // Snoops during the outage are dropped — the device never sees them.
        for _ in 0..5 {
            driver.snoop(MemRequest::new(frame, 0, AccessKind::Read));
        }
        // MMIO commands time out: empty results, inflated cost.
        let before = driver.mmio_time();
        let (pages, cost) = driver.read_hot_pages(&kernel, Nanos::ZERO);
        assert!(pages.is_empty());
        assert_eq!(cost, NeoProfDriverConfig::default().mmio_read_cost * MMIO_TIMEOUT_X);
        let (state, _) = driver.read_state(Nanos::ZERO);
        assert_eq!(state.sampled_cycles, 0);
        assert!(driver.mmio_time() > before, "timeouts still burn CPU time");
        // Recovery: the dropped snoops stay lost, new ones register.
        driver.set_outage(false);
        for _ in 0..5 {
            driver.snoop(MemRequest::new(frame, 0, AccessKind::Read));
        }
        let (pages, _) = driver.read_hot_pages(&kernel, Nanos::ZERO);
        assert_eq!(pages, vec![VirtPage::new(7)]);
        // Outage state round-trips through the snapshot.
        driver.set_outage(true);
        let snap = driver.snapshot();
        let dev_cfg = NeoProfConfig::small(kernel.memory().slow_base());
        let mut fresh = NeoProfDriver::new(dev_cfg, NeoProfDriverConfig::default()).unwrap();
        fresh.restore(&snap).unwrap();
        assert!(fresh.outage());
    }

    #[test]
    fn unmapped_frames_skipped_in_readout() {
        let (mut kernel, mut driver) = setup();
        driver.set_threshold(1, Nanos::ZERO);
        let frame = kernel.translate(VirtPage::new(10)).unwrap();
        for _ in 0..3 {
            driver.snoop(MemRequest::new(frame, 0, AccessKind::Read));
        }
        // Unmap by demoting... instead simulate stale rmap: snoop a frame
        // that was never mapped.
        let ghost = PageNum::new(19);
        for _ in 0..3 {
            driver.snoop(MemRequest::new(ghost, 0, AccessKind::Read));
        }
        let (pages, _) = driver.read_hot_pages(&kernel, Nanos::ZERO);
        assert_eq!(pages, vec![VirtPage::new(10)], "ghost frame must be dropped");
        let _ = &mut kernel;
    }
}
