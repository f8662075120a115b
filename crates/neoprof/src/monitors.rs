//! The high-frequency page and state monitors (Fig. 6).

use neomem_types::json::Json;
use neomem_types::{AccessKind, DevicePage, MemRequest, Nanos, PageNum, Result};

use crate::cycles_of;

/// Extracts device-local page addresses from snooped CXL.mem requests.
#[derive(Debug, Clone)]
pub struct PageMonitor {
    device_base: PageNum,
    observed: u64,
    foreign: u64,
}

impl PageMonitor {
    /// Creates a monitor for a device whose memory window starts at
    /// `device_base` in host physical frame space.
    pub fn new(device_base: PageNum) -> Self {
        Self { device_base, observed: 0, foreign: 0 }
    }

    /// Extracts the device page of `req`, or `None` (counted) for a
    /// request outside the device window — which would indicate a
    /// routing bug in the host.
    pub fn extract(&mut self, req: &MemRequest) -> Option<DevicePage> {
        match DevicePage::from_host(req.frame, self.device_base) {
            Some(page) => {
                self.observed += 1;
                Some(page)
            }
            None => {
                self.foreign += 1;
                None
            }
        }
    }

    /// Requests successfully attributed to a device page.
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Requests outside the device window.
    pub fn foreign(&self) -> u64 {
        self.foreign
    }

    /// Resets counters.
    pub fn reset(&mut self) {
        self.observed = 0;
        self.foreign = 0;
    }

    /// Serialises the counters for a machine snapshot. The device base is
    /// construction config and is not stored.
    pub fn snapshot(&self) -> Json {
        Json::obj([("observed", Json::U64(self.observed)), ("foreign", Json::U64(self.foreign))])
    }

    /// Restores [`PageMonitor::snapshot`] state.
    ///
    /// # Errors
    ///
    /// Returns [`neomem_types::Error::Snapshot`] on missing/malformed
    /// fields.
    pub fn restore(&mut self, snap: &Json) -> Result<()> {
        self.observed = snap.req_u64("observed")?;
        self.foreign = snap.req_u64("foreign")?;
        Ok(())
    }
}

/// A read-out of the state monitor: the raw material for bandwidth
/// utilisation `B = (read + write) / total_cycles` (paper §V-A).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StateSnapshot {
    /// Device cycles elapsed in the sampling window (`GetNrSample`).
    pub sampled_cycles: u64,
    /// Cycles the channel spent transferring read data (`GetRdCnt`).
    pub read_cycles: u64,
    /// Cycles the channel spent transferring write data (`GetWrCnt`).
    pub write_cycles: u64,
}

impl StateSnapshot {
    /// Bandwidth utilisation `B ∈ [0, 1]`.
    pub fn utilization(&self) -> f64 {
        if self.sampled_cycles == 0 {
            return 0.0;
        }
        ((self.read_cycles + self.write_cycles) as f64 / self.sampled_cycles as f64).min(1.0)
    }
}

/// Tracks read/write channel-busy cycles within the current window.
#[derive(Debug, Clone, Default)]
pub struct StateMonitor {
    read_cycles: u64,
    write_cycles: u64,
    window_start: Nanos,
}

impl StateMonitor {
    /// Creates a monitor with its window starting at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one request occupying the channel for `occupancy`.
    pub fn record(&mut self, kind: AccessKind, occupancy: Nanos) {
        let cycles = cycles_of(occupancy);
        match kind {
            AccessKind::Read => self.read_cycles += cycles,
            AccessKind::Write => self.write_cycles += cycles,
        }
    }

    /// Closes the window at `now`, returning the snapshot and starting a
    /// new window — the effect of the driver's `GetNrSample` read.
    pub fn roll(&mut self, now: Nanos) -> StateSnapshot {
        let snap = self.peek(now);
        self.read_cycles = 0;
        self.write_cycles = 0;
        self.window_start = now;
        snap
    }

    /// Reads the in-progress window without resetting.
    pub fn peek(&self, now: Nanos) -> StateSnapshot {
        StateSnapshot {
            sampled_cycles: cycles_of(now.saturating_sub(self.window_start)),
            read_cycles: self.read_cycles,
            write_cycles: self.write_cycles,
        }
    }

    /// Resets the window at `now`, discarding its contents.
    pub fn reset(&mut self, now: Nanos) {
        self.read_cycles = 0;
        self.write_cycles = 0;
        self.window_start = now;
    }

    /// Serialises the in-progress window for a machine snapshot.
    pub fn snapshot(&self) -> Json {
        Json::obj([
            ("read_cycles", Json::U64(self.read_cycles)),
            ("write_cycles", Json::U64(self.write_cycles)),
            ("window_start", Json::U64(self.window_start.as_nanos())),
        ])
    }

    /// Restores [`StateMonitor::snapshot`] state.
    ///
    /// # Errors
    ///
    /// Returns [`neomem_types::Error::Snapshot`] on missing/malformed
    /// fields.
    pub fn restore(&mut self, snap: &Json) -> Result<()> {
        self.read_cycles = snap.req_u64("read_cycles")?;
        self.write_cycles = snap.req_u64("write_cycles")?;
        self.window_start = Nanos::new(snap.req_u64("window_start")?);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_monitor_translates_window() {
        let mut pm = PageMonitor::new(PageNum::new(100));
        let inside = MemRequest::new(PageNum::new(150), 0, AccessKind::Read);
        let outside = MemRequest::new(PageNum::new(50), 0, AccessKind::Read);
        assert_eq!(pm.extract(&inside), Some(DevicePage::new(50)));
        assert_eq!(pm.extract(&outside), None);
        assert_eq!(pm.observed(), 1);
        assert_eq!(pm.foreign(), 1);
        pm.reset();
        assert_eq!(pm.observed(), 0);
    }

    #[test]
    fn state_monitor_utilization() {
        let mut sm = StateMonitor::new();
        // 100 ns of read busy + 100 ns of write busy in a 1 µs window.
        sm.record(AccessKind::Read, Nanos::new(100));
        sm.record(AccessKind::Write, Nanos::new(100));
        let snap = sm.roll(Nanos::from_micros(1));
        assert_eq!(snap.sampled_cycles, 400);
        assert_eq!(snap.read_cycles, 40);
        assert_eq!(snap.write_cycles, 40);
        assert!((snap.utilization() - 0.2).abs() < 1e-9);
    }

    #[test]
    fn roll_starts_new_window() {
        let mut sm = StateMonitor::new();
        sm.record(AccessKind::Read, Nanos::new(50));
        sm.roll(Nanos::from_micros(1));
        let snap = sm.roll(Nanos::from_micros(2));
        assert_eq!(snap.read_cycles, 0);
        assert_eq!(snap.sampled_cycles, 400);
    }

    #[test]
    fn idle_snapshot() {
        let snap = StateSnapshot::default();
        assert_eq!(snap.utilization(), 0.0);
    }

    #[test]
    fn reset_discards_window() {
        let mut sm = StateMonitor::new();
        sm.record(AccessKind::Write, Nanos::new(500));
        sm.reset(Nanos::from_micros(10));
        let snap = sm.peek(Nanos::from_micros(11));
        assert_eq!(snap.write_cycles, 0);
        assert_eq!(snap.sampled_cycles, 400);
    }
}
