//! Bandwidth metering, as performed by NeoProf's state monitor.
//!
//! The paper defines bandwidth utilisation as
//! `B = (read + write) / total_cycles` where `read`/`write` are cycles
//! the device spent transferring data during the sampling window
//! (§V-A). We meter busy *nanoseconds* instead of cycles — the ratio is
//! identical.

use neomem_types::json::Json;
use neomem_types::{AccessKind, Nanos, Result};

/// One completed metering window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BandwidthSample {
    /// Nanoseconds spent transferring reads in the window.
    pub read_busy: Nanos,
    /// Nanoseconds spent transferring writes in the window.
    pub write_busy: Nanos,
    /// Window length.
    pub window: Nanos,
}

impl BandwidthSample {
    /// Utilisation `B ∈ [0, 1]`: busy time over window time.
    pub fn utilization(&self) -> f64 {
        if self.window.is_zero() {
            return 0.0;
        }
        let busy = (self.read_busy + self.write_busy).as_nanos() as f64;
        (busy / self.window.as_nanos() as f64).min(1.0)
    }

    /// Read share of the busy time, `0.5` when idle.
    pub fn read_fraction(&self) -> f64 {
        let busy = (self.read_busy + self.write_busy).as_nanos();
        if busy == 0 {
            0.5
        } else {
            self.read_busy.as_nanos() as f64 / busy as f64
        }
    }
}

/// Accumulates busy time within the current window.
#[derive(Debug, Clone, Default)]
pub struct BandwidthMeter {
    read_busy: Nanos,
    write_busy: Nanos,
    window_start: Nanos,
}

impl BandwidthMeter {
    /// Creates an empty meter with the window starting at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `busy` transfer time of the given kind.
    pub fn record(&mut self, kind: AccessKind, busy: Nanos) {
        match kind {
            AccessKind::Read => self.read_busy += busy,
            AccessKind::Write => self.write_busy += busy,
        }
    }

    /// Closes the current window at `now`, returning its sample, and
    /// starts a fresh window.
    pub fn roll(&mut self, now: Nanos) -> BandwidthSample {
        let sample = BandwidthSample {
            read_busy: self.read_busy,
            write_busy: self.write_busy,
            window: now.saturating_sub(self.window_start),
        };
        self.read_busy = Nanos::ZERO;
        self.write_busy = Nanos::ZERO;
        self.window_start = now;
        sample
    }

    /// Peeks at the in-progress window without resetting it.
    pub fn peek(&self, now: Nanos) -> BandwidthSample {
        BandwidthSample {
            read_busy: self.read_busy,
            write_busy: self.write_busy,
            window: now.saturating_sub(self.window_start),
        }
    }

    /// Serialises the in-progress window for a machine snapshot.
    pub fn snapshot(&self) -> Json {
        Json::obj([
            ("read_busy", Json::U64(self.read_busy.as_nanos())),
            ("write_busy", Json::U64(self.write_busy.as_nanos())),
            ("window_start", Json::U64(self.window_start.as_nanos())),
        ])
    }

    /// Restores [`BandwidthMeter::snapshot`] state.
    ///
    /// # Errors
    ///
    /// Returns [`neomem_types::Error::Snapshot`] on missing/malformed
    /// fields.
    pub fn restore(&mut self, snap: &Json) -> Result<()> {
        self.read_busy = Nanos::new(snap.req_u64("read_busy")?);
        self.write_busy = Nanos::new(snap.req_u64("write_busy")?);
        self.window_start = Nanos::new(snap.req_u64("window_start")?);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_over_window() {
        let mut m = BandwidthMeter::new();
        m.record(AccessKind::Read, Nanos::new(30));
        m.record(AccessKind::Write, Nanos::new(20));
        let s = m.roll(Nanos::new(100));
        assert!((s.utilization() - 0.5).abs() < 1e-12);
        assert!((s.read_fraction() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn roll_resets_window() {
        let mut m = BandwidthMeter::new();
        m.record(AccessKind::Read, Nanos::new(50));
        m.roll(Nanos::new(100));
        let s2 = m.roll(Nanos::new(200));
        assert_eq!(s2.read_busy, Nanos::ZERO);
        assert_eq!(s2.window, Nanos::new(100));
    }

    #[test]
    fn utilization_clamped_to_one() {
        let mut m = BandwidthMeter::new();
        m.record(AccessKind::Read, Nanos::new(500));
        let s = m.roll(Nanos::new(100));
        assert_eq!(s.utilization(), 1.0);
    }

    #[test]
    fn empty_window_is_zero_util() {
        let s = BandwidthSample::default();
        assert_eq!(s.utilization(), 0.0);
        assert_eq!(s.read_fraction(), 0.5);
    }

    #[test]
    fn peek_does_not_reset() {
        let mut m = BandwidthMeter::new();
        m.record(AccessKind::Write, Nanos::new(10));
        let p = m.peek(Nanos::new(40));
        assert_eq!(p.write_busy, Nanos::new(10));
        let s = m.roll(Nanos::new(40));
        assert_eq!(s.write_busy, Nanos::new(10), "peek must not clear");
    }
}
