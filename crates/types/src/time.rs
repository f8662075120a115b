//! Simulated time, data volume and bandwidth quantities.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A duration or instant on the simulated clock, in nanoseconds.
///
/// The simulator uses a single monotonically increasing `Nanos` clock; all
/// latency charges (cache hits, DRAM/CXL access, page faults, migration
/// copies, profiler CPU time) are expressed in this unit.
///
/// ```
/// use neomem_types::Nanos;
/// let t = Nanos::from_millis(2) + Nanos::from_micros(5);
/// assert_eq!(t.as_nanos(), 2_005_000);
/// assert_eq!(t.as_secs_f64(), 0.002005);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Nanos(u64);

impl Nanos {
    /// The zero duration.
    pub const ZERO: Nanos = Nanos(0);

    /// Creates a duration of `ns` nanoseconds.
    #[inline]
    pub const fn new(ns: u64) -> Self {
        Self(ns)
    }

    /// Creates a duration of `us` microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        Self(us * 1_000)
    }

    /// Creates a duration of `ms` milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        Self(ms * 1_000_000)
    }

    /// Creates a duration of `s` seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        Self(s * 1_000_000_000)
    }

    /// Creates a duration from fractional seconds, saturating at zero for
    /// negative inputs.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        Self((s.max(0.0) * 1e9) as u64)
    }

    /// Returns the raw nanosecond count.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the duration in fractional microseconds.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Returns the duration in fractional milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns the duration in fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction; clamps at zero instead of panicking.
    #[inline]
    pub const fn saturating_sub(self, rhs: Self) -> Self {
        Self(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition.
    #[inline]
    pub const fn checked_add(self, rhs: Self) -> Option<Self> {
        match self.0.checked_add(rhs.0) {
            Some(v) => Some(Self(v)),
            None => None,
        }
    }

    /// Returns `true` when the duration is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiplies the duration by a dimensionless factor, saturating.
    #[inline]
    pub fn scale(self, factor: f64) -> Self {
        debug_assert!(factor >= 0.0, "negative time scale");
        Self((self.0 as f64 * factor) as u64)
    }
}

impl Add for Nanos {
    type Output = Nanos;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self(self.0 + rhs.0)
    }
}

impl AddAssign for Nanos {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        self.0 += rhs.0;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self(self.0 - rhs.0)
    }
}

impl SubAssign for Nanos {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Nanos {
    type Output = Nanos;
    #[inline]
    fn mul(self, rhs: u64) -> Self {
        Self(self.0 * rhs)
    }
}

impl Div<u64> for Nanos {
    type Output = Nanos;
    #[inline]
    fn div(self, rhs: u64) -> Self {
        Self(self.0 / rhs)
    }
}

impl Sum for Nanos {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Nanos::ZERO, Add::add)
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// A data volume in bytes.
///
/// ```
/// use neomem_types::Bytes;
/// assert_eq!(Bytes::from_mib(2).as_u64(), 2 * 1024 * 1024);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bytes(u64);

impl Bytes {
    /// The zero volume.
    pub const ZERO: Bytes = Bytes(0);

    /// Creates a volume of `n` bytes.
    #[inline]
    pub const fn new(n: u64) -> Self {
        Self(n)
    }

    /// Creates a volume of `n` KiB.
    #[inline]
    pub const fn from_kib(n: u64) -> Self {
        Self(n << 10)
    }

    /// Creates a volume of `n` MiB.
    #[inline]
    pub const fn from_mib(n: u64) -> Self {
        Self(n << 20)
    }

    /// Returns the raw byte count.
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns the volume in fractional MiB.
    #[inline]
    pub fn as_mib_f64(self) -> f64 {
        self.0 as f64 / (1u64 << 20) as f64
    }

    /// Returns the volume in fractional GiB.
    #[inline]
    pub fn as_gib_f64(self) -> f64 {
        self.0 as f64 / (1u64 << 30) as f64
    }
}

impl Add for Bytes {
    type Output = Bytes;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self(self.0 + rhs.0)
    }
}

impl AddAssign for Bytes {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        self.0 += rhs.0;
    }
}

impl Sum for Bytes {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Bytes::ZERO, Add::add)
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1 << 30 {
            write!(f, "{:.2}GiB", self.as_gib_f64())
        } else if self.0 >= 1 << 20 {
            write!(f, "{:.2}MiB", self.as_mib_f64())
        } else if self.0 >= 1 << 10 {
            write!(f, "{:.2}KiB", self.0 as f64 / 1024.0)
        } else {
            write!(f, "{}B", self.0)
        }
    }
}

/// A transfer rate expressed in bytes per second.
///
/// Used for memory-node bandwidth and for migration quotas
/// (the paper's `mquota`, default 256 MB/s).
///
/// ```
/// use neomem_types::{Bandwidth, Bytes, Nanos};
/// let bw = Bandwidth::from_mib_per_sec(1024);
/// // Transferring 1 MiB at 1 GiB/s takes ~1 ms.
/// let t = bw.transfer_time(Bytes::from_mib(1));
/// assert!((t.as_millis_f64() - 0.9765625).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Bandwidth(f64);

impl Bandwidth {
    /// Creates a bandwidth of `bps` bytes per second.
    ///
    /// # Panics
    ///
    /// Panics if `bps` is negative or non-finite.
    #[inline]
    pub fn from_bytes_per_sec(bps: f64) -> Self {
        assert!(bps.is_finite() && bps >= 0.0, "invalid bandwidth value");
        Self(bps)
    }

    /// Creates a bandwidth of `mib` MiB per second.
    #[inline]
    pub fn from_mib_per_sec(mib: u64) -> Self {
        Self((mib * (1 << 20)) as f64)
    }

    /// Creates a bandwidth of `gib` GiB per second.
    #[inline]
    pub fn from_gib_per_sec(gib: f64) -> Self {
        Self::from_bytes_per_sec(gib * (1u64 << 30) as f64)
    }

    /// Returns the rate in bytes per second.
    #[inline]
    pub fn bytes_per_sec(self) -> f64 {
        self.0
    }

    /// Returns the rate in bytes per nanosecond.
    #[inline]
    pub fn bytes_per_nano(self) -> f64 {
        self.0 / 1e9
    }

    /// Returns the time needed to transfer `volume` at this rate.
    ///
    /// Returns [`Nanos::ZERO`] for a zero volume and `u64::MAX` ns for a
    /// zero rate (an unusable link).
    #[inline]
    pub fn transfer_time(self, volume: Bytes) -> Nanos {
        if volume.as_u64() == 0 {
            return Nanos::ZERO;
        }
        if self.0 <= 0.0 {
            return Nanos::new(u64::MAX);
        }
        Nanos::new((volume.as_u64() as f64 / self.bytes_per_nano()).ceil() as u64)
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}MiB/s", self.0 / (1u64 << 20) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nanos_constructors_agree() {
        assert_eq!(Nanos::from_secs(1), Nanos::from_millis(1000));
        assert_eq!(Nanos::from_millis(1), Nanos::from_micros(1000));
        assert_eq!(Nanos::from_micros(1), Nanos::new(1000));
        assert_eq!(Nanos::from_secs_f64(0.5), Nanos::from_millis(500));
    }

    #[test]
    fn nanos_arithmetic() {
        let a = Nanos::new(100);
        let b = Nanos::new(40);
        assert_eq!(a + b, Nanos::new(140));
        assert_eq!(a - b, Nanos::new(60));
        assert_eq!(a * 3, Nanos::new(300));
        assert_eq!(a / 2, Nanos::new(50));
        assert_eq!(b.saturating_sub(a), Nanos::ZERO);
        assert_eq!(a.scale(0.5), Nanos::new(50));
        let total: Nanos = [a, b, Nanos::new(1)].into_iter().sum();
        assert_eq!(total, Nanos::new(141));
    }

    #[test]
    fn nanos_display_uses_natural_units() {
        assert_eq!(format!("{}", Nanos::new(5)), "5ns");
        assert!(format!("{}", Nanos::from_micros(5)).ends_with("us"));
        assert!(format!("{}", Nanos::from_millis(5)).ends_with("ms"));
        assert!(format!("{}", Nanos::from_secs(5)).ends_with('s'));
    }

    #[test]
    fn bytes_units() {
        assert_eq!(Bytes::from_kib(1).as_u64(), 1024);
        assert!((Bytes::from_mib(3).as_mib_f64() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn bandwidth_transfer_time() {
        let bw = Bandwidth::from_gib_per_sec(1.0);
        let t = bw.transfer_time(Bytes::new(1 << 30));
        assert!((t.as_secs_f64() - 1.0).abs() < 1e-6);
        assert_eq!(bw.transfer_time(Bytes::ZERO), Nanos::ZERO);
        let dead = Bandwidth::from_bytes_per_sec(0.0);
        assert_eq!(dead.transfer_time(Bytes::new(1)).as_nanos(), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "invalid bandwidth")]
    fn bandwidth_rejects_negative() {
        let _ = Bandwidth::from_bytes_per_sec(-1.0);
    }
}
