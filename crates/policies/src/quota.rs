//! The migration quota meter (`mquota`, Table V: 256 MB/s default).

use neomem_types::json::{hex_from_u64s, Json};
use neomem_types::{Bandwidth, Bytes, Error, Nanos, Result};

/// Rate-limits migration volume over one-second windows.
///
/// In single-tenant use, a meter is just a budget that refills every
/// simulated second:
///
/// ```
/// use neomem_policies::QuotaMeter;
/// use neomem_types::{Bandwidth, Bytes, Nanos};
///
/// let mut quota = QuotaMeter::new(Bandwidth::from_mib_per_sec(1));
/// assert!(quota.try_consume(Bytes::from_kib(1020), Nanos::ZERO));
/// assert!(!quota.try_consume(Bytes::from_kib(8), Nanos::ZERO), "window exhausted");
/// // A second later the window rolls and the budget refills.
/// assert!(quota.try_consume(Bytes::from_kib(8), Nanos::from_secs(1)));
/// ```
///
/// For co-run machines, [`QuotaMeter::enable_tenant_accounting`] splits
/// the same window budget into weighted per-tenant shares:
///
/// ```
/// use neomem_policies::QuotaMeter;
/// use neomem_types::{Bandwidth, Bytes, Nanos};
///
/// let mut quota = QuotaMeter::new(Bandwidth::from_mib_per_sec(1));
/// quota.enable_tenant_accounting(&[1, 3]); // tenant 1 owns 3/4 of the budget
/// quota.set_active_tenant(0);
/// assert!(quota.try_consume(Bytes::from_kib(256), Nanos::ZERO));
/// assert!(!quota.try_consume(Bytes::from_kib(4), Nanos::ZERO), "tenant 0 share spent");
/// quota.set_active_tenant(1);
/// assert!(quota.try_consume(Bytes::from_kib(512), Nanos::ZERO), "tenant 1 still in budget");
/// assert_eq!(quota.used_by(0), Bytes::from_kib(256));
/// ```
#[derive(Debug, Clone)]
pub struct QuotaMeter {
    rate: Bandwidth,
    window_start: Nanos,
    used: u64,
    /// Per-tenant budget weights; empty = tenant accounting disabled
    /// (the single-tenant fast path).
    tenant_shares: Vec<u64>,
    /// Bytes consumed per tenant in the current window.
    tenant_used: Vec<u64>,
    /// Tenant charged by the next [`QuotaMeter::try_consume`].
    active_tenant: usize,
}

impl QuotaMeter {
    /// Creates a meter allowing `rate` of migration traffic.
    pub fn new(rate: Bandwidth) -> Self {
        Self {
            rate,
            window_start: Nanos::ZERO,
            used: 0,
            tenant_shares: Vec::new(),
            tenant_used: Vec::new(),
            active_tenant: 0,
        }
    }

    /// The paper's default: 256 MB/s.
    pub fn paper_default() -> Self {
        Self::new(Bandwidth::from_mib_per_sec(256))
    }

    fn budget(&self) -> u64 {
        // One-second accounting window.
        self.rate.bytes_per_sec() as u64
    }

    /// Tenant `t`'s weighted slice of the window budget.
    fn tenant_budget(&self, tenant: usize) -> u64 {
        let total: u64 = self.tenant_shares.iter().sum();
        // total > 0: enable_tenant_accounting rejects zero weights.
        self.budget() * self.tenant_shares[tenant] / total
    }

    fn roll(&mut self, now: Nanos) {
        let elapsed = now.saturating_sub(self.window_start);
        if elapsed >= Nanos::from_secs(1) {
            self.window_start = now;
            self.used = 0;
            self.tenant_used.iter_mut().for_each(|u| *u = 0);
        }
    }

    /// Requests permission to migrate `bytes` at `now`; consumes budget
    /// on success. With tenant accounting enabled, the bytes must also
    /// fit in the active tenant's share of the window.
    pub fn try_consume(&mut self, bytes: Bytes, now: Nanos) -> bool {
        self.roll(now);
        if self.used + bytes.as_u64() > self.budget() {
            return false;
        }
        if !self.tenant_shares.is_empty() {
            let t = self.active_tenant;
            if self.tenant_used[t] + bytes.as_u64() > self.tenant_budget(t) {
                return false;
            }
            self.tenant_used[t] += bytes.as_u64();
        }
        self.used += bytes.as_u64();
        true
    }

    /// Whether the last full window exhausted its budget — the
    /// `M < mquota` test of Algorithm 1 (line 9).
    pub fn saturated(&self) -> bool {
        self.used >= self.budget()
    }

    /// Splits the window budget into weighted per-tenant shares. Until
    /// this is called the meter runs in its single-tenant mode with a
    /// single undivided budget.
    ///
    /// # Panics
    ///
    /// Panics on an empty share list or a zero weight — the co-run
    /// layout validates both before any policy sees them.
    pub fn enable_tenant_accounting(&mut self, shares: &[u64]) {
        assert!(!shares.is_empty(), "tenant shares must be non-empty");
        assert!(shares.iter().all(|&s| s > 0), "tenant shares must be non-zero");
        self.tenant_shares = shares.to_vec();
        self.tenant_used = vec![0; shares.len()];
        self.active_tenant = 0;
    }

    /// Selects the tenant charged by subsequent
    /// [`try_consume`](Self::try_consume) calls. No-op until
    /// [`enable_tenant_accounting`](Self::enable_tenant_accounting).
    pub fn set_active_tenant(&mut self, tenant: usize) {
        if tenant < self.tenant_shares.len() {
            self.active_tenant = tenant;
        }
    }

    /// Bytes consumed by `tenant` in the current window (zero when
    /// tenant accounting is disabled or the index is out of range).
    pub fn used_by(&self, tenant: usize) -> Bytes {
        Bytes::new(self.tenant_used.get(tenant).copied().unwrap_or(0))
    }

    /// Serialises the meter's window state for a machine snapshot. The
    /// rate and tenant shares are configuration — a restored meter must
    /// already carry them (via construction and
    /// [`QuotaMeter::enable_tenant_accounting`]).
    pub fn snapshot(&self) -> Json {
        Json::obj([
            ("window_start", Json::U64(self.window_start.as_nanos())),
            ("used", Json::U64(self.used)),
            ("tenant_used", Json::Str(hex_from_u64s(&self.tenant_used))),
            ("active_tenant", Json::U64(self.active_tenant as u64)),
        ])
    }

    /// Restores [`QuotaMeter::snapshot`] state onto a same-config meter.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Snapshot`] on missing/malformed fields, a
    /// tenant-usage array sized for a different tenant count, or an
    /// out-of-range active tenant.
    pub fn restore(&mut self, snap: &Json) -> Result<()> {
        let tenant_used = snap.req_u64s("tenant_used")?;
        if tenant_used.len() != self.tenant_shares.len() {
            return Err(Error::snapshot(format!(
                "quota snapshot has {} tenant slots, meter is configured for {}",
                tenant_used.len(),
                self.tenant_shares.len()
            )));
        }
        let active = snap.req_u64("active_tenant")? as usize;
        if active >= self.tenant_shares.len().max(1) {
            return Err(Error::snapshot(format!(
                "active tenant {} out of range for {} tenants",
                active,
                self.tenant_shares.len()
            )));
        }
        self.window_start = Nanos::new(snap.req_u64("window_start")?);
        self.used = snap.req_u64("used")?;
        self.tenant_used = tenant_used;
        self.active_tenant = active;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consumes_until_budget() {
        let mut q = QuotaMeter::new(Bandwidth::from_mib_per_sec(1)); // 1 MiB/s
        let page = Bytes::from_kib(4);
        let mut granted = 0;
        while q.try_consume(page, Nanos::ZERO) {
            granted += 1;
        }
        assert_eq!(granted, 256, "1 MiB / 4 KiB = 256 pages");
        assert!(q.saturated());
    }

    #[test]
    fn window_refills_after_a_second() {
        let mut q = QuotaMeter::new(Bandwidth::from_mib_per_sec(1));
        while q.try_consume(Bytes::from_kib(4), Nanos::ZERO) {}
        assert!(!q.try_consume(Bytes::from_kib(4), Nanos::from_millis(500)));
        assert!(q.try_consume(Bytes::from_kib(4), Nanos::from_secs(2)));
        assert!(!q.saturated());
    }

    #[test]
    fn paper_default_is_256_mib() {
        let mut q = QuotaMeter::paper_default();
        assert!(q.try_consume(Bytes::from_mib(256), Nanos::ZERO));
        assert!(!q.try_consume(Bytes::new(1), Nanos::ZERO));
    }

    #[test]
    fn tenant_shares_cap_each_tenant() {
        let mut q = QuotaMeter::new(Bandwidth::from_mib_per_sec(1));
        q.enable_tenant_accounting(&[1, 1]);
        let page = Bytes::from_kib(4);
        // Tenant 0 may use exactly half the 256-page window.
        q.set_active_tenant(0);
        let mut granted = 0;
        while q.try_consume(page, Nanos::ZERO) {
            granted += 1;
        }
        assert_eq!(granted, 128, "half of 1 MiB at 4 KiB pages");
        assert_eq!(q.used_by(0), Bytes::from_kib(512));
        // Tenant 1's share is untouched.
        q.set_active_tenant(1);
        assert!(q.try_consume(page, Nanos::ZERO));
        assert_eq!(q.used_by(1), page);
    }

    #[test]
    fn tenant_shares_follow_weights_and_roll() {
        let mut q = QuotaMeter::new(Bandwidth::from_mib_per_sec(1));
        q.enable_tenant_accounting(&[3, 1]);
        q.set_active_tenant(1);
        // Tenant 1 owns a quarter: 64 pages.
        let mut granted = 0;
        while q.try_consume(Bytes::from_kib(4), Nanos::ZERO) {
            granted += 1;
        }
        assert_eq!(granted, 64);
        // The roll resets per-tenant usage with the window.
        assert!(q.try_consume(Bytes::from_kib(4), Nanos::from_secs(2)));
        assert_eq!(q.used_by(1), Bytes::from_kib(4));
        assert_eq!(q.used_by(0), Bytes::ZERO);
    }

    #[test]
    fn global_budget_still_binds_with_tenants() {
        let mut q = QuotaMeter::new(Bandwidth::from_bytes_per_sec(8.0 * 4096.0));
        q.enable_tenant_accounting(&[1, 1]);
        q.set_active_tenant(0);
        for _ in 0..4 {
            assert!(q.try_consume(Bytes::from_kib(4), Nanos::ZERO));
        }
        q.set_active_tenant(1);
        for _ in 0..4 {
            assert!(q.try_consume(Bytes::from_kib(4), Nanos::ZERO));
        }
        assert!(q.saturated());
        for t in 0..2 {
            q.set_active_tenant(t);
            assert!(!q.try_consume(Bytes::from_kib(4), Nanos::ZERO));
        }
    }

    #[test]
    fn out_of_range_tenant_queries_are_harmless() {
        let mut q = QuotaMeter::paper_default();
        assert_eq!(q.used_by(5), Bytes::ZERO);
        q.set_active_tenant(7); // ignored: accounting disabled
        assert!(q.try_consume(Bytes::from_kib(4), Nanos::ZERO));
    }
}
