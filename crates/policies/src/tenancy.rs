//! Tenant layout shared between the co-run engine and tenant-aware
//! policies.
//!
//! The co-run engine places each tenant's private page-id namespace at
//! a disjoint base offset of the machine's global virtual address
//! space. A [`TenantLayout`] carries those offsets plus the interleave
//! weights, so a policy can attribute any global page to its owning
//! tenant and arbitrate shared resources (migration quota, fast-tier
//! capacity) across tenants.

use neomem_types::{Error, Result, VirtPage};

/// The tenant geometry of a co-run machine.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantLayout {
    bases: Vec<u64>,
    weights: Vec<u64>,
    fast_share_cap: Option<f64>,
}

impl TenantLayout {
    /// Builds a layout from each tenant's base page offset and
    /// interleave weight. `fast_share_cap`, when set, caps every
    /// tenant's fast-tier occupancy at `cap ×` its weighted fair share
    /// of the fast tier (so `1.0` enforces strict proportional shares
    /// and `2.0` allows a tenant to overshoot its share twofold).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when the vectors are empty or
    /// of different lengths, the bases don't start at 0 or aren't
    /// strictly increasing, any weight is zero, or the cap is not
    /// positive.
    pub fn new(bases: Vec<u64>, weights: Vec<u64>, fast_share_cap: Option<f64>) -> Result<Self> {
        if bases.is_empty() || bases.len() != weights.len() {
            return Err(Error::invalid_config(format!(
                "tenant layout needs matching non-empty bases/weights, got {}/{}",
                bases.len(),
                weights.len()
            )));
        }
        if bases[0] != 0 || bases.windows(2).any(|w| w[0] >= w[1]) {
            return Err(Error::invalid_config(
                "tenant bases must start at 0 and be strictly increasing",
            ));
        }
        if weights.contains(&0) {
            return Err(Error::invalid_config("tenant weights must be non-zero"));
        }
        if fast_share_cap.is_some_and(|c| c <= 0.0 || c.is_nan()) {
            return Err(Error::invalid_config("fast_share_cap must be positive"));
        }
        Ok(Self { bases, weights, fast_share_cap })
    }

    /// Number of tenants.
    pub fn tenant_count(&self) -> usize {
        self.bases.len()
    }

    /// Each tenant's base page offset, in tenant order.
    pub fn bases(&self) -> &[u64] {
        &self.bases
    }

    /// The owning tenant of a global virtual page: the last tenant
    /// whose base is ≤ the page index. Pages past the last tenant's
    /// range still map to the last tenant (the layout doesn't know the
    /// final tenant's extent).
    pub fn tenant_of(&self, vpage: VirtPage) -> usize {
        self.bases.partition_point(|&b| b <= vpage.index()) - 1
    }

    /// The interleave weights, in tenant order.
    pub fn weights(&self) -> &[u64] {
        &self.weights
    }

    /// Tenant `t`'s weighted fair share in `[0, 1]`.
    pub fn weight_share(&self, tenant: usize) -> f64 {
        let total: u64 = self.weights.iter().sum();
        self.weights[tenant] as f64 / total as f64
    }

    /// The configured fast-tier occupancy cap multiplier, if any.
    pub fn fast_share_cap(&self) -> Option<f64> {
        self.fast_share_cap
    }

    /// Tenant `t`'s fast-tier occupancy ceiling in frames, given the
    /// fast tier's capacity — `None` when no cap is configured.
    pub fn fast_cap_frames(&self, tenant: usize, fast_capacity: u64) -> Option<u64> {
        self.fast_share_cap.map(|cap| {
            let share = self.weight_share(tenant);
            ((fast_capacity as f64 * share * cap).ceil() as u64).max(1)
        })
    }

    /// Copies each tenant's fast-tier page count from the kernel into
    /// `out` (one slot per tenant, overwritten). The kernel keeps the
    /// counts exact per region, and the co-run engine sets its regions
    /// to these bases ([`neomem_kernel::Kernel::set_regions`]). The
    /// single source of truth for occupancy accounting — the co-run
    /// engine's attribution and NeoMem's fairness gate both read it, so
    /// they can never diverge.
    ///
    /// # Panics
    ///
    /// Panics when `out` is shorter than the tenant count, or when the
    /// kernel's regions are not this layout's bases.
    pub fn count_fast_pages(&self, kernel: &neomem_kernel::Kernel, out: &mut [u64]) {
        assert_eq!(kernel.regions(), self.bases(), "kernel regions are not the tenant bases");
        out[..self.tenant_count()].copy_from_slice(kernel.fast_pages_by_region());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_of_uses_base_ranges() {
        let layout = TenantLayout::new(vec![0, 1024, 3072], vec![1, 1, 2], None).unwrap();
        assert_eq!(layout.tenant_count(), 3);
        assert_eq!(layout.tenant_of(VirtPage::new(0)), 0);
        assert_eq!(layout.tenant_of(VirtPage::new(1023)), 0);
        assert_eq!(layout.tenant_of(VirtPage::new(1024)), 1);
        assert_eq!(layout.tenant_of(VirtPage::new(3071)), 1);
        assert_eq!(layout.tenant_of(VirtPage::new(9999)), 2);
    }

    #[test]
    fn shares_and_caps_follow_weights() {
        let layout = TenantLayout::new(vec![0, 64], vec![1, 3], Some(1.0)).unwrap();
        assert!((layout.weight_share(0) - 0.25).abs() < 1e-12);
        assert!((layout.weight_share(1) - 0.75).abs() < 1e-12);
        assert_eq!(layout.fast_cap_frames(0, 100), Some(25));
        assert_eq!(layout.fast_cap_frames(1, 100), Some(75));
        let uncapped = TenantLayout::new(vec![0, 64], vec![1, 3], None).unwrap();
        assert_eq!(uncapped.fast_cap_frames(0, 100), None);
    }

    #[test]
    fn caps_never_round_to_zero() {
        let layout = TenantLayout::new(vec![0, 64], vec![1, 999], Some(1.0)).unwrap();
        assert_eq!(layout.fast_cap_frames(0, 2), Some(1));
    }

    #[test]
    fn invalid_layouts_rejected() {
        assert!(TenantLayout::new(vec![], vec![], None).is_err(), "empty");
        assert!(TenantLayout::new(vec![0], vec![1, 2], None).is_err(), "length mismatch");
        assert!(TenantLayout::new(vec![1, 2], vec![1, 1], None).is_err(), "base not 0");
        assert!(TenantLayout::new(vec![0, 0], vec![1, 1], None).is_err(), "not increasing");
        assert!(TenantLayout::new(vec![0, 1], vec![1, 0], None).is_err(), "zero weight");
        assert!(TenantLayout::new(vec![0], vec![1], Some(0.0)).is_err(), "zero cap");
    }
}
