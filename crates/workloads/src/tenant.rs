//! Multi-tenant workload composition.
//!
//! A [`TenantMix`] describes `N` independent workloads — each with its
//! own footprint, interleave weight and seed — that the co-run engine
//! (`neomem_sim::CoRunSimulation`) runs against one shared tiered
//! memory. Each tenant keeps a private page-id namespace: tenant `i`'s
//! virtual pages `[0, rss_i)` are placed at a disjoint base offset in
//! the machine's global address space, so generators stay completely
//! unaware of their co-runners.

use crate::{WorkloadKind, MIN_RSS_PAGES};

/// One tenant of a co-run: a workload kind plus its private sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantSpec {
    /// Generator to run.
    pub kind: WorkloadKind,
    /// Private footprint in 4 KiB pages.
    pub rss_pages: u64,
    /// Interleave weight: a tenant with weight `w` executes `w` event
    /// slices per round of the co-run scheduler.
    pub weight: u32,
    /// Private generator seed.
    pub seed: u64,
}

/// An ordered set of tenants sharing one tiered-memory machine.
///
/// Build one with [`TenantMix::builder`]:
///
/// ```
/// use neomem_workloads::{TenantMix, WorkloadKind};
///
/// let mix = TenantMix::builder()
///     .tenant(WorkloadKind::Gups, 2048, 7)
///     .weighted_tenant(WorkloadKind::PageRank, 4096, 2, 8)
///     .build()
///     .expect("non-empty mix");
/// assert_eq!(mix.len(), 2);
/// assert_eq!(mix.total_rss_pages(), 6144);
/// // Tenant page-id namespaces are disjoint base offsets.
/// assert_eq!(mix.bases(), vec![0, 2048]);
/// assert_eq!(mix.label(), "GUPS+2*Page-Rank");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantMix {
    tenants: Vec<TenantSpec>,
}

impl TenantMix {
    /// Starts an empty mix.
    pub fn builder() -> TenantMixBuilder {
        TenantMixBuilder { tenants: Vec::new() }
    }

    /// `n` tenants of the same kind and footprint, seeded
    /// `base_seed, base_seed + 1, …` — the tenant-count sweep shape.
    ///
    /// # Errors
    ///
    /// Returns a message when `n` is zero or `rss_pages` is zero.
    pub fn homogeneous(
        kind: WorkloadKind,
        n: usize,
        rss_pages: u64,
        base_seed: u64,
    ) -> Result<Self, String> {
        let mut builder = Self::builder();
        for i in 0..n as u64 {
            builder = builder.tenant(kind, rss_pages, base_seed.wrapping_add(i));
        }
        builder.build()
    }

    /// The tenants, in scheduling order.
    pub fn tenants(&self) -> &[TenantSpec] {
        &self.tenants
    }

    /// Number of tenants.
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// A mix is never empty ([`TenantMixBuilder::build`] rejects that),
    /// so this always returns `false`; provided for API completeness.
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }

    /// Total footprint across tenants — the machine's address-space and
    /// physical-sizing requirement.
    pub fn total_rss_pages(&self) -> u64 {
        self.tenants.iter().map(|t| t.rss_pages).sum()
    }

    /// Each tenant's base offset in the global page-id space: the
    /// prefix sums of the footprints, starting at 0.
    pub fn bases(&self) -> Vec<u64> {
        let mut bases = Vec::with_capacity(self.tenants.len());
        let mut base = 0;
        for t in &self.tenants {
            bases.push(base);
            base += t.rss_pages;
        }
        bases
    }

    /// The interleave weights, in tenant order.
    pub fn weights(&self) -> Vec<u64> {
        self.tenants.iter().map(|t| t.weight as u64).collect()
    }

    /// A copy of the mix with every tenant seed re-derived from
    /// `base_seed` (tenant `i` gets `base_seed + i`), so experiment
    /// grids can put a mix on a seed axis.
    pub fn reseeded(&self, base_seed: u64) -> Self {
        let tenants = self
            .tenants
            .iter()
            .enumerate()
            .map(|(i, t)| TenantSpec { seed: base_seed.wrapping_add(i as u64), ..*t })
            .collect();
        Self { tenants }
    }

    /// A compact human label: `GUPS+2*Page-Rank` for a GUPS tenant at
    /// weight 1 plus a Page-Rank tenant at weight 2.
    pub fn label(&self) -> String {
        self.tenants
            .iter()
            .map(|t| {
                if t.weight == 1 {
                    t.kind.label().to_string()
                } else {
                    format!("{}*{}", t.weight, t.kind.label())
                }
            })
            .collect::<Vec<_>>()
            .join("+")
    }
}

/// Builder for [`TenantMix`].
#[derive(Debug, Clone)]
pub struct TenantMixBuilder {
    tenants: Vec<TenantSpec>,
}

impl TenantMixBuilder {
    /// Adds a tenant at interleave weight 1.
    pub fn tenant(self, kind: WorkloadKind, rss_pages: u64, seed: u64) -> Self {
        self.weighted_tenant(kind, rss_pages, 1, seed)
    }

    /// Adds a tenant with an explicit interleave weight.
    pub fn weighted_tenant(
        mut self,
        kind: WorkloadKind,
        rss_pages: u64,
        weight: u32,
        seed: u64,
    ) -> Self {
        self.tenants.push(TenantSpec { kind, rss_pages, weight, seed });
        self
    }

    /// Adds a fully specified tenant.
    pub fn spec(mut self, spec: TenantSpec) -> Self {
        self.tenants.push(spec);
        self
    }

    /// Validates and builds the mix.
    ///
    /// # Errors
    ///
    /// Returns a message when the mix is empty or any tenant has a
    /// footprint below [`MIN_RSS_PAGES`] or a zero weight.
    pub fn build(self) -> Result<TenantMix, String> {
        if self.tenants.is_empty() {
            return Err("a tenant mix needs at least one tenant".into());
        }
        for (i, t) in self.tenants.iter().enumerate() {
            if t.rss_pages < MIN_RSS_PAGES {
                return Err(format!(
                    "tenant {i} ({}) has a footprint of {} pages, below the minimum of {MIN_RSS_PAGES}",
                    t.kind.label(),
                    t.rss_pages
                ));
            }
            if t.weight == 0 {
                return Err(format!("tenant {i} ({}) has a zero weight", t.kind.label()));
            }
        }
        Ok(TenantMix { tenants: self.tenants })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_tenant_mix() -> TenantMix {
        TenantMix::builder()
            .tenant(WorkloadKind::Gups, 1024, 3)
            .weighted_tenant(WorkloadKind::Silo, 2048, 3, 4)
            .build()
            .unwrap()
    }

    #[test]
    fn bases_are_prefix_sums_and_totals_add_up() {
        let mix = two_tenant_mix();
        assert_eq!(mix.bases(), vec![0, 1024]);
        assert_eq!(mix.total_rss_pages(), 3072);
        assert_eq!(mix.weights(), vec![1, 3]);
        assert!(!mix.is_empty());
    }

    #[test]
    fn homogeneous_derives_distinct_seeds() {
        let mix = TenantMix::homogeneous(WorkloadKind::Gups, 3, 512, 40).unwrap();
        let seeds: Vec<u64> = mix.tenants().iter().map(|t| t.seed).collect();
        assert_eq!(seeds, vec![40, 41, 42]);
        assert_eq!(mix.label(), "GUPS+GUPS+GUPS");
    }

    #[test]
    fn reseeded_keeps_structure() {
        let mix = two_tenant_mix().reseeded(100);
        assert_eq!(mix.tenants()[0].seed, 100);
        assert_eq!(mix.tenants()[1].seed, 101);
        assert_eq!(mix.total_rss_pages(), 3072);
        assert_eq!(mix.tenants()[1].weight, 3);
    }

    #[test]
    fn invalid_mixes_rejected() {
        assert!(TenantMix::builder().build().is_err(), "empty mix");
        assert!(
            TenantMix::builder().tenant(WorkloadKind::Gups, 0, 1).build().is_err(),
            "zero rss"
        );
        assert!(
            TenantMix::builder().tenant(WorkloadKind::Silo, MIN_RSS_PAGES - 1, 1).build().is_err(),
            "rss below the generators' minimum"
        );
        assert!(
            TenantMix::builder().weighted_tenant(WorkloadKind::Gups, 64, 0, 1).build().is_err(),
            "zero weight"
        );
        assert!(TenantMix::homogeneous(WorkloadKind::Gups, 0, 64, 1).is_err(), "zero tenants");
    }

    #[test]
    fn labels_fold_weights() {
        let mix = TenantMix::builder()
            .tenant(WorkloadKind::Gups, 64, 1)
            .weighted_tenant(WorkloadKind::PageRank, 64, 2, 2)
            .build()
            .unwrap();
        assert_eq!(mix.label(), "GUPS+2*Page-Rank");
    }
}
