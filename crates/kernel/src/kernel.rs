//! The kernel facade: allocation, translation, promotion and demotion.

use neomem_mem::{TieredMemory, TieredMemoryConfig};
use neomem_types::json::Json;
use neomem_types::{Bytes, Error, Nanos, PageNum, Result, Tier, VirtPage, PAGE_SIZE};

use crate::lru2q::Lru2Q;
use crate::page_table::PageTable;

/// Time charges for kernel memory-management operations.
///
/// Values are in the range measured for Linux `migrate_pages()` and
/// fault handling on recent x86 servers; they are deliberately explicit
/// so sensitivity studies can sweep them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationCosts {
    /// Fixed kernel overhead per migrated base page (rmap walk, PTE
    /// update, page-copy setup).
    pub per_page_overhead: Nanos,
    /// One TLB shootdown (IPI round-trip).
    pub tlb_shootdown: Nanos,
    /// Fixed overhead per migrated 2 MiB huge page.
    pub huge_page_overhead: Nanos,
    /// Minor fault service time (first touch).
    pub minor_fault: Nanos,
    /// Hint fault service time (poisoned-PTE protection fault +
    /// shootdown), per the paper's "costly TLB shootdown and page fault".
    pub hint_fault: Nanos,
    /// Fraction of migration work charged to the application's critical
    /// path, in percent (0–100). Page migration runs on kernel threads
    /// that overlap with the 32 application threads of the paper's
    /// testbed; only bandwidth contention and a slice of CPU time are
    /// felt by the workload.
    pub migration_cpu_charge_pct: u8,
}

impl Default for MigrationCosts {
    fn default() -> Self {
        Self {
            per_page_overhead: Nanos::from_micros(2),
            tlb_shootdown: Nanos::new(800),
            huge_page_overhead: Nanos::from_micros(12),
            minor_fault: Nanos::new(900),
            hint_fault: Nanos::from_micros(3),
            migration_cpu_charge_pct: 10,
        }
    }
}

/// Kernel construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct KernelConfig {
    /// The tiered physical memory.
    pub memory: TieredMemoryConfig,
    /// Virtual pages covered by the (single) address space.
    pub rss_pages: u64,
    /// Time charges.
    pub costs: MigrationCosts,
}

impl KernelConfig {
    /// Convenience config: given frame counts, covers an address space
    /// equal to the total physical capacity.
    pub fn with_frames(fast: u64, slow: u64) -> Self {
        Self {
            memory: TieredMemoryConfig::with_frames(fast, slow),
            rss_pages: fast + slow,
            costs: MigrationCosts::default(),
        }
    }
}

/// Kernel event counters (the `/proc/vmstat`-style numbers Fig. 13
/// reports).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Pages promoted slow → fast (`pgpromote_success`).
    pub promotions: u64,
    /// Pages demoted fast → slow (`pgdemote_*`).
    pub demotions: u64,
    /// Promotions of pages carrying `PG_demoted` — ping-pong events.
    pub ping_pongs: u64,
    /// Bytes moved upward.
    pub promoted_bytes: Bytes,
    /// Bytes moved downward.
    pub demoted_bytes: Bytes,
    /// Promotions rejected for lack of fast-tier space.
    pub failed_promotions: u64,
    /// Minor (first-touch) faults.
    pub minor_faults: u64,
    /// Hint (poison) faults serviced.
    pub hint_faults: u64,
    /// Total time spent inside migration paths.
    pub migration_time: Nanos,
}

/// The simulated kernel: page table + tiered memory + LRU-2Q + counters.
#[derive(Debug, Clone)]
pub struct Kernel {
    memory: TieredMemory,
    page_table: PageTable,
    lru: Lru2Q,
    costs: MigrationCosts,
    stats: KernelStats,
    /// Reverse map: frame index → owning virtual page (the kernel's rmap,
    /// needed to translate NeoProf's device page reports back to pages
    /// the migration API understands).
    rmap: Vec<Option<VirtPage>>,
    /// Region bases, ascending from 0 ([`Kernel::set_regions`]).
    regions: Vec<u64>,
    /// Fast-tier pages mapped in each region, kept exact at every site
    /// that writes the fast tier's reverse map.
    fast_pages: Vec<u64>,
}

impl Kernel {
    /// Creates the kernel.
    ///
    /// # Panics
    ///
    /// Panics on an invalid memory config; pre-validate with
    /// [`TieredMemoryConfig::validate`].
    pub fn new(config: KernelConfig) -> Self {
        let total_frames =
            (config.memory.fast.capacity_frames + config.memory.slow.capacity_frames) as usize;
        Self {
            memory: TieredMemory::new(config.memory),
            page_table: PageTable::new(config.rss_pages),
            lru: Lru2Q::new(),
            costs: config.costs,
            stats: KernelStats::default(),
            rmap: vec![None; total_frames],
            regions: vec![0],
            fast_pages: vec![0],
        }
    }

    /// Splits the address space into regions at `bases` (a co-run's
    /// tenant bases) and recounts each region's fast-tier pages. The
    /// default is one region, `[0]`.
    ///
    /// # Panics
    ///
    /// Panics unless `bases` starts at 0 and is strictly increasing.
    pub fn set_regions(&mut self, bases: &[u64]) {
        assert!(
            bases.first() == Some(&0) && bases.windows(2).all(|w| w[0] < w[1]),
            "region bases must start at 0 and be strictly increasing: {bases:?}"
        );
        self.regions = bases.to_vec();
        self.recount_fast_pages();
    }

    /// The region bases set by [`Kernel::set_regions`].
    pub fn regions(&self) -> &[u64] {
        &self.regions
    }

    /// Fast-tier pages mapped in each region, in region order.
    pub fn fast_pages_by_region(&self) -> &[u64] {
        &self.fast_pages
    }

    /// Recounts [`Kernel::fast_pages_by_region`] from the fast tier's
    /// reverse map.
    fn recount_fast_pages(&mut self) {
        let fast_frames = self.memory.slow_base().index() as usize;
        self.fast_pages = vec![0; self.regions.len()];
        for vpage in self.rmap[..fast_frames].iter().copied().flatten() {
            self.fast_pages[region_of(&self.regions, vpage)] += 1;
        }
    }

    /// Reverse-maps a physical frame to the virtual page it backs.
    pub fn vpage_of(&self, frame: PageNum) -> Option<VirtPage> {
        self.rmap.get(frame.index() as usize).copied().flatten()
    }

    /// Translates a virtual page.
    ///
    /// # Errors
    ///
    /// [`Error::UnmappedPage`] when not yet touched.
    pub fn translate(&self, vpage: VirtPage) -> Result<PageNum> {
        Ok(self.page_table.get(vpage)?.frame)
    }

    /// The tier currently backing `vpage`.
    ///
    /// # Errors
    ///
    /// [`Error::UnmappedPage`] when not mapped.
    pub fn tier_of(&self, vpage: VirtPage) -> Result<Tier> {
        Ok(self.memory.tier_of(self.translate(vpage)?))
    }

    /// First-touch allocation: maps `vpage` on the fast tier while it has
    /// space, spilling to the CXL node afterwards (Linux default policy,
    /// also the First-touch NUMA baseline).
    ///
    /// Returns the backing frame (existing mapping is returned as-is).
    ///
    /// # Errors
    ///
    /// [`Error::OutOfMemory`] when both tiers are exhausted.
    pub fn touch_alloc(&mut self, vpage: VirtPage, now: Nanos) -> Result<PageNum> {
        self.touch_alloc_preferring(vpage, Tier::Fast, now)
    }

    /// First-touch allocation with an explicit tier preference (pinned
    /// baselines allocate everything on one tier; Fig. 3b).
    ///
    /// # Errors
    ///
    /// [`Error::OutOfMemory`] when both tiers are exhausted.
    pub fn touch_alloc_preferring(
        &mut self,
        vpage: VirtPage,
        preferred: Tier,
        _now: Nanos,
    ) -> Result<PageNum> {
        if let Ok(pte) = self.page_table.get(vpage) {
            return Ok(pte.frame);
        }
        let frame = self.memory.alloc_preferring(preferred)?;
        self.page_table.map(vpage, frame)?;
        self.rmap[frame.index() as usize] = Some(vpage);
        self.stats.minor_faults += 1;
        if self.memory.tier_of(frame).is_fast() {
            self.lru.insert(vpage);
            self.fast_pages[region_of(&self.regions, vpage)] += 1;
        }
        Ok(frame)
    }

    /// Time charge of one minor fault (the simulator adds it to the clock
    /// when [`touch_alloc`](Self::touch_alloc) created a new mapping).
    pub fn minor_fault_cost(&self) -> Nanos {
        self.costs.minor_fault
    }

    /// Records an access for LRU aging (call on fast-tier accesses).
    pub fn record_fast_access(&mut self, vpage: VirtPage) {
        self.lru.on_access(vpage);
    }

    /// Moves `vpage` from slow to fast, demoting a cold page first when
    /// the fast tier is full. Returns the time charged.
    ///
    /// # Errors
    ///
    /// [`Error::MigrationRejected`] when the page is already fast or no
    /// space can be made; [`Error::UnmappedPage`] when unmapped.
    pub fn promote(&mut self, vpage: VirtPage, now: Nanos) -> Result<Nanos> {
        let pte = self.page_table.get(vpage)?;
        if self.memory.tier_of(pte.frame).is_fast() {
            return Err(Error::MigrationRejected { reason: format!("{vpage} already on fast tier") });
        }
        let mut elapsed = Nanos::ZERO;
        // Make room: demote the coldest page if the fast tier is full.
        if self.memory.allocator(Tier::Fast).free_frames() == 0 {
            let victims = self.lru.pop_coldest(1);
            match victims.first() {
                Some(&victim) => elapsed += self.demote(victim, now)?,
                None => {
                    self.stats.failed_promotions += 1;
                    return Err(Error::MigrationRejected {
                        reason: "fast tier full and no LRU victim available".into(),
                    });
                }
            }
        }
        let new_frame = match self.memory.allocator_mut(Tier::Fast).alloc() {
            Ok(f) => f,
            Err(_) => {
                self.stats.failed_promotions += 1;
                return Err(Error::MigrationRejected { reason: "fast tier still full".into() });
            }
        };
        elapsed += self.move_page(vpage, new_frame, now + elapsed)?;
        self.stats.promotions += 1;
        self.stats.promoted_bytes += Bytes::new(PAGE_SIZE);
        // Ping-pong: this page had been demoted earlier and came back.
        let mut was_demoted = false;
        self.page_table.update(vpage, |pte| {
            was_demoted = pte.demoted;
            pte.demoted = false;
        })?;
        if was_demoted {
            self.stats.ping_pongs += 1;
        }
        // A promoted page is hot by definition: place it on the active
        // list (Linux promotes onto the active LRU), not probation —
        // otherwise the next headroom demotion would evict exactly the
        // pages just promoted (instant ping-pong).
        self.lru.insert(vpage);
        self.lru.on_access(vpage);
        self.stats.migration_time += elapsed;
        Ok(elapsed)
    }

    /// Moves `vpage` from fast to slow, setting `PG_demoted`.
    /// Returns the time charged.
    ///
    /// # Errors
    ///
    /// [`Error::MigrationRejected`] when already slow,
    /// [`Error::OutOfMemory`] when the CXL node is full,
    /// [`Error::UnmappedPage`] when unmapped.
    pub fn demote(&mut self, vpage: VirtPage, now: Nanos) -> Result<Nanos> {
        let pte = self.page_table.get(vpage)?;
        if self.memory.tier_of(pte.frame).is_slow() {
            return Err(Error::MigrationRejected { reason: format!("{vpage} already on slow tier") });
        }
        let new_frame = self.memory.allocator_mut(Tier::Slow).alloc()?;
        let elapsed = self.move_page(vpage, new_frame, now)?;
        self.stats.demotions += 1;
        self.stats.demoted_bytes += Bytes::new(PAGE_SIZE);
        self.page_table.update(vpage, |pte| pte.demoted = true)?;
        self.lru.remove(vpage);
        self.stats.migration_time += elapsed;
        Ok(elapsed)
    }

    /// Demotes up to `n` LRU-cold pages; returns the victims and the
    /// total time charged.
    pub fn demote_coldest(&mut self, n: usize, now: Nanos) -> (Vec<VirtPage>, Nanos) {
        let mut total = Nanos::ZERO;
        let mut demoted = Vec::new();
        for victim in self.lru.pop_coldest(n) {
            if let Ok(t) = self.demote(victim, now + total) {
                total += t;
                demoted.push(victim);
            }
        }
        (demoted, total)
    }

    /// Copies the page to `new_frame`, updates the PTE and frees the old
    /// frame. Charges copy bandwidth on both nodes plus fixed overheads.
    fn move_page(&mut self, vpage: VirtPage, new_frame: PageNum, now: Nanos) -> Result<Nanos> {
        let old_pte = self.page_table.get(vpage)?;
        let old_frame = old_pte.frame;
        let bytes = Bytes::new(PAGE_SIZE);
        let src_tier = self.memory.tier_of(old_frame);
        let dst_tier = self.memory.tier_of(new_frame);
        let t_src = self.memory.node_mut(src_tier).bulk_transfer(bytes, now);
        let t_dst = self.memory.node_mut(dst_tier).bulk_transfer(bytes, now);
        // Remap, preserving page flags across the move (migration copies
        // page state; only the frame changes).
        self.page_table.map(vpage, new_frame)?;
        self.page_table.update(vpage, |pte| {
            pte.accessed = old_pte.accessed;
            pte.poisoned = old_pte.poisoned;
            pte.demoted = old_pte.demoted;
        })?;
        self.memory.free(old_frame);
        self.rmap[old_frame.index() as usize] = None;
        self.rmap[new_frame.index() as usize] = Some(vpage);
        let region = region_of(&self.regions, vpage);
        if src_tier.is_fast() {
            self.fast_pages[region] -= 1;
        }
        if dst_tier.is_fast() {
            self.fast_pages[region] += 1;
        }
        // The copy streams through migration kthreads: source read and
        // destination write overlap, so the slower channel dominates;
        // only the configured fraction lands on the app's critical path
        // (bandwidth contention was already charged to the nodes above).
        let full = t_src.max(t_dst) + self.costs.per_page_overhead + self.costs.tlb_shootdown;
        Ok(full.scale(self.costs.migration_cpu_charge_pct.min(100) as f64 / 100.0))
    }

    /// Records a serviced hint fault and returns its time charge.
    pub fn service_hint_fault(&mut self, vpage: VirtPage) -> Result<Nanos> {
        self.page_table.update(vpage, |pte| pte.poisoned = false)?;
        self.stats.hint_faults += 1;
        Ok(self.costs.hint_fault)
    }

    /// Borrows the page table.
    pub fn page_table(&self) -> &PageTable {
        &self.page_table
    }

    /// Mutably borrows the page table (profilers poison PTEs, scanners
    /// clear accessed bits).
    pub fn page_table_mut(&mut self) -> &mut PageTable {
        &mut self.page_table
    }

    /// Borrows the tiered memory.
    pub fn memory(&self) -> &TieredMemory {
        &self.memory
    }

    /// Mutably borrows the tiered memory.
    pub fn memory_mut(&mut self) -> &mut TieredMemory {
        &mut self.memory
    }

    /// Borrows the LRU-2Q structure.
    pub fn lru(&self) -> &Lru2Q {
        &self.lru
    }

    /// The configured time charges.
    pub fn costs(&self) -> &MigrationCosts {
        &self.costs
    }

    /// Kernel event counters.
    pub fn stats(&self) -> KernelStats {
        self.stats
    }

    /// Serialises the kernel's full mutable state (memory, page table,
    /// LRU, counters) for a machine snapshot. The rmap is not stored —
    /// it is the inverse of the page table and is rebuilt on restore.
    pub fn snapshot(&self) -> Json {
        Json::obj([
            ("memory", self.memory.snapshot()),
            ("page_table", self.page_table.snapshot()),
            ("lru", self.lru.snapshot()),
            ("promotions", Json::U64(self.stats.promotions)),
            ("demotions", Json::U64(self.stats.demotions)),
            ("ping_pongs", Json::U64(self.stats.ping_pongs)),
            ("promoted_bytes", Json::U64(self.stats.promoted_bytes.as_u64())),
            ("demoted_bytes", Json::U64(self.stats.demoted_bytes.as_u64())),
            ("failed_promotions", Json::U64(self.stats.failed_promotions)),
            ("minor_faults", Json::U64(self.stats.minor_faults)),
            ("hint_faults", Json::U64(self.stats.hint_faults)),
            ("migration_time", Json::U64(self.stats.migration_time.as_nanos())),
        ])
    }

    /// Restores [`Kernel::snapshot`] state onto a kernel built with the
    /// same configuration, rebuilding the rmap from the page table and
    /// recounting each region's fast-tier pages. The `arbitrary_cursor`
    /// that snapshot versions 1–2 carry is ignored: it drove a victim
    /// selector that no longer exists.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Snapshot`] on missing/malformed fields, component
    /// state sized for a different configuration, a mapped frame outside
    /// the physical frame space, two pages mapped to one frame, or an
    /// LRU page the page table does not map on the fast tier.
    pub fn restore(&mut self, snap: &Json) -> Result<()> {
        self.memory.restore(snap.req("memory")?)?;
        self.page_table.restore(snap.req("page_table")?)?;
        self.stats = KernelStats {
            promotions: snap.req_u64("promotions")?,
            demotions: snap.req_u64("demotions")?,
            ping_pongs: snap.req_u64("ping_pongs")?,
            promoted_bytes: Bytes::new(snap.req_u64("promoted_bytes")?),
            demoted_bytes: Bytes::new(snap.req_u64("demoted_bytes")?),
            failed_promotions: snap.req_u64("failed_promotions")?,
            minor_faults: snap.req_u64("minor_faults")?,
            hint_faults: snap.req_u64("hint_faults")?,
            migration_time: Nanos::new(snap.req_u64("migration_time")?),
        };
        self.rmap.fill(None);
        for (vpage, pte) in self.page_table.iter() {
            let idx = pte.frame.index() as usize;
            let slot = self.rmap.get_mut(idx).ok_or_else(|| {
                Error::snapshot(format!("pte frame {} outside physical frame space", pte.frame))
            })?;
            if slot.is_some() {
                return Err(Error::snapshot(format!("frame {} backs two virtual pages", pte.frame)));
            }
            *slot = Some(vpage);
        }
        let (page_table, memory) = (&self.page_table, &self.memory);
        self.lru.restore(snap.req("lru")?, page_table.span(), |vpage| {
            page_table.frame_of(vpage).is_some_and(|frame| memory.tier_of(frame).is_fast())
        })?;
        self.recount_fast_pages();
        Ok(())
    }
}

/// The region of `vpage`: the last region whose base is ≤ the page.
fn region_of(regions: &[u64], vpage: VirtPage) -> usize {
    regions.partition_point(|&b| b <= vpage.index()) - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel(fast: u64, slow: u64) -> Kernel {
        Kernel::new(KernelConfig::with_frames(fast, slow))
    }

    #[test]
    fn first_touch_prefers_fast() {
        let mut k = kernel(2, 4);
        for i in 0..2 {
            k.touch_alloc(VirtPage::new(i), Nanos::ZERO).unwrap();
            assert_eq!(k.tier_of(VirtPage::new(i)).unwrap(), Tier::Fast);
        }
        k.touch_alloc(VirtPage::new(2), Nanos::ZERO).unwrap();
        assert_eq!(k.tier_of(VirtPage::new(2)).unwrap(), Tier::Slow, "spill after fast fills");
        assert_eq!(k.stats().minor_faults, 3);
    }

    #[test]
    fn touch_alloc_idempotent() {
        let mut k = kernel(2, 2);
        let f1 = k.touch_alloc(VirtPage::new(0), Nanos::ZERO).unwrap();
        let f2 = k.touch_alloc(VirtPage::new(0), Nanos::ZERO).unwrap();
        assert_eq!(f1, f2);
        assert_eq!(k.stats().minor_faults, 1);
    }

    #[test]
    fn promote_demote_round_trip_counts_ping_pong() {
        let mut k = kernel(2, 4);
        let vp = VirtPage::new(0);
        k.touch_alloc(vp, Nanos::ZERO).unwrap();
        k.demote(vp, Nanos::ZERO).unwrap();
        assert_eq!(k.tier_of(vp).unwrap(), Tier::Slow);
        assert!(k.page_table().get(vp).unwrap().demoted, "PG_demoted set");
        k.promote(vp, Nanos::ZERO).unwrap();
        assert_eq!(k.tier_of(vp).unwrap(), Tier::Fast);
        let s = k.stats();
        assert_eq!(s.promotions, 1);
        assert_eq!(s.demotions, 1);
        assert_eq!(s.ping_pongs, 1);
        assert!(!k.page_table().get(vp).unwrap().demoted, "flag cleared on promote");
    }

    #[test]
    fn first_promotion_is_not_ping_pong() {
        let mut k = kernel(2, 4);
        // Fill fast so page 2 spills to slow on first touch.
        for i in 0..3 {
            k.touch_alloc(VirtPage::new(i), Nanos::ZERO).unwrap();
        }
        k.promote(VirtPage::new(2), Nanos::ZERO).unwrap();
        assert_eq!(k.stats().ping_pongs, 0);
    }

    #[test]
    fn promote_when_full_auto_demotes_coldest() {
        let mut k = kernel(2, 4);
        k.touch_alloc(VirtPage::new(0), Nanos::ZERO).unwrap(); // fast, cold
        k.touch_alloc(VirtPage::new(1), Nanos::ZERO).unwrap(); // fast
        k.record_fast_access(VirtPage::new(1)); // 1 is warmer than 0
        k.touch_alloc(VirtPage::new(2), Nanos::ZERO).unwrap(); // slow
        k.promote(VirtPage::new(2), Nanos::ZERO).unwrap();
        assert_eq!(k.tier_of(VirtPage::new(2)).unwrap(), Tier::Fast);
        assert_eq!(k.tier_of(VirtPage::new(0)).unwrap(), Tier::Slow, "cold page evicted");
        assert_eq!(k.tier_of(VirtPage::new(1)).unwrap(), Tier::Fast, "warm page kept");
        assert_eq!(k.stats().demotions, 1);
    }

    #[test]
    fn promote_already_fast_rejected() {
        let mut k = kernel(2, 2);
        k.touch_alloc(VirtPage::new(0), Nanos::ZERO).unwrap();
        assert!(matches!(
            k.promote(VirtPage::new(0), Nanos::ZERO),
            Err(Error::MigrationRejected { .. })
        ));
    }

    #[test]
    fn demote_already_slow_rejected() {
        let mut k = kernel(1, 2);
        k.touch_alloc(VirtPage::new(0), Nanos::ZERO).unwrap();
        k.touch_alloc(VirtPage::new(1), Nanos::ZERO).unwrap(); // slow
        assert!(matches!(
            k.demote(VirtPage::new(1), Nanos::ZERO),
            Err(Error::MigrationRejected { .. })
        ));
    }

    #[test]
    fn migration_charges_time() {
        let mut k = kernel(2, 2);
        k.touch_alloc(VirtPage::new(0), Nanos::ZERO).unwrap();
        let t = k.demote(VirtPage::new(0), Nanos::ZERO).unwrap();
        // The returned charge is the critical-path share of the full
        // migration cost.
        let min_charge = (k.costs().per_page_overhead + k.costs().tlb_shootdown)
            .scale(k.costs().migration_cpu_charge_pct as f64 / 100.0);
        assert!(t >= min_charge, "must include the charged share of fixed overhead");
        assert_eq!(k.stats().migration_time, t);
        assert_eq!(k.stats().demoted_bytes, Bytes::new(PAGE_SIZE));
    }

    #[test]
    fn demote_coldest_respects_lru() {
        let mut k = kernel(3, 6);
        for i in 0..3 {
            k.touch_alloc(VirtPage::new(i), Nanos::ZERO).unwrap();
        }
        k.record_fast_access(VirtPage::new(0));
        let (victims, t) = k.demote_coldest(2, Nanos::ZERO);
        assert_eq!(victims, vec![VirtPage::new(1), VirtPage::new(2)]);
        assert!(t > Nanos::ZERO);
        assert_eq!(k.tier_of(VirtPage::new(0)).unwrap(), Tier::Fast);
    }

    #[test]
    fn hint_fault_unpoisons_and_counts() {
        let mut k = kernel(1, 1);
        k.touch_alloc(VirtPage::new(0), Nanos::ZERO).unwrap();
        k.page_table_mut().update(VirtPage::new(0), |pte| pte.poisoned = true).unwrap();
        let t = k.service_hint_fault(VirtPage::new(0)).unwrap();
        assert_eq!(t, k.costs().hint_fault);
        assert!(!k.page_table().get(VirtPage::new(0)).unwrap().poisoned);
        assert_eq!(k.stats().hint_faults, 1);
    }

    #[test]
    fn translate_unmapped_errors() {
        let k = kernel(1, 1);
        assert!(k.translate(VirtPage::new(0)).is_err());
    }
}

#[cfg(test)]
mod rmap_tests {
    use super::*;

    #[test]
    fn rmap_tracks_alloc_and_migration() {
        let mut k = Kernel::new(KernelConfig::with_frames(2, 4));
        let vp = VirtPage::new(3);
        let f0 = k.touch_alloc(vp, Nanos::ZERO).unwrap();
        assert_eq!(k.vpage_of(f0), Some(vp));
        k.demote(vp, Nanos::ZERO).unwrap();
        let f1 = k.translate(vp).unwrap();
        assert_ne!(f0, f1);
        assert_eq!(k.vpage_of(f0), None, "old frame unmapped");
        assert_eq!(k.vpage_of(f1), Some(vp));
        assert_eq!(k.vpage_of(PageNum::new(5)), None);
    }
}
