//! GUPS (giga-updates per second) with HeMem-style skew.
//!
//! The paper follows HeMem's practice of making "some memory access
//! regions hotter than the others": 90 % of updates land in a hot region
//! covering 10 % of the footprint, the rest are uniform over the whole
//! working set (§VI-D "Convergence Analysis"). Each update is a
//! read-modify-write of one random 8-byte word → a read followed by a
//! write to the same line.
//!
//! Like the real benchmark, the generator first *initialises* its table
//! with a sequential sweep; under first-touch NUMA this fills the fast
//! tier with the low pages, while the hot region sits at 55 % of the
//! footprint — squarely in CXL memory until a tiering policy moves it.
//! The hot set can be relocated mid-run to reproduce Fig. 16's
//! convergence experiment.

use neomem_types::{Access, AccessKind, VirtPage};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::{Marker, Workload, WorkloadEvent, MIN_RSS_PAGES};

/// Fraction of accesses that hit the hot region.
pub const HOT_ACCESS_FRACTION: f64 = 0.9;
/// Fraction of the footprint covered by the hot region.
pub const HOT_REGION_FRACTION: f64 = 0.1;
/// Where the hot region starts, as a fraction of the footprint.
const HOT_BASE_FRACTION: f64 = 0.55;

/// The GUPS generator.
#[derive(Debug, Clone)]
pub struct Gups {
    rss_pages: u64,
    hot_pages: u64,
    hot_base: u64,
    rng: SmallRng,
    /// Sequential table-initialisation cursor; `None` once initialised.
    init_cursor: Option<u64>,
    /// Write half of an in-flight read-modify-write.
    pending_write: Option<Access>,
    accesses: u64,
    relocate_after: Option<u64>,
    relocations: u32,
}

impl Gups {
    /// Creates the generator.
    ///
    /// # Panics
    ///
    /// Panics if `rss_pages` is below [`crate::MIN_RSS_PAGES`].
    pub fn new(rss_pages: u64, seed: u64) -> Self {
        assert!(rss_pages >= MIN_RSS_PAGES, "gups needs at least {MIN_RSS_PAGES} pages");
        Self {
            rss_pages,
            hot_pages: ((rss_pages as f64 * HOT_REGION_FRACTION) as u64).max(1),
            hot_base: (rss_pages as f64 * HOT_BASE_FRACTION) as u64,
            rng: SmallRng::seed_from_u64(seed ^ 0x6750_5355),
            init_cursor: Some(0),
            pending_write: None,
            accesses: 0,
            relocate_after: None,
            relocations: 0,
        }
    }

    /// Relocates the hot set every `accesses` update accesses, emitting
    /// a marker — the Fig. 16 "Hot Set Changed" event.
    pub fn with_relocation(mut self, accesses: u64) -> Self {
        assert!(accesses > 0, "relocation period must be positive");
        self.relocate_after = Some(accesses);
        self
    }

    /// Skips the initialisation sweep (unit tests of steady state).
    pub fn without_init(mut self) -> Self {
        self.init_cursor = None;
        self
    }

    /// Immediately moves the hot region to a disjoint area.
    pub fn relocate_hot_set(&mut self) {
        self.relocations += 1;
        // Jump half the footprint ahead, wrapping: guaranteed disjoint
        // from the previous region (hot region is 10% of RSS).
        self.hot_base = (self.hot_base + self.rss_pages / 2) % (self.rss_pages - self.hot_pages);
    }

    /// First page of the current hot region.
    pub fn hot_base(&self) -> VirtPage {
        VirtPage::new(self.hot_base)
    }

    /// Pages in the hot region.
    pub fn hot_pages(&self) -> u64 {
        self.hot_pages
    }

    fn pick_page(&mut self) -> u64 {
        if self.rng.gen_bool(HOT_ACCESS_FRACTION) {
            self.hot_base + self.rng.gen_range(0..self.hot_pages)
        } else {
            self.rng.gen_range(0..self.rss_pages)
        }
    }
}

impl Workload for Gups {
    crate::impl_batched_fill_events!();

    fn name(&self) -> &'static str {
        "GUPS"
    }

    fn rss_pages(&self) -> u64 {
        self.rss_pages
    }

    fn next_event(&mut self) -> WorkloadEvent {
        if let Some(write) = self.pending_write.take() {
            return WorkloadEvent::Access(write);
        }
        // Initialisation sweep: 4 sequential line writes per page.
        if let Some(cursor) = self.init_cursor {
            let page = cursor / 4;
            if page >= self.rss_pages {
                self.init_cursor = None;
                return WorkloadEvent::Marker(Marker { id: 0, label: "table-initialized" });
            }
            self.init_cursor = Some(cursor + 1);
            let line = ((cursor % 4) * 16) as u8;
            return WorkloadEvent::Access(Access::new(VirtPage::new(page), line, AccessKind::Write));
        }
        if let Some(period) = self.relocate_after {
            if self.accesses > 0 && self.accesses.is_multiple_of(period) {
                self.accesses += 1; // avoid re-triggering on the same count
                self.relocate_hot_set();
                return WorkloadEvent::Marker(Marker { id: self.relocations, label: "hot-set-moved" });
            }
        }
        let page = self.pick_page();
        let line = self.rng.gen_range(0..64u8);
        self.accesses += 1;
        let vp = VirtPage::new(page);
        self.pending_write = Some(Access::new(vp, line, AccessKind::Write));
        WorkloadEvent::Access(Access::new(vp, line, AccessKind::Read))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_sweep_is_sequential_then_marked() {
        let mut g = Gups::new(64, 1);
        let mut last = 0u64;
        let mut steps = 0;
        loop {
            match g.next_event() {
                WorkloadEvent::Access(a) => {
                    assert_eq!(a.kind, AccessKind::Write);
                    assert!(a.vpage.index() >= last);
                    last = a.vpage.index();
                    steps += 1;
                }
                WorkloadEvent::Marker(m) => {
                    assert_eq!(m.label, "table-initialized");
                    break;
                }
            }
        }
        assert_eq!(steps, 64 * 4);
    }

    #[test]
    fn rmw_pairs_read_then_write_same_line() {
        let mut g = Gups::new(1024, 1).without_init();
        for _ in 0..100 {
            let r = g.next_event();
            let w = g.next_event();
            match (r, w) {
                (WorkloadEvent::Access(r), WorkloadEvent::Access(w)) => {
                    assert_eq!(r.kind, AccessKind::Read);
                    assert_eq!(w.kind, AccessKind::Write);
                    assert_eq!(r.vpage, w.vpage);
                    assert_eq!(r.line_in_page, w.line_in_page);
                }
                other => panic!("expected access pair, got {other:?}"),
            }
        }
    }

    #[test]
    fn ninety_percent_hits_hot_region() {
        let mut g = Gups::new(10_000, 2).without_init();
        let lo = g.hot_base().index();
        let hi = lo + g.hot_pages();
        let mut hot = 0u32;
        let mut total = 0u32;
        for _ in 0..40_000 {
            if let WorkloadEvent::Access(a) = g.next_event() {
                if a.kind == AccessKind::Read {
                    total += 1;
                    let p = a.vpage.index();
                    if p >= lo && p < hi {
                        hot += 1;
                    }
                }
            }
        }
        let frac = hot as f64 / total as f64;
        // 90% targeted + ~1% of uniform spill also lands in the region.
        assert!((frac - 0.91).abs() < 0.03, "hot fraction {frac}");
    }

    #[test]
    fn hot_region_not_in_first_touch_prefix() {
        // At the default 1:2 ratio the fast tier holds the first third of
        // pages; the hot region must start above that.
        let g = Gups::new(9000, 3);
        assert!(g.hot_base().index() > 9000 / 3);
    }

    #[test]
    fn relocation_moves_region_and_marks() {
        let mut g = Gups::new(4096, 3).without_init().with_relocation(1000);
        let before = g.hot_base();
        let mut saw_marker = false;
        for _ in 0..3000 {
            if let WorkloadEvent::Marker(m) = g.next_event() {
                assert_eq!(m.label, "hot-set-moved");
                saw_marker = true;
                break;
            }
        }
        assert!(saw_marker, "relocation marker expected");
        assert_ne!(g.hot_base(), before);
        // New region must be disjoint from the old one.
        let old = before.index()..before.index() + g.hot_pages();
        let new = g.hot_base().index();
        assert!(!old.contains(&new));
    }

    #[test]
    fn hot_region_is_tenth_of_rss() {
        let g = Gups::new(10_000, 4);
        assert_eq!(g.hot_pages(), 1000);
    }
}
