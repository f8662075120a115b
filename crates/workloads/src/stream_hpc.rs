//! Streaming scientific kernels: 603.bwaves and 654.roms.
//!
//! Both SPEC codes sweep large multi-dimensional arrays with near-unit
//! stride and little temporal reuse — chosen by the paper for their
//! "substantial Resident Set Size". Tiering gains are modest here
//! (Fig. 11): the win comes from keeping the most-revisited array
//! partitions in fast memory. We model `arrays` interleaved sequential
//! sweeps (reads from source arrays, writes to a destination array) with
//! a small stencil-neighbourhood reuse term, plus per-sweep markers.

use neomem_types::{Access, AccessKind, VirtPage};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::{Marker, Workload, WorkloadEvent, MIN_RSS_PAGES};

/// Which SPEC kernel to imitate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamKind {
    /// 603.bwaves_s: 3 logical arrays, read-heavy block solver.
    Bwaves,
    /// 654.roms_s: 5 logical arrays, higher write share (ocean state
    /// updates).
    Roms,
}

impl StreamKind {
    fn arrays(self) -> u64 {
        match self {
            StreamKind::Bwaves => 3,
            StreamKind::Roms => 5,
        }
    }

    fn write_prob(self) -> f64 {
        match self {
            StreamKind::Bwaves => 0.2,
            StreamKind::Roms => 0.35,
        }
    }

    fn label(self) -> &'static str {
        match self {
            StreamKind::Bwaves => "603.bwaves",
            StreamKind::Roms => "654.roms",
        }
    }
}

/// The streaming-HPC generator.
#[derive(Debug, Clone)]
pub struct StreamingHpc {
    kind: StreamKind,
    rss_pages: u64,
    array_pages: u64,
    cursor: u64,
    line: u8,
    sweep: u32,
    rng: SmallRng,
}

impl StreamingHpc {
    /// Creates the generator.
    ///
    /// # Panics
    ///
    /// Panics if `rss_pages` is below [`crate::MIN_RSS_PAGES`].
    pub fn new(kind: StreamKind, rss_pages: u64, seed: u64) -> Self {
        assert!(
            rss_pages >= MIN_RSS_PAGES,
            "streaming kernel needs at least {MIN_RSS_PAGES} pages"
        );
        Self {
            kind,
            rss_pages,
            array_pages: rss_pages / kind.arrays(),
            cursor: 0,
            line: 0,
            sweep: 0,
            rng: SmallRng::seed_from_u64(seed ^ 0x5354_524D),
        }
    }

    /// The imitated kernel.
    pub fn kind(&self) -> StreamKind {
        self.kind
    }

    /// Completed sweeps over the footprint.
    pub fn sweeps(&self) -> u32 {
        self.sweep
    }
}

impl Workload for StreamingHpc {
    crate::impl_batched_fill_events!();

    fn name(&self) -> &'static str {
        self.kind.label()
    }

    fn rss_pages(&self) -> u64 {
        self.rss_pages
    }

    fn next_event(&mut self) -> WorkloadEvent {
        if self.cursor >= self.array_pages {
            self.cursor = 0;
            self.sweep += 1;
            return WorkloadEvent::Marker(Marker { id: self.sweep, label: "sweep" });
        }
        // Touch the same logical index across all arrays, line-sequential
        // within each page; the last array is the write destination.
        let arrays = self.kind.arrays();
        let array = (self.line as u64 + self.cursor) % arrays;
        let page = array * self.array_pages + self.cursor;
        let kind = if self.rng.gen_bool(self.kind.write_prob()) {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let line = self.line;
        self.line = (self.line + 8) % 64;
        if self.line == 0 {
            self.cursor += 1;
        }
        WorkloadEvent::Access(Access::new(VirtPage::new(page.min(self.rss_pages - 1)), line, kind))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_sequentially_with_sweep_markers() {
        let mut s = StreamingHpc::new(StreamKind::Bwaves, 300, 1);
        let mut pages_before_marker = 0u64;
        loop {
            match s.next_event() {
                WorkloadEvent::Access(_) => pages_before_marker += 1,
                WorkloadEvent::Marker(m) => {
                    assert_eq!(m.label, "sweep");
                    break;
                }
            }
        }
        // One sweep = array_pages * 8 line steps.
        assert_eq!(pages_before_marker, (300 / 3) * 8);
        assert_eq!(s.sweeps(), 1);
    }

    #[test]
    fn roms_writes_more_than_bwaves() {
        let count_writes = |kind: StreamKind| {
            let mut s = StreamingHpc::new(kind, 3000, 2);
            let mut writes = 0u32;
            for _ in 0..50_000 {
                if let WorkloadEvent::Access(a) = s.next_event() {
                    if a.kind == AccessKind::Write {
                        writes += 1;
                    }
                }
            }
            writes
        };
        assert!(count_writes(StreamKind::Roms) > count_writes(StreamKind::Bwaves));
    }

    #[test]
    fn low_reuse_touches_whole_footprint() {
        let mut s = StreamingHpc::new(StreamKind::Roms, 500, 3);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..500 * 10 {
            if let WorkloadEvent::Access(a) = s.next_event() {
                seen.insert(a.vpage.index());
            }
        }
        assert!(seen.len() as u64 > 400, "streaming must cover the footprint");
    }

    #[test]
    fn names_match_spec_labels() {
        assert_eq!(StreamingHpc::new(StreamKind::Bwaves, 64, 0).name(), "603.bwaves");
        assert_eq!(StreamingHpc::new(StreamKind::Roms, 64, 0).name(), "654.roms");
    }
}
