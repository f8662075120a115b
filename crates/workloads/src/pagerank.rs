//! GAP Page-Rank: a graph build phase followed by rank iterations.
//!
//! The Fig. 14 methodology runs Page-Rank for sixteen timed iterations
//! after building the graph. Structurally: the *edge arrays* are streamed
//! sequentially each iteration (CSR traversal), while *vertex data*
//! (ranks) is accessed with power-law skew — high-degree vertices are
//! touched once per in-edge, so a small set of vertex pages is very hot.
//! The generator emits a marker after the build phase and one per
//! completed iteration.

use neomem_types::{Access, AccessKind, VirtPage};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::zipf::Zipf;
use crate::{Marker, Workload, WorkloadEvent, MIN_RSS_PAGES};

/// Fraction of the footprint holding vertex (rank) data; the rest is
/// edge/offset arrays.
const VERTEX_FRACTION: f64 = 0.3;
/// Edge visits per vertex per iteration (average degree proxy).
const DEGREE: u64 = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Sequential initialisation of the whole footprint.
    Build { next_page: u64, line: u8 },
    /// Rank iterations.
    Iterate { iteration: u32, edge_cursor: u64, step_in_edge: u64 },
}

/// The Page-Rank generator.
#[derive(Debug, Clone)]
pub struct PageRank {
    rss_pages: u64,
    vertex_pages: u64,
    edge_pages: u64,
    vertex_skew: Zipf,
    rng: SmallRng,
    phase: Phase,
    queued: Vec<Access>,
}

impl PageRank {
    /// Creates the generator.
    ///
    /// # Panics
    ///
    /// Panics if `rss_pages` is below [`crate::MIN_RSS_PAGES`].
    pub fn new(rss_pages: u64, seed: u64) -> Self {
        assert!(rss_pages >= MIN_RSS_PAGES, "pagerank needs at least {MIN_RSS_PAGES} pages");
        let vertex_pages = ((rss_pages as f64 * VERTEX_FRACTION) as u64).max(8);
        let edge_pages = rss_pages - vertex_pages;
        Self {
            rss_pages,
            vertex_pages,
            edge_pages,
            // Power-law vertex popularity (in-degree distribution).
            vertex_skew: Zipf::new(vertex_pages as usize, 0.8),
            rng: SmallRng::seed_from_u64(seed ^ 0x5052_4752),
            phase: Phase::Build { next_page: 0, line: 0 },
            queued: Vec::new(),
        }
    }

    /// Pages holding vertex (rank) data — the hot region, living at
    /// the top of the address space.
    pub fn vertex_pages(&self) -> u64 {
        self.vertex_pages
    }

    /// Current iteration (0 while building).
    pub fn iteration(&self) -> u32 {
        match self.phase {
            Phase::Build { .. } => 0,
            Phase::Iterate { iteration, .. } => iteration,
        }
    }

    fn vertex_page(&mut self) -> VirtPage {
        // CSR construction allocates the big edge arrays first; the rank
        // vectors land above them — the hot vertex pages therefore sit
        // at high addresses, outside the first-touch fast prefix.
        let rank = self.vertex_skew.sample(&mut self.rng) as u64;
        VirtPage::new(self.edge_pages + rank)
    }

    fn edge_page(&self, cursor: u64) -> VirtPage {
        VirtPage::new(cursor % self.edge_pages)
    }
}

impl Workload for PageRank {
    crate::impl_batched_fill_events!();

    fn name(&self) -> &'static str {
        "Page-Rank"
    }

    fn rss_pages(&self) -> u64 {
        self.rss_pages
    }

    fn next_event(&mut self) -> WorkloadEvent {
        if let Some(a) = self.queued.pop() {
            return WorkloadEvent::Access(a);
        }
        match self.phase {
            Phase::Build { next_page, line } => {
                if next_page >= self.rss_pages {
                    self.phase = Phase::Iterate { iteration: 1, edge_cursor: 0, step_in_edge: 0 };
                    return WorkloadEvent::Marker(Marker { id: 0, label: "graph-built" });
                }
                // Touch 4 lines per page during build (writes).
                let next_line = (line + 16) % 64;
                self.phase = if next_line == 0 {
                    Phase::Build { next_page: next_page + 1, line: 0 }
                } else {
                    Phase::Build { next_page, line: next_line }
                };
                WorkloadEvent::Access(Access::new(VirtPage::new(next_page), line, AccessKind::Write))
            }
            Phase::Iterate { iteration, edge_cursor, step_in_edge } => {
                // One iteration streams all edge pages once.
                if edge_cursor >= self.edge_pages {
                    self.phase =
                        Phase::Iterate { iteration: iteration + 1, edge_cursor: 0, step_in_edge: 0 };
                    return WorkloadEvent::Marker(Marker { id: iteration, label: "iteration" });
                }
                // Per edge-page step: stream the edge page, then visit
                // DEGREE skewed vertex pages (rank reads) and write one
                // rank update.
                let edge = self.edge_page(edge_cursor);
                let line = (step_in_edge % 64) as u8;
                for _ in 0..DEGREE {
                    let v = self.vertex_page();
                    let vline = self.rng.gen_range(0..64u8);
                    self.queued.push(Access::new(v, vline, AccessKind::Read));
                }
                let dst = self.vertex_page();
                self.queued.push(Access::new(dst, self.rng.gen_range(0..64u8), AccessKind::Write));
                self.phase = Phase::Iterate {
                    iteration,
                    edge_cursor: edge_cursor + 1,
                    step_in_edge: step_in_edge + 1,
                };
                WorkloadEvent::Access(Access::new(edge, line, AccessKind::Read))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_phase_is_sequential_writes() {
        let mut pr = PageRank::new(128, 1);
        let mut last_page = 0;
        for _ in 0..64 {
            match pr.next_event() {
                WorkloadEvent::Access(a) => {
                    assert_eq!(a.kind, AccessKind::Write);
                    assert!(a.vpage.index() >= last_page, "build must be sequential");
                    last_page = a.vpage.index();
                }
                WorkloadEvent::Marker(_) => break,
            }
        }
    }

    #[test]
    fn build_marker_then_iteration_markers() {
        let mut pr = PageRank::new(128, 2);
        let mut markers = Vec::new();
        for _ in 0..200_000 {
            if let WorkloadEvent::Marker(m) = pr.next_event() {
                markers.push((m.id, m.label));
                if markers.len() >= 3 {
                    break;
                }
            }
        }
        assert_eq!(markers[0], (0, "graph-built"));
        assert_eq!(markers[1], (1, "iteration"));
        assert_eq!(markers[2], (2, "iteration"));
    }

    #[test]
    fn vertex_pages_hotter_than_edge_pages() {
        let mut pr = PageRank::new(512, 3);
        // Skip build.
        while !matches!(pr.next_event(), WorkloadEvent::Marker(_)) {}
        let edge_limit = pr.edge_pages;
        let mut vertex_hits = 0u64;
        let mut edge_hits = 0u64;
        for _ in 0..100_000 {
            if let WorkloadEvent::Access(a) = pr.next_event() {
                if a.vpage.index() >= edge_limit {
                    vertex_hits += 1;
                } else {
                    edge_hits += 1;
                }
            }
        }
        // DEGREE+1 vertex touches per edge page step.
        assert!(vertex_hits > edge_hits * 4, "vertex {vertex_hits} vs edge {edge_hits}");
    }

    #[test]
    fn iteration_counter_advances() {
        let mut pr = PageRank::new(128, 4);
        assert_eq!(pr.iteration(), 0);
        let mut seen_iters = 0;
        for _ in 0..300_000 {
            if let WorkloadEvent::Marker(m) = pr.next_event() {
                if m.label == "iteration" {
                    seen_iters += 1;
                    if seen_iters == 16 {
                        break;
                    }
                }
            }
        }
        assert_eq!(seen_iters, 16, "sixteen iterations must be reachable");
    }
}
