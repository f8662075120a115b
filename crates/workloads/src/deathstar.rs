//! DeathStarBench: a micro-service mix.
//!
//! DeathStarBench (social-network style) blends (a) hot per-user session
//! and cache state read with zipf popularity, (b) append-heavy logging/
//! tracing, and (c) a slowly *drifting* working set as request mixes and
//! content popularity shift. The drift is what stresses a tiering
//! system's adaptivity and why the paper calls it "a representative
//! data-center benchmark".

use neomem_types::{Access, AccessKind, VirtPage};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::perm::Permutation;
use crate::zipf::Zipf;
use crate::{Marker, Workload, WorkloadEvent, MIN_RSS_PAGES};

/// Fraction of the footprint for session/cache state.
const SESSION_FRACTION: f64 = 0.3;
/// Fraction for log/trace buffers.
const LOG_FRACTION: f64 = 0.2;
/// Accesses between working-set drift steps.
const DRIFT_PERIOD: u64 = 200_000;
/// Fraction of the content region that is "currently popular".
const WINDOW_FRACTION: f64 = 0.2;

/// The DeathStarBench generator.
#[derive(Debug, Clone)]
pub struct DeathStar {
    rss_pages: u64,
    session_pages: u64,
    log_pages: u64,
    content_pages: u64,
    session_skew: Zipf,
    /// Session rank → page: hot sessions are heap-scattered.
    session_placement: Permutation,
    rng: SmallRng,
    log_cursor: u64,
    window_base: u64,
    accesses: u64,
    drifts: u32,
    queued: Vec<Access>,
}

impl DeathStar {
    /// Creates the generator.
    ///
    /// # Panics
    ///
    /// Panics if `rss_pages` is below [`crate::MIN_RSS_PAGES`].
    pub fn new(rss_pages: u64, seed: u64) -> Self {
        assert!(rss_pages >= MIN_RSS_PAGES, "deathstar needs at least {MIN_RSS_PAGES} pages");
        let session_pages = ((rss_pages as f64 * SESSION_FRACTION) as u64).max(8);
        let log_pages = ((rss_pages as f64 * LOG_FRACTION) as u64).max(4);
        let content_pages = rss_pages - session_pages - log_pages;
        Self {
            rss_pages,
            session_pages,
            log_pages,
            content_pages,
            session_skew: Zipf::new(session_pages as usize, 0.9),
            session_placement: Permutation::new(session_pages as usize, seed),
            rng: SmallRng::seed_from_u64(seed ^ 0x4453_4221),
            log_cursor: 0,
            window_base: 0,
            accesses: 0,
            drifts: 0,
            queued: Vec::new(),
        }
    }

    /// Number of drift steps so far.
    pub fn drifts(&self) -> u32 {
        self.drifts
    }

    fn window_pages(&self) -> u64 {
        ((self.content_pages as f64 * WINDOW_FRACTION) as u64).max(1)
    }
}

impl Workload for DeathStar {
    crate::impl_batched_fill_events!();

    fn name(&self) -> &'static str {
        "DeathStarBench"
    }

    fn rss_pages(&self) -> u64 {
        self.rss_pages
    }

    fn next_event(&mut self) -> WorkloadEvent {
        if let Some(a) = self.queued.pop() {
            return WorkloadEvent::Access(a);
        }
        self.accesses += 1;
        if self.accesses.is_multiple_of(DRIFT_PERIOD) {
            // Shift the popular-content window by half its width.
            self.drifts += 1;
            self.window_base =
                (self.window_base + self.window_pages() / 2) % (self.content_pages - self.window_pages());
            return WorkloadEvent::Marker(Marker { id: self.drifts, label: "popularity-drift" });
        }
        // One request: session read (+5% update), content read from the
        // popular window (80%) or the long tail, and a log append.
        let session = self.session_placement.apply(self.session_skew.sample(&mut self.rng));
        let session_kind =
            if self.rng.gen_bool(0.05) { AccessKind::Write } else { AccessKind::Read };
        self.queued.push(Access::new(
            VirtPage::new(session),
            self.rng.gen_range(0..64u8),
            session_kind,
        ));
        let content_base = self.session_pages + self.log_pages;
        let content = if self.rng.gen_bool(0.8) {
            content_base + self.window_base + self.rng.gen_range(0..self.window_pages())
        } else {
            content_base + self.rng.gen_range(0..self.content_pages)
        };
        self.queued.push(Access::new(
            VirtPage::new(content.min(self.rss_pages - 1)),
            self.rng.gen_range(0..64u8),
            AccessKind::Read,
        ));
        let log = self.session_pages + self.log_cursor % self.log_pages;
        self.log_cursor += 1;
        WorkloadEvent::Access(Access::new(
            VirtPage::new(log),
            (self.log_cursor % 64) as u8,
            AccessKind::Write,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_mix_has_all_three_components() {
        let mut d = DeathStar::new(2048, 1);
        let (mut session, mut log, mut content) = (0u32, 0u32, 0u32);
        for _ in 0..30_000 {
            if let WorkloadEvent::Access(a) = d.next_event() {
                let p = a.vpage.index();
                if p < d.session_pages {
                    session += 1;
                } else if p < d.session_pages + d.log_pages {
                    log += 1;
                } else {
                    content += 1;
                }
            }
        }
        assert!(session > 0 && log > 0 && content > 0, "{session}/{log}/{content}");
    }

    #[test]
    fn drift_markers_move_window() {
        let mut d = DeathStar::new(1024, 2);
        let before = d.window_base;
        let mut saw = false;
        for _ in 0..(DRIFT_PERIOD as usize * 4) {
            if let WorkloadEvent::Marker(m) = d.next_event() {
                assert_eq!(m.label, "popularity-drift");
                saw = true;
                break;
            }
        }
        assert!(saw, "drift marker expected within one period of events");
        assert_ne!(d.window_base, before);
        assert_eq!(d.drifts(), 1);
    }

    #[test]
    fn popular_window_concentrates_content_reads() {
        let mut d = DeathStar::new(4096, 3);
        let content_base = d.session_pages + d.log_pages;
        let win = (d.window_base, d.window_base + d.window_pages());
        let (mut inside, mut outside) = (0u64, 0u64);
        for _ in 0..60_000 {
            if let WorkloadEvent::Access(a) = d.next_event() {
                let p = a.vpage.index();
                if p >= content_base {
                    let rel = p - content_base;
                    if rel >= win.0 && rel < win.1 {
                        inside += 1;
                    } else {
                        outside += 1;
                    }
                }
            }
            if d.drifts() > 0 {
                break; // window moved; stop counting
            }
        }
        assert!(inside > outside, "window must dominate: {inside} vs {outside}");
    }
}
