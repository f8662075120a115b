//! PMU sampling à la Intel PEBS (paper §II-C, Fig. 4c).
//!
//! PEBS records every N-th LLC miss into a memory buffer; a full buffer
//! raises an interrupt the kernel must service. The two tunables the
//! paper sweeps are the sampling interval (Table V: 200–5000) and the
//! resulting overhead-vs-recall trade-off: short intervals slow the
//! workload down (>50 % at interval 10, Fig. 4c), long intervals miss
//! hot pages (the Fig. 13 under-promotion behaviour).

use std::collections::HashMap;

use neomem_types::json::{hex_from_u64s, Json};
use neomem_types::{Error, Nanos, Result, Tier, VirtPage};

use crate::event::AccessEvent;

/// PEBS configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PebsConfig {
    /// Record one sample every `sample_interval` LLC misses.
    pub sample_interval: u64,
    /// Microarchitectural cost of capturing one PEBS record.
    pub per_sample_cost: Nanos,
    /// Records buffered before the drain interrupt fires.
    pub buffer_entries: u64,
    /// Kernel time to service one buffer-drain interrupt.
    pub drain_cost: Nanos,
}

impl Default for PebsConfig {
    fn default() -> Self {
        Self {
            sample_interval: 1000,
            per_sample_cost: Nanos::new(150),
            buffer_entries: 64,
            drain_cost: Nanos::from_micros(4),
        }
    }
}

/// The PEBS sampling engine.
#[derive(Debug, Clone)]
pub struct PebsSampler {
    config: PebsConfig,
    miss_counter: u64,
    buffered: u64,
    /// Samples per virtual page that hit the *slow* tier (promotion
    /// candidates).
    slow_counts: HashMap<u64, u32>,
    total_samples: u64,
}

impl PebsSampler {
    /// Creates the sampler.
    ///
    /// # Panics
    ///
    /// Panics if `sample_interval` is zero.
    pub fn new(config: PebsConfig) -> Self {
        assert!(config.sample_interval > 0, "sample interval must be positive");
        Self { config, miss_counter: 0, buffered: 0, slow_counts: HashMap::new(), total_samples: 0 }
    }

    /// Feeds one access; only LLC misses are visible to the PMU.
    /// Returns the CPU overhead incurred (sampling + any drain interrupt).
    pub fn on_access(&mut self, ev: &AccessEvent) -> Nanos {
        if !ev.llc_miss {
            return Nanos::ZERO;
        }
        self.miss_counter += 1;
        if !self.miss_counter.is_multiple_of(self.config.sample_interval) {
            return Nanos::ZERO;
        }
        self.total_samples += 1;
        self.buffered += 1;
        if ev.tier == Tier::Slow {
            *self.slow_counts.entry(ev.vpage.index()).or_default() += 1;
        }
        let mut cost = self.config.per_sample_cost;
        if self.buffered >= self.config.buffer_entries {
            self.buffered = 0;
            cost += self.config.drain_cost;
        }
        cost
    }

    /// Pages with at least `min_samples` slow-tier samples — the
    /// promotion candidates a PEBS-based policy acts on.
    pub fn hot_candidates(&self, min_samples: u32) -> Vec<VirtPage> {
        let mut pages: Vec<(u64, u32)> = self
            .slow_counts
            .iter()
            .filter(|(_, &c)| c >= min_samples)
            .map(|(&p, &c)| (p, c))
            .collect();
        // Hottest first, deterministic tiebreak by page number.
        pages.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        pages.into_iter().map(|(p, _)| VirtPage::new(p)).collect()
    }

    /// Iterates `(vpage, samples)` over all recorded slow-tier pages
    /// (Memtis-style policies build their distribution from this).
    pub fn counts(&self) -> impl Iterator<Item = (VirtPage, u32)> + '_ {
        self.slow_counts.iter().map(|(&p, &c)| (VirtPage::new(p), c))
    }

    /// Total samples captured since the last clear.
    pub fn total_samples(&self) -> u64 {
        self.total_samples
    }

    /// Clears per-period sample state.
    pub fn clear(&mut self) {
        self.slow_counts.clear();
        self.total_samples = 0;
    }

    /// The configuration in force.
    pub fn config(&self) -> &PebsConfig {
        &self.config
    }

    /// Serialises the sampler for a machine snapshot: counters plus the
    /// per-page slow-tier sample table as interleaved `(page, samples)`
    /// pairs sorted by page so the rendering is independent of hash-map
    /// iteration order.
    pub fn snapshot(&self) -> Json {
        let mut pairs: Vec<(u64, u32)> = self.slow_counts.iter().map(|(&p, &c)| (p, c)).collect();
        pairs.sort_unstable();
        let flat: Vec<u64> = pairs.iter().flat_map(|&(p, c)| [p, u64::from(c)]).collect();
        Json::obj([
            ("miss_counter", Json::U64(self.miss_counter)),
            ("buffered", Json::U64(self.buffered)),
            ("slow_counts", Json::Str(hex_from_u64s(&flat))),
            ("total_samples", Json::U64(self.total_samples)),
        ])
    }

    /// Restores [`PebsSampler::snapshot`] state.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Snapshot`] on missing/malformed fields, an
    /// odd-length pair array, or a sample count exceeding `u32`.
    pub fn restore(&mut self, snap: &Json) -> Result<()> {
        let flat = snap.req_u64s("slow_counts")?;
        if flat.len() % 2 != 0 {
            return Err(Error::snapshot("odd-length pebs sample pair array"));
        }
        let mut counts = HashMap::with_capacity(flat.len() / 2);
        for pair in flat.chunks_exact(2) {
            let c = u32::try_from(pair[1])
                .map_err(|_| Error::snapshot(format!("sample count {} exceeds u32", pair[1])))?;
            counts.insert(pair[0], c);
        }
        self.miss_counter = snap.req_u64("miss_counter")?;
        self.buffered = snap.req_u64("buffered")?;
        self.total_samples = snap.req_u64("total_samples")?;
        self.slow_counts = counts;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neomem_types::{AccessKind, PageNum};

    fn ev(vpage: u64, llc_miss: bool, tier: Tier) -> AccessEvent {
        AccessEvent {
            vpage: VirtPage::new(vpage),
            frame: PageNum::new(vpage),
            tier,
            kind: AccessKind::Read,
            tlb_hit: true,
            llc_miss,
            now: Nanos::ZERO,
        }
    }

    #[test]
    fn samples_every_nth_miss() {
        let mut p = PebsSampler::new(PebsConfig { sample_interval: 10, ..Default::default() });
        for _ in 0..100 {
            p.on_access(&ev(1, true, Tier::Slow));
        }
        assert_eq!(p.total_samples(), 10);
    }

    #[test]
    fn cache_hits_invisible_to_pmu() {
        let mut p = PebsSampler::new(PebsConfig { sample_interval: 1, ..Default::default() });
        for _ in 0..50 {
            assert_eq!(p.on_access(&ev(1, false, Tier::Slow)), Nanos::ZERO);
        }
        assert_eq!(p.total_samples(), 0);
    }

    #[test]
    fn overhead_scales_inversely_with_interval() {
        let run = |interval| {
            let mut p = PebsSampler::new(PebsConfig { sample_interval: interval, ..Default::default() });
            let mut total = Nanos::ZERO;
            for _ in 0..100_000 {
                total += p.on_access(&ev(1, true, Tier::Slow));
            }
            total
        };
        let fast = run(10);
        let slow = run(1000);
        assert!(fast.as_nanos() > slow.as_nanos() * 50, "{fast} vs {slow}");
    }

    #[test]
    fn buffer_drain_interrupt_charged() {
        let cfg = PebsConfig { sample_interval: 1, buffer_entries: 4, ..Default::default() };
        let mut p = PebsSampler::new(cfg);
        let mut costs = Vec::new();
        for _ in 0..8 {
            costs.push(p.on_access(&ev(1, true, Tier::Slow)));
        }
        // Every 4th sample carries the drain cost.
        assert!(costs[3] > costs[0]);
        assert!(costs[7] > costs[6]);
    }

    #[test]
    fn hot_candidates_sorted_and_filtered() {
        let mut p = PebsSampler::new(PebsConfig { sample_interval: 1, ..Default::default() });
        for _ in 0..5 {
            p.on_access(&ev(7, true, Tier::Slow));
        }
        for _ in 0..2 {
            p.on_access(&ev(3, true, Tier::Slow));
        }
        p.on_access(&ev(9, true, Tier::Fast)); // fast-tier: not a candidate
        let hot = p.hot_candidates(2);
        assert_eq!(hot, vec![VirtPage::new(7), VirtPage::new(3)]);
        assert_eq!(p.hot_candidates(6), vec![]);
    }

    #[test]
    fn clear_resets_counts() {
        let mut p = PebsSampler::new(PebsConfig { sample_interval: 1, ..Default::default() });
        p.on_access(&ev(1, true, Tier::Slow));
        p.clear();
        assert!(p.hot_candidates(1).is_empty());
        assert_eq!(p.total_samples(), 0);
    }

    #[test]
    fn low_sampling_misses_pages_high_finds_them() {
        // 64 pages each missed 30 times: interval 1 sees all, interval
        // 2000 sees almost none — the paper's recall argument.
        let mut dense = PebsSampler::new(PebsConfig { sample_interval: 1, ..Default::default() });
        let mut sparse = PebsSampler::new(PebsConfig { sample_interval: 2000, ..Default::default() });
        for round in 0..30 {
            for page in 0..64u64 {
                let e = ev(page, true, Tier::Slow);
                dense.on_access(&e);
                sparse.on_access(&e);
                let _ = round;
            }
        }
        assert_eq!(dense.hot_candidates(1).len(), 64);
        assert!(sparse.hot_candidates(1).len() < 8);
    }
}
