//! PMU-sampling policies: the `PEBS` baseline and Memtis (Fig. 17).

use neomem_kernel::Kernel;
use neomem_profilers::{AccessEvent, PebsConfig, PebsSampler};
use neomem_types::json::Json;
use neomem_types::{Bandwidth, Bytes, Nanos, Result, VirtPage, PAGE_SIZE};

use crate::quota::QuotaMeter;
use crate::{ensure_fast_headroom, PolicyTelemetry, TieringPolicy};

/// Configuration shared by the PEBS-based policies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PebsPolicyConfig {
    /// Sampler settings (interval, buffer, costs).
    pub pebs: PebsConfig,
    /// Slow-tier samples required before a page is promoted.
    pub min_samples: u32,
    /// Promotion cadence.
    pub migration_interval: Nanos,
    /// Sample-count reset cadence.
    pub clear_interval: Nanos,
    /// Fast-tier headroom fraction.
    pub headroom_frac: f64,
}

impl Default for PebsPolicyConfig {
    fn default() -> Self {
        Self {
            pebs: PebsConfig::default(),
            min_samples: 2,
            migration_interval: Nanos::from_millis(50),
            clear_interval: Nanos::from_secs(2),
            headroom_frac: 0.02,
        }
    }
}

impl PebsPolicyConfig {
    /// Cadences divided by `factor` for scaled simulations. The
    /// sampling interval shrinks with the event-count compression so
    /// PEBS keeps its paper-calibre recall (Table V's 200–5000 range is
    /// calibrated against billions of LLC misses; compressed runs see
    /// ~1000× fewer events).
    pub fn scaled(factor: u64) -> Self {
        let d = Self::default();
        let interval = (d.pebs.sample_interval * 20 / factor.max(1)).max(20);
        Self {
            migration_interval: (d.migration_interval / factor).max(Nanos::from_micros(200)),
            clear_interval: (d.clear_interval / factor).max(Nanos::from_millis(1)),
            pebs: neomem_profilers::PebsConfig { sample_interval: interval, ..d.pebs },
            ..d
        }
    }
}

/// The `PEBS` baseline: sample LLC misses, promote pages with enough
/// samples, demote LRU-cold pages for headroom.
#[derive(Debug)]
pub struct PebsPolicy {
    sampler: PebsSampler,
    config: PebsPolicyConfig,
    quota: QuotaMeter,
    started: bool,
    next_migrate: Nanos,
    next_clear: Nanos,
    overhead: Nanos,
}

impl PebsPolicy {
    /// Creates the policy.
    pub fn new(config: PebsPolicyConfig, mquota: Bandwidth) -> Self {
        Self {
            sampler: PebsSampler::new(config.pebs),
            config,
            quota: QuotaMeter::new(mquota),
            started: false,
            next_migrate: Nanos::ZERO,
            next_clear: Nanos::ZERO,
            overhead: Nanos::ZERO,
        }
    }

    /// The sampler (bench telemetry).
    pub fn sampler(&self) -> &PebsSampler {
        &self.sampler
    }

    fn promote_candidates(
        &mut self,
        candidates: Vec<VirtPage>,
        kernel: &mut Kernel,
        now: Nanos,
    ) -> Nanos {
        let mut cost = ensure_fast_headroom(kernel, self.config.headroom_frac, now);
        for vpage in candidates {
            if kernel.tier_of(vpage).map(|t| t.is_fast()).unwrap_or(true) {
                continue;
            }
            if !self.quota.try_consume(Bytes::new(PAGE_SIZE), now + cost) {
                break;
            }
            if let Ok(t) = kernel.promote(vpage, now + cost) {
                cost += t;
            }
        }
        cost
    }
}

impl TieringPolicy for PebsPolicy {
    fn name(&self) -> &'static str {
        "PEBS"
    }

    fn on_access(&mut self, ev: &AccessEvent, kernel: &mut Kernel) -> Nanos {
        if ev.llc_miss && ev.tier.is_fast() {
            kernel.record_fast_access(ev.vpage);
        }
        let cost = self.sampler.on_access(ev);
        self.overhead += cost;
        cost
    }

    fn maybe_tick(&mut self, kernel: &mut Kernel, now: Nanos) -> Nanos {
        if !self.started {
            self.started = true;
            self.next_migrate = now + self.config.migration_interval;
            self.next_clear = now + self.config.clear_interval;
            return Nanos::ZERO;
        }
        let mut cost = Nanos::ZERO;
        if now >= self.next_migrate {
            let candidates = self.sampler.hot_candidates(self.config.min_samples);
            cost += self.promote_candidates(candidates, kernel, now);
            self.next_migrate = now + self.config.migration_interval;
        }
        if now >= self.next_clear {
            self.sampler.clear();
            self.next_clear = now + self.config.clear_interval;
        }
        self.overhead += cost;
        cost
    }

    fn telemetry(&self) -> PolicyTelemetry {
        PolicyTelemetry { profiling_overhead: self.overhead, ..Default::default() }
    }

    fn snapshot_state(&self) -> Json {
        Json::obj([
            ("sampler", self.sampler.snapshot()),
            ("quota", self.quota.snapshot()),
            ("started", Json::Bool(self.started)),
            ("next_migrate", Json::U64(self.next_migrate.as_nanos())),
            ("next_clear", Json::U64(self.next_clear.as_nanos())),
            ("overhead", Json::U64(self.overhead.as_nanos())),
        ])
    }

    fn restore_state(&mut self, state: &Json) -> Result<()> {
        self.sampler.restore(state.req("sampler")?)?;
        self.quota.restore(state.req("quota")?)?;
        self.started = state.req_bool("started")?;
        self.next_migrate = Nanos::new(state.req_u64("next_migrate")?);
        self.next_clear = Nanos::new(state.req_u64("next_clear")?);
        self.overhead = Nanos::new(state.req_u64("overhead")?);
        Ok(())
    }
}

/// Memtis-style policy (Lee et al., SOSP'23): PEBS samples feed a
/// count distribution; the hot set is the top pages whose cumulative
/// footprint fits the fast tier, re-classified at a coarse cadence.
///
/// The deliberate sluggishness (long classification interval, higher
/// sample floor) reproduces the paper's Fig. 17 finding that Memtis
/// under-promotes under rapidly changing access patterns.
#[derive(Debug)]
pub struct MemtisPolicy {
    sampler: PebsSampler,
    quota: QuotaMeter,
    classification_interval: Nanos,
    headroom_frac: f64,
    min_samples: u32,
    started: bool,
    next_classify: Nanos,
    overhead: Nanos,
}

impl MemtisPolicy {
    /// Creates the policy with Memtis-like defaults.
    pub fn new(pebs: PebsConfig, mquota: Bandwidth, classification_interval: Nanos) -> Self {
        Self {
            sampler: PebsSampler::new(pebs),
            quota: QuotaMeter::new(mquota),
            classification_interval,
            headroom_frac: 0.02,
            min_samples: 4,
            started: false,
            next_classify: Nanos::ZERO,
            overhead: Nanos::ZERO,
        }
    }

    /// Scaled constructor for quick simulations (sampling interval
    /// compressed like [`PebsPolicyConfig::scaled`]).
    pub fn scaled(factor: u64, mquota: Bandwidth) -> Self {
        let interval = (Nanos::from_secs(1) / factor).max(Nanos::from_millis(2));
        let sample_interval =
            (PebsConfig::default().sample_interval * 20 / factor.max(1)).max(20);
        Self::new(PebsConfig { sample_interval, ..PebsConfig::default() }, mquota, interval)
    }
}

impl TieringPolicy for MemtisPolicy {
    fn name(&self) -> &'static str {
        "Memtis"
    }

    fn on_access(&mut self, ev: &AccessEvent, kernel: &mut Kernel) -> Nanos {
        if ev.llc_miss && ev.tier.is_fast() {
            kernel.record_fast_access(ev.vpage);
        }
        let cost = self.sampler.on_access(ev);
        self.overhead += cost;
        cost
    }

    fn maybe_tick(&mut self, kernel: &mut Kernel, now: Nanos) -> Nanos {
        if !self.started {
            self.started = true;
            self.next_classify = now + self.classification_interval;
            return Nanos::ZERO;
        }
        if now < self.next_classify {
            return Nanos::ZERO;
        }
        self.next_classify = now + self.classification_interval;

        // Hot-set classification: rank sampled pages by count, keep the
        // top pages that fit the fast tier, promote the slow ones.
        let mut ranked: Vec<(VirtPage, u32)> = self.sampler.counts().collect();
        ranked.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let fast_capacity = kernel.memory().allocator(neomem_types::Tier::Fast).capacity();
        let budget = (fast_capacity as f64 * 0.9) as usize;
        let mut cost = ensure_fast_headroom(kernel, self.headroom_frac, now);
        for (vpage, samples) in ranked.into_iter().take(budget) {
            if samples < self.min_samples {
                break;
            }
            if kernel.tier_of(vpage).map(|t| t.is_fast()).unwrap_or(true) {
                continue;
            }
            if !self.quota.try_consume(Bytes::new(PAGE_SIZE), now + cost) {
                break;
            }
            if let Ok(t) = kernel.promote(vpage, now + cost) {
                cost += t;
            }
        }
        self.sampler.clear();
        self.overhead += cost;
        cost
    }

    fn telemetry(&self) -> PolicyTelemetry {
        PolicyTelemetry { profiling_overhead: self.overhead, ..Default::default() }
    }

    fn snapshot_state(&self) -> Json {
        Json::obj([
            ("sampler", self.sampler.snapshot()),
            ("quota", self.quota.snapshot()),
            ("started", Json::Bool(self.started)),
            ("next_classify", Json::U64(self.next_classify.as_nanos())),
            ("overhead", Json::U64(self.overhead.as_nanos())),
        ])
    }

    fn restore_state(&mut self, state: &Json) -> Result<()> {
        self.sampler.restore(state.req("sampler")?)?;
        self.quota.restore(state.req("quota")?)?;
        self.started = state.req_bool("started")?;
        self.next_classify = Nanos::new(state.req_u64("next_classify")?);
        self.overhead = Nanos::new(state.req_u64("overhead")?);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neomem_kernel::KernelConfig;
    use neomem_types::{AccessKind, PageNum, Tier};

    fn kernel() -> Kernel {
        let mut k = Kernel::new(KernelConfig::with_frames(8, 32));
        for p in 0..24 {
            k.touch_alloc(VirtPage::new(p), Nanos::ZERO).unwrap();
        }
        k
    }

    fn miss(k: &Kernel, vpage: u64) -> AccessEvent {
        let frame = k.translate(VirtPage::new(vpage)).unwrap();
        AccessEvent {
            vpage: VirtPage::new(vpage),
            frame,
            tier: k.memory().tier_of(frame),
            kind: AccessKind::Read,
            tlb_hit: true,
            llc_miss: true,
            now: Nanos::ZERO,
        }
    }

    #[test]
    fn pebs_promotes_sampled_hot_pages() {
        let mut k = kernel();
        let cfg = PebsPolicyConfig {
            pebs: PebsConfig { sample_interval: 1, ..Default::default() },
            ..PebsPolicyConfig::scaled(1000)
        };
        let mut policy = PebsPolicy::new(cfg, Bandwidth::from_mib_per_sec(256));
        policy.maybe_tick(&mut k, Nanos::ZERO);
        for _ in 0..5 {
            policy.on_access(&miss(&k, 20), &mut k);
        }
        policy.maybe_tick(&mut k, Nanos::from_millis(100));
        assert!(k.tier_of(VirtPage::new(20)).unwrap().is_fast());
    }

    #[test]
    fn pebs_sparse_sampling_misses_hot_pages() {
        let mut k = kernel();
        let cfg = PebsPolicyConfig {
            pebs: PebsConfig { sample_interval: 5000, ..Default::default() },
            ..PebsPolicyConfig::scaled(1000)
        };
        let mut policy = PebsPolicy::new(cfg, Bandwidth::from_mib_per_sec(256));
        policy.maybe_tick(&mut k, Nanos::ZERO);
        for _ in 0..50 {
            policy.on_access(&miss(&k, 20), &mut k);
        }
        policy.maybe_tick(&mut k, Nanos::from_millis(100));
        assert!(
            k.tier_of(VirtPage::new(20)).unwrap().is_slow(),
            "50 misses < one sample at interval 5000"
        );
    }

    #[test]
    fn pebs_charges_sampling_overhead() {
        let mut k = kernel();
        let cfg = PebsPolicyConfig {
            pebs: PebsConfig { sample_interval: 1, ..Default::default() },
            ..PebsPolicyConfig::scaled(1000)
        };
        let mut policy = PebsPolicy::new(cfg, Bandwidth::from_mib_per_sec(256));
        let c = policy.on_access(&miss(&k, 20), &mut k);
        assert!(c > Nanos::ZERO);
        assert!(policy.telemetry().profiling_overhead > Nanos::ZERO);
    }

    #[test]
    fn memtis_classifies_top_of_distribution() {
        let mut k = kernel();
        let mut policy = MemtisPolicy::new(
            PebsConfig { sample_interval: 1, ..Default::default() },
            Bandwidth::from_mib_per_sec(256),
            Nanos::from_millis(5),
        );
        policy.maybe_tick(&mut k, Nanos::ZERO);
        // Page 20 very hot, page 21 lukewarm (below min_samples=4).
        for _ in 0..20 {
            policy.on_access(&miss(&k, 20), &mut k);
        }
        for _ in 0..3 {
            policy.on_access(&miss(&k, 21), &mut k);
        }
        policy.maybe_tick(&mut k, Nanos::from_millis(10));
        assert!(k.tier_of(VirtPage::new(20)).unwrap().is_fast());
        assert!(k.tier_of(VirtPage::new(21)).unwrap().is_slow(), "below Memtis sample floor");
    }

    #[test]
    fn memtis_is_slower_to_react_than_pebs() {
        // Same access pattern, but Memtis's coarse classification window
        // hasn't elapsed yet where PEBS's migration interval has.
        let mut k1 = kernel();
        let mut k2 = kernel();
        let pebs_cfg = PebsPolicyConfig {
            pebs: PebsConfig { sample_interval: 1, ..Default::default() },
            migration_interval: Nanos::from_millis(1),
            ..PebsPolicyConfig::scaled(1000)
        };
        let mut pebs = PebsPolicy::new(pebs_cfg, Bandwidth::from_mib_per_sec(256));
        let mut memtis = MemtisPolicy::new(
            PebsConfig { sample_interval: 1, ..Default::default() },
            Bandwidth::from_mib_per_sec(256),
            Nanos::from_secs(1),
        );
        pebs.maybe_tick(&mut k1, Nanos::ZERO);
        memtis.maybe_tick(&mut k2, Nanos::ZERO);
        for _ in 0..10 {
            pebs.on_access(&miss(&k1, 20), &mut k1);
            memtis.on_access(&miss(&k2, 20), &mut k2);
        }
        let t = Nanos::from_millis(5);
        pebs.maybe_tick(&mut k1, t);
        memtis.maybe_tick(&mut k2, t);
        assert!(k1.tier_of(VirtPage::new(20)).unwrap().is_fast(), "PEBS acted");
        assert!(k2.tier_of(VirtPage::new(20)).unwrap().is_slow(), "Memtis still waiting");
        let _ = PageNum::new(0);
        let _ = Tier::Fast;
    }
}
