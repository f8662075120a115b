//! A single memory node: latency + bandwidth queueing model.

use neomem_types::fault::MAX_LINK_MULTIPLIER;
use neomem_types::json::Json;
use neomem_types::{AccessKind, Bandwidth, Error, Nanos, NodeId, Result, Tier, LINE_SIZE};

use crate::meter::BandwidthMeter;

/// Configuration of one memory node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeConfig {
    /// Which NUMA node this is.
    pub id: NodeId,
    /// Fast (DDR) or slow (CXL) tier.
    pub tier: Tier,
    /// Capacity in 4 KiB frames.
    pub capacity_frames: u64,
    /// Unloaded read latency.
    pub read_latency: Nanos,
    /// Unloaded write latency (writes post to buffers; typically cheaper
    /// at the CPU but the device still occupies the channel).
    pub write_latency: Nanos,
    /// Peak sustainable bandwidth.
    pub bandwidth: Bandwidth,
}

impl NodeConfig {
    /// The paper's host DDR5-4800 node: ≈118 ns loaded latency (Fig. 3a).
    pub fn ddr_fast(capacity_frames: u64) -> Self {
        Self {
            id: NodeId::FAST,
            tier: Tier::Fast,
            capacity_frames,
            read_latency: Nanos::new(118),
            write_latency: Nanos::new(90),
            bandwidth: Bandwidth::from_gib_per_sec(30.0),
        }
    }

    /// The paper's FPGA CXL prototype: ≈430 ns (Fig. 3a), DDR4-2666 x2
    /// behind a CXL 1.1 x16 link.
    pub fn cxl_prototype(capacity_frames: u64) -> Self {
        Self {
            id: NodeId::SLOW,
            tier: Tier::Slow,
            capacity_frames,
            read_latency: Nanos::new(430),
            write_latency: Nanos::new(380),
            bandwidth: Bandwidth::from_gib_per_sec(12.0),
        }
    }

    /// An "ideal" ASIC CXL device at 210 ns, the middle of the 170–250 ns
    /// band prior emulation studies assume (paper §II-A).
    pub fn cxl_ideal(capacity_frames: u64) -> Self {
        Self {
            id: NodeId::SLOW,
            tier: Tier::Slow,
            capacity_frames,
            read_latency: Nanos::new(210),
            write_latency: Nanos::new(180),
            bandwidth: Bandwidth::from_gib_per_sec(20.0),
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for a zero-capacity node or
    /// zero bandwidth.
    pub fn validate(&self) -> Result<()> {
        if self.capacity_frames == 0 {
            return Err(Error::invalid_config(format!("{} has zero capacity", self.id)));
        }
        if self.bandwidth.bytes_per_sec() <= 0.0 {
            return Err(Error::invalid_config(format!("{} has zero bandwidth", self.id)));
        }
        Ok(())
    }
}

/// Per-node access counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Line reads serviced.
    pub reads: u64,
    /// Line writes serviced.
    pub writes: u64,
    /// Extra queueing delay accumulated when the channel was saturated.
    pub queueing: Nanos,
}

/// A memory node servicing 64-byte line requests.
///
/// The service model is latency + M/D/1-ish queueing: each request
/// occupies the channel for `line / bandwidth`; if a request arrives
/// while the channel is still busy it waits, which surfaces as the
/// bandwidth wall the paper observes when all threads hammer CXL memory.
#[derive(Debug, Clone)]
pub struct MemoryNode {
    config: NodeConfig,
    /// Simulated time until which the channel is busy.
    busy_until: Nanos,
    line_occupancy: Nanos,
    meter: BandwidthMeter,
    stats: NodeStats,
    /// Link-degradation latency multiplier (1 = healthy). Set by the
    /// fault layer for brownout windows.
    latency_x: u64,
    /// Link-degradation bandwidth divisor (1 = healthy): every channel
    /// occupancy is multiplied by it, throttling effective bandwidth.
    bandwidth_div: u64,
}

impl MemoryNode {
    /// Creates the node.
    ///
    /// # Panics
    ///
    /// Panics on an invalid config; pre-validate with
    /// [`NodeConfig::validate`].
    pub fn new(config: NodeConfig) -> Self {
        config.validate().expect("invalid node config");
        let line_occupancy = config.bandwidth.transfer_time(neomem_types::Bytes::new(LINE_SIZE));
        Self {
            config,
            busy_until: Nanos::ZERO,
            line_occupancy,
            meter: BandwidthMeter::new(),
            stats: NodeStats::default(),
            latency_x: 1,
            bandwidth_div: 1,
        }
    }

    /// Applies a link-degradation window: latency is multiplied by
    /// `latency_x` and every channel occupancy by `bandwidth_div`
    /// until [`MemoryNode::clear_degradation`]. Healthy values (1, 1)
    /// leave service times bit-identical.
    pub fn set_degradation(&mut self, latency_x: u64, bandwidth_div: u64) {
        self.latency_x = latency_x.max(1);
        self.bandwidth_div = bandwidth_div.max(1);
    }

    /// Ends a link-degradation window.
    pub fn clear_degradation(&mut self) {
        self.latency_x = 1;
        self.bandwidth_div = 1;
    }

    /// Current latency multiplier (1 = healthy).
    pub fn latency_multiplier(&self) -> u64 {
        self.latency_x
    }

    /// Current bandwidth divisor (1 = healthy).
    pub fn bandwidth_divisor(&self) -> u64 {
        self.bandwidth_div
    }

    /// The occupancy one line transfer charges under the current
    /// degradation state.
    fn effective_line_occupancy(&self) -> Nanos {
        Nanos::new(self.line_occupancy.as_nanos().saturating_mul(self.bandwidth_div))
    }

    /// Returns the node configuration.
    pub fn config(&self) -> &NodeConfig {
        &self.config
    }

    /// Services one 64-byte request arriving at `now`; returns the total
    /// service time (queueing + latency) experienced by the requester.
    pub fn service(&mut self, kind: AccessKind, now: Nanos) -> Nanos {
        let occupancy = self.effective_line_occupancy();
        let wait = self.busy_until.saturating_sub(now);
        let start = now + wait;
        self.busy_until = start + occupancy;
        self.meter.record(kind, occupancy);
        match kind {
            AccessKind::Read => self.stats.reads += 1,
            AccessKind::Write => self.stats.writes += 1,
        }
        self.stats.queueing += wait;
        let latency = match kind {
            AccessKind::Read => self.config.read_latency,
            AccessKind::Write => self.config.write_latency,
        };
        wait + Nanos::new(latency.as_nanos().saturating_mul(self.latency_x))
    }

    /// Charges a bulk transfer (page migration) of `bytes` starting at
    /// `now`; returns its completion time contribution.
    pub fn bulk_transfer(&mut self, bytes: neomem_types::Bytes, now: Nanos) -> Nanos {
        let wait = self.busy_until.saturating_sub(now);
        let base = self.config.bandwidth.transfer_time(bytes);
        let occupy = Nanos::new(base.as_nanos().saturating_mul(self.bandwidth_div));
        self.busy_until = now + wait + occupy;
        self.meter.record(AccessKind::Write, occupy);
        wait + occupy
    }

    /// The node's bandwidth meter (consumed by NeoProf's state monitor).
    pub fn meter(&self) -> &BandwidthMeter {
        &self.meter
    }

    /// Begins a new metering window at `now` and returns the finished one.
    pub fn roll_meter(&mut self, now: Nanos) -> crate::meter::BandwidthSample {
        self.meter.roll(now)
    }

    /// Returns accumulated counters.
    pub fn stats(&self) -> NodeStats {
        self.stats
    }

    /// Channel occupancy of a single line transfer.
    pub fn line_occupancy(&self) -> Nanos {
        self.line_occupancy
    }

    /// Serialises the node's mutable state (channel busy horizon, meter
    /// window, counters) for a machine snapshot. The configuration and
    /// derived line occupancy are not included — a snapshot is restored
    /// onto a node built with the same config.
    pub fn snapshot(&self) -> Json {
        Json::obj([
            ("busy_until", Json::U64(self.busy_until.as_nanos())),
            ("meter", self.meter.snapshot()),
            ("reads", Json::U64(self.stats.reads)),
            ("writes", Json::U64(self.stats.writes)),
            ("queueing", Json::U64(self.stats.queueing.as_nanos())),
            ("latency_x", Json::U64(self.latency_x)),
            ("bandwidth_div", Json::U64(self.bandwidth_div)),
        ])
    }

    /// Restores [`MemoryNode::snapshot`] state.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Snapshot`] on missing/malformed fields and on a
    /// latency multiplier or bandwidth divisor outside
    /// `1..=MAX_LINK_MULTIPLIER`, the range fault plans validate.
    pub fn restore(&mut self, snap: &Json) -> Result<()> {
        let busy_until = Nanos::new(snap.req_u64("busy_until")?);
        let stats = NodeStats {
            reads: snap.req_u64("reads")?,
            writes: snap.req_u64("writes")?,
            queueing: Nanos::new(snap.req_u64("queueing")?),
        };
        self.meter.restore(snap.req("meter")?)?;
        self.busy_until = busy_until;
        self.stats = stats;
        let multiplier = |key: &str| {
            let value = snap.req_u64(key)?;
            if !(1..=MAX_LINK_MULTIPLIER).contains(&value) {
                return Err(Error::snapshot(format!(
                    "{key} {value} outside 1..={MAX_LINK_MULTIPLIER}"
                )));
            }
            Ok(value)
        };
        self.latency_x = multiplier("latency_x")?;
        self.bandwidth_div = multiplier("bandwidth_div")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_paper_latencies() {
        let fast = NodeConfig::ddr_fast(100);
        let proto = NodeConfig::cxl_prototype(100);
        let ideal = NodeConfig::cxl_ideal(100);
        assert_eq!(fast.read_latency, Nanos::new(118));
        assert_eq!(proto.read_latency, Nanos::new(430));
        assert!(ideal.read_latency >= Nanos::new(170) && ideal.read_latency <= Nanos::new(250));
        // Prototype is ~3.6x host latency (Fig. 3a).
        let ratio = proto.read_latency.as_nanos() as f64 / fast.read_latency.as_nanos() as f64;
        assert!(ratio > 3.0 && ratio < 4.2, "ratio {ratio}");
    }

    #[test]
    fn unloaded_access_costs_latency_only() {
        let mut n = MemoryNode::new(NodeConfig::ddr_fast(10));
        let t = n.service(AccessKind::Read, Nanos::from_micros(5));
        assert_eq!(t, Nanos::new(118));
    }

    #[test]
    fn back_to_back_requests_queue() {
        let mut n = MemoryNode::new(NodeConfig::cxl_prototype(10));
        let now = Nanos::ZERO;
        let first = n.service(AccessKind::Read, now);
        let second = n.service(AccessKind::Read, now);
        assert!(second > first, "second request must absorb queueing delay");
        assert!(n.stats().queueing > Nanos::ZERO);
    }

    #[test]
    fn queue_drains_with_time() {
        let mut n = MemoryNode::new(NodeConfig::cxl_prototype(10));
        n.service(AccessKind::Read, Nanos::ZERO);
        // Arrive long after the channel freed up: no queueing.
        let t = n.service(AccessKind::Read, Nanos::from_millis(1));
        assert_eq!(t, Nanos::new(430));
    }

    #[test]
    fn reads_writes_counted_separately() {
        let mut n = MemoryNode::new(NodeConfig::ddr_fast(10));
        n.service(AccessKind::Read, Nanos::ZERO);
        n.service(AccessKind::Write, Nanos::from_micros(1));
        n.service(AccessKind::Write, Nanos::from_micros(2));
        assert_eq!(n.stats().reads, 1);
        assert_eq!(n.stats().writes, 2);
    }

    #[test]
    fn bulk_transfer_occupies_channel() {
        let mut n = MemoryNode::new(NodeConfig::ddr_fast(10));
        let t = n.bulk_transfer(neomem_types::Bytes::from_kib(4), Nanos::ZERO);
        assert!(t > Nanos::ZERO);
        // A line access right after the bulk transfer should queue.
        let access = n.service(AccessKind::Read, Nanos::ZERO);
        assert!(access > Nanos::new(118));
    }

    #[test]
    fn degradation_multiplies_latency_and_throttles_bandwidth() {
        let mut n = MemoryNode::new(NodeConfig::cxl_prototype(10));
        let healthy = n.service(AccessKind::Read, Nanos::from_millis(1));
        n.set_degradation(3, 4);
        let degraded = n.service(AccessKind::Read, Nanos::from_millis(2));
        assert_eq!(degraded.as_nanos(), healthy.as_nanos() * 3, "latency multiplier");
        // Back-to-back under a bandwidth divisor queues 4x as long.
        let queued = n.service(AccessKind::Read, Nanos::from_millis(2));
        assert_eq!(
            queued.as_nanos(),
            n.line_occupancy().as_nanos() * 4 + healthy.as_nanos() * 3,
            "occupancy is divided bandwidth"
        );
        n.clear_degradation();
        let recovered = n.service(AccessKind::Read, Nanos::from_millis(9));
        assert_eq!(recovered, healthy, "recovery restores healthy service");
        // Degradation state survives a snapshot round trip.
        n.set_degradation(2, 2);
        let snap = n.snapshot();
        let mut other = MemoryNode::new(NodeConfig::cxl_prototype(10));
        other.restore(&snap).unwrap();
        let a = n.service(AccessKind::Read, Nanos::from_millis(20));
        let b = other.service(AccessKind::Read, Nanos::from_millis(20));
        assert_eq!(a, b);
    }

    #[test]
    fn validation_rejects_zero_capacity() {
        let mut cfg = NodeConfig::ddr_fast(0);
        assert!(cfg.validate().is_err());
        cfg.capacity_frames = 1;
        cfg.validate().unwrap();
    }
}
