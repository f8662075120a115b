//! The traced run: timing wrappers around the policy and the workload
//! generator, and the standalone replay of the recorded access stream
//! through each layer's public functions.
//!
//! Everything recorded stays in memory until the run ends. The
//! wrappers forward every call unchanged, so a traced run must report
//! exactly what an untraced run of the same cell reports.

use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::{Duration, Instant};

use neomem::cache::{CacheHierarchy, Tlb};
use neomem::kernel::{Kernel, KernelConfig};
use neomem::mem::TieredMemory;
use neomem::policies::{PolicyBox, PolicyTelemetry, TenantLayout, TieringPolicy};
use neomem::profilers::AccessEvent;
use neomem::sim::SimConfig;
use neomem::sketch::{HotPageDetector, SketchParams};
use neomem::types::json::Json;
use neomem::types::{
    AccessKind, CacheLine, DevicePage, FaultKind, Nanos, PageNum, Result, Tier, VirtPage,
};
use neomem::workloads::{Workload, WorkloadEvent};

/// Accumulated host time of one kind of call.
#[derive(Debug, Default, Clone, Copy)]
pub struct Span {
    /// Calls made.
    pub calls: u64,
    /// Host time inside them.
    pub total: Duration,
}

impl Span {
    fn add(&mut self, took: Duration) {
        self.calls += 1;
        self.total += took;
    }
}

/// One policy-visible access event, packed: the frame's spare top bits
/// carry the event's flags.
#[derive(Debug, Clone, Copy)]
pub struct Rec {
    vpage: u32,
    frame_flags: u32,
    now: u64,
}

const REC_SLOW: u32 = 1 << 31;
const REC_WRITE: u32 = 1 << 30;
const REC_TLB_HIT: u32 = 1 << 29;
const REC_LLC_MISS: u32 = 1 << 28;
const REC_FRAME: u32 = REC_LLC_MISS - 1;

impl Rec {
    fn of(ev: &AccessEvent) -> Self {
        let vpage = u32::try_from(ev.vpage.index()).expect("benchmark footprints fit in u32 pages");
        let frame = u32::try_from(ev.frame.index())
            .ok()
            .filter(|&f| f <= REC_FRAME)
            .expect("benchmark machines have fewer than 2^28 frames");
        let mut flags = 0;
        if ev.tier == Tier::Slow {
            flags |= REC_SLOW;
        }
        if ev.kind == AccessKind::Write {
            flags |= REC_WRITE;
        }
        if ev.tlb_hit {
            flags |= REC_TLB_HIT;
        }
        if ev.llc_miss {
            flags |= REC_LLC_MISS;
        }
        Self {
            vpage,
            frame_flags: frame | flags,
            now: ev.now.as_nanos(),
        }
    }

    fn frame(self) -> u64 {
        u64::from(self.frame_flags & REC_FRAME)
    }

    fn has(self, flag: u32) -> bool {
        self.frame_flags & flag != 0
    }
}

/// What the wrappers record during the traced run.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    /// `TieringPolicy::on_access`.
    pub access: Span,
    /// `TieringPolicy::maybe_tick`.
    pub tick: Span,
    /// Each tick as `(start, duration)` in ns from the run's start.
    pub tick_spans: Vec<(u64, u64)>,
    /// `Workload::fill_events` (single-tenant cells only).
    pub fill: Span,
    /// Events the wrapped generator produced.
    pub fill_events: u64,
    /// The policy-visible access stream, in call order, when recording.
    pub events: Vec<Rec>,
    record: bool,
}

impl Recorder {
    /// A shared recorder for a run of `accesses` simulated accesses;
    /// `record` keeps the access stream and the tick spans.
    pub fn shared(accesses: u64, record: bool) -> Rc<RefCell<Self>> {
        let capacity = if record {
            (accesses + accesses / 2) as usize
        } else {
            0
        };
        Rc::new(RefCell::new(Self {
            origin: Instant::now(),
            access: Span::default(),
            tick: Span::default(),
            tick_spans: Vec::new(),
            fill: Span::default(),
            fill_events: 0,
            events: Vec::with_capacity(capacity),
            record,
        }))
    }
}

/// A `TieringPolicy` that times `on_access` and `maybe_tick` of the
/// policy it wraps and records the access stream. Every other hook is
/// forwarded untouched.
pub struct TimedPolicy {
    inner: PolicyBox,
    rec: Rc<RefCell<Recorder>>,
}

impl TimedPolicy {
    /// Wraps `inner` as a custom policy (the engine runs custom
    /// policies on its serial path).
    pub fn wrap(inner: PolicyBox, rec: Rc<RefCell<Recorder>>) -> PolicyBox {
        PolicyBox::Custom(Box::new(Self { inner, rec }))
    }
}

impl TieringPolicy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn alloc_preference(&self) -> Tier {
        self.inner.alloc_preference()
    }

    fn on_access(&mut self, ev: &AccessEvent, kernel: &mut Kernel) -> Nanos {
        let start = Instant::now();
        let charge = self.inner.on_access(ev, kernel);
        let took = start.elapsed();
        let mut rec = self.rec.borrow_mut();
        rec.access.add(took);
        if rec.record {
            rec.events.push(Rec::of(ev));
        }
        charge
    }

    fn maybe_tick(&mut self, kernel: &mut Kernel, now: Nanos) -> Nanos {
        let start = Instant::now();
        let charge = self.inner.maybe_tick(kernel, now);
        let took = start.elapsed();
        let mut rec = self.rec.borrow_mut();
        let offset = start.duration_since(rec.origin).as_nanos() as u64;
        rec.tick.add(took);
        if rec.record {
            rec.tick_spans.push((offset, took.as_nanos() as u64));
        }
        charge
    }

    fn drain_shootdowns_into(&mut self, out: &mut Vec<VirtPage>) {
        self.inner.drain_shootdowns_into(out);
    }

    fn telemetry(&self) -> PolicyTelemetry {
        self.inner.telemetry()
    }

    fn configure_tenants(&mut self, layout: &TenantLayout) {
        self.inner.configure_tenants(layout);
    }

    fn on_tenant_arrival(&mut self, tenant: usize) {
        self.inner.on_tenant_arrival(tenant);
    }

    fn on_tenant_departure(&mut self, tenant: usize) {
        self.inner.on_tenant_departure(tenant);
    }

    fn note_cross_tenant_evictions(&mut self, aggressor: usize, pages: u64) {
        self.inner.note_cross_tenant_evictions(aggressor, pages);
    }

    fn on_fault(&mut self, fault: &FaultKind, kernel: &mut Kernel, now: Nanos) -> Nanos {
        self.inner.on_fault(fault, kernel, now)
    }

    fn on_recovery(&mut self, fault: &FaultKind, kernel: &mut Kernel, now: Nanos) -> Nanos {
        self.inner.on_recovery(fault, kernel, now)
    }

    fn snapshot_state(&self) -> Json {
        self.inner.snapshot_state()
    }

    fn restore_state(&mut self, state: &Json) -> Result<()> {
        self.inner.restore_state(state)
    }
}

/// A `Workload` that times `fill_events` of the generator it wraps.
pub struct TimedWorkload {
    inner: Box<dyn Workload>,
    rec: Rc<RefCell<Recorder>>,
}

impl TimedWorkload {
    /// Wraps `inner`.
    pub fn wrap(inner: Box<dyn Workload>, rec: Rc<RefCell<Recorder>>) -> Box<dyn Workload> {
        Box::new(Self { inner, rec })
    }
}

impl Workload for TimedWorkload {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn rss_pages(&self) -> u64 {
        self.inner.rss_pages()
    }

    fn next_event(&mut self) -> WorkloadEvent {
        self.inner.next_event()
    }

    fn fill_events(&mut self, buf: &mut Vec<WorkloadEvent>, n: usize) {
        let start = Instant::now();
        self.inner.fill_events(buf, n);
        let took = start.elapsed();
        let mut rec = self.rec.borrow_mut();
        rec.fill.add(took);
        rec.fill_events += n as u64;
    }
}

/// Mean host cost of the wrappers' timing pattern around an empty
/// body, to subtract from per-call spans. The median of several rounds
/// keeps one preempted round from skewing it.
pub fn timer_overhead() -> Duration {
    const CALLS: u32 = 200_000;
    let mut rounds: Vec<Duration> = (0..7)
        .map(|_| {
            let mut total = Duration::ZERO;
            for _ in 0..CALLS {
                let start = Instant::now();
                black_box(());
                total += start.elapsed();
            }
            total / CALLS
        })
        .collect();
    rounds.sort();
    rounds[rounds.len() / 2]
}

/// One demand access of the traced run: the generator's access,
/// relocated into the tenant's page range, with what the engine saw.
#[derive(Debug, Clone, Copy)]
struct Demand {
    vpage: u32,
    line: u8,
    write: bool,
    tlb_hit: bool,
}

/// One memory-node service call of the traced run.
#[derive(Debug, Clone, Copy)]
struct Service {
    frame: u32,
    write: bool,
    now: u64,
}

/// The traced run's streams, split per layer.
pub struct Streams {
    demand: Vec<Demand>,
    services: Vec<Service>,
    slow_pages: Vec<DevicePage>,
}

impl Streams {
    /// Demand accesses (one per simulated access).
    pub fn accesses(&self) -> u64 {
        self.demand.len() as u64
    }

    /// Memory-node service calls.
    pub fn services(&self) -> u64 {
        self.services.len() as u64
    }

    /// Slow-tier pages the NeoProf device would snoop.
    pub fn slow_pages(&self) -> u64 {
        self.slow_pages.len() as u64
    }

    /// Page walks (demand accesses that missed the TLB).
    pub fn walks(&self) -> u64 {
        self.demand.iter().filter(|d| !d.tlb_hit).count() as u64
    }
}

/// One tenant of the traced cell: its page-id base, a fresh generator
/// and the events the generator produced in the run.
pub type Tenant = (u64, Box<dyn Workload>, u64);

/// `Workload::fill_events` over each tenant's run, in batches of
/// `batch`, calling `each` on every batch. Returns the fill time and the
/// events generated.
fn fill_tenants(
    tenants: Vec<Tenant>,
    batch: usize,
    mut each: impl FnMut(usize, u64, &[WorkloadEvent]),
) -> (Span, u64) {
    let mut fill = Span::default();
    let mut generated = 0;
    let mut buf = Vec::with_capacity(batch);
    for (i, (base, mut generator, events)) in tenants.into_iter().enumerate() {
        let mut left = events;
        while left > 0 {
            let n = left.min(batch as u64) as usize;
            buf.clear();
            let start = Instant::now();
            generator.fill_events(&mut buf, n);
            fill.add(start.elapsed());
            generated += n as u64;
            left -= n as u64;
            each(i, base, &buf);
        }
    }
    (fill, generated)
}

/// Regenerates every tenant's run from fresh generators, timing
/// `fill_events`: the generator layer of a co-run, whose engine owns
/// its generators. Returns the fill time and the events generated.
pub fn replay_generators(tenants: Vec<Tenant>, batch: usize) -> (Span, u64) {
    fill_tenants(tenants, batch, |_, _, buf| {
        black_box(buf);
    })
}

/// Splits the recorded policy-visible stream into demand accesses and
/// dirty writebacks. Each tenant's generator is replayed from scratch;
/// a recorded event is that tenant's next demand access when page and
/// kind match, and a writeback otherwise. A writeback that looks
/// exactly like the next demand access shifts the labels by one event
/// until the streams agree again, which is harmless for timing.
/// `batch` is the engine's generator batch size.
pub fn split_streams(
    events: &[Rec],
    tenants: Vec<Tenant>,
    batch: usize,
    slow_base: PageNum,
) -> std::result::Result<Streams, String> {
    let mut bases = vec![0; tenants.len()];
    let mut queues: Vec<Vec<(u32, u8, bool)>> = vec![Vec::new(); tenants.len()];
    let mut overflow = false;
    fill_tenants(tenants, batch, |i, base, buf| {
        bases[i] = base;
        for ev in buf {
            if let WorkloadEvent::Access(a) = ev {
                match u32::try_from(base + a.vpage.index()) {
                    Ok(vpage) => {
                        queues[i].push((vpage, a.line_in_page, a.kind == AccessKind::Write))
                    }
                    Err(_) => overflow = true,
                }
            }
        }
    });
    if overflow {
        return Err("tenant page beyond u32".into());
    }

    let mut cursor = vec![0usize; queues.len()];
    let mut demand = Vec::with_capacity(queues.iter().map(Vec::len).sum());
    let mut services = Vec::new();
    let mut slow_pages = Vec::new();
    for &rec in events {
        let tenant = bases.partition_point(|&b| b <= u64::from(rec.vpage)) - 1;
        let write = rec.has(REC_WRITE);
        let is_demand = queues[tenant]
            .get(cursor[tenant])
            .is_some_and(|&(vpage, _, w)| vpage == rec.vpage && w == write);
        if is_demand {
            let (vpage, line, _) = queues[tenant][cursor[tenant]];
            cursor[tenant] += 1;
            demand.push(Demand {
                vpage,
                line,
                write,
                tlb_hit: rec.has(REC_TLB_HIT),
            });
        }
        // The engine services a demand fill exactly when the access
        // missed the LLC, and every writeback it shows the policy.
        if !is_demand || rec.has(REC_LLC_MISS) {
            services.push(Service {
                frame: rec.frame() as u32,
                write: !is_demand,
                now: rec.now,
            });
        }
        if rec.has(REC_LLC_MISS) && rec.has(REC_SLOW) {
            let page = DevicePage::from_host(PageNum::new(rec.frame()), slow_base)
                .ok_or("slow-tier frame below the slow base")?;
            slow_pages.push(page);
        }
    }
    let expected: usize = queues.iter().map(Vec::len).sum();
    if demand.len() != expected {
        return Err(format!(
            "matched {} demand accesses in the traced stream, the generators produced {expected}",
            demand.len()
        ));
    }
    Ok(Streams {
        demand,
        services,
        slow_pages,
    })
}

/// Host time of one replay pass, per layer.
#[derive(Debug, Clone, Copy)]
pub struct LayerPass {
    /// `Tlb::access` over every demand access.
    pub tlb: Duration,
    /// The page walk of each TLB miss: `touch_alloc_preferring` and the
    /// accessed bit.
    pub walk: Duration,
    /// `Kernel::translate` of every demand access.
    pub translate: Duration,
    /// `CacheHierarchy::access` over every demand line.
    pub hierarchy: Duration,
    /// `TieredMemory::service` over every fill and writeback.
    pub memory: Duration,
    /// `HotPageDetector::observe_batch` over the slow-tier page stream.
    pub observe: Duration,
    /// One `CmSketch::lane_histogram` on the final sketch.
    pub histogram: Duration,
}

/// Replays the traced run's streams once through fresh, standalone
/// instances of each layer built from `config`, calling each layer's
/// public functions the way the engine does, and times each layer's
/// loop as a whole. Memory services run at their recorded virtual
/// times; the slow-tier page stream goes to a paper-default detector at
/// threshold `threshold`, in FIFO-drain-sized batches with the hot
/// pages drained between batches, as the device core does.
pub fn replay_pass(config: &SimConfig, threshold: u16, streams: &Streams) -> LayerPass {
    const DRAIN: usize = 4096;
    let vpage = |d: &Demand| VirtPage::new(u64::from(d.vpage));

    let mut tlb = Tlb::new(config.tlb);
    let start = Instant::now();
    for d in &streams.demand {
        black_box(tlb.access(vpage(d)));
    }
    let tlb = start.elapsed();

    let mut kernel = Kernel::new(KernelConfig {
        memory: config.memory_config(),
        rss_pages: config.rss_pages,
        costs: config.costs,
    });
    let start = Instant::now();
    for d in streams.demand.iter().filter(|d| !d.tlb_hit) {
        let page = vpage(d);
        black_box(kernel.page_table().is_mapped(page));
        kernel
            .touch_alloc_preferring(page, Tier::Fast, Nanos::ZERO)
            .expect("the replay kernel holds the whole footprint");
        let _ = kernel.page_table_mut().mark_accessed(page);
    }
    let walk = start.elapsed();
    let start = Instant::now();
    for d in &streams.demand {
        let _ = black_box(kernel.translate(vpage(d)));
    }
    let translate = start.elapsed();

    let mut caches = CacheHierarchy::new(config.caches);
    let start = Instant::now();
    for d in &streams.demand {
        let line = CacheLine::of_page(PageNum::new(u64::from(d.vpage)), u64::from(d.line));
        let kind = if d.write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        black_box(caches.access(line, kind));
    }
    let hierarchy = start.elapsed();

    let mut memory = TieredMemory::new(config.memory_config());
    let start = Instant::now();
    for s in &streams.services {
        let kind = if s.write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        black_box(memory.service(PageNum::new(u64::from(s.frame)), kind, Nanos::new(s.now)));
    }
    let memory = start.elapsed();

    let mut detector = HotPageDetector::new(SketchParams::paper_default())
        .expect("paper-default sketch parameters are valid");
    detector.set_threshold(threshold);
    let mut observe = Duration::ZERO;
    for batch in streams.slow_pages.chunks(DRAIN) {
        let start = Instant::now();
        black_box(detector.observe_batch(batch));
        observe += start.elapsed();
        black_box(detector.drain_hot_pages().count());
    }
    let start = Instant::now();
    black_box(detector.sketch().lane_histogram(0));
    let histogram = start.elapsed();

    LayerPass {
        tlb,
        walk,
        translate,
        hierarchy,
        memory,
        observe,
        histogram,
    }
}
