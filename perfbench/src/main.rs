//! Host-throughput benchmark of the NeoMem simulator.
//!
//! Runs one simulation at a time on one engine thread, as a closed
//! loop: build a cell from the public API, run it to its access budget,
//! repeat until the time budget is spent. Setup and run are timed
//! apart, and every run's simulated report is checked against the
//! first run of the same seed.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--accesses <n>] [--single]
//! ```
//!
//! `--single` builds and runs the cell once and prints no metrics: a
//! process whose peak resident set is that of one run.
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` prints the
//! per-layer split: it runs the cell with timing wrappers around the
//! policy and the generator, recording the access stream, then spends
//! the budget in rounds of one untraced run, one replay of the stream
//! through each layer in isolation, and one more traced run. A
//! human-readable table goes to stderr; the last line of stdout is one
//! JSON object with `correct`, `attempted`, `failed`, `metrics` and the
//! trace `spans`.

#![forbid(unsafe_code)]

mod cells;
mod trace;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::time::{Duration, Instant};

use cells::{Cell, Report, WORKLOADS};
use neomem::types::PageNum;
use trace::{Recorder, TimedPolicy, TimedWorkload};

/// Untimed warm-up runs before the measured ones.
const WARMUP: usize = 1;
/// Measured runs made even when the time budget is spent earlier.
const MIN_MEASURED: usize = 3;
/// Repeats of each construction step in the traced set-up split.
const BUILD_REPEATS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    accesses: Option<u64>,
    single: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut accesses = None;
    let mut single = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--single" {
            single = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: expected {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("a positive number of seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--accesses" => {
                let n: u64 = value.parse().map_err(|_| bad("an unsigned integer"))?;
                if n == 0 {
                    return Err(bad("a positive access budget"));
                }
                accesses = Some(n);
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        accesses,
        single,
    })
}

/// Runs counted against `attempted`/`failed`, and the reference report
/// every later run of the seed must reproduce.
struct Checker {
    attempted: u64,
    failed: u64,
    reference: Option<Vec<(String, u64)>>,
}

impl Checker {
    /// Runs `run` once, counting a panic, a defective report or a
    /// report that differs from the reference as a failure. Returns the
    /// report of a good run.
    fn attempt<T>(
        &mut self,
        cell: &Cell,
        label: &str,
        run: impl FnOnce() -> Result<(Report, T), String>,
    ) -> Option<(Report, T)> {
        self.attempted += 1;
        let outcome = match catch_unwind(AssertUnwindSafe(run)) {
            Ok(Ok(done)) => done,
            Ok(Err(e)) => return self.fail(label, &e),
            Err(_) => return self.fail(label, "the simulation panicked"),
        };
        if let Some(defect) = outcome.0.defect(cell.accesses) {
            return self.fail(label, &defect);
        }
        let fingerprint = outcome.0.fingerprint();
        match &self.reference {
            None => self.reference = Some(fingerprint),
            Some(reference) if *reference != fingerprint => {
                let diff = reference
                    .iter()
                    .zip(&fingerprint)
                    .find(|(a, b)| a != b)
                    .map(|(a, b)| format!("{} = {} vs {} = {}", a.0, a.1, b.0, b.1))
                    .unwrap_or_else(|| "different report sections".into());
                return self.fail(
                    label,
                    &format!("simulated report differs from the first run: {diff}"),
                );
            }
            Some(_) => {}
        }
        Some(outcome)
    }

    fn fail<T>(&mut self, label: &str, why: &str) -> Option<T> {
        self.failed += 1;
        eprintln!("perfbench: {label} run failed: {why}");
        None
    }
}

/// Timed untraced runs: the best run's accesses/s, the median set-up
/// seconds, and the first good report.
struct Timed {
    rate: f64,
    setup: f64,
    report: Report,
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Builds and runs the cell, untraced, for `budget` of wall time and at
/// least `WARMUP + MIN_MEASURED` runs.
///
/// The rate is the fastest run's: on a shared host, co-tenants slow the
/// engine by up to 1.8x for seconds at a time, so a run's median moves
/// with how long those stretches lasted while its fastest run barely
/// does. Set-up is short enough for its median to be steady.
fn timed_runs(cell: &Cell, checker: &mut Checker, budget: Duration) -> Option<Timed> {
    let deadline = Instant::now() + budget;
    let mut rates = Vec::new();
    let mut setups = Vec::new();
    let mut first = None;
    let mut runs = 0;
    while runs < WARMUP + MIN_MEASURED || Instant::now() < deadline {
        runs += 1;
        let done = checker.attempt(cell, "timed", || {
            let t0 = Instant::now();
            let sim = cell.build()?;
            let t1 = Instant::now();
            let report = sim.run();
            let t2 = Instant::now();
            Ok((report, (t1 - t0, t2 - t1)))
        });
        let Some((report, (setup, run))) = done else {
            continue;
        };
        if runs > WARMUP {
            rates.push(cell.accesses as f64 / run.as_secs_f64());
            setups.push(setup.as_secs_f64());
        }
        first.get_or_insert(report);
    }
    if rates.is_empty() {
        return None;
    }
    let spread = |values: &[f64], scale: f64| {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let at = |q: usize| sorted[(sorted.len() - 1) * q / 100] * scale;
        format!(
            "min {:.4} q1 {:.4} q2 {:.4} q3 {:.4} p90 {:.4} max {:.4}",
            at(0),
            at(25),
            at(50),
            at(75),
            at(90),
            at(100)
        )
    };
    eprintln!(
        "perfbench: M accesses/s over {} runs: {}",
        rates.len(),
        spread(&rates, 1e-6)
    );
    eprintln!(
        "perfbench: set-up ms over {} runs: {}",
        setups.len(),
        spread(&setups, 1e3)
    );
    Some(Timed {
        rate: rates.iter().copied().fold(0.0, f64::max),
        setup: median(&mut setups),
        report: first?,
    })
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

fn ns(d: Duration) -> f64 {
    d.as_secs_f64() * 1e9
}

/// The end-to-end metrics of `--trace 0`.
fn end_to_end(timed: &Timed) -> Vec<Metric> {
    let combined = timed.report.combined();
    vec![
        metric("maccess_per_s", timed.rate / 1e6, "M/s"),
        metric("setup_s", timed.setup, "s"),
        metric("sim_runtime_ms", combined.runtime.as_millis_f64(), "ms"),
        metric("sim_fairness", timed.report.fairness(), "index"),
    ]
}

/// Median host time of each construction step over `BUILD_REPEATS`,
/// in ms: generators, policy, machine.
fn build_split(cell: &Cell) -> Result<[f64; 3], String> {
    let mut steps: [Vec<f64>; 3] = Default::default();
    for _ in 0..BUILD_REPEATS {
        let (sim, times) = cell.build_timed(|p| p, |w| w)?;
        drop(sim);
        for (samples, step) in steps
            .iter_mut()
            .zip([times.workloads, times.policy, times.machine])
        {
            samples.push(step.as_secs_f64() * 1e3);
        }
    }
    Ok(steps.map(|mut samples| median(&mut samples)))
}

/// Runs the cell with the timing wrappers around its policy and (for a
/// single-tenant cell) its generator; `record` keeps the access stream
/// and tick spans. Returns the report, the run's host time and the
/// recorder.
fn traced_run(
    cell: &Cell,
    checker: &mut Checker,
    record: bool,
) -> Option<(Report, Duration, Recorder)> {
    let rec = Recorder::shared(cell.accesses, record);
    let (report, run) = checker.attempt(cell, "traced", || {
        let (policy_rec, fill_rec) = (rec.clone(), rec.clone());
        let (sim, _) = cell.build_timed(
            move |p| TimedPolicy::wrap(p, policy_rec),
            move |w| TimedWorkload::wrap(w, fill_rec),
        )?;
        let start = Instant::now();
        let report = sim.run();
        Ok((report, start.elapsed()))
    })?;
    // The run consumed the simulation and with it the wrappers' handles.
    let recorded = Rc::try_unwrap(rec)
        .expect("the finished run holds no recorder handle")
        .into_inner();
    Some((report, run, recorded))
}

/// Per-round samples of the traced mode, by name.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    /// The least-contended sample: every traced-mode sample is a host
    /// time or a ratio of host times, where smaller is better.
    fn best(&self, name: &str) -> f64 {
        self.0.get(name).map_or(f64::NAN, |values| {
            values.iter().copied().fold(f64::INFINITY, f64::min)
        })
    }
}

/// A trace span as printed: name, parent, calls, total host ns.
type SpanOut = (String, &'static str, u64, f64);

/// `--trace 1`: the per-layer split. One recording traced run captures
/// the access stream; then, until `budget` is spent, each round makes
/// one untraced run, one replay pass through every layer and one
/// traced run, so the end-to-end time and the layer times it is split
/// into are sampled side by side. Every host metric is the best round
/// of its own, as `maccess_per_s` is the best untraced run.
fn layer_split(
    cell: &Cell,
    checker: &mut Checker,
    budget: Duration,
) -> Result<(Vec<Metric>, Vec<SpanOut>), String> {
    let [workloads_ms, policy_ms, machine_ms] = build_split(cell)?;
    let config = cell.sim_config()?;
    let (report, _, first) =
        traced_run(cell, checker, true).ok_or("the recording traced run failed")?;
    let slow_base = PageNum::new(config.memory_config().fast.capacity_frames);
    let Recorder {
        events, tick_spans, ..
    } = first;
    let access_calls = events.len() as u64;
    let streams = trace::split_streams(
        &events,
        cell.tenants(&report)?,
        config.batch_size,
        slow_base,
    )?;
    drop(events);
    // The last timeline sample's θ: the detector threshold the policy
    // settled on, for the sketch replay.
    let threshold = report
        .combined()
        .timeline
        .last()
        .and_then(|p| p.threshold)
        .unwrap_or(0);
    let accesses = cell.accesses as f64;

    let mut s = Samples::default();
    let deadline = Instant::now() + budget;
    let mut rounds = 0;
    while rounds < MIN_MEASURED || Instant::now() < deadline {
        rounds += 1;
        let untraced = checker.attempt(cell, "untraced", || {
            let sim = cell.build()?;
            let start = Instant::now();
            let report = sim.run();
            Ok((report, start.elapsed()))
        });
        if let Some((_, run)) = untraced {
            s.push("e2e", ns(run) / accesses);
        }

        let pass = trace::replay_pass(&config, threshold, &streams);
        s.push("tlb", ns(pass.tlb));
        s.push("walk", ns(pass.walk));
        s.push("kernel", ns(pass.walk + pass.translate));
        s.push("hier", ns(pass.hierarchy));
        s.push("mem", ns(pass.memory));
        s.push("observe", ns(pass.observe));
        s.push("histogram", ns(pass.histogram));
        if cell.is_corun() {
            // The co-run engine owns its generators: time them on their
            // own, regenerating each tenant's run.
            let (fill, events) =
                trace::replay_generators(cell.tenants(&report)?, config.batch_size);
            s.push("fill", ns(fill.total));
            s.push("fill_calls", fill.calls as f64);
            s.push("fill_per_event", ns(fill.total) / events as f64);
        }

        if let Some((_, run, rec)) = traced_run(cell, checker, false) {
            let overhead = trace::timer_overhead();
            let access = rec
                .access
                .total
                .saturating_sub(overhead.mul_f64(rec.access.calls as f64));
            s.push("traced", ns(run) / accesses);
            s.push("access", ns(access));
            s.push(
                "access_per_call",
                ns(access) / rec.access.calls.max(1) as f64,
            );
            s.push("tick", ns(rec.tick.total));
            s.push(
                "tick_per_call",
                ns(rec.tick.total) / rec.tick.calls.max(1) as f64,
            );
            s.push(
                "tick_share",
                rec.tick.total.as_secs_f64() / run.as_secs_f64(),
            );
            s.push("ticks", rec.tick.calls as f64);
            if !cell.is_corun() {
                s.push("fill", ns(rec.fill.total));
                s.push("fill_calls", rec.fill.calls as f64);
                s.push(
                    "fill_per_event",
                    ns(rec.fill.total) / rec.fill_events.max(1) as f64,
                );
            }
            s.push("timer", ns(overhead));
        }
    }
    eprintln!("perfbench: {rounds} trace rounds");

    let e2e = s.best("e2e");
    let components = [
        ("workloads.ns_per_access", s.best("fill") / accesses),
        ("cache.tlb_ns_per_access", s.best("tlb") / accesses),
        ("kernel.ns_per_access", s.best("kernel") / accesses),
        ("cache.hier_ns_per_access", s.best("hier") / accesses),
        ("mem.ns_per_access", s.best("mem") / accesses),
        ("policies.access_ns_per_access", s.best("access") / accesses),
        ("policies.tick_ns_per_access", s.best("tick") / accesses),
    ];
    let explained: f64 = components.iter().map(|(_, v)| v).sum();
    let combined = report.combined();
    let kernel = &combined.kernel;
    let slow = combined.slow_tier_accesses();
    let memory_all = slow + combined.fast_reads + combined.fast_writes;
    let (epochs, cross) = report.corun().map_or((0, 0), |r| {
        (r.epochs.len() as u64, r.contention.cross_tenant_evictions)
    });
    let per = |total: f64, calls: u64| total / calls.max(1) as f64;

    let mut metrics = vec![
        metric(
            "workloads.fill_ns_per_event",
            s.best("fill_per_event"),
            "ns",
        ),
        metric("workloads.build_ms", workloads_ms, "ms"),
        metric("policies.build_ms", policy_ms, "ms"),
        metric("sim.build_ms", machine_ms, "ms"),
        metric("cache.tlb_miss_rate", combined.tlb.miss_ratio(), "fraction"),
        metric(
            "cache.llc_miss_rate",
            combined.cache.llc_miss_ratio(),
            "fraction",
        ),
        metric("kernel.walk_ns", per(s.best("walk"), streams.walks()), "ns"),
        metric("kernel.promotions", kernel.promotions as f64, "count"),
        metric("kernel.demotions", kernel.demotions as f64, "count"),
        metric(
            "kernel.ping_pong_ratio",
            ratio(kernel.ping_pongs, kernel.promotions),
            "fraction",
        ),
        metric(
            "kernel.migration_ms",
            kernel.migration_time.as_millis_f64(),
            "ms",
        ),
        metric(
            "mem.service_ns",
            per(s.best("mem"), streams.services()),
            "ns",
        ),
        metric("mem.slow_share", ratio(slow, memory_all), "fraction"),
        metric(
            "policies.access_ns_per_call",
            s.best("access_per_call"),
            "ns",
        ),
        metric("policies.tick_ns_per_call", s.best("tick_per_call"), "ns"),
        metric("policies.ticks", s.best("ticks"), "count"),
        metric("policies.tick_share", s.best("tick_share"), "fraction"),
        metric(
            "policies.profiling_ms",
            combined.profiling_overhead.as_millis_f64(),
            "ms",
        ),
        metric(
            "sketch.observe_ns_per_page",
            per(s.best("observe"), streams.slow_pages()),
            "ns",
        ),
        metric("sketch.histogram_us", s.best("histogram") / 1e3, "us"),
        metric("sim.corun_epochs", epochs as f64, "count"),
        metric("sim.cross_tenant_evictions", cross as f64, "count"),
        metric("sim.ns_per_access", e2e, "ns"),
        metric("sim.remainder_ns_per_access", e2e - explained, "ns"),
        metric(
            "sim.trace_overhead",
            s.best("traced") / e2e - 1.0,
            "fraction",
        ),
    ];
    metrics.extend(
        components
            .iter()
            .map(|&(name, value)| metric(name, value, "ns")),
    );

    let calls = streams.accesses();
    let mut spans: Vec<SpanOut> = vec![
        ("run.untraced".into(), "", calls, s.best("e2e") * accesses),
        ("run.traced".into(), "", calls, s.best("traced") * accesses),
        (
            "workloads.fill_events".into(),
            "run.traced",
            s.best("fill_calls") as u64,
            s.best("fill"),
        ),
        (
            "policies.on_access".into(),
            "run.traced",
            access_calls,
            s.best("access"),
        ),
        (
            "policies.maybe_tick".into(),
            "run.traced",
            tick_spans.len() as u64,
            s.best("tick"),
        ),
        ("cache.tlb_access".into(), "replay", calls, s.best("tlb")),
        (
            "kernel.walk".into(),
            "replay",
            streams.walks(),
            s.best("walk"),
        ),
        (
            "kernel.walk_and_translate".into(),
            "replay",
            calls,
            s.best("kernel"),
        ),
        (
            "cache.hierarchy_access".into(),
            "replay",
            calls,
            s.best("hier"),
        ),
        (
            "mem.service".into(),
            "replay",
            streams.services(),
            s.best("mem"),
        ),
        (
            "sketch.observe_batch".into(),
            "replay",
            streams.slow_pages(),
            s.best("observe"),
        ),
        (
            "sketch.lane_histogram".into(),
            "replay",
            1,
            s.best("histogram"),
        ),
        ("timer.overhead".into(), "", 1, s.best("timer")),
    ];
    spans.extend(tick_spans.iter().map(|&(start, took)| {
        (
            format!("tick@{start}"),
            "policies.maybe_tick",
            1,
            took as f64,
        )
    }));
    Ok((metrics, spans))
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(cell) = Cell::named(&args.workload, args.seed, args.accesses) else {
        eprintln!(
            "perfbench: unknown workload {:?} (known: {})",
            args.workload,
            WORKLOADS.join(", ")
        );
        std::process::exit(2);
    };
    eprintln!(
        "perfbench: workload {} seed {} accesses {} seconds {} trace {}",
        args.workload, args.seed, cell.accesses, args.seconds, args.trace as u8
    );
    let mut checker = Checker {
        attempted: 0,
        failed: 0,
        reference: None,
    };
    let budget = Duration::from_secs_f64(args.seconds);
    let (metrics, spans) = if args.single {
        let _ = checker.attempt(&cell, "single", || Ok((cell.build()?.run(), ())));
        (Vec::new(), Vec::new())
    } else if args.trace {
        match layer_split(&cell, &mut checker, budget) {
            Ok(done) => done,
            Err(e) => {
                eprintln!("perfbench: {e}");
                std::process::exit(1);
            }
        }
    } else {
        let Some(timed) = timed_runs(&cell, &mut checker, budget) else {
            eprintln!("perfbench: no run of {} completed", args.workload);
            std::process::exit(1);
        };
        eprintln!("perfbench: {}", timed.report.combined().summary());
        (end_to_end(&timed), Vec::new())
    };

    let finite = metrics.iter().all(|m| m.value.is_finite());
    let correct = checker.failed == 0 && finite;
    for m in &metrics {
        eprintln!(
            "  {:<32} {:>16} {}",
            m.name,
            format!("{:.4}", m.value),
            m.unit
        );
    }
    eprintln!(
        "  {:<32} {:>16} fraction",
        "fail_rate",
        format!("{:.4}", ratio(checker.failed, checker.attempted))
    );
    let metrics_json: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    let spans_json: Vec<String> = spans
        .iter()
        .map(|(name, parent, calls, total)| {
            format!(
                "{{\"name\": {}, \"parent\": {}, \"calls\": {calls}, \"total_ns\": {}}}",
                json_str(name),
                json_str(parent),
                json_num(*total)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}, \"spans\": [{}]}}",
        checker.attempted,
        checker.failed,
        metrics_json.join(", "),
        spans_json.join(", ")
    );
}
