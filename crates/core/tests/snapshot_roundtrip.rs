//! The snapshot contract: snapshot → restore → run is bit-identical to
//! an uninterrupted run — for every policy, every workload kind, with
//! cuts landing mid-phase and at co-run slice boundaries — and hostile
//! snapshot input (corrupt, truncated, mismatched) produces errors,
//! never panics.

use neomem::prelude::*;
use neomem::types::json::{hex_from_u64s, Json};

const RSS_PAGES: u64 = 1024;
const ACCESSES: u64 = 24_000;
const SEED: u64 = 2024;

const ALL_POLICIES: [PolicyKind; 11] = [
    PolicyKind::NeoMem,
    PolicyKind::NeoMemFixed(8),
    PolicyKind::NeoMemContentionAware,
    PolicyKind::Pebs,
    PolicyKind::Memtis,
    PolicyKind::PteScan,
    PolicyKind::AutoNuma,
    PolicyKind::Tpp,
    PolicyKind::FirstTouch,
    PolicyKind::PinnedFast,
    PolicyKind::PinnedSlow,
];

fn experiment(kind: WorkloadKind, policy: PolicyKind) -> Experiment {
    Experiment::builder()
        .workload(kind)
        .policy(policy)
        .rss_pages(RSS_PAGES)
        .accesses(ACCESSES)
        .seed(SEED)
        .build()
        .expect("valid experiment")
}

/// Debug output covers every field of a report, with floats printed in
/// shortest-round-trip form — equal strings means equal state.
fn fingerprint(report: &RunReport) -> String {
    format!("{report:?}")
}

/// Straight run vs. snapshot-at-`num/den`-of-runtime + resume.
fn assert_single_round_trip(kind: WorkloadKind, policy: PolicyKind, num: u64, den: u64) {
    let straight = experiment(kind, policy).into_simulation().run();
    let cut = Nanos::new(straight.runtime.as_nanos() * num / den);
    let snap = experiment(kind, policy).into_simulation().snapshot_at(cut);
    let resumed = experiment(kind, policy)
        .into_simulation()
        .run_from(&snap)
        .expect("restore from own snapshot");
    assert_eq!(
        fingerprint(&resumed),
        fingerprint(&straight),
        "{kind} / {policy:?}: resumed run diverged from straight run (cut at {num}/{den})"
    );
}

#[test]
fn every_policy_round_trips_bit_identically() {
    for policy in ALL_POLICIES {
        assert_single_round_trip(WorkloadKind::Gups, policy, 1, 2);
    }
}

#[test]
fn every_workload_kind_round_trips_bit_identically() {
    let mut kinds = WorkloadKind::FIG11.to_vec();
    kinds.push(WorkloadKind::Redis);
    for kind in kinds {
        for policy in [PolicyKind::FirstTouch, PolicyKind::NeoMem] {
            assert_single_round_trip(kind, policy, 1, 2);
        }
    }
}

#[test]
fn early_and_late_cuts_round_trip() {
    for (num, den) in [(1, 10), (1, 4), (3, 4), (99, 100)] {
        assert_single_round_trip(WorkloadKind::PageRank, PolicyKind::NeoMem, num, den);
    }
}

#[test]
fn snapshots_restore_across_batch_sizes() {
    // Standing invariant (c): results are identical at any batch size —
    // and so are snapshots. A snapshot cut from a batch-1 run must
    // resume bit-identically on a batch-256 machine, and vice versa.
    let with_batch = |batch: usize| {
        Experiment::builder()
            .workload(WorkloadKind::Silo)
            .policy(PolicyKind::NeoMem)
            .rss_pages(RSS_PAGES)
            .accesses(ACCESSES)
            .seed(SEED)
            .batch_size(batch)
            .build()
            .expect("valid experiment")
    };
    let straight = with_batch(256).into_simulation().run();
    let cut = Nanos::new(straight.runtime.as_nanos() / 2);
    let snap_small = with_batch(1).into_simulation().snapshot_at(cut);
    let resumed = with_batch(256)
        .into_simulation()
        .run_from(&snap_small)
        .expect("snapshot must restore across batch sizes");
    assert_eq!(fingerprint(&resumed), fingerprint(&straight));
    let snap_large = with_batch(256).into_simulation().snapshot_at(cut);
    assert_eq!(
        snap_large.render_pretty(),
        snap_small.render_pretty(),
        "the snapshot itself must not depend on batch size"
    );
}

fn tiny_mix() -> TenantMix {
    TenantMix::builder()
        .tenant(WorkloadKind::Gups, 512, SEED)
        .weighted_tenant(WorkloadKind::Silo, 512, 2, SEED + 1)
        .build()
        .expect("valid mix")
}

fn corun_config() -> CoRunConfig {
    let mut sim = SimConfig::quick(tiny_mix().total_rss_pages(), 2);
    sim.max_accesses = ACCESSES;
    CoRunConfig { sim, interleave_quantum: 64, fast_share_cap: None }
}

fn corun_policy(kind: PolicyKind, config: &CoRunConfig) -> neomem::policies::PolicyBox {
    build_policy(kind, &config.sim, 1000, PolicyOverrides::default()).expect("valid policy")
}

fn corun_sim(kind: PolicyKind) -> CoRunSimulation {
    let config = corun_config();
    let policy = corun_policy(kind, &config);
    CoRunSimulation::new(config, &tiny_mix(), policy).expect("valid co-run simulation")
}

#[test]
fn corun_round_trips_at_slice_boundaries() {
    // Co-run snapshots cut at the next slice boundary at or after the
    // requested time; resuming must continue the exact slice schedule.
    for policy in [PolicyKind::FirstTouch, PolicyKind::NeoMem] {
        let straight = corun_sim(policy).run();
        for (num, den) in [(1, 4), (1, 2), (3, 4)] {
            let cut = Nanos::new(straight.combined.runtime.as_nanos() * num / den);
            let snap = corun_sim(policy).snapshot_at(cut);
            let resumed =
                corun_sim(policy).run_from(&snap).expect("restore from own co-run snapshot");
            assert_eq!(
                format!("{resumed:?}"),
                format!("{straight:?}"),
                "{policy:?}: co-run resume diverged (cut at {num}/{den})"
            );
        }
    }
}

fn phased_scenario() -> Scenario {
    let mix = TenantMix::builder()
        .tenant(WorkloadKind::Gups, 1024, SEED)
        .tenant(WorkloadKind::Silo, 1024, SEED + 1)
        .build()
        .expect("valid mix");
    Scenario::builder(mix)
        .phased(
            1,
            vec![
                PhaseSpec { kind: WorkloadKind::Gups, rss_pages: 1024, events: 3_000 },
                PhaseSpec { kind: WorkloadKind::Silo, rss_pages: 512, events: 3_000 },
            ],
        )
        .arrive(1, Nanos::from_micros(100))
        .build()
        .expect("valid scenario")
}

fn scenario_sim(kind: PolicyKind) -> CoRunSimulation {
    let mut sim = SimConfig::quick(phased_scenario().mix().total_rss_pages(), 2);
    sim.max_accesses = ACCESSES;
    let config = CoRunConfig { sim, interleave_quantum: 64, fast_share_cap: None };
    let policy = corun_policy(kind, &config);
    CoRunSimulation::with_scenario(config, &phased_scenario(), policy)
        .expect("valid scenario simulation")
}

#[test]
fn scenario_with_phased_workload_round_trips_mid_phase() {
    // Dynamic tenancy + a phased tenant, snapshotted at several points
    // so cuts land inside phases, across phase flips, and around
    // arrival events — including the contention-aware NeoMem variant,
    // whose per-tenant aggressor state must survive the round trip.
    for policy in [PolicyKind::NeoMem, PolicyKind::NeoMemContentionAware] {
        let straight = scenario_sim(policy).run();
        assert!(
            straight.combined.markers.iter().any(|m| m.label == "phase-shift"),
            "scenario must actually flip phases for this test to bite"
        );
        for (num, den) in [(1, 8), (1, 2), (7, 8)] {
            let cut = Nanos::new(straight.combined.runtime.as_nanos() * num / den);
            let snap = scenario_sim(policy).snapshot_at(cut);
            let resumed =
                scenario_sim(policy).run_from(&snap).expect("restore from scenario snapshot");
            assert_eq!(
                format!("{resumed:?}"),
                format!("{straight:?}"),
                "{policy:?}: scenario resume diverged (cut at {num}/{den})"
            );
        }
    }
}

// ---- mid-fault cuts -----------------------------------------------

/// A plan covering all three fault classes, with windows early enough
/// that every edge fires inside the test budget.
fn fault_plan() -> FaultPlan {
    FaultPlan::builder()
        .outage(Nanos::from_micros(200), Nanos::from_micros(300))
        .link_degraded(Nanos::from_micros(700), Nanos::from_micros(200), 4, 2)
        .capacity_loss(Nanos::from_micros(1000), Nanos::from_micros(200), 32)
        .build()
        .expect("valid plan")
}

fn faulted_sim(policy: PolicyKind) -> Simulation {
    let mut config = SimConfig::quick(RSS_PAGES, 2);
    config.max_accesses = ACCESSES;
    config.faults = fault_plan();
    let policy = build_policy(policy, &config, 1000, PolicyOverrides::default())
        .expect("valid policy");
    let workload = WorkloadKind::Gups.build(RSS_PAGES, SEED);
    Simulation::new(config, workload, policy).expect("valid simulation")
}

#[test]
fn mid_fault_cuts_round_trip_bit_identically() {
    // Snapshot cuts landing *inside* each fault window — during the
    // NeoProf outage (NeoMem is on its PTE-scan fallback), during the
    // link throttle, and during the capacity loss (blocked frames +
    // possibly a pending evacuation retry) — must restore and resume
    // to the exact bytes of an uninterrupted run.
    for policy in [PolicyKind::NeoMem, PolicyKind::FirstTouch] {
        let straight = faulted_sim(policy).run();
        let d = straight.degradation.expect("fault plan must produce metrics");
        assert_eq!(d.fault_events, 3, "{policy:?}");
        assert!(
            straight.runtime > Nanos::from_micros(1200),
            "{policy:?}: all windows must close in-run for this test to bite"
        );
        for cut_us in [350u64, 800, 1100] {
            let snap = faulted_sim(policy).snapshot_at(Nanos::from_micros(cut_us));
            let resumed = faulted_sim(policy)
                .run_from(&snap)
                .expect("restore from a mid-fault snapshot");
            assert_eq!(
                fingerprint(&resumed),
                fingerprint(&straight),
                "{policy:?}: mid-fault resume diverged (cut at {cut_us}us)"
            );
        }
    }
}

fn faulted_scenario_sim(policy: PolicyKind) -> CoRunSimulation {
    let mut sim = SimConfig::quick(phased_scenario().mix().total_rss_pages(), 2);
    sim.max_accesses = ACCESSES;
    sim.faults = fault_plan();
    let config = CoRunConfig { sim, interleave_quantum: 64, fast_share_cap: None };
    let policy = corun_policy(policy, &config);
    CoRunSimulation::with_scenario(config, &phased_scenario(), policy)
        .expect("valid faulted scenario simulation")
}

#[test]
fn scenario_with_faults_round_trips_mid_fault() {
    // The co-run engine fires the same fault edges at slice
    // granularity; cuts inside the outage and the throttle window must
    // round-trip there too.
    for policy in [PolicyKind::NeoMem, PolicyKind::NeoMemContentionAware] {
        let straight = faulted_scenario_sim(policy).run();
        straight.combined.degradation.expect("fault plan must produce metrics");
        for cut_us in [350u64, 800] {
            let snap = faulted_scenario_sim(policy).snapshot_at(Nanos::from_micros(cut_us));
            let resumed = faulted_scenario_sim(policy)
                .run_from(&snap)
                .expect("restore from a mid-fault scenario snapshot");
            assert_eq!(
                format!("{resumed:?}"),
                format!("{straight:?}"),
                "{policy:?}: mid-fault scenario resume diverged (cut at {cut_us}us)"
            );
        }
    }
}

// ---- idle gaps ----------------------------------------------------

/// FNV-1a over a report's `Debug` text: a short pin for "same bytes".
fn fnv1a(text: &str) -> u64 {
    text.bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Tenant 0 departs at 1 ms and returns at 3 ms; tenant 1 first
/// arrives at 3.5 ms. Nobody runs from 1 ms to 3 ms, so the engine
/// idles across the gap, and both fault windows open inside it.
fn idle_gap_sim(policy: PolicyKind) -> CoRunSimulation {
    let mix = TenantMix::builder()
        .tenant(WorkloadKind::Gups, 1024, 7)
        .tenant(WorkloadKind::Silo, 1024, 8)
        .build()
        .expect("valid mix");
    let scenario = Scenario::builder(mix)
        .depart(0, Nanos::from_millis(1))
        .arrive(0, Nanos::from_millis(3))
        .arrive(1, Nanos::from_micros(3500))
        .build()
        .expect("valid scenario");
    let mut sim = SimConfig::quick(2048, 2);
    sim.max_time = Some(Nanos::from_millis(6));
    sim.faults = FaultPlan::builder()
        .outage(Nanos::from_micros(1500), Nanos::from_millis(1))
        .capacity_loss(Nanos::from_millis(2), Nanos::from_millis(2), 32)
        .build()
        .expect("valid plan");
    let config = CoRunConfig { sim, interleave_quantum: 64, fast_share_cap: None };
    let policy = corun_policy(policy, &config);
    CoRunSimulation::with_scenario(config, &scenario, policy).expect("valid idle-gap scenario")
}

#[test]
fn idle_gaps_fire_faults_ticks_and_samples() {
    // The idle jump services the due fault edges, the policy tick and
    // the timeline sample once, and a cut inside the gap resumes to the
    // same bytes. The digests pin the reports themselves.
    for (policy, digest) in [
        (PolicyKind::NeoMem, 0x0b20_5d30_1e6d_634c_u64),
        (PolicyKind::NeoMemContentionAware, 0x8cc8_b607_7221_982c),
        (PolicyKind::FirstTouch, 0x346a_c5c4_571f_eaba),
    ] {
        let straight = idle_gap_sim(policy).run();
        assert_eq!(straight.epochs.len(), 3, "{policy:?}: leave, return, late arrival");
        let d = straight.combined.degradation.expect("fault plan must produce metrics");
        assert_eq!(d.fault_events, 2, "{policy:?}");
        // Epochs are ordered by (tenant, epoch): tenant 0's first
        // residency ends where the gap starts, its second starts where
        // the gap ends.
        let (gap_start, gap_end) = (straight.epochs[0].end, straight.epochs[1].start);
        assert!(gap_end >= Nanos::from_millis(3), "{policy:?}: gap ends at the return");
        let sample = straight
            .combined
            .timeline
            .iter()
            .find(|p| p.at > gap_start && p.at <= gap_end)
            .unwrap_or_else(|| panic!("{policy:?}: no timeline sample inside the idle gap"));
        assert_eq!(sample.accesses, straight.epochs[0].accesses, "nobody ran in the gap");
        assert!(
            straight.contention.occupancy_timeline.iter().any(|o| o.at == sample.at),
            "{policy:?}: the gap sample has no occupancy point at the same instant"
        );

        let snap = idle_gap_sim(policy).snapshot_at(Nanos::from_millis(2));
        let resumed =
            idle_gap_sim(policy).run_from(&snap).expect("restore from an idle-gap snapshot");
        let text = format!("{straight:?}");
        assert_eq!(format!("{resumed:?}"), text, "{policy:?}: idle-gap resume diverged");
        assert_eq!(fnv1a(&text), digest, "{policy:?}: report digest {:#018x}", fnv1a(&text));
    }
}

// ---- hostile input ------------------------------------------------

fn valid_snapshot() -> Json {
    let report = experiment(WorkloadKind::Gups, PolicyKind::NeoMem).into_simulation().run();
    let cut = Nanos::new(report.runtime.as_nanos() / 2);
    experiment(WorkloadKind::Gups, PolicyKind::NeoMem).into_simulation().snapshot_at(cut)
}

fn restore(snap: &Json) -> Result<RunReport, neomem::Error> {
    experiment(WorkloadKind::Gups, PolicyKind::NeoMem).into_simulation().run_from(snap)
}

fn set_field(snap: &mut Json, key: &str, value: Json) {
    let Json::Obj(fields) = snap else { panic!("snapshot must be an object") };
    let slot = fields.iter_mut().find(|(k, _)| k == key).expect("field present");
    slot.1 = value;
}

#[test]
fn hostile_snapshots_error_instead_of_panicking() {
    let snap = valid_snapshot();
    restore(&snap).expect("the pristine snapshot must restore");

    // Truncated file: the parser rejects it before restore is reached.
    let text = snap.render_pretty();
    assert!(Json::parse(&text[..text.len() / 2]).is_err(), "truncated JSON must not parse");

    // Not an envelope at all.
    assert!(restore(&Json::Null).is_err());
    assert!(restore(&Json::obj([("hello", Json::U64(1))])).is_err());

    // Version from the future.
    let mut version = snap.clone();
    set_field(&mut version, "version", Json::U64(999));
    assert!(restore(&version).is_err(), "version mismatch must be rejected");

    // Wrong schema marker.
    let mut schema = snap.clone();
    set_field(&mut schema, "schema", Json::Str("not-a-machine-snapshot".to_string()));
    assert!(restore(&schema).is_err());

    // A co-run snapshot offered to a single-tenant simulation.
    let mut kind = snap.clone();
    set_field(&mut kind, "kind", Json::Str("corun".to_string()));
    assert!(restore(&kind).is_err());

    // Fingerprint of a differently configured machine.
    let mut fingerprint = snap.clone();
    set_field(&mut fingerprint, "fingerprint", Json::U64(0xdead_beef));
    assert!(restore(&fingerprint).is_err());

    // Wrong workload / wrong policy.
    let mut workload = snap.clone();
    set_field(&mut workload, "workload", Json::Str("Silo".to_string()));
    assert!(restore(&workload).is_err());
    let mut policy = snap.clone();
    set_field(&mut policy, "policy", Json::Str("PEBS".to_string()));
    assert!(restore(&policy).is_err());

    // Gutted state payloads.
    let mut state = snap.clone();
    set_field(&mut state, "state", Json::Null);
    assert!(restore(&state).is_err());
    let mut empty_state = snap.clone();
    set_field(&mut empty_state, "state", Json::obj([] as [(&str, Json); 0]));
    assert!(restore(&empty_state).is_err());

    // LRU tickets naming a page far beyond the page table (2^36 would
    // size the list links for 2^36 pages), just past the footprint, or
    // mapped on the slow tier: pages enter the lists only while on the
    // fast tier.
    let fast_frames = experiment(WorkloadKind::Gups, PolicyKind::NeoMem)
        .config()
        .memory_config()
        .fast
        .capacity_frames;
    let page_table = ["state", "machine", "kernel", "page_table"]
        .iter()
        .try_fold(&snap, |node, key| node.req(key))
        .expect("page table");
    let mapped = page_table.req_u64s("mapped").expect("mapped bitmask");
    let frames = page_table.req_u64s("frames").expect("frame lane");
    let slow_page = (0..RSS_PAGES as usize)
        .find(|&p| (mapped[p / 64] >> (p % 64)) & 1 == 1 && frames[p] >= fast_frames)
        .expect("the run maps some page on the slow tier") as u64;
    for (page, why) in
        [(1u64 << 36, "address space"), (RSS_PAGES + 5, "address space"), (slow_page, "fast tier")]
    {
        let mut hostile = snap.clone();
        let lru = at_path(&mut hostile, &["state", "machine", "kernel", "lru"]);
        let mut am = lru.req_u64s("am").expect("am tickets");
        *am.last_mut().expect("the Am list is not empty at the cut") = page;
        set_field(lru, "am", Json::Str(hex_from_u64s(&am)));
        let err = restore(&hostile).expect_err("a hostile lru page must be rejected");
        assert!(err.to_string().contains(why), "lru page {page}: {err}");
    }

    // A slow tier degraded beyond the range fault plans accept (the next
    // slow-tier access would overflow the clock), and an access count
    // the run cannot have reached (resuming would fast-forward the
    // generator by four billion events).
    let slow = ["state", "machine", "kernel", "memory", "slow"];
    for (path, key, value) in [
        (&slow[..], "latency_x", u64::MAX),
        (&slow[..], "bandwidth_div", u64::MAX),
        (&["state", "loop"][..], "accesses", 1 << 32),
    ] {
        let mut hostile = snap.clone();
        set_field(at_path(&mut hostile, path), key, Json::U64(value));
        let err = restore(&hostile).expect_err("an unreachable state must be rejected");
        assert!(err.to_string().contains(key), "{key}: {err}");
    }

    // An LRU ticket counter at the top of its range: tickets only record
    // list order, so nothing counts on from it and the run finishes as
    // if uninterrupted.
    let mut top_seq = snap.clone();
    let lru = at_path(&mut top_seq, &["state", "machine", "kernel", "lru"]);
    set_field(lru, "next_seq", Json::U64(u64::MAX));
    let resumed = restore(&top_seq).expect("next_seq = u64::MAX restores");
    let straight = experiment(WorkloadKind::Gups, PolicyKind::NeoMem).into_simulation().run();
    assert_eq!(format!("{resumed:?}"), format!("{straight:?}"), "next_seq = u64::MAX diverged");
}

/// The value at `path` inside a snapshot: one object key or array
/// index per step.
fn at_path<'a>(snap: &'a mut Json, path: &[&str]) -> &'a mut Json {
    path.iter().fold(snap, |node, key| match node {
        Json::Obj(fields) => {
            &mut fields.iter_mut().find(|(k, _)| k == key).unwrap_or_else(|| panic!("no {key}")).1
        }
        Json::Arr(items) => &mut items[key.parse::<usize>().expect("array index")],
        _ => panic!("{key}: not an object or array"),
    })
}

#[test]
fn hostile_corun_snapshots_error_instead_of_panicking() {
    let straight = scenario_sim(PolicyKind::NeoMem).run();
    let cut = Nanos::new(straight.combined.runtime.as_nanos() / 2);
    let snap = scenario_sim(PolicyKind::NeoMem).snapshot_at(cut);
    let restore = |snap: &Json| scenario_sim(PolicyKind::NeoMem).run_from(snap);
    restore(&snap).expect("the pristine co-run snapshot must restore");
    let with = |path: &[&str], value: Json| {
        let mut hostile = snap.clone();
        *at_path(&mut hostile, path) = value;
        hostile
    };

    // A single-tenant snapshot offered to a co-run, and a co-run
    // snapshot relabelled as single-tenant.
    assert!(restore(&valid_snapshot()).is_err());
    assert!(restore(&with(&["kind"], Json::Str("sim".to_string()))).is_err());

    // One lane short of the mix.
    let mut short = snap.clone();
    let Json::Arr(lanes) = at_path(&mut short, &["state", "lanes"]) else { panic!("lanes") };
    lanes.pop();
    assert!(restore(&short).is_err(), "lane-count mismatch");

    // Zero scheduler weights: every slice would be empty, so the clock
    // would never advance.
    let zero_weights = Json::Str(hex_from_u64s(&[0, 0]));
    assert!(restore(&with(&["state", "scheduler", "weights"], zero_weights)).is_err());

    // An open epoch mark above its lane's counters, and an epoch
    // ordinal at the top of its range: closing the epoch would
    // underflow or overflow.
    for key in ["accesses", "slow_tier", "evicted"] {
        let mark = ["state", "loop", "open_epochs", "0", key];
        assert!(restore(&with(&mark, Json::U64(u64::MAX))).is_err(), "oversized mark {key}");
    }
    let ordinals = Json::Str(hex_from_u64s(&[u64::from(u32::MAX), 0]));
    assert!(restore(&with(&["state", "loop", "epoch_ordinal"], ordinals)).is_err());

    // An occupancy baseline that disagrees with the restored kernel's
    // fast-tier pages per tenant: u64::MAX would underflow the
    // cross-tenant eviction count, and 0 would skew it silently.
    let lanes = ["state", "loop"].iter().try_fold(&snap, |node, key| node.req(key));
    let lanes = lanes.and_then(|l| l.req_u64s("occ_before")).expect("occupancy baseline").len();
    for fill in [u64::MAX, 0] {
        let occ = Json::Str(hex_from_u64s(&vec![fill; lanes]));
        let err = restore(&with(&["state", "loop", "occ_before"], occ))
            .expect_err("an occupancy baseline the kernel disagrees with must be rejected");
        assert!(err.to_string().contains("occ_before"), "occ_before {fill}: {err}");
    }

    // Access and marker counts the run cannot have reached: resuming
    // would fast-forward a generator by four billion events.
    for path in [
        &["state", "loop", "accesses"][..],
        &["state", "lanes", "0", "accesses"],
        &["state", "lanes", "0", "markers"],
    ] {
        let err = restore(&with(path, Json::U64(1 << 32))).expect_err("unreachable count");
        assert!(matches!(err, neomem::Error::Snapshot { .. }), "{path:?}: {err}");
    }

    // The round-robin position a fixed mix's version-3 snapshot
    // carries cannot describe a schedule with timeline events.
    let position = Json::obj([("pos", Json::U64(0))]);
    let err = restore(&with(&["state", "scheduler"], position)).expect_err("evented schedule");
    assert!(err.to_string().contains("round-robin position"), "{err}");

    // Gutted loop and scheduler state.
    for part in ["loop", "scheduler"] {
        assert!(restore(&with(&["state", part], Json::Null)).is_err(), "null {part}");
        let empty = Json::obj([] as [(&str, Json); 0]);
        assert!(restore(&with(&["state", part], empty)).is_err(), "empty {part}");
    }
}

#[test]
fn cross_config_snapshots_are_rejected() {
    let snap = valid_snapshot();
    // Same workload and policy, different machine shape.
    let bigger = Experiment::builder()
        .workload(WorkloadKind::Gups)
        .policy(PolicyKind::NeoMem)
        .rss_pages(RSS_PAGES * 2)
        .accesses(ACCESSES)
        .seed(SEED)
        .build()
        .expect("valid experiment");
    let err = bigger.into_simulation().run_from(&snap).expect_err("shape mismatch must error");
    assert!(
        err.to_string().contains("fingerprint"),
        "error should name the fingerprint mismatch, got: {err}"
    );
}
