//! Snapshots written by earlier builds still restore. Each case rewrites
//! a live snapshot into an older form and must resume bit-identically to
//! a straight run:
//!
//! - before the caches and TLB kept their sets in recency order (and,
//!   before that, recency ranks), per-way recency stamps were sparse
//!   per-access ticks (unique within a level, invalid ways stamped 0,
//!   `tick` above every stamp) rather than `ways - position`;
//! - schema version 2 also carried the kernel's `arbitrary_cursor`, the
//!   sketch's `eager_clear` and the hot-page detector's `bloom`, and
//!   numbered LRU tickets in enqueue order rather than by list position;
//! - up to schema version 3, a fixed mix's co-run schedule was the
//!   round-robin position of the next slice, `{"pos": p}`, rather than
//!   the scenario schedule's state.

use neomem::prelude::*;
use neomem::types::json::{hex_from_u64s, Json};

const SEED: u64 = 2024;
const ACCESSES: u64 = 24_000;

fn experiment(kind: WorkloadKind, policy: PolicyKind) -> Experiment {
    Experiment::builder()
        .workload(kind)
        .policy(policy)
        .rss_pages(1024)
        .accesses(ACCESSES)
        .seed(SEED)
        .build()
        .expect("valid experiment")
}

fn field_mut<'a>(obj: &'a mut Json, key: &str) -> &'a mut Json {
    let Json::Obj(fields) = obj else { panic!("snapshot section is not an object") };
    &mut fields.iter_mut().find(|(k, _)| k == key).expect("field present").1
}

fn set_field(obj: &mut Json, key: &str, value: Json) {
    *field_mut(obj, key) = value;
}

/// Turns one structure's `ways - position` stamps into the older per-access
/// ticks: within each set the recency order is kept, valid ways get
/// ticks unique across the structure with gaps between them, invalid
/// ways get 0, and the returned `tick` lies above every stamp.
fn legacy_stamps(stamps: &[u64], valid: impl Fn(usize) -> bool, ways: usize) -> (Vec<u64>, u64) {
    let sets = (stamps.len() / ways) as u64;
    let ticks: Vec<u64> = stamps
        .iter()
        .enumerate()
        .map(|(i, &s)| if valid(i) { (s * sets + (i / ways) as u64) * 3 + 1 } else { 0 })
        .collect();
    let tick = ticks.iter().max().copied().unwrap_or(0) + 7;
    (ticks, tick)
}

/// Rewrites every cache level and the TLB inside `snap`; returns how
/// many structures it rewrote.
fn legacify(snap: &mut Json) -> usize {
    let mut rewritten = 0;
    if let Json::Obj(fields) = snap {
        for (_, child) in fields.iter_mut() {
            rewritten += legacify(child);
        }
    }
    let is_cache = snap.get("metas").is_some();
    let is_tlb = snap.get("last_uses").is_some();
    if !is_cache && !is_tlb {
        return rewritten;
    }
    // Snapshots of recency-ordered sets carry `tick = ways`.
    let ways = snap.req_u64("tick").expect("tick") as usize;
    if is_cache {
        let metas = snap.req_u64s("metas").expect("metas");
        let flags = |m: u64| m & (3 << 62);
        let stamps: Vec<u64> = metas.iter().map(|m| m & !(3 << 62)).collect();
        let (ticks, tick) = legacy_stamps(&stamps, |i| metas[i] >> 63 == 1, ways);
        let metas: Vec<u64> = metas.iter().zip(&ticks).map(|(m, t)| flags(*m) | t).collect();
        set_field(snap, "metas", Json::Str(hex_from_u64s(&metas)));
        set_field(snap, "tick", Json::U64(tick));
    } else {
        let stamps = snap.req_u64s("last_uses").expect("last_uses");
        let valid = snap.req_u64s("valid").expect("valid");
        let (ticks, tick) = legacy_stamps(&stamps, |i| valid[i / 64] >> (i % 64) & 1 == 1, ways);
        set_field(snap, "last_uses", Json::Str(hex_from_u64s(&ticks)));
        set_field(snap, "tick", Json::U64(tick));
    }
    rewritten + 1
}

#[test]
fn tick_stamped_snapshots_resume_bit_identically() {
    for (kind, policy) in [
        (WorkloadKind::Gups, PolicyKind::NeoMem),
        (WorkloadKind::Silo, PolicyKind::PteScan),
        (WorkloadKind::PageRank, PolicyKind::FirstTouch),
    ] {
        let straight = experiment(kind, policy).into_simulation().run();
        let cut = Nanos::new(straight.runtime.as_nanos() / 2);
        let mut snap = experiment(kind, policy).into_simulation().snapshot_at(cut);
        let own = snap.render();
        assert_eq!(legacify(&mut snap), 4, "three cache levels and the TLB");
        assert_ne!(snap.render(), own, "the rewrite must change the stamps");
        let resumed = experiment(kind, policy)
            .into_simulation()
            .run_from(&snap)
            .expect("tick-stamped snapshot restores");
        assert_eq!(
            format!("{resumed:?}"),
            format!("{straight:?}"),
            "{kind} / {policy:?}: resume from a tick-stamped snapshot diverged"
        );
    }
}

/// Rewrites a live snapshot into the version-2 form: the three fields
/// version 3 dropped come back as that build wrote them, and LRU tickets
/// carry sparse enqueue-order sequence numbers, interleaved across the
/// two lists, below a `next_seq` with headroom. Returns how many kernels,
/// sketches and detectors it rewrote.
fn version_two(snap: &mut Json) -> [usize; 3] {
    let mut counts = [0; 3];
    add_version_two_fields(snap, &mut counts);
    set_field(snap, "version", Json::U64(2));
    counts
}

fn add_version_two_fields(node: &mut Json, counts: &mut [usize; 3]) {
    match node {
        Json::Arr(items) => items.iter_mut().for_each(|item| add_version_two_fields(item, counts)),
        Json::Obj(fields) => {
            fields.iter_mut().for_each(|(_, child)| add_version_two_fields(child, counts));
            let has = |key: &str| fields.iter().any(|(k, _)| k == key);
            let (kernel, sketch, detector) = (
                has("lru") && has("page_table"),
                has("stream_len") && has("counters"),
                has("sketch") && has("threshold"),
            );
            if kernel {
                let lru = &mut fields.iter_mut().find(|(k, _)| k == "lru").expect("lru").1;
                enqueue_order_tickets(lru);
                fields.push(("arbitrary_cursor".to_string(), Json::U64(0)));
                counts[0] += 1;
            }
            if sketch {
                fields.push(("eager_clear".to_string(), Json::Bool(false)));
                counts[1] += 1;
            }
            if detector {
                fields.push(("bloom".to_string(), Json::Null));
                counts[2] += 1;
            }
        }
        _ => {}
    }
}

/// Renumbers LRU tickets the way version 2 did: by enqueue order, so
/// numbers rise along each list, interleave across the two lists and
/// leave gaps, all below `next_seq`.
fn enqueue_order_tickets(lru: &mut Json) {
    let mut top = 0;
    for (key, phase) in [("a1in", 1), ("am", 3)] {
        let mut tickets = lru.req_u64s(key).expect("tickets");
        for (i, pair) in tickets.chunks_exact_mut(2).enumerate() {
            pair[0] = 5 * i as u64 + phase;
            top = top.max(pair[0]);
        }
        set_field(lru, key, Json::Str(hex_from_u64s(&tickets)));
    }
    set_field(lru, "next_seq", Json::U64(top + 9));
}

fn scenario_mix() -> TenantMix {
    TenantMix::builder()
        .tenant(WorkloadKind::Gups, 512, SEED)
        .weighted_tenant(WorkloadKind::Silo, 512, 2, SEED + 1)
        .build()
        .expect("valid mix")
}

fn corun_sim_of(mix: &TenantMix) -> CoRunSimulation {
    let mut sim = SimConfig::quick(mix.total_rss_pages(), 2);
    sim.max_accesses = ACCESSES;
    let config = CoRunConfig { sim, interleave_quantum: 64, fast_share_cap: None };
    let policy = build_policy(PolicyKind::NeoMem, &config.sim, 1000, PolicyOverrides::default())
        .expect("valid policy");
    CoRunSimulation::new(config, mix, policy).expect("valid co-run simulation")
}

fn corun_sim() -> CoRunSimulation {
    corun_sim_of(&scenario_mix())
}

/// Points the first detector's `bloom` at a filter's state, as a run
/// with the external Bloom filter would have written it.
fn with_bloom_state(snap: &Json) -> Json {
    fn set_first(node: &mut Json) -> bool {
        match node {
            Json::Obj(fields) => {
                if let Some(slot) = fields.iter_mut().find(|(k, _)| k == "bloom") {
                    slot.1 = Json::obj([("bits", Json::Str(hex_from_u64s(&[1, 0])))]);
                    return true;
                }
                fields.iter_mut().any(|(_, child)| set_first(child))
            }
            Json::Arr(items) => items.iter_mut().any(set_first),
            _ => false,
        }
    }
    let mut hostile = snap.clone();
    assert!(set_first(&mut hostile), "the snapshot has a detector");
    hostile
}

#[test]
fn version_two_sim_snapshots_resume_bit_identically() {
    let straight = experiment(WorkloadKind::Gups, PolicyKind::NeoMem).into_simulation().run();
    let cut = Nanos::new(straight.runtime.as_nanos() / 2);
    let mut snap =
        experiment(WorkloadKind::Gups, PolicyKind::NeoMem).into_simulation().snapshot_at(cut);
    assert_eq!(version_two(&mut snap), [1, 1, 1], "one kernel, sketch and detector");
    let resumed = experiment(WorkloadKind::Gups, PolicyKind::NeoMem)
        .into_simulation()
        .run_from(&snap)
        .expect("version-2 snapshot restores");
    assert_eq!(format!("{resumed:?}"), format!("{straight:?}"), "version-2 resume diverged");

    let err = experiment(WorkloadKind::Gups, PolicyKind::NeoMem)
        .into_simulation()
        .run_from(&with_bloom_state(&snap))
        .expect_err("external bloom filter state must be rejected");
    assert!(matches!(err, neomem::Error::Snapshot { .. }), "{err}");
    assert!(err.to_string().contains("bloom"), "{err}");
}

#[test]
fn version_two_corun_snapshots_resume_bit_identically() {
    let straight = corun_sim().run();
    let cut = Nanos::new(straight.combined.runtime.as_nanos() / 2);
    let mut snap = corun_sim().snapshot_at(cut);
    assert_eq!(version_two(&mut snap), [1, 1, 1], "one kernel, sketch and detector");
    let resumed = corun_sim().run_from(&snap).expect("version-2 co-run snapshot restores");
    assert_eq!(format!("{resumed:?}"), format!("{straight:?}"), "version-2 resume diverged");

    let err = corun_sim()
        .run_from(&with_bloom_state(&snap))
        .expect_err("external bloom filter state must be rejected");
    assert!(matches!(err, neomem::Error::Snapshot { .. }), "{err}");
    assert!(err.to_string().contains("bloom"), "{err}");
}

fn fixed_mix_sim() -> CoRunSimulation {
    let mix = TenantMix::builder()
        .tenant(WorkloadKind::Gups, 512, SEED)
        .weighted_tenant(WorkloadKind::Silo, 512, 2, SEED + 1)
        .tenant(WorkloadKind::Btree, 512, SEED + 2)
        .build()
        .expect("valid mix");
    corun_sim_of(&mix)
}

/// Rewrites a live fixed-mix snapshot into the version-3 form, whose
/// schedule is the round-robin position of the next slice: the
/// scenario schedule's cursor modulo the lane count. Returns the
/// position.
fn round_robin_position(snap: &mut Json) -> u64 {
    let scheduler = field_mut(field_mut(snap, "state"), "scheduler");
    let lanes = scheduler.req_u64s("active").expect("active lanes").len() as u64;
    let pos = scheduler.req_u64("cursor").expect("cursor") % lanes;
    *scheduler = Json::obj([("pos", Json::U64(pos))]);
    set_field(snap, "version", Json::U64(3));
    pos
}

#[test]
fn round_robin_position_snapshots_resume_bit_identically() {
    let straight = fixed_mix_sim().run();
    let runtime = straight.combined.runtime.as_nanos();
    // The first cut whose next slice opens a round, and the first whose
    // next slice is mid-round.
    let mut cuts: [Option<(u64, Json)>; 2] = [None, None];
    for sixteenth in 1..16 {
        let mut snap = fixed_mix_sim().snapshot_at(Nanos::new(runtime * sixteenth / 16));
        let pos = round_robin_position(&mut snap);
        cuts[usize::from(pos > 0)].get_or_insert((pos, snap));
        if cuts.iter().all(Option::is_some) {
            break;
        }
    }
    for (pos, snap) in cuts.iter().map(|cut| cut.as_ref().expect("cuts at p == 0 and p > 0")) {
        let resumed =
            fixed_mix_sim().run_from(snap).expect("round-robin position snapshot restores");
        assert_eq!(format!("{resumed:?}"), format!("{straight:?}"), "pos {pos}: resume diverged");
    }

    // A position past the last of the three lanes.
    let (_, mut past) = cuts[0].clone().expect("cut at p == 0");
    let scheduler = field_mut(field_mut(&mut past, "state"), "scheduler");
    *scheduler = Json::obj([("pos", Json::U64(3))]);
    let err = fixed_mix_sim().run_from(&past).expect_err("position 3 of 3 lanes");
    assert!(matches!(err, neomem::Error::Snapshot { .. }), "{err}");
    assert!(err.to_string().contains("round-robin position"), "{err}");
}
