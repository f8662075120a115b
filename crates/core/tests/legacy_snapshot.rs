//! Snapshots written before the caches and TLB kept recency ranks still
//! restore: their per-way recency stamps were sparse per-access ticks
//! (unique within a level, invalid ways stamped 0, `tick` above every
//! stamp) rather than `ways - rank`. A live snapshot rewritten into that
//! form must resume bit-identically to a straight run.

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

fn set_field(obj: &mut Json, key: &str, value: Json) {
    let Json::Obj(fields) = obj else { panic!("snapshot section is not an object") };
    let slot = fields.iter_mut().find(|(k, _)| k == key).expect("field present");
    slot.1 = value;
}

/// Turns one structure's `ways - rank` stamps into the older per-access
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
    // Snapshots of the rank lanes carry `tick = ways`.
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
