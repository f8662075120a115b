//! Snapshot envelopes: the versioned on-disk schema shared by
//! [`crate::Simulation`] and [`crate::CoRunSimulation`] warm-starts.
//!
//! A snapshot is a [`Json`] document with a fixed envelope:
//!
//! ```json
//! {
//!   "schema": "neomem-machine-snapshot",
//!   "version": 4,
//!   "kind": "sim" | "corun",
//!   "fingerprint": <u64>,
//!   "workload": "<name>",
//!   "policy": "<name>",
//!   "state": { ... }
//! }
//! ```
//!
//! The `fingerprint` hashes every behaviour-affecting configuration
//! field *except* `batch_size` — a snapshot restores onto any batch
//! size and thread count (results are bit-identical either way, per
//! the engine's batching invariant), but never onto a differently
//! shaped machine. Loading validates the whole envelope before any
//! state is touched, so corrupt, truncated or mismatched snapshots
//! produce [`neomem_types::Error::Snapshot`] errors, not panics.
//!
//! Inside `state`, floats are stored as their IEEE-754 bit patterns
//! (`f64::to_bits`, a JSON integer) so a restore is bit-exact, and
//! bulk arrays use the hex packing from [`neomem_types::json`].

use neomem_types::json::{hex_from_u64s, Json};
use neomem_types::{Error, Nanos, Result};
use neomem_workloads::Workload;

use crate::config::SimConfig;
use crate::corun::CoRunConfig;
use crate::report::{MarkerRecord, TimelinePoint};

/// The `schema` tag every snapshot document carries.
pub const SNAPSHOT_SCHEMA: &str = "neomem-machine-snapshot";

/// The schema version this build writes. Bump on any layout change.
/// Version 4 writes a fixed mix's co-run schedule in the scenario
/// schedule's layout (`next_event`, `active`, `weights`, `cursor`,
/// `pending_new_round`) instead of the round-robin position `pos`.
/// Version 3 dropped the kernel's `arbitrary_cursor`, the sketch's
/// `eager_clear` and the hot-page detector's `bloom`, and numbers LRU
/// tickets by list position instead of enqueue order.
pub const SNAPSHOT_VERSION: u64 = 4;

/// The oldest schema version this build still reads. A fixed mix's
/// co-run snapshot of versions 1–3 carries the round-robin position
/// `{"pos": p}`, which restores as the event-free scenario schedule
/// with lane `p` next. Versions 1 and 2 also carry the version-3
/// layout plus the three fields version 3 dropped, which a restore
/// ignores (a `bloom` that is not `null` is an error), and their LRU
/// tickets link in file order like version 3's.
pub const SNAPSHOT_MIN_VERSION: u64 = 1;

/// The `kind` tag of single-tenant snapshots.
pub(crate) const KIND_SIM: &str = "sim";

/// The `kind` tag of co-run snapshots.
pub(crate) const KIND_CORUN: &str = "corun";

/// FNV-1a over a string: the configuration fingerprint hash. Stable,
/// dependency-free, and plenty for mismatch *detection* (fingerprints
/// gate restores; they are not security boundaries).
pub(crate) fn fingerprint_str(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The configuration fingerprint of a single-tenant run: a hash over
/// every behaviour-affecting [`SimConfig`] field, with `batch_size`
/// normalised out — snapshots restore across batch sizes and thread
/// counts (bit-identical results either way) but never across machine
/// shapes.
pub(crate) fn sim_fingerprint(config: &SimConfig) -> u64 {
    let mut c = config.clone();
    c.batch_size = 0;
    fingerprint_str(&format!("{c:?}"))
}

/// The co-run counterpart of [`sim_fingerprint`]: additionally covers
/// the interleave quantum and fairness cap.
pub(crate) fn corun_fingerprint(config: &CoRunConfig) -> u64 {
    let mut c = config.clone();
    c.sim.batch_size = 0;
    fingerprint_str(&format!("{c:?}"))
}

/// Wraps `state` in the versioned snapshot envelope.
pub(crate) fn envelope(
    kind: &str,
    fingerprint: u64,
    workload: &str,
    policy: &str,
    state: Json,
) -> Json {
    Json::obj([
        ("schema", Json::Str(SNAPSHOT_SCHEMA.to_string())),
        ("version", Json::U64(SNAPSHOT_VERSION)),
        ("kind", Json::Str(kind.to_string())),
        ("fingerprint", Json::U64(fingerprint)),
        ("workload", Json::Str(workload.to_string())),
        ("policy", Json::Str(policy.to_string())),
        ("state", state),
    ])
}

/// Validates the envelope of `snap` against what the caller was built
/// for and returns the inner `state` object. Every check fails with a
/// message naming both sides, and nothing is restored before all of
/// them pass.
pub(crate) fn open_envelope<'a>(
    snap: &'a Json,
    kind: &str,
    fingerprint: u64,
    workload: &str,
    policy: &str,
) -> Result<&'a Json> {
    let schema = snap.req_str("schema")?;
    if schema != SNAPSHOT_SCHEMA {
        return Err(Error::snapshot(format!(
            "not a machine snapshot: schema is {schema:?}, expected {SNAPSHOT_SCHEMA:?}"
        )));
    }
    let version = snap.req_u64("version")?;
    if !(SNAPSHOT_MIN_VERSION..=SNAPSHOT_VERSION).contains(&version) {
        return Err(Error::snapshot(format!(
            "snapshot schema version {version}, this build reads versions \
             {SNAPSHOT_MIN_VERSION}..={SNAPSHOT_VERSION}"
        )));
    }
    let got_kind = snap.req_str("kind")?;
    if got_kind != kind {
        return Err(Error::snapshot(format!(
            "snapshot kind {got_kind:?} cannot restore into a {kind:?} run"
        )));
    }
    let got_fp = snap.req_u64("fingerprint")?;
    if got_fp != fingerprint {
        return Err(Error::snapshot(format!(
            "snapshot fingerprint {got_fp:#018x} != configuration fingerprint \
             {fingerprint:#018x}: the snapshot was taken on a differently configured machine"
        )));
    }
    let got_workload = snap.req_str("workload")?;
    if got_workload != workload {
        return Err(Error::snapshot(format!(
            "snapshot was taken running workload {got_workload:?}, this run is {workload:?}"
        )));
    }
    let got_policy = snap.req_str("policy")?;
    if got_policy != policy {
        return Err(Error::snapshot(format!(
            "snapshot was taken under policy {got_policy:?}, this run uses {policy:?}"
        )));
    }
    snap.req("state")
}

/// Marker labels are `&'static str` in [`MarkerRecord`]; a restore
/// maps the serialized string back onto the production label set.
const MARKER_LABELS: [&str; 7] = [
    "popularity-drift",
    "graph-built",
    "iteration",
    "phase-shift",
    "table-initialized",
    "hot-set-moved",
    "sweep",
];

fn intern_marker_label(label: &str) -> Result<&'static str> {
    MARKER_LABELS
        .iter()
        .find(|&&l| l == label)
        .copied()
        .ok_or_else(|| Error::snapshot(format!("unknown marker label {label:?}")))
}

/// `Option<f64>` → `null` or the bit pattern as a JSON integer.
fn opt_bits(v: Option<f64>) -> Json {
    match v {
        None => Json::Null,
        Some(f) => Json::U64(f.to_bits()),
    }
}

fn opt_bits_back(state: &Json, key: &str) -> Result<Option<f64>> {
    match state.req(key)? {
        Json::Null => Ok(None),
        other => other.as_u64().map(|b| Some(f64::from_bits(b))).ok_or_else(|| {
            Error::snapshot(format!("field {key:?} is not null or a u64 bit pattern"))
        }),
    }
}

/// `Option<u16>` → `null` or a JSON integer.
fn opt_u16(v: Option<u16>) -> Json {
    match v {
        None => Json::Null,
        Some(x) => Json::U64(u64::from(x)),
    }
}

fn opt_u16_back(state: &Json, key: &str) -> Result<Option<u16>> {
    match state.req(key)? {
        Json::Null => Ok(None),
        other => {
            let raw = other
                .as_u64()
                .ok_or_else(|| Error::snapshot(format!("field {key:?} is not null or a u64")))?;
            let v = u16::try_from(raw)
                .map_err(|_| Error::snapshot(format!("field {key:?} value {raw} exceeds u16")))?;
            Ok(Some(v))
        }
    }
}

/// One timeline point, floats as bit patterns.
pub(crate) fn point_to_json(p: &TimelinePoint) -> Json {
    Json::obj([
        ("at", Json::U64(p.at.as_nanos())),
        ("accesses", Json::U64(p.accesses)),
        ("slow_accesses", Json::U64(p.slow_accesses)),
        ("throughput", Json::U64(p.throughput.to_bits())),
        ("threshold", opt_u16(p.threshold)),
        ("p_fraction", opt_bits(p.p_fraction)),
        ("bandwidth_util", opt_bits(p.bandwidth_util)),
        ("read_util", opt_bits(p.read_util)),
        ("write_util", opt_bits(p.write_util)),
        ("error_bound", opt_u16(p.error_bound)),
        (
            "histogram",
            match &p.histogram {
                None => Json::Null,
                Some(h) => Json::Str(hex_from_u64s(h)),
            },
        ),
    ])
}

pub(crate) fn point_from_json(snap: &Json) -> Result<TimelinePoint> {
    let histogram = match snap.req("histogram")? {
        Json::Null => None,
        _ => {
            let bins = snap.req_u64s("histogram")?;
            let n = bins.len();
            let arr: [u64; 64] = bins
                .try_into()
                .map_err(|_| Error::snapshot(format!("histogram has {n} bins, expected 64")))?;
            Some(arr)
        }
    };
    Ok(TimelinePoint {
        at: Nanos::new(snap.req_u64("at")?),
        accesses: snap.req_u64("accesses")?,
        slow_accesses: snap.req_u64("slow_accesses")?,
        throughput: f64::from_bits(snap.req_u64("throughput")?),
        threshold: opt_u16_back(snap, "threshold")?,
        p_fraction: opt_bits_back(snap, "p_fraction")?,
        bandwidth_util: opt_bits_back(snap, "bandwidth_util")?,
        read_util: opt_bits_back(snap, "read_util")?,
        write_util: opt_bits_back(snap, "write_util")?,
        error_bound: opt_u16_back(snap, "error_bound")?,
        histogram,
    })
}

pub(crate) fn timeline_to_json(timeline: &[TimelinePoint]) -> Json {
    Json::Arr(timeline.iter().map(point_to_json).collect())
}

pub(crate) fn timeline_from_json(state: &Json, key: &str) -> Result<Vec<TimelinePoint>> {
    state.req_arr(key)?.iter().map(point_from_json).collect()
}

pub(crate) fn marker_to_json(m: &MarkerRecord) -> Json {
    Json::obj([
        ("at", Json::U64(m.at.as_nanos())),
        ("id", Json::U64(u64::from(m.id))),
        ("label", Json::Str(m.label.to_string())),
    ])
}

pub(crate) fn marker_from_json(snap: &Json) -> Result<MarkerRecord> {
    let raw_id = snap.req_u64("id")?;
    let id = u32::try_from(raw_id)
        .map_err(|_| Error::snapshot(format!("marker id {raw_id} exceeds u32")))?;
    Ok(MarkerRecord {
        at: Nanos::new(snap.req_u64("at")?),
        id,
        label: intern_marker_label(snap.req_str("label")?)?,
    })
}

pub(crate) fn markers_to_json(markers: &[MarkerRecord]) -> Json {
    Json::Arr(markers.iter().map(marker_to_json).collect())
}

pub(crate) fn markers_from_json(state: &Json, key: &str) -> Result<Vec<MarkerRecord>> {
    state.req_arr(key)?.iter().map(marker_from_json).collect()
}

/// Advances a freshly built workload generator past the `consumed`
/// events the snapshotted run already processed. Valid because
/// generators are deterministic and `fill_events(n)` is bit-identical
/// to `n` single-event pulls at any chunking (the batching invariant),
/// so the generator lands in exactly the state the snapshotted run
/// left it in — without serializing generator internals.
pub(crate) fn fast_forward(workload: &mut dyn Workload, consumed: u64) {
    const CHUNK: u64 = 4096;
    let mut buf = Vec::with_capacity(CHUNK.min(consumed) as usize);
    let mut remaining = consumed;
    while remaining > 0 {
        let n = remaining.min(CHUNK) as usize;
        buf.clear();
        workload.fill_events(&mut buf, n);
        remaining -= n as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_round_trips() {
        let snap = envelope(KIND_SIM, 42, "gups", "NeoMem", Json::obj([("x", Json::U64(1))]));
        let state = open_envelope(&snap, KIND_SIM, 42, "gups", "NeoMem").unwrap();
        assert_eq!(state.req_u64("x").unwrap(), 1);
    }

    #[test]
    fn envelope_rejects_mismatches() {
        let snap = envelope(KIND_SIM, 42, "gups", "NeoMem", Json::Null);
        for (kind, fp, w, p) in [
            (KIND_CORUN, 42, "gups", "NeoMem"),
            (KIND_SIM, 43, "gups", "NeoMem"),
            (KIND_SIM, 42, "silo", "NeoMem"),
            (KIND_SIM, 42, "gups", "PEBS"),
        ] {
            assert!(open_envelope(&snap, kind, fp, w, p).is_err());
        }
    }

    #[test]
    fn envelope_rejects_wrong_schema_and_version() {
        let mut wrong_schema = envelope(KIND_SIM, 1, "w", "p", Json::Null);
        if let Json::Obj(pairs) = &mut wrong_schema {
            pairs[0].1 = Json::Str("something-else".to_string());
        }
        assert!(open_envelope(&wrong_schema, KIND_SIM, 1, "w", "p").is_err());

        let mut wrong_version = envelope(KIND_SIM, 1, "w", "p", Json::Null);
        if let Json::Obj(pairs) = &mut wrong_version {
            pairs[1].1 = Json::U64(SNAPSHOT_VERSION + 1);
        }
        assert!(open_envelope(&wrong_version, KIND_SIM, 1, "w", "p").is_err());
    }

    #[test]
    fn point_round_trips_bit_exact() {
        let p = TimelinePoint {
            at: Nanos::new(123),
            accesses: 456,
            slow_accesses: 789,
            throughput: 0.1 + 0.2, // a value with an inexact decimal form
            threshold: Some(7),
            p_fraction: Some(1.0 / 3.0),
            bandwidth_util: None,
            read_util: Some(f64::MIN_POSITIVE),
            write_util: None,
            error_bound: None,
            histogram: Some([3; 64]),
        };
        let back = point_from_json(&point_to_json(&p)).unwrap();
        assert_eq!(back.throughput.to_bits(), p.throughput.to_bits());
        assert_eq!(back.p_fraction.unwrap().to_bits(), p.p_fraction.unwrap().to_bits());
        assert_eq!(back.histogram, p.histogram);
        assert_eq!(back.at, p.at);
    }

    #[test]
    fn marker_round_trips_and_rejects_unknown_labels() {
        let m = MarkerRecord { at: Nanos::new(9), id: 3, label: "phase-shift" };
        let back = marker_from_json(&marker_to_json(&m)).unwrap();
        assert_eq!(back.at, m.at);
        assert_eq!(back.id, m.id);
        assert_eq!(back.label, m.label);

        let bogus = Json::obj([
            ("at", Json::U64(0)),
            ("id", Json::U64(0)),
            ("label", Json::Str("not-a-real-label".to_string())),
        ]);
        assert!(marker_from_json(&bogus).is_err());
    }

    #[test]
    fn fingerprint_is_stable_and_discriminating() {
        assert_eq!(fingerprint_str("abc"), fingerprint_str("abc"));
        assert_ne!(fingerprint_str("abc"), fingerprint_str("abd"));
    }

    #[test]
    fn config_fingerprints_are_pinned() {
        // A changed fingerprint turns every stored warm-start snapshot
        // into a silent cold run, so a config refactor must leave these
        // values alone unless it deliberately breaks snapshot reuse.
        use neomem_workloads::{TenantMix, WorkloadKind};
        let mix = TenantMix::builder()
            .tenant(WorkloadKind::Gups, 2048, 1)
            .tenant(WorkloadKind::Silo, 1024, 2)
            .build()
            .unwrap();
        assert_eq!(
            [
                sim_fingerprint(&SimConfig::quick(4096, 2)),
                sim_fingerprint(&SimConfig::large(65_536, 2)),
                corun_fingerprint(&CoRunConfig::quick(&mix, 2)),
            ],
            [3_847_118_181_705_120_135, 695_307_852_040_578_701, 17_231_382_258_009_840_942]
        );
    }
}
