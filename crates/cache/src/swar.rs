//! Branchless way-set kernels shared by the cache and TLB models.
//!
//! Both structures keep two lanes per set, each stored contiguously:
//!
//! - a `u32` key lane: `KEY_VALID | tag` per way, with bit 31 the validity
//!   flag and a 31-bit tag below it, so a whole-way match (validity +
//!   tag) is one `u32` compare and an invalid way never equals a probe
//!   key;
//! - a `u8` rank lane: `RANK_DIRTY | rank` per way, with the low seven
//!   bits the way's recency rank (0 = most recently used) and bit 7 a
//!   flag the cache uses for dirtiness (the TLB leaves it clear).
//!
//! The kernels compare every way of the set unconditionally and fold the
//! result into a bitmask reduced with `trailing_zeros`, so callers that
//! pass a constant-length slice (see [`with_ways`]) get a fully unrolled,
//! autovectorised loop — no external SIMD crates, no `unsafe`.
//!
//! Invariants the callers guarantee (documented in ARCHITECTURE.md
//! § SWAR kernels):
//!
//! - tags never reach bit 31, so an invalid way can never equal a probe
//!   key;
//! - at most one way of a set matches a given key (fills never duplicate
//!   a resident tag), so "first match" and "any match" coincide;
//! - a set's ranks are always a permutation of `0..ways`, and `ways` is
//!   at most [`MAX_WAYS`], so ranks stay below 64 (the per-byte
//!   arithmetic of [`touch`] never borrows or carries between bytes) and
//!   the bitmasks fit a `u64`.

/// Validity flag of a key word (bit 31).
pub(crate) const KEY_VALID: u32 = 1 << 31;

/// Largest tag a key word holds: 31 bits below the validity flag.
pub(crate) const MAX_TAG: u64 = (KEY_VALID - 1) as u64;

/// Flag bit of a rank-lane byte (the cache's dirty bit).
pub(crate) const RANK_DIRTY: u8 = 1 << 7;

/// Recency-rank bits of a rank-lane byte.
const RANK_MASK: u8 = RANK_DIRTY - 1;

/// Associativity cap of caches and TLBs: the rank lane's bitmasks are
/// one `u64` wide.
pub(crate) const MAX_WAYS: usize = 64;

/// Calls `$body` with `$ways` bound to the way count: a literal for the
/// common geometries (2, 4, 8, 16 ways), so each arm is a constant-width
/// copy of the `#[inline(always)]` body and kernels it calls, and the
/// runtime value for any other width, which runs the same code with a
/// variable trip count.
macro_rules! with_ways {
    ($count:expr, $ways:ident => $body:expr) => {
        match $count {
            2 => {
                let $ways = 2;
                $body
            }
            4 => {
                let $ways = 4;
                $body
            }
            8 => {
                let $ways = 8;
                $body
            }
            16 => {
                let $ways = 16;
                $body
            }
            $ways => $body,
        }
    };
}
pub(crate) use with_ways;

/// One sweep over a way-set's key lane: the way holding `key` (if any)
/// and the invalid-way bitmask (bit `i` set iff way `i` is invalid).
/// Callers that need only one half discard the other, which folds away
/// once inlined.
#[inline(always)]
pub(crate) fn scan_set(keys: &[u32], key: u32) -> (Option<usize>, u64) {
    let mut hit = 0u64;
    let mut invalid = 0u64;
    for (i, &k) in keys.iter().enumerate() {
        hit |= u64::from(k == key) << i;
        invalid |= u64::from(k < KEY_VALID) << i;
    }
    let way = if hit == 0 { None } else { Some(hit.trailing_zeros() as usize) };
    (way, invalid)
}

/// Moves `way` to rank 0 (most recently used) with flag bits `flag`,
/// and ages by one every way that ranked above it, keeping the set's
/// ranks a permutation. The other ways' flag bits pass through.
///
/// Works on whole 8-way words and stores each once: a narrower store
/// into a word the next touch of the set reloads would defeat the host's
/// store-to-load forwarding.
#[inline(always)]
pub(crate) fn touch(ranks: &mut [u8], way: usize, flag: u8) {
    const BYTES: u64 = u64::MAX / 0xff;
    const RANKS: u64 = BYTES * RANK_MASK as u64;
    const FLAGS: u64 = BYTES * RANK_DIRTY as u64;
    let old = u64::from(ranks[way] & RANK_MASK);
    // Per byte, `0x7f + old - rank` has bit 7 set iff `rank < old`, and
    // never borrows from the next byte because ranks are below 64.
    let bias = BYTES * (0x7f + old);
    let shift = 8 * (way % 8);
    for (i, chunk) in ranks.chunks_mut(8).enumerate() {
        let mut bytes = [0u8; 8];
        bytes[..chunk.len()].copy_from_slice(chunk);
        let word = u64::from_le_bytes(bytes);
        let older = (bias - (word & RANKS)) & FLAGS;
        // Ranks below `old` are at most `ways - 2`, so the increment
        // never carries into the flag bit.
        let word = word + (older >> 7);
        let own = (0xff << shift) & 0u64.wrapping_sub(u64::from(i == way / 8));
        let word = (word & !own) | ((u64::from(flag) << shift) & own);
        chunk.copy_from_slice(&word.to_le_bytes()[..chunk.len()]);
    }
}

/// Picks the fill victim of one way-set: the first invalid way, else the
/// least recently used one (rank `ways - 1`).
#[inline(always)]
pub(crate) fn victim(invalid: u64, ranks: &[u8]) -> usize {
    if invalid != 0 {
        return invalid.trailing_zeros() as usize;
    }
    let last = (ranks.len() - 1) as u8;
    let mut oldest = 0u64;
    for (i, &r) in ranks.iter().enumerate() {
        oldest |= u64::from(r & RANK_MASK == last) << i;
    }
    oldest.trailing_zeros() as usize
}

/// The recency stamps a snapshot carries for one set: `ways - rank`, so
/// the most recent way has the largest stamp and every stamp is in
/// `1..=ways`.
pub(crate) fn stamps(ranks: &[u8]) -> impl Iterator<Item = u64> + '_ {
    let ways = ranks.len() as u64;
    ranks.iter().map(move |r| ways - u64::from(r & RANK_MASK))
}

/// Rebuilds one set's ranks from snapshot recency stamps: descending
/// stamp order, and among equal stamps the later way ranks as more
/// recent (the earlier one is the one an LRU min-scan would evict).
/// Flag bits of `ranks` are kept.
pub(crate) fn ranks_from_stamps(stamps: &[u64], ranks: &mut [u8]) {
    for (i, r) in ranks.iter_mut().enumerate() {
        let newer = stamps
            .iter()
            .enumerate()
            .filter(|&(j, &s)| s > stamps[i] || (s == stamps[i] && j > i))
            .count();
        *r = (*r & RANK_DIRTY) | newer as u8;
    }
}

/// A rank lane of `sets` sets in their initial order (way `i` at rank
/// `i`).
pub(crate) fn identity_ranks(sets: usize, ways: usize) -> Vec<u8> {
    (0..ways as u8).collect::<Vec<u8>>().repeat(sets)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random stream (splitmix64).
    fn rng() -> impl FnMut() -> u64 {
        let mut state = 0x9e3779b97f4a7c15u64;
        move || {
            state = state.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        }
    }

    fn dispatched_scan(keys: &[u32], key: u32) -> (Option<usize>, u64) {
        with_ways!(keys.len(), ways => scan_set(&keys[..ways], key))
    }

    #[test]
    fn matches_reference_at_every_width() {
        let mut next = rng();
        for ways in [1usize, 2, 3, 4, 6, 8, 16, 32, 64] {
            for trial in 0..200 {
                let mut keys: Vec<u32> = (0..ways)
                    .map(|_| {
                        let tag = (next() % 64) as u32;
                        if next().is_multiple_of(4) {
                            0
                        } else {
                            KEY_VALID | tag
                        }
                    })
                    .collect();
                // Fills never duplicate a resident tag.
                for i in 1..ways {
                    while keys[i] != 0 && keys[..i].contains(&keys[i]) {
                        keys[i] = KEY_VALID | (keys[i].wrapping_add(1) & 0xff);
                    }
                }
                let probe = if trial % 2 == 0 {
                    keys[(next() as usize) % ways] | KEY_VALID
                } else {
                    KEY_VALID | (next() % 64) as u32
                };
                let (hit, invalid) = dispatched_scan(&keys, probe);
                assert_eq!(hit, keys.iter().position(|k| *k == probe), "{ways} ways");
                for (i, k) in keys.iter().enumerate() {
                    assert_eq!(invalid >> i & 1 == 1, k & KEY_VALID == 0, "{ways} ways way {i}");
                }
            }
        }
    }

    #[test]
    fn touch_keeps_a_permutation_and_tracks_recency() {
        let mut next = rng();
        // Widths on both sides of the 8-way word boundary.
        for ways in [1usize, 2, 3, 4, 8, 9, 12, 16, 17, 64] {
            let mut ranks = identity_ranks(1, ways);
            // Touch order, most recent last.
            let mut order: Vec<usize> = (0..ways).rev().collect();
            let mut flags = vec![0u8; ways];
            for _ in 0..500 {
                let way = (next() as usize) % ways;
                flags[way] = if next().is_multiple_of(3) { RANK_DIRTY } else { 0 };
                touch(&mut ranks, way, flags[way]);
                order.retain(|&w| w != way);
                order.push(way);
                for (age, &w) in order.iter().rev().enumerate() {
                    assert_eq!(ranks[w], flags[w] | age as u8, "{ways} ways");
                }
                assert_eq!(victim(0, &ranks), order[0], "LRU way is the least recently touched");
            }
        }
    }

    #[test]
    fn first_invalid_way_wins_over_lru() {
        let ranks = [3, 0, 1, 2];
        assert_eq!(victim(0b1010, &ranks), 1);
        assert_eq!(victim(0, &ranks), 0);
    }

    #[test]
    fn stamps_round_trip() {
        let ranks = [2, RANK_DIRTY, 3, 1];
        let stamps: Vec<u64> = stamps(&ranks).collect();
        assert_eq!(stamps, [2, 4, 1, 3]);
        let mut back = [0, RANK_DIRTY, 0, 0];
        ranks_from_stamps(&stamps, &mut back);
        assert_eq!(back, ranks);
    }

    #[test]
    fn lru_tie_break_takes_earliest_way() {
        // Sparse ticks with ties: of two equally old ways, the earlier
        // one is the LRU victim.
        let mut ranks = [0u8; 4];
        ranks_from_stamps(&[5, 5, 5, 5], &mut ranks);
        assert_eq!(victim(0, &ranks), 0);
        ranks_from_stamps(&[7, 5, 5, 9], &mut ranks);
        assert_eq!(victim(0, &ranks), 1);
        ranks_from_stamps(&[0, 90, 0, 17], &mut ranks);
        assert_eq!(ranks, [3, 0, 2, 1]);
    }

    #[test]
    fn stamp_mask_strips_flag_bits() {
        // The dirty flag on a way must not make it look more or less
        // recent.
        let mut ranks = [RANK_DIRTY | 1, 0];
        assert_eq!(victim(0, &ranks), 0);
        assert_eq!(stamps(&ranks).collect::<Vec<_>>(), [1, 2]);
        touch(&mut ranks, 1, 0);
        assert_eq!(ranks, [RANK_DIRTY | 1, 0]);
        touch(&mut ranks, 0, RANK_DIRTY);
        assert_eq!(ranks, [RANK_DIRTY, 1]);
    }

    #[test]
    fn identity_lane_repeats_per_set() {
        assert_eq!(identity_ranks(2, 3), [0, 1, 2, 0, 1, 2]);
    }
}
