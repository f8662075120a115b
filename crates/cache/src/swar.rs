//! Recency-ordered way-set kernels shared by the cache and TLB models.
//!
//! A set is a contiguous slice of `u32` key words, `KEY_VALID | tag` per
//! way, with bit 31 the validity flag and a 31-bit tag below it, so a
//! whole-way match (validity + tag) is one `u32` compare and an invalid
//! way never equals a probe key. The slice is kept in recency order:
//! position 0 holds the most recently used way, and invalid ways (key 0)
//! sit at the back. A per-way flag (the cache's dirty bit) lives in one
//! `u64` mask per set, bit `i` belonging to position `i`, and moves with
//! its key.
//!
//! True LRU with "invalid way first" is then positional: a hit moves its
//! way to the front, a fill drops the last way (an invalid one if the set
//! has any, else the least recently used) and inserts at the front, and
//! removing a way closes the gap so the freed slot ends up last.
//!
//! Invariants the callers guarantee (documented in ARCHITECTURE.md
//! § SWAR kernels):
//!
//! - tags never reach bit 31, so an invalid way can never equal a probe
//!   key;
//! - at most one way of a set matches a given key (fills never duplicate
//!   a resident tag), so "first match" and "any match" coincide;
//! - valid ways form a prefix of the set, and flag bits are clear on
//!   invalid ways and above the last way;
//! - `ways` is at most [`MAX_WAYS`], so the hit and flag masks fit a
//!   `u64`.

/// Validity flag of a key word (bit 31).
pub(crate) const KEY_VALID: u32 = 1 << 31;

/// Largest tag a key word holds: 31 bits below the validity flag.
pub(crate) const MAX_TAG: u64 = (KEY_VALID - 1) as u64;

/// Associativity cap of caches and TLBs: the hit and flag masks are one
/// `u64` wide.
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

/// The position of the way holding `key`, if any. The most recent way
/// is checked first; otherwise every way is compared unconditionally
/// into a hit mask reduced with `trailing_zeros`, which a
/// constant-length slice (see [`with_ways`]) unrolls and autovectorises.
#[inline(always)]
pub(crate) fn find(keys: &[u32], key: u32) -> Option<usize> {
    if keys[0] == key {
        return Some(0);
    }
    let mut hit = 0u64;
    for (i, &k) in keys.iter().enumerate() {
        hit |= u64::from(k == key) << i;
    }
    (hit != 0).then(|| hit.trailing_zeros() as usize)
}

/// Moves the way at `pos` to the front; the ways before it move back
/// one position.
#[inline(always)]
pub(crate) fn move_to_front(keys: &mut [u32], pos: usize) {
    let mut prev = keys[pos];
    for (i, k) in keys.iter_mut().enumerate() {
        let old = *k;
        *k = if i <= pos { prev } else { old };
        prev = old;
    }
}

/// Drops the last way and inserts `key` at the front; returns the
/// dropped key word.
#[inline(always)]
pub(crate) fn insert_front(keys: &mut [u32], key: u32) -> u32 {
    let last = keys[keys.len() - 1];
    keys.copy_within(..keys.len() - 1, 1);
    keys[0] = key;
    last
}

/// Removes the way at `pos`: the ways after it move forward one
/// position and the freed slot, now last, becomes invalid.
#[inline(always)]
pub(crate) fn remove(keys: &mut [u32], pos: usize) {
    keys.copy_within(pos + 1.., pos);
    keys[keys.len() - 1] = 0;
}

/// A set's flag mask after [`move_to_front`]`(pos)`: bit `pos` moves to
/// bit 0 and the bits below it move up one.
#[inline(always)]
pub(crate) fn flags_to_front(flags: u64, pos: usize) -> u64 {
    let below = (1u64 << pos) - 1;
    let moved = flags >> pos & 1;
    (flags & !below << 1) | (flags & below) << 1 | moved
}

/// A set's flag mask after [`remove`]`(pos)`: bit `pos` is dropped and
/// the bits above it move down one.
#[inline(always)]
pub(crate) fn flags_remove(flags: u64, pos: usize) -> u64 {
    let below = (1u64 << pos) - 1;
    (flags & below) | (flags >> 1 & !below)
}

/// The recency order a set restores to from snapshot stamps: the valid
/// ways by descending stamp, most recent first, and among equal stamps
/// the later way counts as more recent (the earlier one is the one an
/// LRU min-scan would evict). Invalid ways are left out; they go last.
pub(crate) fn recency_order(stamps: &[u64], valid: impl Fn(usize) -> bool) -> Vec<usize> {
    let mut order: Vec<usize> = (0..stamps.len()).filter(|&i| valid(i)).collect();
    order.sort_unstable_by_key(|&i| std::cmp::Reverse((stamps[i], i)));
    order
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

    /// One operation on a set, applied through the kernels at the width
    /// `with_ways!` binds. Returns what the kernel returned: the found
    /// position, or the dropped key for an insert.
    fn apply(keys: &mut [u32], flags: &mut u64, op: u64, key: u32, flag: bool) -> Option<u64> {
        with_ways!(keys.len(), ways => {
            let keys = &mut keys[..ways];
            match op {
                0 => {
                    let pos = find(keys, key)?;
                    move_to_front(keys, pos);
                    *flags = flags_to_front(*flags, pos) | u64::from(flag);
                    Some(pos as u64)
                }
                1 => {
                    let dropped = insert_front(keys, key);
                    *flags = (flags_to_front(*flags, ways - 1) & !1) | u64::from(flag);
                    Some(u64::from(dropped))
                }
                _ => {
                    let pos = find(keys, key)?;
                    remove(keys, pos);
                    *flags = flags_remove(*flags, pos);
                    Some(pos as u64)
                }
            }
        })
    }

    /// The kernels against a `Vec` of `(key, flag)` pairs, most recent
    /// first, at the literal widths of `with_ways!` and around them, on
    /// both sides of an 8-way boundary and up to the 64-way mask width.
    #[test]
    fn matches_reference_at_every_width() {
        let mut next = rng();
        for ways in [1usize, 2, 3, 4, 6, 8, 9, 12, 16, 17, 32, 63, 64] {
            let mut keys = vec![0u32; ways];
            let mut flags = 0u64;
            let mut model: Vec<(u32, bool)> = vec![(0, false); ways];
            for step in 0..4000 {
                // A few more tags than ways: hits, evictions and misses.
                let key = KEY_VALID | (next() % (ways as u64 + 3)) as u32;
                let flag = next().is_multiple_of(3);
                let resident = model.iter().position(|&(k, _)| k == key);
                let op = match next() % 8 {
                    // Fills never duplicate a resident key.
                    0..=3 if resident.is_none() => 1,
                    0..=5 => 0,
                    _ => 2,
                };
                let got = apply(&mut keys, &mut flags, op, key, flag);
                let want = match (op, resident) {
                    (0, Some(pos)) => {
                        let (k, f) = model.remove(pos);
                        model.insert(0, (k, f || flag));
                        Some(pos as u64)
                    }
                    (1, _) => {
                        let (dropped, _) = model.pop().unwrap();
                        model.insert(0, (key, flag));
                        Some(u64::from(dropped))
                    }
                    (2, Some(pos)) => {
                        model.remove(pos);
                        model.push((0, false));
                        Some(pos as u64)
                    }
                    _ => None,
                };
                assert_eq!(got, want, "{ways} ways step {step}");
                let model_keys: Vec<u32> = model.iter().map(|&(k, _)| k).collect();
                assert_eq!(keys, model_keys, "{ways} ways step {step}");
                let model_flags =
                    model.iter().enumerate().fold(0u64, |m, (i, &(_, f))| m | u64::from(f) << i);
                assert_eq!(flags, model_flags, "{ways} ways step {step}");
                // Valid ways stay a prefix.
                let valid = keys.iter().take_while(|&&k| k >= KEY_VALID).count();
                assert!(keys[valid..].iter().all(|&k| k == 0), "{ways} ways step {step}");
            }
        }
    }

    #[test]
    fn first_invalid_way_wins_over_lru() {
        let [a, b, c, d, e] = [1, 2, 3, 4, 5].map(|t| KEY_VALID | t);
        let mut keys = [a, b, c, d];
        let mut flags = 0b1010;
        remove(&mut keys, 1);
        flags = flags_remove(flags, 1);
        assert_eq!((keys, flags), ([a, c, d, 0], 0b100));
        // The freed slot, not the LRU way `d`, takes the fill.
        assert_eq!(insert_front(&mut keys, e), 0);
        assert_eq!(keys, [e, a, c, d]);
        assert_eq!(insert_front(&mut keys, b), d);
    }

    #[test]
    fn stamps_round_trip() {
        // A snapshot writes `ways - position`: restore keeps the order,
        // and the invalid tail stays out of it.
        assert_eq!(recency_order(&[4, 3, 2, 1], |_| true), [0, 1, 2, 3]);
        assert_eq!(recency_order(&[4, 3, 2, 1], |i| i < 2), [0, 1]);
    }

    #[test]
    fn lru_tie_break_takes_earliest_way() {
        // Sparse ticks with ties: of two equally old ways, the earlier
        // one is the LRU victim, so it restores last.
        let all = |_| true;
        assert_eq!(recency_order(&[5, 5, 5, 5], all), [3, 2, 1, 0]);
        assert_eq!(recency_order(&[7, 5, 5, 9], all), [3, 0, 2, 1]);
        assert_eq!(recency_order(&[0, 90, 0, 17], all), [1, 3, 2, 0]);
        // Invalid ways are left out whatever their stamps.
        assert_eq!(recency_order(&[0, 90, 0, 17], |i| i != 1), [3, 2, 0]);
    }
}
