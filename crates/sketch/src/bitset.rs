//! A compact fixed-size bitset used for hot and valid bits.
//!
//! The paper stores hot/valid bits "physically arranged in a contiguous
//! manner, allowing for rapid resetting"; a `Vec<u64>` with word-wise clear
//! is the software equivalent.

#[derive(Debug, Clone)]
pub(crate) struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    pub(crate) fn new(len: usize) -> Self {
        Self { words: vec![0; len.div_ceil(64)], len }
    }

    #[inline]
    pub(crate) fn get(&self, idx: usize) -> bool {
        debug_assert!(idx < self.len);
        (self.words[idx / 64] >> (idx % 64)) & 1 == 1
    }

    /// Sets the bit and returns its previous value — one word access
    /// where the update paths would otherwise do a `get` plus a
    /// conditional set.
    #[inline]
    pub(crate) fn test_and_set(&mut self, idx: usize) -> bool {
        debug_assert!(idx < self.len);
        let word = &mut self.words[idx / 64];
        let bit = 1u64 << (idx % 64);
        let was = *word & bit != 0;
        *word |= bit;
        was
    }

    /// Word-wise clear: the "rapid reset" path.
    #[inline]
    pub(crate) fn clear_all(&mut self) {
        self.words.fill(0);
    }

    /// Raw backing words, for checkpointing.
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// Replaces the backing words from a checkpoint. Returns `false`
    /// (leaving the set untouched) when the word count does not match
    /// this set's length.
    pub(crate) fn load_words(&mut self, words: &[u64]) -> bool {
        if words.len() != self.words.len() {
            return false;
        }
        self.words.copy_from_slice(words);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear() {
        let mut bs = BitSet::new(130);
        assert!(!bs.get(0));
        for idx in [0, 64, 129] {
            bs.test_and_set(idx);
        }
        assert!(bs.get(0) && bs.get(64) && bs.get(129));
        assert!(!bs.get(1));
        assert_eq!(bs.words().iter().map(|w| w.count_ones()).sum::<u32>(), 3);
        bs.clear_all();
        assert_eq!(bs.words(), [0; 3]);
    }

    #[test]
    fn test_and_set_reports_previous_value() {
        let mut bs = BitSet::new(70);
        assert!(!bs.test_and_set(65));
        assert!(bs.test_and_set(65));
        assert!(bs.get(65));
        assert!(!bs.get(64));
    }

    #[test]
    fn word_boundary_independence() {
        let mut bs = BitSet::new(128);
        bs.test_and_set(63);
        assert!(!bs.get(64));
        bs.test_and_set(64);
        assert!(bs.get(63) && bs.get(64));
    }
}
