//! The LRU-2Q cold-page detector (Johnson & Shasha's 2Q, as used by the
//! Linux active/inactive page lists).
//!
//! New pages enter the probationary `A1in` FIFO; a page re-accessed while
//! probationary graduates to the `Am` LRU list. Demotion victims come
//! from the cold end of `A1in` first (touched once, never again), then
//! from the LRU end of `Am`.

use neomem_types::json::{hex_from_u64s, Json};
use neomem_types::{Error, Result, VirtPage};

/// Link sentinel: no neighbour, or an empty list end.
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Queue {
    A1in,
    Am,
}

/// Dense side-table state byte: the page is not tracked.
const STATE_NONE: u8 = 0;
/// Dense side-table state byte: the page sits in `A1in`.
const STATE_A1IN: u8 = 1;
/// Dense side-table state byte: the page sits in `Am`.
const STATE_AM: u8 = 2;

impl Queue {
    fn state(self) -> u8 {
        match self {
            Queue::A1in => STATE_A1IN,
            Queue::Am => STATE_AM,
        }
    }
}

/// The cold (`head`) and hot (`tail`) ends of one list.
#[derive(Debug, Clone, Copy)]
struct Ends {
    head: u32,
    tail: u32,
}

impl Default for Ends {
    fn default() -> Self {
        Self { head: NIL, tail: NIL }
    }
}

/// A 2Q structure over the fast tier's resident pages.
///
/// Both queues are intrusive doubly-linked lists threaded through
/// `prev`/`next` lanes indexed by page number, so every operation is
/// O(1) and the structure holds exactly one entry per tracked page,
/// however long the run. A one-byte state lane records which list (if
/// any) holds each page, so the `record_fast_access` hot path tests
/// membership with one byte. Pages are dense in `0..rss_pages`, and
/// footprints are capped below 2^31 pages, so `u32` links suffice.
#[derive(Debug, Clone, Default)]
pub struct Lru2Q {
    prev: Vec<u32>,
    next: Vec<u32>,
    /// Which list (if any) holds each page.
    states: Vec<u8>,
    a1in: Ends,
    am: Ends,
    live: usize,
}

impl Lru2Q {
    /// Creates an empty structure.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of tracked pages.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no pages are tracked.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Whether `page` is tracked.
    #[inline]
    pub fn contains(&self, page: VirtPage) -> bool {
        matches!(self.states.get(page.index() as usize), Some(s) if *s != STATE_NONE)
    }

    /// Grows the lanes to cover `page`.
    fn cover(&mut self, page: u64) {
        assert!(page < u64::from(NIL), "page {page} does not fit the u32 link lanes");
        let len = page as usize + 1;
        if len > self.states.len() {
            self.prev.resize(len, NIL);
            self.next.resize(len, NIL);
            self.states.resize(len, STATE_NONE);
        }
    }

    /// Links an untracked, covered page at the hot end of `queue`.
    fn link_tail(&mut self, idx: usize, queue: Queue) {
        let ends = match queue {
            Queue::A1in => &mut self.a1in,
            Queue::Am => &mut self.am,
        };
        self.prev[idx] = ends.tail;
        self.next[idx] = NIL;
        match ends.tail {
            NIL => ends.head = idx as u32,
            tail => self.next[tail as usize] = idx as u32,
        }
        ends.tail = idx as u32;
        self.states[idx] = queue.state();
        self.live += 1;
    }

    /// Unlinks a tracked page from its list.
    fn unlink(&mut self, idx: usize) {
        let ends = if self.states[idx] == STATE_A1IN { &mut self.a1in } else { &mut self.am };
        let (prev, next) = (self.prev[idx], self.next[idx]);
        match prev {
            NIL => ends.head = next,
            prev => self.next[prev as usize] = next,
        }
        match next {
            NIL => ends.tail = prev,
            next => self.prev[next as usize] = prev,
        }
        self.states[idx] = STATE_NONE;
        self.live -= 1;
    }

    /// Registers a page newly resident on the fast tier.
    pub fn insert(&mut self, page: VirtPage) {
        if !self.contains(page) {
            self.cover(page.index());
            self.link_tail(page.index() as usize, Queue::A1in);
        }
    }

    /// Records an access to a resident page: probationary pages graduate
    /// to `Am`; `Am` pages refresh to most-recently-used.
    #[inline]
    pub fn on_access(&mut self, page: VirtPage) {
        if self.contains(page) {
            // Both transitions move the page to the hot end of Am.
            let idx = page.index() as usize;
            self.unlink(idx);
            self.link_tail(idx, Queue::Am);
        }
    }

    /// Stops tracking a page (demoted or unmapped).
    pub fn remove(&mut self, page: VirtPage) {
        if self.contains(page) {
            self.unlink(page.index() as usize);
        }
    }

    /// Pops up to `n` cold victims: probationary-FIFO first, then LRU.
    /// Popped pages are removed from tracking.
    pub fn pop_coldest(&mut self, n: usize) -> Vec<VirtPage> {
        // `n` is a demand, not a size: callers may pass usize::MAX to
        // drain, so cap the allocation hint at what can actually pop.
        let mut victims = Vec::with_capacity(n.min(self.live));
        while victims.len() < n {
            let head = if self.a1in.head != NIL { self.a1in.head } else { self.am.head };
            if head == NIL {
                break;
            }
            self.unlink(head as usize);
            victims.push(VirtPage::new(u64::from(head)));
        }
        victims
    }

    /// Appends one list's interleaved `(seq, page)` tickets, coldest
    /// first, numbering them on from `out`'s ticket count.
    fn push_tickets(&self, ends: Ends, out: &mut Vec<u64>) {
        let mut at = ends.head;
        while at != NIL {
            out.push(out.len() as u64 / 2);
            out.push(u64::from(at));
            at = self.next[at as usize];
        }
    }

    /// Serialises both lists for a machine snapshot, coldest first, as
    /// `(seq, page)` tickets. A ticket's `seq` is its position: `a1in`
    /// counts up from 0, `am` continues after it, and `next_seq` is the
    /// ticket count. Only list order matters on restore.
    pub fn snapshot(&self) -> Json {
        let mut tickets = Vec::with_capacity(2 * self.live);
        self.push_tickets(self.a1in, &mut tickets);
        let a1in_len = tickets.len();
        self.push_tickets(self.am, &mut tickets);
        Json::obj([
            ("a1in", Json::Str(hex_from_u64s(&tickets[..a1in_len]))),
            ("am", Json::Str(hex_from_u64s(&tickets[a1in_len..]))),
            ("next_seq", Json::U64(tickets.len() as u64 / 2)),
        ])
    }

    /// Restores [`Lru2Q::snapshot`] state, replacing the current
    /// contents. Pages are linked in file order; a ticket's `seq` is
    /// checked against `next_seq` and otherwise ignored, so snapshots
    /// that numbered tickets by enqueue order (versions 1–2) restore to
    /// the same lists. `span` is the page table's span, and `is_fast`
    /// tells whether the restored page table maps a page to a fast-tier
    /// frame: pages enter the lists only at fast allocation and
    /// promotion, and leave them at demotion.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Snapshot`] on missing/malformed fields, odd-length
    /// ticket arrays, a page appearing twice, a ticket at or beyond
    /// `next_seq`, a page at or beyond `span`, or a page `is_fast`
    /// rejects.
    pub fn restore(
        &mut self,
        snap: &Json,
        span: u64,
        is_fast: impl Fn(VirtPage) -> bool,
    ) -> Result<()> {
        let next_seq = snap.req_u64("next_seq")?;
        let mut staged = Self::default();
        for (key, queue) in [("a1in", Queue::A1in), ("am", Queue::Am)] {
            let tickets = snap.req_u64s(key)?;
            if tickets.len() % 2 != 0 {
                return Err(Error::snapshot(format!("odd-length {key} ticket array")));
            }
            for pair in tickets.chunks_exact(2) {
                let (seq, page) = (pair[0], pair[1]);
                if seq >= next_seq {
                    return Err(Error::snapshot(format!(
                        "{key} ticket sequence {seq} is not below next_seq {next_seq}"
                    )));
                }
                if page >= span.min(u64::from(NIL)) {
                    return Err(Error::snapshot(format!(
                        "{key} page {page} is outside the {span}-page address space"
                    )));
                }
                let vpage = VirtPage::new(page);
                if !is_fast(vpage) {
                    return Err(Error::snapshot(format!(
                        "{key} page {page} is not mapped on the fast tier"
                    )));
                }
                if staged.contains(vpage) {
                    return Err(Error::snapshot(format!("page {page} has two live lru tickets")));
                }
                staged.cover(page);
                staged.link_tail(page as usize, queue);
            }
        }
        *self = staged;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vp(i: u64) -> VirtPage {
        VirtPage::new(i)
    }

    #[test]
    fn insert_and_contains() {
        let mut q = Lru2Q::new();
        q.insert(vp(1));
        assert!(q.contains(vp(1)));
        assert_eq!(q.len(), 1);
        q.insert(vp(1)); // idempotent
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn once_touched_pages_evicted_first() {
        let mut q = Lru2Q::new();
        q.insert(vp(1)); // touched once, never again
        q.insert(vp(2));
        q.on_access(vp(2)); // graduates to Am
        let victims = q.pop_coldest(1);
        assert_eq!(victims, vec![vp(1)], "probationary page must go first");
    }

    #[test]
    fn am_evicts_in_lru_order() {
        let mut q = Lru2Q::new();
        for i in 1..=3 {
            q.insert(vp(i));
            q.on_access(vp(i));
        }
        q.on_access(vp(1)); // refresh 1: LRU order is now 2, 3, 1
        let victims = q.pop_coldest(3);
        assert_eq!(victims, vec![vp(2), vp(3), vp(1)]);
    }

    #[test]
    fn remove_prevents_eviction() {
        let mut q = Lru2Q::new();
        q.insert(vp(1));
        q.insert(vp(2));
        q.remove(vp(1));
        assert!(!q.contains(vp(1)));
        let victims = q.pop_coldest(5);
        assert_eq!(victims, vec![vp(2)]);
    }

    #[test]
    fn pop_exhausts_then_empty() {
        let mut q = Lru2Q::new();
        for i in 0..4 {
            q.insert(vp(i));
        }
        assert_eq!(q.pop_coldest(10).len(), 4);
        assert!(q.is_empty());
        assert!(q.pop_coldest(1).is_empty());
    }

    #[test]
    fn access_to_untracked_page_ignored() {
        let mut q = Lru2Q::new();
        q.on_access(vp(9));
        assert!(q.is_empty());
    }

    #[test]
    fn removed_pages_are_never_evicted() {
        let mut q = Lru2Q::new();
        for i in 0..10 {
            q.insert(vp(i));
            if i % 2 == 0 {
                q.on_access(vp(i));
            }
        }
        for i in 0..5 {
            q.remove(vp(i));
        }
        // Odd pages 5,7,9 are probationary; even 6,8 are in Am.
        let victims = q.pop_coldest(10);
        assert_eq!(victims, vec![vp(5), vp(7), vp(9), vp(6), vp(8)]);
    }

    #[test]
    fn reaccess_keeps_single_live_ticket() {
        let mut q = Lru2Q::new();
        q.insert(vp(1));
        for _ in 0..100 {
            q.on_access(vp(1));
        }
        assert_eq!(q.pop_coldest(10), vec![vp(1)], "only one live instance");
    }
}
