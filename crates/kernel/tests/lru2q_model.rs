//! Model-based property tests for the dense LRU-2Q.
//!
//! The production structure ([`neomem_kernel::Lru2Q`]) threads two
//! intrusive doubly-linked lists through page-indexed link lanes; the
//! oracle here is the obviously-correct version: two plain `Vec`s
//! scanned linearly, no links, no dense index. Any operation sequence
//! — snapshot round-trips included — must produce identical
//! membership, counts and, the part link surgery is most likely to
//! break, identical eviction order.

use neomem_types::VirtPage;
use neomem_kernel::Lru2Q;
use proptest::prelude::*;

/// The naive reference: `a1in`/`am` hold page numbers, coldest first.
#[derive(Debug, Default)]
struct NaiveModel {
    a1in: Vec<u64>,
    am: Vec<u64>,
}

impl NaiveModel {
    fn contains(&self, page: u64) -> bool {
        self.a1in.contains(&page) || self.am.contains(&page)
    }

    fn len(&self) -> usize {
        self.a1in.len() + self.am.len()
    }

    fn insert(&mut self, page: u64) {
        if !self.contains(page) {
            self.a1in.push(page);
        }
    }

    fn on_access(&mut self, page: u64) {
        if !self.contains(page) {
            return;
        }
        self.a1in.retain(|&p| p != page);
        self.am.retain(|&p| p != page);
        self.am.push(page);
    }

    fn remove(&mut self, page: u64) {
        self.a1in.retain(|&p| p != page);
        self.am.retain(|&p| p != page);
    }

    fn pop_coldest(&mut self, n: usize) -> Vec<u64> {
        let mut victims = Vec::new();
        while victims.len() < n {
            if !self.a1in.is_empty() {
                victims.push(self.a1in.remove(0));
            } else if !self.am.is_empty() {
                victims.push(self.am.remove(0));
            } else {
                break;
            }
        }
        victims
    }
}

/// One scripted operation over both structures.
#[derive(Debug, Clone)]
enum Op {
    Insert(u64),
    Access(u64),
    Remove(u64),
    Pop(usize),
    RoundTrip,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // A small page universe maximises collisions: the same page gets
    // inserted, accessed, removed and re-inserted many times per run,
    // which is exactly the unlink/relink traffic the lists must
    // survive.
    // Inserts and accesses are listed twice: the vendored prop_oneof
    // is unweighted, and runs should mostly mutate membership.
    prop_oneof![
        (0u64..24).prop_map(Op::Insert),
        (0u64..24).prop_map(Op::Insert),
        (0u64..24).prop_map(Op::Access),
        (0u64..24).prop_map(Op::Access),
        (0u64..24).prop_map(Op::Remove),
        (1usize..5).prop_map(Op::Pop),
        Just(Op::RoundTrip),
    ]
}

proptest! {
    /// Every interleaving of operations leaves the dense structure and
    /// the naive model in agreement — membership, live count, and the
    /// exact victim sequence of every pop.
    #[test]
    fn dense_lru2q_matches_naive_model(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let mut dense = Lru2Q::new();
        let mut model = NaiveModel::default();
        for op in &ops {
            match *op {
                Op::Insert(p) => {
                    dense.insert(VirtPage::new(p));
                    model.insert(p);
                }
                Op::Access(p) => {
                    dense.on_access(VirtPage::new(p));
                    model.on_access(p);
                }
                Op::Remove(p) => {
                    dense.remove(VirtPage::new(p));
                    model.remove(p);
                }
                Op::Pop(n) => {
                    let got: Vec<u64> =
                        dense.pop_coldest(n).iter().map(|v| v.index()).collect();
                    prop_assert_eq!(got, model.pop_coldest(n), "victim order after {:?}", op);
                }
                // A snapshot restored into a fresh structure must be
                // unobservable, so the model deliberately has no
                // counterpart operation.
                Op::RoundTrip => {
                    let mut restored = Lru2Q::new();
                    restored.restore(&dense.snapshot(), 24, |_| true).expect("round-trip");
                    dense = restored;
                }
            }
            prop_assert_eq!(dense.len(), model.len());
            for p in 0..24u64 {
                prop_assert_eq!(
                    dense.contains(VirtPage::new(p)),
                    model.contains(p),
                    "membership of page {} diverged", p
                );
            }
        }
        // Drain both: the full residual eviction order must agree too.
        let got: Vec<u64> = dense.pop_coldest(usize::MAX).iter().map(|v| v.index()).collect();
        prop_assert_eq!(got, model.pop_coldest(usize::MAX), "final drain order");
        prop_assert!(dense.is_empty());
    }
}

/// A page removed (unmapped) and later re-inserted must behave as a
/// fresh probationary page — its first life in `Am` must neither
/// resurrect hot status nor distort the victim order.
#[test]
fn reinserted_page_does_not_reuse_stale_ticket() {
    let mut q = Lru2Q::new();
    let p = |i| VirtPage::new(i);
    q.insert(p(1));
    q.on_access(p(1)); // page 1 graduates to Am (hot)
    q.remove(p(1)); // unmapped — unlinked from Am
    q.insert(p(2));
    q.insert(p(1)); // second life: probationary again
    // A1in's FIFO order decides; page 1's first life in Am must not
    // save it from probationary eviction.
    assert_eq!(q.pop_coldest(2), vec![p(2), p(1)]);
    assert!(q.is_empty(), "no ghost entries left behind");
}

/// Same shape across a snapshot/restore cycle: a restored structure
/// must still evict in the model's order.
#[test]
fn snapshot_restore_preserves_model_order() {
    let mut q = Lru2Q::new();
    let p = |i| VirtPage::new(i);
    for i in 0..8 {
        q.insert(p(i));
    }
    for i in [1, 3, 5] {
        q.on_access(p(i));
    }
    q.remove(p(0));
    q.on_access(p(3)); // refresh: Am order is now 1, 5, 3
    let snap = q.snapshot();
    let mut restored = Lru2Q::new();
    restored.restore(&snap, 8, |_| true).expect("round-trip");
    assert_eq!(
        restored.pop_coldest(10),
        vec![p(2), p(4), p(6), p(7), p(1), p(5), p(3)],
        "restored eviction order"
    );
}
