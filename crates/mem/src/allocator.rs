//! Per-node physical frame allocation.

use neomem_types::json::{hex_from_u64s, Json};
use neomem_types::{Error, NodeId, PageNum, Result};

/// A free-list frame allocator over a contiguous frame range.
///
/// Frames are handed out lowest-first from a contiguous window
/// `[base, base + capacity)`; freed frames are recycled LIFO. The window
/// layout mirrors how the simulator carves the physical address space:
/// the fast node owns the low frames and the CXL node the frames above
/// it, exactly like the address-mapped NUMA layout in Fig. 1(b).
#[derive(Debug, Clone)]
pub struct FrameAllocator {
    node: NodeId,
    base: PageNum,
    capacity: u64,
    next_fresh: u64,
    free_list: Vec<PageNum>,
    /// Frames hot-removed from the top of the window by a fault
    /// (`[base + capacity - blocked, base + capacity)`): never handed
    /// out while blocked. 0 on a healthy machine.
    blocked: u64,
    /// Freed frames parked because they fall in the blocked range;
    /// they rejoin `free_list` when the block lifts.
    blocked_free: Vec<PageNum>,
}

impl FrameAllocator {
    /// Creates an allocator owning `[base, base + capacity)`.
    pub fn new(node: NodeId, base: PageNum, capacity: u64) -> Self {
        Self {
            node,
            base,
            capacity,
            next_fresh: 0,
            free_list: Vec::new(),
            blocked: 0,
            blocked_free: Vec::new(),
        }
    }

    /// The owning node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// First frame of the window.
    pub fn base(&self) -> PageNum {
        self.base
    }

    /// Total frames in the window.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Frames usable right now: capacity minus any fault-blocked range.
    pub fn usable_capacity(&self) -> u64 {
        self.capacity - self.blocked
    }

    /// Frames currently blocked by a capacity-loss fault.
    pub fn blocked_frames(&self) -> u64 {
        self.blocked
    }

    /// Frames currently available for allocation (blocked frames are
    /// not available).
    pub fn free_frames(&self) -> u64 {
        self.usable_capacity().saturating_sub(self.next_fresh) + self.free_list.len() as u64
    }

    /// Frames currently handed out.
    pub fn used_frames(&self) -> u64 {
        self.next_fresh - self.free_list.len() as u64 - self.blocked_free.len() as u64
    }

    /// Whether `frame` belongs to this allocator's window.
    pub fn owns(&self, frame: PageNum) -> bool {
        frame >= self.base && frame.index() < self.base.index() + self.capacity
    }

    /// Allocates one frame.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfMemory`] when the node is full.
    pub fn alloc(&mut self) -> Result<PageNum> {
        if let Some(frame) = self.free_list.pop() {
            return Ok(frame);
        }
        if self.next_fresh < self.usable_capacity() {
            let frame = self.base.offset(self.next_fresh);
            self.next_fresh += 1;
            return Ok(frame);
        }
        Err(Error::OutOfMemory { node: self.node })
    }

    /// Returns a frame to the allocator.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) when `frame` is outside this node's window —
    /// that indicates a cross-node accounting bug in the caller.
    pub fn free(&mut self, frame: PageNum) {
        debug_assert!(self.owns(frame), "freeing foreign frame {frame}");
        if self.is_blocked(frame) {
            self.blocked_free.push(frame);
        } else {
            self.free_list.push(frame);
        }
    }

    /// Whether `frame` sits in the currently blocked top range.
    pub fn is_blocked(&self, frame: PageNum) -> bool {
        self.blocked > 0 && frame.index() >= self.base.index() + self.capacity - self.blocked
    }

    /// Hot-removes (or restores) the top `frames` of the window:
    /// `set_blocked(n)` blocks `[base + capacity - n, base + capacity)`,
    /// `set_blocked(0)` lifts the block. Free frames crossing the
    /// boundary are re-parked deterministically (insertion order is
    /// preserved), so the same call sequence always yields the same
    /// allocator state. Frames still in use inside the blocked range
    /// stay mapped — the caller is responsible for migrating them away
    /// and freeing them.
    pub fn set_blocked(&mut self, frames: u64) {
        self.blocked = frames.min(self.capacity);
        let floor = self.base.index() + self.capacity - self.blocked;
        let mut free_list = Vec::with_capacity(self.free_list.len());
        let mut blocked_free = Vec::with_capacity(self.blocked_free.len());
        // Stable re-partition of both parking lists across the new
        // boundary, oldest first.
        for frame in self.free_list.drain(..).chain(self.blocked_free.drain(..)) {
            if frame.index() >= floor {
                blocked_free.push(frame);
            } else {
                free_list.push(frame);
            }
        }
        self.free_list = free_list;
        self.blocked_free = blocked_free;
    }

    /// Serialises the allocator's mutable state (fresh-frame cursor and
    /// free list, in recycling order) for a machine snapshot.
    pub fn snapshot(&self) -> Json {
        Json::obj([
            ("next_fresh", Json::U64(self.next_fresh)),
            (
                "free_list",
                Json::Str(hex_from_u64s(
                    &self.free_list.iter().map(|f| f.index()).collect::<Vec<u64>>(),
                )),
            ),
            ("blocked", Json::U64(self.blocked)),
            (
                "blocked_free",
                Json::Str(hex_from_u64s(
                    &self.blocked_free.iter().map(|f| f.index()).collect::<Vec<u64>>(),
                )),
            ),
        ])
    }

    /// Restores [`FrameAllocator::snapshot`] state onto an allocator with
    /// the same window.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Snapshot`] when the cursor exceeds the capacity
    /// or a free-list frame is outside this allocator's window.
    pub fn restore(&mut self, snap: &Json) -> Result<()> {
        let next_fresh = snap.req_u64("next_fresh")?;
        if next_fresh > self.capacity {
            return Err(Error::snapshot(format!(
                "allocator cursor {next_fresh} exceeds capacity {}",
                self.capacity
            )));
        }
        let blocked = snap.req_u64("blocked")?;
        if blocked > self.capacity {
            return Err(Error::snapshot(format!(
                "blocked count {blocked} exceeds capacity {}",
                self.capacity
            )));
        }
        let mut free_list = Vec::new();
        for raw in snap.req_u64s("free_list")? {
            let frame = PageNum::new(raw);
            if !self.owns(frame) || raw >= self.base.index() + next_fresh {
                return Err(Error::snapshot(format!(
                    "free frame {raw} is outside the allocated window of {}",
                    self.node
                )));
            }
            free_list.push(frame);
        }
        let blocked_floor = self.base.index() + self.capacity - blocked;
        let mut blocked_free = Vec::new();
        for raw in snap.req_u64s("blocked_free")? {
            let frame = PageNum::new(raw);
            if !self.owns(frame) || raw < blocked_floor || raw >= self.base.index() + next_fresh {
                return Err(Error::snapshot(format!(
                    "blocked free frame {raw} is outside the blocked window of {}",
                    self.node
                )));
            }
            blocked_free.push(frame);
        }
        self.next_fresh = next_fresh;
        self.free_list = free_list;
        self.blocked = blocked;
        self.blocked_free = blocked_free;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alloc4() -> FrameAllocator {
        FrameAllocator::new(NodeId::FAST, PageNum::new(100), 4)
    }

    #[test]
    fn allocates_lowest_first() {
        let mut a = alloc4();
        assert_eq!(a.alloc().unwrap(), PageNum::new(100));
        assert_eq!(a.alloc().unwrap(), PageNum::new(101));
        assert_eq!(a.free_frames(), 2);
        assert_eq!(a.used_frames(), 2);
    }

    #[test]
    fn exhaustion_returns_oom() {
        let mut a = alloc4();
        for _ in 0..4 {
            a.alloc().unwrap();
        }
        assert_eq!(a.alloc(), Err(Error::OutOfMemory { node: NodeId::FAST }));
    }

    #[test]
    fn free_recycles() {
        let mut a = alloc4();
        let f0 = a.alloc().unwrap();
        let _f1 = a.alloc().unwrap();
        a.free(f0);
        assert_eq!(a.alloc().unwrap(), f0, "freed frame is reused first");
    }

    #[test]
    fn ownership_window() {
        let a = alloc4();
        assert!(a.owns(PageNum::new(100)));
        assert!(a.owns(PageNum::new(103)));
        assert!(!a.owns(PageNum::new(99)));
        assert!(!a.owns(PageNum::new(104)));
    }

    #[test]
    fn blocked_top_frames_are_never_handed_out() {
        let mut a = alloc4();
        a.set_blocked(2);
        assert_eq!(a.usable_capacity(), 2);
        assert_eq!(a.free_frames(), 2);
        assert_eq!(a.alloc().unwrap(), PageNum::new(100));
        assert_eq!(a.alloc().unwrap(), PageNum::new(101));
        assert_eq!(a.alloc(), Err(Error::OutOfMemory { node: NodeId::FAST }));
        assert!(a.is_blocked(PageNum::new(102)));
        assert!(!a.is_blocked(PageNum::new(101)));
        // Recovery restores the full window.
        a.set_blocked(0);
        assert_eq!(a.alloc().unwrap(), PageNum::new(102));
        assert_eq!(a.alloc().unwrap(), PageNum::new(103));
    }

    #[test]
    fn frames_freed_while_blocked_are_parked_until_recovery() {
        let mut a = alloc4();
        let frames: Vec<_> = (0..4).map(|_| a.alloc().unwrap()).collect();
        a.set_blocked(2);
        a.free(frames[3]); // In the blocked range: parked.
        a.free(frames[0]); // Healthy range: immediately reusable.
        assert_eq!(a.free_frames(), 1);
        assert_eq!(a.used_frames(), 2);
        assert_eq!(a.alloc().unwrap(), frames[0]);
        assert!(a.alloc().is_err(), "parked frame must not be allocatable");
        a.set_blocked(0);
        assert_eq!(a.alloc().unwrap(), frames[3], "parked frame returns on recovery");
    }

    #[test]
    fn blocked_state_round_trips_through_snapshot() {
        let mut a = alloc4();
        let frames: Vec<_> = (0..4).map(|_| a.alloc().unwrap()).collect();
        a.set_blocked(2);
        a.free(frames[3]);
        a.free(frames[1]);
        let snap = a.snapshot();
        let mut b = alloc4();
        b.restore(&snap).unwrap();
        assert_eq!(b.blocked_frames(), 2);
        assert_eq!(b.free_frames(), a.free_frames());
        assert_eq!(b.alloc(), a.alloc());
        // Hostile: a blocked-free frame outside the blocked window.
        let mut bad = snap.clone();
        if let Json::Obj(fields) = &mut bad {
            for (k, v) in fields.iter_mut() {
                if k == "blocked_free" {
                    *v = Json::Str(hex_from_u64s(&[100]));
                }
            }
        }
        assert!(alloc4().restore(&bad).is_err());
    }

    #[test]
    fn full_cycle_alloc_free_all() {
        let mut a = alloc4();
        let frames: Vec<_> = (0..4).map(|_| a.alloc().unwrap()).collect();
        for f in frames {
            a.free(f);
        }
        assert_eq!(a.free_frames(), 4);
        // Can allocate the full capacity again.
        for _ in 0..4 {
            a.alloc().unwrap();
        }
        assert!(a.alloc().is_err());
    }
}
