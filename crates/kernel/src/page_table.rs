//! The simulated page table.

use neomem_types::json::{hex_from_u64s, Json};
use neomem_types::{Error, PageNum, Result, VirtPage};

/// One page-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pte {
    /// The backing physical frame.
    pub frame: PageNum,
    /// Hardware `Accessed` bit: set by the page walker on TLB fill,
    /// cleared and harvested by PTE-scan profilers.
    pub accessed: bool,
    /// Hint-fault poison: the PTE is marked `PROT_NONE`-like so the next
    /// touch faults into the kernel (AutoNUMA / TPP / Thermostat).
    pub poisoned: bool,
    /// Linux's `PG_demoted` page flag as introduced by the paper for
    /// ping-pong severity tracking (§V-A).
    pub demoted: bool,
}

/// Flag bit: the `Accessed` bit (also snapshot bit 0).
const FLAG_ACCESSED: u8 = 1;
/// Flag bit: hint-fault poison (also snapshot bit 1).
const FLAG_POISONED: u8 = 1 << 1;
/// Flag bit: `PG_demoted` (also snapshot bit 2).
const FLAG_DEMOTED: u8 = 1 << 2;
/// Flag bit: the slot is mapped at all. Internal only — snapshots encode
/// mapped-ness as a separate bitmask, so this bit never serialises.
const FLAG_MAPPED: u8 = 1 << 7;

/// A dense page table over virtual pages `0..rss_pages`.
///
/// Virtual pages from the contiguous workload range index two parallel
/// arrays — a `u32` frame number and a `u8` flag byte per page — instead
/// of a `Vec<Option<Pte>>` of 16-byte entries. The translate fast path
/// touches only the 4-byte frame lane; the flag lane carries
/// mapped/accessed/poisoned/demoted bits. Faithfulness is unchanged:
/// 4-level walks are charged in time, not structure.
#[derive(Debug, Clone)]
pub struct PageTable {
    /// Backing frame per virtual page; only meaningful where the
    /// matching `flags` byte has [`FLAG_MAPPED`] set.
    frames: Vec<u32>,
    /// Packed per-page flags; `0` means unmapped.
    flags: Vec<u8>,
    /// Running count of mapped entries, maintained by the mapping paths
    /// so [`mapped_count`](Self::mapped_count) is O(1) instead of a
    /// full-span scan.
    mapped: usize,
}

impl PageTable {
    /// Creates an empty table covering `rss_pages` virtual pages.
    pub fn new(rss_pages: u64) -> Self {
        let n = rss_pages as usize;
        Self { frames: vec![0; n], flags: vec![0; n], mapped: 0 }
    }

    /// Number of virtual pages covered (mapped or not).
    pub fn span(&self) -> u64 {
        self.flags.len() as u64
    }

    /// Number of currently mapped pages.
    pub fn mapped_count(&self) -> usize {
        debug_assert_eq!(
            self.mapped,
            self.flags.iter().filter(|f| **f & FLAG_MAPPED != 0).count(),
            "running mapped counter out of sync with the table"
        );
        self.mapped
    }

    #[inline]
    fn index(&self, vpage: VirtPage) -> Result<usize> {
        let i = vpage.index() as usize;
        if i < self.flags.len() {
            Ok(i)
        } else {
            Err(Error::UnmappedPage { vpn: vpage.index() })
        }
    }

    #[inline]
    fn pte_at(&self, i: usize) -> Pte {
        let flags = self.flags[i];
        Pte {
            frame: PageNum::new(u64::from(self.frames[i])),
            accessed: flags & FLAG_ACCESSED != 0,
            poisoned: flags & FLAG_POISONED != 0,
            demoted: flags & FLAG_DEMOTED != 0,
        }
    }

    #[inline]
    fn frame_bits(frame: PageNum) -> u32 {
        u32::try_from(frame.index()).expect("physical frame number exceeds the u32 frame lane")
    }

    /// Maps `vpage` to `frame`, replacing any existing mapping.
    ///
    /// # Errors
    ///
    /// [`Error::UnmappedPage`] when `vpage` is outside the table span.
    pub fn map(&mut self, vpage: VirtPage, frame: PageNum) -> Result<Option<PageNum>> {
        let i = self.index(vpage)?;
        let old = (self.flags[i] & FLAG_MAPPED != 0)
            .then(|| PageNum::new(u64::from(self.frames[i])));
        self.frames[i] = Self::frame_bits(frame);
        self.flags[i] = FLAG_MAPPED;
        if old.is_none() {
            self.mapped += 1;
        }
        Ok(old)
    }

    /// Returns the PTE of `vpage`.
    ///
    /// # Errors
    ///
    /// [`Error::UnmappedPage`] when unmapped or out of span.
    pub fn get(&self, vpage: VirtPage) -> Result<Pte> {
        let i = self.index(vpage)?;
        if self.flags[i] & FLAG_MAPPED != 0 {
            Ok(self.pte_at(i))
        } else {
            Err(Error::UnmappedPage { vpn: vpage.index() })
        }
    }

    /// Whether `vpage` is mapped.
    #[inline]
    pub fn is_mapped(&self, vpage: VirtPage) -> bool {
        matches!(self.flags.get(vpage.index() as usize), Some(f) if f & FLAG_MAPPED != 0)
    }

    /// The backing frame of `vpage`, if mapped — the translate fast path,
    /// touching only the dense frame/flag lanes.
    #[inline]
    pub fn frame_of(&self, vpage: VirtPage) -> Option<PageNum> {
        let i = vpage.index() as usize;
        (matches!(self.flags.get(i), Some(f) if f & FLAG_MAPPED != 0))
            .then(|| PageNum::new(u64::from(self.frames[i])))
    }

    /// Mutates the PTE of `vpage` through `f`.
    ///
    /// # Errors
    ///
    /// [`Error::UnmappedPage`] when unmapped or out of span.
    pub fn update<F: FnOnce(&mut Pte)>(&mut self, vpage: VirtPage, f: F) -> Result<()> {
        let i = self.index(vpage)?;
        if self.flags[i] & FLAG_MAPPED == 0 {
            return Err(Error::UnmappedPage { vpn: vpage.index() });
        }
        let mut pte = self.pte_at(i);
        f(&mut pte);
        self.frames[i] = Self::frame_bits(pte.frame);
        self.flags[i] = FLAG_MAPPED
            | if pte.accessed { FLAG_ACCESSED } else { 0 }
            | if pte.poisoned { FLAG_POISONED } else { 0 }
            | if pte.demoted { FLAG_DEMOTED } else { 0 };
        Ok(())
    }

    /// Sets the `Accessed` bit (page-walker behaviour on TLB fill).
    ///
    /// # Errors
    ///
    /// [`Error::UnmappedPage`] when unmapped.
    #[inline]
    pub fn mark_accessed(&mut self, vpage: VirtPage) -> Result<()> {
        let i = self.index(vpage)?;
        if self.flags[i] & FLAG_MAPPED == 0 {
            return Err(Error::UnmappedPage { vpn: vpage.index() });
        }
        self.flags[i] |= FLAG_ACCESSED;
        Ok(())
    }

    /// Iterates `(vpage, pte)` over all mapped pages.
    pub fn iter(&self) -> impl Iterator<Item = (VirtPage, Pte)> + '_ {
        self.flags
            .iter()
            .enumerate()
            .filter(|(_, f)| *f & FLAG_MAPPED != 0)
            .map(|(i, _)| (VirtPage::new(i as u64), self.pte_at(i)))
    }

    /// Clears every `Accessed` bit and returns how many were set — one
    /// PTE-scan epoch boundary. The caller charges scan time per visited
    /// entry.
    pub fn clear_accessed_bits(&mut self) -> u64 {
        let mut cleared = 0;
        for f in self.flags.iter_mut() {
            if *f & FLAG_ACCESSED != 0 {
                cleared += 1;
                *f &= !FLAG_ACCESSED;
            }
        }
        cleared
    }

    /// Serialises the table for a machine snapshot: a mapped bitmask plus
    /// parallel frame and flag arrays (bit 0 accessed, bit 1 poisoned,
    /// bit 2 demoted).
    pub fn snapshot(&self) -> Json {
        let n = self.flags.len();
        let mut mapped = vec![0u64; n.div_ceil(64)];
        let mut frames = vec![0u64; n];
        let mut flags = vec![0u64; n];
        for (i, f) in self.flags.iter().enumerate() {
            if f & FLAG_MAPPED != 0 {
                mapped[i / 64] |= 1 << (i % 64);
                frames[i] = u64::from(self.frames[i]);
                flags[i] = u64::from(f & (FLAG_ACCESSED | FLAG_POISONED | FLAG_DEMOTED));
            }
        }
        Json::obj([
            ("mapped", Json::Str(hex_from_u64s(&mapped))),
            ("frames", Json::Str(hex_from_u64s(&frames))),
            ("flags", Json::Str(hex_from_u64s(&flags))),
        ])
    }

    /// Restores [`PageTable::snapshot`] state onto a table with the same
    /// span.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Snapshot`] on missing/malformed fields, arrays
    /// sized for a different span, or out-of-range flag bits.
    pub fn restore(&mut self, snap: &Json) -> Result<()> {
        let n = self.flags.len();
        let mapped = snap.req_u64s("mapped")?;
        let frames = snap.req_u64s("frames")?;
        let flags = snap.req_u64s("flags")?;
        if mapped.len() != n.div_ceil(64) || frames.len() != n || flags.len() != n {
            return Err(Error::snapshot(format!(
                "page table snapshot covers {} pages, expected {n}",
                frames.len()
            )));
        }
        let mut count = 0;
        for i in 0..n {
            if (mapped[i / 64] >> (i % 64)) & 1 == 1 {
                if flags[i] > 0b111 {
                    return Err(Error::snapshot(format!("unknown pte flag bits {:#x}", flags[i])));
                }
                let frame = u32::try_from(frames[i]).map_err(|_| {
                    Error::snapshot(format!("frame {:#x} exceeds the u32 frame lane", frames[i]))
                })?;
                self.frames[i] = frame;
                self.flags[i] = FLAG_MAPPED | flags[i] as u8;
                count += 1;
            } else {
                self.frames[i] = 0;
                self.flags[i] = 0;
            }
        }
        self.mapped = count;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_get_round_trip() {
        let mut pt = PageTable::new(4);
        pt.map(VirtPage::new(2), PageNum::new(99)).unwrap();
        let pte = pt.get(VirtPage::new(2)).unwrap();
        assert_eq!(pte.frame, PageNum::new(99));
        assert!(!pte.accessed && !pte.poisoned && !pte.demoted);
        assert_eq!(pt.frame_of(VirtPage::new(2)), Some(PageNum::new(99)));
        assert_eq!(pt.frame_of(VirtPage::new(1)), None);
        assert_eq!(pt.frame_of(VirtPage::new(9)), None);
    }

    #[test]
    fn unmapped_and_out_of_span_error() {
        let pt = PageTable::new(4);
        assert_eq!(pt.get(VirtPage::new(1)), Err(Error::UnmappedPage { vpn: 1 }));
        assert_eq!(pt.get(VirtPage::new(9)), Err(Error::UnmappedPage { vpn: 9 }));
        assert!(!pt.is_mapped(VirtPage::new(1)));
        assert!(!pt.is_mapped(VirtPage::new(9)));
    }

    #[test]
    fn remap_returns_old_frame() {
        let mut pt = PageTable::new(2);
        assert_eq!(pt.map(VirtPage::new(0), PageNum::new(1)).unwrap(), None);
        assert_eq!(pt.map(VirtPage::new(0), PageNum::new(2)).unwrap(), Some(PageNum::new(1)));
    }

    #[test]
    fn remap_clears_old_flags() {
        let mut pt = PageTable::new(1);
        pt.map(VirtPage::new(0), PageNum::new(1)).unwrap();
        pt.update(VirtPage::new(0), |pte| {
            pte.accessed = true;
            pte.demoted = true;
        })
        .unwrap();
        pt.map(VirtPage::new(0), PageNum::new(2)).unwrap();
        let pte = pt.get(VirtPage::new(0)).unwrap();
        assert!(!pte.accessed && !pte.poisoned && !pte.demoted, "fresh mapping, fresh flags");
    }

    #[test]
    fn accessed_bit_lifecycle() {
        let mut pt = PageTable::new(3);
        for i in 0..3 {
            pt.map(VirtPage::new(i), PageNum::new(i)).unwrap();
        }
        pt.mark_accessed(VirtPage::new(0)).unwrap();
        pt.mark_accessed(VirtPage::new(2)).unwrap();
        assert_eq!(pt.clear_accessed_bits(), 2);
        assert_eq!(pt.clear_accessed_bits(), 0, "second scan sees nothing");
        assert!(!pt.get(VirtPage::new(0)).unwrap().accessed);
    }

    #[test]
    fn update_flags() {
        let mut pt = PageTable::new(1);
        pt.map(VirtPage::new(0), PageNum::new(5)).unwrap();
        pt.update(VirtPage::new(0), |pte| {
            pte.poisoned = true;
            pte.demoted = true;
        })
        .unwrap();
        let pte = pt.get(VirtPage::new(0)).unwrap();
        assert!(pte.poisoned && pte.demoted);
    }

    #[test]
    fn mapped_count_tracks_map_and_remap() {
        let mut pt = PageTable::new(4);
        assert_eq!(pt.mapped_count(), 0);
        pt.map(VirtPage::new(0), PageNum::new(1)).unwrap();
        pt.map(VirtPage::new(2), PageNum::new(2)).unwrap();
        assert_eq!(pt.mapped_count(), 2);
        // A remap replaces, it does not add.
        pt.map(VirtPage::new(0), PageNum::new(9)).unwrap();
        assert_eq!(pt.mapped_count(), 2);
        assert!(pt.map(VirtPage::new(9), PageNum::new(3)).is_err(), "out of span");
        assert_eq!(pt.mapped_count(), 2);
    }

    #[test]
    fn iter_yields_only_mapped() {
        let mut pt = PageTable::new(5);
        pt.map(VirtPage::new(1), PageNum::new(10)).unwrap();
        pt.map(VirtPage::new(3), PageNum::new(30)).unwrap();
        let pages: Vec<u64> = pt.iter().map(|(v, _)| v.index()).collect();
        assert_eq!(pages, vec![1, 3]);
        assert_eq!(pt.mapped_count(), 2);
        assert_eq!(pt.span(), 5);
    }
}
