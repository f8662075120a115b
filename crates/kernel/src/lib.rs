//! Simulated OS-kernel memory management.
//!
//! Models the Linux v6.3 mechanisms NeoMem's software side builds on
//! (paper Fig. 5, §V):
//!
//! * [`PageTable`] — per-process PTEs with the `Accessed` bit (PTE-scan),
//!   a hint-fault *poison* bit (AutoNUMA/TPP), and the `PG_demoted` flag
//!   NeoMem adds for ping-pong detection.
//! * [`Lru2Q`] — the kernel's two-queue reclaim lists, used by NeoMem for
//!   *cold* page detection on the fast tier (the paper deliberately keeps
//!   cold detection in software since it "does not need a high
//!   resolution").
//! * [`Kernel`] — the facade tying page table + tiered memory + LRU
//!   together, exposing first-touch NUMA allocation and the promotion /
//!   demotion entry points the tiering daemons call, with explicit time
//!   costs, `PG_demoted` upkeep and ping-pong accounting.
//! * [`HugePageMap`] — Transparent Huge Page grouping (2 MiB = 512 base
//!   pages) for the Table VI experiment.
//!
//! # Example
//!
//! ```
//! use neomem_kernel::{Kernel, KernelConfig};
//! use neomem_types::{Nanos, Tier, VirtPage};
//!
//! let mut k = Kernel::new(KernelConfig::with_frames(8, 16));
//! let vp = VirtPage::new(0);
//! k.touch_alloc(vp, Nanos::ZERO)?; // first-touch: lands on the fast tier
//! assert_eq!(k.tier_of(vp)?, Tier::Fast);
//! k.demote(vp, Nanos::ZERO)?;
//! assert_eq!(k.tier_of(vp)?, Tier::Slow);
//! k.promote(vp, Nanos::ZERO)?;     // ping-pong: demoted then promoted
//! assert_eq!(k.stats().ping_pongs, 1);
//! # Ok::<(), neomem_types::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod kernel;
mod lru2q;
mod page_table;
mod thp;

pub use kernel::{Kernel, KernelConfig, KernelStats, MigrationCosts};
pub use lru2q::Lru2Q;
pub use page_table::{PageTable, Pte};
pub use thp::{huge_base, HugePageMap, PAGES_PER_HUGE};
