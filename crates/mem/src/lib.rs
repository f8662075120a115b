//! Tiered memory-node model.
//!
//! Models the two memory nodes of the paper's platform (Table III):
//! CPU-attached DDR5 (fast tier, ≈118 ns loaded latency) and the
//! FPGA-based CXL Type-3 device (slow tier, ≈430 ns; configurable down to
//! the 170–250 ns "ideal CXL" band used by emulation studies). Each node
//! charges a per-access latency plus a bandwidth-dependent queueing term,
//! and meters busy cycles so NeoProf's state monitor can report the
//! read/write bandwidth utilisation that drives Algorithm 1.
//!
//! # Example
//!
//! ```
//! use neomem_mem::{MemoryNode, NodeConfig};
//! use neomem_types::{AccessKind, Nanos, Tier};
//!
//! let mut node = MemoryNode::new(NodeConfig::cxl_prototype(1024));
//! let t = node.service(AccessKind::Read, Nanos::ZERO);
//! assert!(t.as_nanos() >= 430);
//! assert_eq!(node.config().tier, Tier::Slow);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod allocator;
mod meter;
mod node;
mod tiered;

pub use allocator::FrameAllocator;
pub use meter::{BandwidthMeter, BandwidthSample};
pub use node::{MemoryNode, NodeConfig, NodeStats};
pub use tiered::{TieredMemory, TieredMemoryConfig};
