//! Sketch-based hot-page detection algorithms for NeoProf.
//!
//! This crate implements the algorithmic core of the paper's Section IV:
//!
//! * [`H3Hash`] — the hardware-friendly H3 universal hash family
//!   (Ramakrishna et al.), computed as an XOR-fold of per-bit seeds exactly
//!   as the pipelined hash unit in Fig. 8 does.
//! * [`CmSketch`] — a Count-Min sketch whose entries carry a counter, a
//!   *hot bit* and a *valid bit* (Fig. 7 ❷). The valid bit enables the
//!   paper's O(W/64) lazy clear ("the Valid bits are physically arranged in
//!   a contiguous manner, allowing for rapid resetting").
//! * [`HotPageDetector`] — the hot-page detector + hot-page filter pipeline
//!   (Fig. 7/8): threshold compare, duplicate suppression via hot bits, and
//!   a bounded hot-page output buffer (16 K entries by default, Table IV).
//! * [`CounterHistogram`] — the 64-bin histogram unit (Fig. 9) used both
//!   for tight error-bound estimation and as the access-frequency
//!   distribution proxy consumed by Algorithm 1.
//! * [`error_bound`] — Chen et al.'s "near-optimal" error bound, with an
//!   exact sorted path and the histogram-approximated path the hardware
//!   uses; the two are property-tested to agree within one bin.
//!
//! # Example
//!
//! ```
//! use neomem_sketch::{HotPageDetector, SketchParams};
//! use neomem_types::DevicePage;
//!
//! let params = SketchParams { width: 1 << 10, depth: 2, seed: 7, hot_buffer_entries: 64 };
//! let mut det = HotPageDetector::new(params).expect("valid params");
//! det.set_threshold(3);
//! for _ in 0..5 {
//!     det.observe(DevicePage::new(42));
//! }
//! let hot: Vec<_> = det.drain_hot_pages().collect();
//! assert_eq!(hot, vec![DevicePage::new(42)]);
//! // The hot-page filter suppresses duplicates within a detection period.
//! det.observe(DevicePage::new(42));
//! assert_eq!(det.drain_hot_pages().count(), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitset;
mod cm_sketch;
mod detector;
pub mod error_bound;
mod h3;
mod histogram;

pub use cm_sketch::{CmSketch, SketchParams, MAX_DEPTH};
pub use detector::{DetectorStats, HotPageDetector};
pub use h3::H3Hash;
pub use histogram::{CounterHistogram, HistogramSpec, HISTOGRAM_BINS};
