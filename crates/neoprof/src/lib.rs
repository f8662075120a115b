//! The NeoProf device model (paper Section IV).
//!
//! NeoProf is the hardware unit NeoMem places inside the CXL memory
//! device's controller. This crate models it at the functional level:
//!
//! * [`PageMonitor`] snoops CXL.mem requests and extracts device-local
//!   page addresses (Fig. 6).
//! * [`StateMonitor`] counts sampled cycles and read/write busy cycles,
//!   from which the host computes bandwidth utilisation and the
//!   read/write ratio (design goal **G5**).
//! * [`AsyncFifo`] models the clock-domain-crossing FIFOs between the
//!   high-frequency monitors and the low-frequency NeoProf core on the
//!   FPGA; a saturated core visibly *drops* page samples rather than
//!   back-pressuring the memory pipeline.
//! * [`NeoProf`] glues these to a [`neomem_sketch::HotPageDetector`] and
//!   exposes the MMIO command interface of Table II ([`mmio`]).
//! * [`cost`] estimates FPGA and ASIC hardware cost (Fig. 18 and the
//!   FPGA-utilisation paragraph of §VI-B).
//!
//! # Example: driving the device like the kernel driver does
//!
//! ```
//! use neomem_neoprof::{mmio, NeoProf, NeoProfConfig};
//! use neomem_types::{AccessKind, MemRequest, Nanos, PageNum};
//!
//! let mut dev = NeoProf::new(NeoProfConfig::small(PageNum::new(1000)))?;
//! dev.mmio_write(mmio::SET_THRESHOLD, 2, Nanos::ZERO)?;
//! // Three LLC misses to the same device page...
//! for _ in 0..3 {
//!     dev.snoop(MemRequest::new(PageNum::new(1234), 0, AccessKind::Read), Nanos::new(5));
//!     dev.tick();
//! }
//! let n = dev.mmio_read(mmio::GET_NR_HOT_PAGE, Nanos::new(100))?;
//! assert_eq!(n, 1);
//! let page = dev.mmio_read(mmio::GET_HOT_PAGE, Nanos::new(100))?;
//! assert_eq!(page, 234); // device-local page index
//! # Ok::<(), neomem_types::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
mod device;
mod fifo;
pub mod mmio;
mod monitors;

pub use device::{NeoProf, NeoProfConfig, NeoProfStats};
pub use fifo::AsyncFifo;
pub use monitors::{PageMonitor, StateMonitor, StateSnapshot};

/// Converts simulated nanoseconds into device clock cycles at the
/// device core clock: 400 MHz, matching the paper's FPGA prototype
/// (Table III) and the ASIC synthesis point (Fig. 18).
pub fn cycles_of(ns: neomem_types::Nanos) -> u64 {
    // 400 MHz = 0.4 cycles per ns = 2 cycles per 5 ns.
    ns.as_nanos() * 2 / 5
}

#[cfg(test)]
mod clock_tests {
    use super::*;
    use neomem_types::Nanos;

    #[test]
    fn cycles_at_400mhz() {
        assert_eq!(cycles_of(Nanos::from_secs(1)), 400_000_000);
        assert_eq!(cycles_of(Nanos::new(5)), 2);
        assert_eq!(cycles_of(Nanos::ZERO), 0);
    }
}
