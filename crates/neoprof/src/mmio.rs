//! The MMIO command encoding of Table II.
//!
//! NeoProf's registers are memory-mapped; the host encodes commands as
//! reads/writes at fixed offsets within the device's MMIO window.

/// `Reset` — write 1: clears all counters and buffers.
pub const RESET: u64 = 0x100;
/// `SetThreshold` — write θ: sets the hot-page threshold.
pub const SET_THRESHOLD: u64 = 0x200;
/// `GetNrHotPage` — read: number of profiled hot pages waiting.
pub const GET_NR_HOT_PAGE: u64 = 0x300;
/// `GetHotPage` — read: pops one hot page address (device-local page
/// index); returns [`EMPTY_SENTINEL`] when the buffer is empty.
pub const GET_HOT_PAGE: u64 = 0x400;
/// `GetNrSample` — read: sampled cycles in the closing window. Reading
/// this register *rolls* the state window and latches read/write counts
/// for the subsequent [`GET_RD_CNT`]/[`GET_WR_CNT`] reads.
pub const GET_NR_SAMPLE: u64 = 0x500;
/// `GetRdCnt` — read: read-busy cycles of the latched window.
pub const GET_RD_CNT: u64 = 0x600;
/// `GetWrCnt` — read: write-busy cycles of the latched window.
pub const GET_WR_CNT: u64 = 0x700;
/// `SetHistEn` — write 1: triggers the histogram sweep over sketch lane 0.
pub const SET_HIST_EN: u64 = 0x800;
/// `GetNrHistBin` — read: number of histogram bins (64).
pub const GET_NR_HIST_BIN: u64 = 0x900;
/// `GetHist` — read: streams out histogram bins sequentially; returns
/// [`EMPTY_SENTINEL`] past the last bin.
pub const GET_HIST: u64 = 0xA00;

/// Sentinel returned by read commands with nothing to deliver.
pub const EMPTY_SENTINEL: u64 = u64::MAX;

/// Whether `offset` decodes to a write command.
pub fn is_write_command(offset: u64) -> bool {
    matches!(offset, RESET | SET_THRESHOLD | SET_HIST_EN)
}

/// Whether `offset` decodes to a read command.
pub fn is_read_command(offset: u64) -> bool {
    matches!(
        offset,
        GET_NR_HOT_PAGE | GET_HOT_PAGE | GET_NR_SAMPLE | GET_RD_CNT | GET_WR_CNT | GET_NR_HIST_BIN | GET_HIST
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offsets_match_table_ii() {
        assert_eq!(RESET, 0x100);
        assert_eq!(SET_THRESHOLD, 0x200);
        assert_eq!(GET_NR_HOT_PAGE, 0x300);
        assert_eq!(GET_HOT_PAGE, 0x400);
        assert_eq!(GET_NR_SAMPLE, 0x500);
        assert_eq!(GET_RD_CNT, 0x600);
        assert_eq!(GET_WR_CNT, 0x700);
        assert_eq!(SET_HIST_EN, 0x800);
        assert_eq!(GET_NR_HIST_BIN, 0x900);
        assert_eq!(GET_HIST, 0xA00);
    }

    #[test]
    fn every_offset_has_exactly_one_direction() {
        for off in [
            RESET,
            SET_THRESHOLD,
            GET_NR_HOT_PAGE,
            GET_HOT_PAGE,
            GET_NR_SAMPLE,
            GET_RD_CNT,
            GET_WR_CNT,
            SET_HIST_EN,
            GET_NR_HIST_BIN,
            GET_HIST,
        ] {
            assert!(
                is_write_command(off) ^ is_read_command(off),
                "offset {off:#x} must be exactly one of read/write"
            );
        }
        assert!(!is_write_command(0x0));
        assert!(!is_read_command(0xB00));
    }
}
