//! Checked narrowing conversions for wire-path code.
//!
//! The `narrow-cast` lint (`bedom-analyze`, L1) bans unchecked `as u8/u16/
//! u32` on message-carrying paths: a silently wrapping cast corrupts bit
//! accounting and dominator ids instead of failing loudly. These helpers are
//! the sanctioned replacement — a branch that panics with the offending
//! value, which optimizes to nothing on the in-range fast path and keeps the
//! invariant visible at the call site. They deliberately panic rather than
//! return `Result`: every caller converts a quantity that is bounded by
//! construction (an index into an in-memory vector, a BFS depth below the
//! protocol radius), so an out-of-range value is a broken invariant, not an
//! input error.

/// `usize → u32`, panicking loudly past `u32::MAX` (vertex ids, CSR offsets
/// and local indices all live in `u32`).
#[track_caller]
pub fn u32_from_usize(x: usize) -> u32 {
    match u32::try_from(x) {
        Ok(v) => v,
        Err(_) => panic!("narrowing conversion out of range: {x} does not fit in u32"),
    }
}

/// `u64 → u32`, panicking loudly past `u32::MAX` (fields unpacked from
/// packed `u64` words).
#[track_caller]
pub fn u32_from_u64(x: u64) -> u32 {
    match u32::try_from(x) {
        Ok(v) => v,
        Err(_) => panic!("narrowing conversion out of range: {x} does not fit in u32"),
    }
}

/// `u64 → usize`, panicking loudly past `usize::MAX` (file-format vertex
/// counts on 32-bit hosts).
#[track_caller]
pub fn usize_from_u64(x: u64) -> usize {
    match usize::try_from(x) {
        Ok(v) => v,
        Err(_) => panic!("narrowing conversion out of range: {x} does not fit in usize"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_range_values_convert() {
        assert_eq!(u32_from_usize(0), 0);
        assert_eq!(u32_from_usize(u32::MAX as usize), u32::MAX);
        assert_eq!(u32_from_u64(u64::from(u32::MAX)), u32::MAX);
        assert_eq!(usize_from_u64(7), 7);
    }

    #[test]
    #[should_panic(expected = "does not fit in u32")]
    fn u32_overflow_panics() {
        u32_from_usize(u32::MAX as usize + 1);
    }

    #[test]
    #[should_panic(expected = "does not fit in u32")]
    fn u32_from_u64_overflow_panics() {
        u32_from_u64(u64::from(u32::MAX) + 1);
    }
}
