//! Extended sequence number (ESN) inference, RFC 4304 style.
//!
//! With ESN, only the low 32 bits of the 64-bit sequence number are
//! transmitted. The receiver reconstructs the high half from its
//! anti-replay window position: the candidate (high-1, high, high+1)
//! closest to the window's right edge is chosen, and a wrong choice is
//! caught by the ICV (the high half is authenticated).
//!
//! The paper models sequence numbers as unbounded integers; ESN is how a
//! real IPsec implementation approximates that, so the reproduction
//! carries it through.

/// Reconstructs high-order sequence-number bits for a received `seq_lo`.
///
/// `right_edge` is the largest 64-bit sequence number accepted so far (the
/// anti-replay window's right edge `r` in the paper's notation).
///
/// # Examples
///
/// ```
/// use reset_wire::infer_esn;
///
/// // Window sits just below a 2^32 boundary; a tiny seq_lo means the
/// // counter wrapped into the next epoch.
/// let right_edge = (1u64 << 32) - 10;
/// assert_eq!(infer_esn(5, right_edge), (1u64 << 32) + 5);
/// // A large seq_lo means it's still the current epoch.
/// assert_eq!(infer_esn(u32::MAX - 3, right_edge), (1u64 << 32) - 4);
/// ```
pub fn infer_esn(seq_lo: u32, right_edge: u64) -> u64 {
    let hi = right_edge >> 32;
    let candidates = [
        hi.checked_sub(1).map(|h| (h << 32) | seq_lo as u64),
        Some((hi << 32) | seq_lo as u64),
        hi.checked_add(1).map(|h| (h << 32) | seq_lo as u64),
    ];
    candidates
        .into_iter()
        .flatten()
        .min_by_key(|&c| c.abs_diff(right_edge))
        .expect("at least one candidate")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_epoch_plain_values() {
        assert_eq!(infer_esn(0, 0), 0);
        assert_eq!(infer_esn(100, 50), 100);
        assert_eq!(infer_esn(50, 100), 50);
    }

    #[test]
    fn wrap_forward_detected() {
        let edge = (1u64 << 32) - 3;
        // seq_lo = 2 is 5 ahead (wrapped), not 2^32-5 behind.
        assert_eq!(infer_esn(2, edge), (1u64 << 32) + 2);
    }

    #[test]
    fn lag_behind_detected() {
        let edge = (1u64 << 32) + 5;
        // A large seq_lo is a late packet from the previous epoch.
        assert_eq!(infer_esn(u32::MAX, edge), u32::MAX as u64);
    }

    #[test]
    fn same_epoch_midrange() {
        let edge = (7u64 << 32) | 0x8000_0000;
        assert_eq!(infer_esn(0x8000_0100, edge), (7u64 << 32) | 0x8000_0100);
    }

    #[test]
    fn inference_round_trips_sequential_stream() {
        // Simulate a sender counting through a 2^32 boundary; a receiver
        // whose right edge follows must reconstruct every value exactly.
        let start = (1u64 << 32) - 100;
        let mut right_edge = start - 1;
        for seq in start..start + 200 {
            let inferred = infer_esn(seq as u32, right_edge);
            assert_eq!(inferred, seq, "at {seq:#x}");
            right_edge = right_edge.max(inferred);
        }
    }
}
