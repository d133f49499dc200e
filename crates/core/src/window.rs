//! The anti-replay window — §2 of the paper, bit-for-bit.
//!
//! Process `q` maintains a window of `w` consecutive sequence numbers
//! ending at its right edge `r`, with one boolean per number recording
//! whether that message was already received. Receiving `msg(s)` has
//! exactly three cases:
//!
//! 1. `s ≤ r − w` — left of the window: `q` "cannot determine whether it
//!    has received this message before" and discards it ([`Verdict::Stale`]).
//! 2. `r − w < s ≤ r` — in the window: the boolean decides
//!    ([`Verdict::Duplicate`] or [`Verdict::Fresh`]).
//! 3. `r < s` — right of the window: fresh; the window slides so `s`
//!    becomes the new right edge.
//!
//! The implementation is a circular bitmap (bit `s mod w`), the classic
//! constant-space realization of the paper's boolean array.

use std::fmt;

use crate::seq::SeqNum;

/// Outcome of checking a received sequence number against the window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// Left of the window (`s ≤ r − w`): assumed replayed, discarded.
    Stale,
    /// In the window and already marked received: replayed, discarded.
    Duplicate,
    /// Never seen: deliver (and, on accept, mark / slide).
    Fresh,
}

impl Verdict {
    /// True iff the message should be delivered.
    pub fn is_deliverable(self) -> bool {
        matches!(self, Verdict::Fresh)
    }
}

/// The sliding anti-replay window of process `q`.
///
/// # Examples
///
/// ```
/// use anti_replay::{AntiReplayWindow, SeqNum, Verdict};
///
/// let mut w = AntiReplayWindow::new(32);
/// assert_eq!(w.check_and_accept(SeqNum::new(5)), Verdict::Fresh);
/// assert_eq!(w.check_and_accept(SeqNum::new(5)), Verdict::Duplicate);
/// assert_eq!(w.check_and_accept(SeqNum::new(3)), Verdict::Fresh);
/// assert_eq!(w.right_edge(), SeqNum::new(5));
/// ```
///
/// # Layout
///
/// `#[repr(C)]` pins the order: right edge, size, then the bitmap's
/// words, which are inline for `w ≤ 128` (every window the gateway
/// configures), so a receiver's window is one 40-byte block of its SA
/// record and the check reads no second allocation. Larger windows keep
/// their words on the heap. The inline word a `w ≤ 64` window does not
/// use stays zero, so `==` and `Hash` compare logical state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[repr(C)]
pub struct AntiReplayWindow {
    right: u64,
    w: u64,
    /// Circular bitmap: bit `(seq mod w)` records receipt of `seq` for
    /// sequence numbers in `(right − w, right]`.
    bits: Bits,
}

/// The bitmap's storage: inline up to [`Bits::INLINE`] words, boxed
/// past that. Which one a window uses is a function of `w` alone.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Bits {
    Inline([u64; Bits::INLINE]),
    Heap(Box<[u64]>),
}

impl Bits {
    /// Words kept inline: a 128-entry window.
    const INLINE: usize = 2;
}

impl AntiReplayWindow {
    /// A fresh window of size `w` in the paper's initial state: right
    /// edge 0, every entry "already received" (`wdw` initially true).
    ///
    /// # Panics
    ///
    /// Panics if `w == 0`.
    pub fn new(w: u64) -> Self {
        Self::with_right_edge(w, SeqNum::ZERO, true)
    }

    /// A window resuming at `right` — used on wake-up after FETCH+leap,
    /// where §4's process `q` sets "the whole array wdw to true, because
    /// every sequence number up to r should be assumed to be already
    /// received". `all_seen = false` gives the *naive* (vulnerable)
    /// restart of §3 instead.
    ///
    /// # Panics
    ///
    /// Panics if `w == 0`.
    pub fn with_right_edge(w: u64, right: SeqNum, all_seen: bool) -> Self {
        assert!(w > 0, "window size must be positive");
        let words = (w as usize).div_ceil(64);
        let bits = if words <= Bits::INLINE {
            Bits::Inline([0; Bits::INLINE])
        } else {
            Bits::Heap(vec![0; words].into_boxed_slice())
        };
        let mut win = AntiReplayWindow {
            right: right.value(),
            w,
            bits,
        };
        if all_seen {
            win.mark_all_seen();
        }
        win
    }

    /// The bitmap: exactly `⌈w / 64⌉` words.
    fn words(&self) -> &[u64] {
        let n = (self.w as usize).div_ceil(64);
        match &self.bits {
            Bits::Inline(words) => &words[..n],
            Bits::Heap(words) => words,
        }
    }

    /// [`AntiReplayWindow::words`], mutably.
    fn words_mut(&mut self) -> &mut [u64] {
        let n = (self.w as usize).div_ceil(64);
        match &mut self.bits {
            Bits::Inline(words) => &mut words[..n],
            Bits::Heap(words) => words,
        }
    }

    /// Clears the bits of the last word beyond `w`: they correspond to no
    /// sequence number and must never advertise capacity the window does
    /// not have (they would also poison `==` between windows that took
    /// different paths to the same logical state).
    fn mask_tail_word(&mut self) {
        let tail_bits = self.w % 64;
        if tail_bits != 0 {
            *self.words_mut().last_mut().expect("w > 0") &= (1u64 << tail_bits) - 1;
        }
    }

    /// Window size `w`.
    pub fn size(&self) -> u64 {
        self.w
    }

    /// The right edge `r` — the largest sequence number in the window.
    pub fn right_edge(&self) -> SeqNum {
        SeqNum::new(self.right)
    }

    /// The left edge `r − w + 1` (clamped at 0): the smallest sequence
    /// number the window can still discriminate.
    pub fn left_edge(&self) -> SeqNum {
        SeqNum::new((self.right + 1).saturating_sub(self.w))
    }

    fn bit(&self, seq: u64) -> bool {
        let idx = (seq % self.w) as usize;
        self.words()[idx / 64] >> (idx % 64) & 1 == 1
    }

    fn set_bit(&mut self, seq: u64) {
        let idx = (seq % self.w) as usize;
        self.words_mut()[idx / 64] |= 1 << (idx % 64);
    }

    /// Classifies `seq` without mutating the window — the paper's
    /// three-case analysis.
    pub fn check(&self, seq: SeqNum) -> Verdict {
        let s = seq.value();
        if s > self.right {
            Verdict::Fresh
        } else if s as u128 + self.w as u128 <= self.right as u128 {
            Verdict::Stale
        } else if self.bit(s) {
            Verdict::Duplicate
        } else {
            Verdict::Fresh
        }
    }

    /// Records `seq` as received; slides the window when `seq` is beyond
    /// the right edge. Only call after [`AntiReplayWindow::check`]
    /// returned [`Verdict::Fresh`] (in IPsec terms: after the ICV
    /// verified).
    ///
    /// The slide clears the newly entered range at **word** granularity:
    /// whole `u64` words are zeroed with `fill`-style stores and only the
    /// two edge words are masked, so a slide of `d` costs `O(d / 64)`
    /// instead of `d` read-modify-write cycles.
    pub fn accept(&mut self, seq: SeqNum) {
        let s = seq.value();
        if s > self.right {
            let d = s - self.right;
            // The entering range is right+1 ..= s, but bit `s` is set
            // unconditionally below, so only right+1 .. s (d − 1 bits)
            // needs clearing — which makes the dominant in-order case
            // (d = 1) slide with no clearing at all.
            if d > 1 {
                if d >= self.w {
                    // The whole old window is out of range.
                    self.words_mut().fill(0);
                } else {
                    self.clear_circular((self.right + 1) % self.w, d - 1);
                }
            }
            self.right = s;
        }
        self.set_bit(s);
    }

    /// Clears `count` consecutive bits of the circular bitmap starting at
    /// index `start` (wrapping at `w`). `count` is at most `w − 1`.
    fn clear_circular(&mut self, start: u64, count: u64) {
        let until_wrap = (self.w - start).min(count);
        self.clear_span(start, until_wrap);
        if count > until_wrap {
            self.clear_span(0, count - until_wrap);
        }
    }

    /// Clears the flat bit range `[start, start + len)`, `start + len ≤ w`.
    fn clear_span(&mut self, start: u64, len: u64) {
        if len == 0 {
            return;
        }
        let end = start + len; // exclusive
        let start_word = (start / 64) as usize;
        let start_bit = start % 64;
        let end_word = (end / 64) as usize;
        let end_bit = end % 64;
        let low_mask = (1u64 << start_bit) - 1; // bits below the range
        let words = self.words_mut();
        if start_word == end_word {
            // Single word: keep bits below start_bit and at/above end_bit.
            let keep = low_mask | !((1u64 << end_bit) - 1);
            words[start_word] &= keep;
        } else {
            words[start_word] &= low_mask;
            words[start_word + 1..end_word].fill(0);
            if end_bit != 0 {
                words[end_word] &= !((1u64 << end_bit) - 1);
            }
        }
    }

    /// [`check`](Self::check) + [`accept`](Self::accept) when fresh, in
    /// one call — fused so the in-window path computes the bit index once
    /// and tests-and-sets it in a single pass.
    pub fn check_and_accept(&mut self, seq: SeqNum) -> Verdict {
        let s = seq.value();
        if s > self.right {
            // Case 3: fresh beyond the edge; slide.
            self.accept(seq);
            return Verdict::Fresh;
        }
        if s as u128 + self.w as u128 <= self.right as u128 {
            return Verdict::Stale;
        }
        let idx = (s % self.w) as usize;
        let mask = 1u64 << (idx % 64);
        let word = &mut self.words_mut()[idx / 64];
        if *word & mask != 0 {
            Verdict::Duplicate
        } else {
            *word |= mask;
            Verdict::Fresh
        }
    }

    /// Marks the whole window "already received" without moving the right
    /// edge — §4's wake-up behaviour.
    pub fn mark_all_seen(&mut self) {
        self.words_mut().fill(u64::MAX);
        self.mask_tail_word();
    }

    /// `*self = with_right_edge(self.size(), right, true)` in place: the
    /// bitmap is reused, so §4's wake-up rebuild allocates nothing.
    pub(crate) fn resume_at(&mut self, right: SeqNum) {
        self.right = right.value();
        self.mark_all_seen();
    }

    /// The §3 *naive* restart after a reset without SAVE/FETCH: right
    /// edge back to 0, everything forgotten. This is the vulnerable
    /// behaviour the paper fixes; it exists here for the baseline
    /// experiments.
    pub fn reset_naive(&mut self) {
        self.right = 0;
        self.words_mut().fill(0);
    }
}

impl fmt::Display for AntiReplayWindow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "window[w={}, r={}]", self.w, self.right)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: u64) -> SeqNum {
        SeqNum::new(v)
    }

    #[test]
    fn initial_state_matches_paper() {
        let w = AntiReplayWindow::new(8);
        assert_eq!(w.right_edge(), SeqNum::ZERO);
        assert_eq!(w.size(), 8);
        // First real message (s = 1 > r = 0) is case 3: fresh.
        assert_eq!(w.check(n(1)), Verdict::Fresh);
    }

    #[test]
    fn case1_stale_left_of_window() {
        let mut w = AntiReplayWindow::new(4);
        w.accept(n(100));
        // Window covers 97..=100; 96 = r - w is stale.
        assert_eq!(w.check(n(96)), Verdict::Stale);
        assert_eq!(w.check(n(1)), Verdict::Stale);
        // 97 = r - w + 1 is the left edge: in window.
        assert_eq!(w.left_edge(), n(97));
        assert_ne!(w.check(n(97)), Verdict::Stale);
    }

    #[test]
    fn case2_in_window_discrimination() {
        let mut w = AntiReplayWindow::new(8);
        w.accept(n(10));
        assert_eq!(w.check_and_accept(n(7)), Verdict::Fresh);
        assert_eq!(w.check_and_accept(n(7)), Verdict::Duplicate);
        assert_eq!(w.check_and_accept(n(10)), Verdict::Duplicate);
        assert_eq!(w.check_and_accept(n(4)), Verdict::Fresh);
    }

    #[test]
    fn case3_slide_to_new_right_edge() {
        let mut w = AntiReplayWindow::new(4);
        w.accept(n(5));
        assert_eq!(w.right_edge(), n(5));
        w.accept(n(9));
        assert_eq!(w.right_edge(), n(9));
        // 5 is still in window (6..=9? no: window is 6..=9 — w=4 means
        // (9-4, 9] = 6..=9), so 5 is now stale.
        assert_eq!(w.check(n(5)), Verdict::Stale);
        // 6,7,8 entered the window unseen.
        assert_eq!(w.check(n(6)), Verdict::Fresh);
        assert_eq!(w.check(n(8)), Verdict::Fresh);
    }

    #[test]
    fn slide_farther_than_window_clears_everything() {
        let mut w = AntiReplayWindow::new(4);
        for s in 1..=4u64 {
            w.accept(n(s));
        }
        w.accept(n(1000));
        assert_eq!(w.right_edge(), n(1000));
        for s in 997..1000u64 {
            assert_eq!(w.check(n(s)), Verdict::Fresh, "seq {s}");
        }
        assert_eq!(w.check(n(996)), Verdict::Stale);
    }

    #[test]
    fn in_order_stream_all_fresh() {
        let mut w = AntiReplayWindow::new(32);
        for s in 1..=1000u64 {
            assert_eq!(w.check_and_accept(n(s)), Verdict::Fresh, "seq {s}");
        }
        assert_eq!(w.right_edge(), n(1000));
    }

    #[test]
    fn full_replay_of_inorder_stream_all_rejected() {
        let mut w = AntiReplayWindow::new(32);
        for s in 1..=100u64 {
            w.check_and_accept(n(s));
        }
        for s in 1..=100u64 {
            let v = w.check_and_accept(n(s));
            assert!(
                matches!(v, Verdict::Stale | Verdict::Duplicate),
                "replayed {s} verdict {v:?}"
            );
        }
    }

    #[test]
    fn reorder_within_window_delivered_exactly_once() {
        // Messages arrive shuffled but each reordered < w: all delivered.
        let mut w = AntiReplayWindow::new(8);
        let order = [3u64, 1, 2, 5, 4, 8, 6, 7, 10, 9];
        let mut delivered = 0;
        for &s in &order {
            if w.check_and_accept(n(s)).is_deliverable() {
                delivered += 1;
            }
        }
        assert_eq!(delivered, order.len());
    }

    #[test]
    fn reorder_beyond_window_dropped() {
        let mut w = AntiReplayWindow::new(4);
        w.accept(n(10));
        // Message 5 was reordered by more than w: conservative discard.
        assert_eq!(w.check(n(5)), Verdict::Stale);
    }

    #[test]
    fn resume_all_seen_blocks_replays_up_to_edge() {
        // §4 wake-up: window rebuilt at fetched + 2K with all entries
        // marked seen.
        let w = AntiReplayWindow::with_right_edge(8, n(100), true);
        for s in 93..=100u64 {
            assert_eq!(w.check(n(s)), Verdict::Duplicate, "seq {s}");
        }
        assert_eq!(w.check(n(92)), Verdict::Stale);
        assert_eq!(w.check(n(101)), Verdict::Fresh);
    }

    #[test]
    fn naive_reset_is_vulnerable() {
        // §3: after a naive restart any replayed old message looks fresh.
        let mut w = AntiReplayWindow::new(8);
        for s in 1..=50u64 {
            w.check_and_accept(n(s));
        }
        w.reset_naive();
        assert_eq!(w.right_edge(), SeqNum::ZERO);
        // The adversary replays old traffic — it is accepted.
        assert_eq!(w.check_and_accept(n(1)), Verdict::Fresh);
        assert_eq!(w.check_and_accept(n(2)), Verdict::Fresh);
    }

    #[test]
    fn window_size_one() {
        let mut w = AntiReplayWindow::new(1);
        assert_eq!(w.check_and_accept(n(1)), Verdict::Fresh);
        assert_eq!(w.check_and_accept(n(1)), Verdict::Duplicate);
        assert_eq!(w.check_and_accept(n(2)), Verdict::Fresh);
        assert_eq!(w.check(n(1)), Verdict::Stale);
    }

    #[test]
    fn large_window_crossing_word_boundaries() {
        let mut w = AntiReplayWindow::new(200); // > 3 u64 words
        for s in (1..=400u64).rev().step_by(3) {
            w.check_and_accept(n(s));
        }
        // Every accepted seq must now be Duplicate or Stale; never Fresh.
        for s in (1..=400u64).rev().step_by(3) {
            assert!(!w.check(n(s)).is_deliverable(), "seq {s}");
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_window_panics() {
        let _ = AntiReplayWindow::new(0);
    }

    #[test]
    fn display_shows_state() {
        let mut w = AntiReplayWindow::new(16);
        w.accept(n(9));
        assert_eq!(w.to_string(), "window[w=16, r=9]");
    }

    #[test]
    fn tail_word_masked_for_non_multiple_of_64_sizes() {
        // Regression: `with_right_edge(.., all_seen = true)` used to fill
        // whole words, setting bits beyond `w` in the partial last word —
        // phantom capacity the window doesn't have, and an `Eq` poison
        // between windows that reached the same logical state on
        // different paths.
        for w in [1u64, 63, 65, 70, 127, 129, 200] {
            let win = AntiReplayWindow::with_right_edge(w, n(1000), true);
            let tail_bits = w % 64;
            if tail_bits != 0 {
                let last = *win.words().last().unwrap();
                assert_eq!(
                    last >> tail_bits,
                    0,
                    "w={w}: bits beyond the window are set"
                );
            }
            // Behaviour: everything in-window is Duplicate, the edges
            // classify exactly.
            assert_eq!(win.check(n(1000)), Verdict::Duplicate, "w={w}");
            assert_eq!(win.check(n(1001)), Verdict::Fresh, "w={w}");
            assert_eq!(win.check(n(1000 - w)), Verdict::Stale, "w={w}");
            if w > 1 {
                assert_eq!(win.check(n(1001 - w)), Verdict::Duplicate, "w={w}");
            }
        }
    }

    #[test]
    fn resumed_window_equals_organically_slid_window() {
        // A window resumed all-seen then slid clear across its width must
        // equal one that took a different path to the same logical state.
        for w in [63u64, 65, 70, 128] {
            let mut a = AntiReplayWindow::with_right_edge(w, n(10), true);
            let mut b = AntiReplayWindow::with_right_edge(w, n(500), false);
            // Slide both far enough that every old bit is cleared, then
            // accept the same single number.
            a.accept(n(5_000));
            b.accept(n(5_000));
            assert_eq!(a, b, "w={w}");
        }
    }

    #[test]
    fn mark_all_seen_masks_tail() {
        let mut w = AntiReplayWindow::with_right_edge(70, n(100), false);
        w.mark_all_seen();
        assert_eq!(w.words().last().unwrap() >> (70 % 64), 0);
        assert_eq!(w, AntiReplayWindow::with_right_edge(70, n(100), true));
    }

    #[test]
    fn resume_at_rebuilds_in_place_as_a_new_window() {
        // The wake-up rebuild reuses the bitmap; the state must be the
        // one a freshly built all-seen window has, whatever came before.
        for w in [1u64, 63, 64, 70, 1024] {
            let mut win = AntiReplayWindow::new(w);
            win.accept(n(3));
            win.reset_naive();
            let bits = win.words().as_ptr();
            win.resume_at(n(500));
            assert_eq!(win, AntiReplayWindow::with_right_edge(w, n(500), true));
            assert_eq!(win.words().as_ptr(), bits, "w={w}: bitmap reallocated");
        }
    }

    #[test]
    fn word_level_slide_matches_bitwise_reference() {
        // Drive the word-granular slide against a bit-at-a-time model
        // across every slide distance and alignment that matters.
        for w in [5u64, 64, 65, 127, 128, 130, 256] {
            let mut win = AntiReplayWindow::new(w);
            let mut model: std::collections::HashSet<u64> = std::collections::HashSet::new();
            // The paper's initial state pre-marks the whole window seen;
            // sequence number 0 is the only nonnegative member.
            model.insert(0);
            let mut right = 0u64;
            let mut s = 0u64;
            // Visit slides of every distance 1..2w plus in-window accepts.
            let mut dist = 1u64;
            while s < 6 * w {
                s += dist;
                dist = dist % (2 * w) + 1;
                win.accept(n(s));
                right = right.max(s);
                model.insert(s);
                model.retain(|&x| x + w > right);
                // Compare classification across the whole live range.
                for probe in right.saturating_sub(w + 2)..=right + 1 {
                    let want = if probe > right {
                        Verdict::Fresh
                    } else if probe + w <= right {
                        Verdict::Stale
                    } else if model.contains(&probe) {
                        Verdict::Duplicate
                    } else {
                        Verdict::Fresh
                    };
                    assert_eq!(win.check(n(probe)), want, "w={w} s={s} probe={probe}");
                }
            }
        }
    }

    /// The sizes either side of the inline/heap boundary, and one far
    /// past it.
    const BOUNDARY_SIZES: [u64; 8] = [1, 63, 64, 65, 127, 128, 129, 1024];

    fn hash_of(win: &AntiReplayWindow) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        win.hash(&mut h);
        h.finish()
    }

    #[test]
    fn seeded_differential_against_a_set_model_at_the_inline_boundary() {
        // The model is the paper's boolean array taken literally: the set
        // of numbers marked received, and the right edge.
        use std::collections::BTreeSet;
        let mut rng = 0x2545F4914F6CDD1Du64;
        let mut next = move |bound: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % bound
        };
        for w in BOUNDARY_SIZES {
            let mut win = AntiReplayWindow::new(w);
            let mut seen = BTreeSet::from([0u64]);
            let mut right = 0u64;
            for step in 0..600 {
                match next(16) {
                    // §4 wake-up: everything up to the new edge is seen.
                    0 => {
                        right += next(3 * w + 2);
                        win.resume_at(n(right));
                        seen = (right.saturating_sub(w - 1)..=right).collect();
                    }
                    // A jump past the whole window.
                    1 => {
                        let s = right + w + next(2 * w + 1);
                        win.accept(n(s));
                        right = s;
                        seen.insert(s);
                    }
                    // Traffic around the edge: in order, reordered, stale.
                    _ => {
                        let s = (right + 3).saturating_sub(next(w + 6));
                        let model = if s > right {
                            Verdict::Fresh
                        } else if s + w <= right {
                            Verdict::Stale
                        } else if seen.contains(&s) {
                            Verdict::Duplicate
                        } else {
                            Verdict::Fresh
                        };
                        assert_eq!(win.check(n(s)), model, "w={w} step={step} s={s}");
                        if model == Verdict::Fresh {
                            win.accept(n(s));
                            right = right.max(s);
                            seen.insert(s);
                        }
                    }
                }
                seen.retain(|&x| x + w > right);
                for probe in right.saturating_sub(w + 1)..=right + 1 {
                    let want = if probe > right {
                        Verdict::Fresh
                    } else if probe + w <= right {
                        Verdict::Stale
                    } else if seen.contains(&probe) {
                        Verdict::Duplicate
                    } else {
                        Verdict::Fresh
                    };
                    assert_eq!(win.check(n(probe)), want, "w={w} step={step} probe={probe}");
                }
            }
        }
    }

    #[test]
    fn resumed_and_slid_windows_are_equal_and_hash_equal_at_every_size() {
        for w in BOUNDARY_SIZES {
            for right in [w / 2, w, 3 * w + 7] {
                let mut resumed = AntiReplayWindow::new(w);
                resumed.accept(n(1));
                resumed.resume_at(n(right));
                // The same state reached by traffic: every number the
                // window covers, every other one first, from the top.
                let mut slid = AntiReplayWindow::new(w);
                let low = right.saturating_sub(w - 1).max(1);
                let covered = (low..=right).rev();
                for s in covered.clone().step_by(2).chain(covered.skip(1).step_by(2)) {
                    slid.check_and_accept(n(s));
                }
                if low > right {
                    slid.accept(n(right));
                }
                assert_eq!(resumed, slid, "w={w} right={right}");
                assert_eq!(hash_of(&resumed), hash_of(&slid), "w={w} right={right}");
            }
        }
    }

    #[test]
    fn fused_check_and_accept_matches_two_step() {
        let mut rng_state = 0x9E3779B97F4A7C15u64;
        let mut fused = AntiReplayWindow::new(70);
        let mut two_step = AntiReplayWindow::new(70);
        for _ in 0..5_000 {
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let s = 1 + (rng_state >> 33) % 400;
            let v1 = fused.check_and_accept(n(s));
            let v2 = two_step.check(n(s));
            if v2 == Verdict::Fresh {
                two_step.accept(n(s));
            }
            assert_eq!(v1, v2, "seq {s}");
            assert_eq!(fused, two_step, "state diverged at seq {s}");
        }
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn words_are_inline_up_to_128_entries() {
        // A receiver's window is one 40-byte block of its SA record: no
        // second allocation to miss on (ARCHITECTURE.md, "Who owns
        // per-SA state").
        assert_eq!(std::mem::size_of::<AntiReplayWindow>(), 40);
        for w in BOUNDARY_SIZES {
            let win = AntiReplayWindow::new(w);
            let start = std::ptr::from_ref(&win) as usize;
            let words = win.words().as_ptr() as usize;
            let inline = (start..start + 40).contains(&words);
            assert_eq!(inline, w <= 128, "w={w}");
        }
    }

    #[test]
    fn check_does_not_mutate() {
        let mut w = AntiReplayWindow::new(8);
        w.accept(n(5));
        let before = w.clone();
        let _ = w.check(n(3));
        let _ = w.check(n(100));
        let _ = w.check(n(1));
        assert_eq!(w, before);
    }
}
