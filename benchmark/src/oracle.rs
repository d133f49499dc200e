//! Independent oracle: judges every verdict from what the generator
//! sent, never from gateway state.
//!
//! Per SA it keeps the set of sequence numbers already delivered and the
//! highest fresh sequence number pushed. The paper's guarantees become
//! four checks:
//!
//! * a sequence number is delivered at most once per SA, ever (a second
//!   delivery is a replay accepted);
//! * a copy of an earlier frame is dropped by the window;
//! * a fresh frame is delivered with the payload that was sent — except
//!   that after a receiver reset, sequence numbers up to `2K` past the
//!   highest one pushed before the reset may be dropped (the leap lands
//!   at most `2K` past the receiver's old right edge, which is at most
//!   that highest number), and no more than `2K` of them per SA;
//! * a recovery wakes exactly the SA directions that were installed.

use crate::workload::{Expect, Sent};

/// One verdict, reduced to what the oracle needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict<'a> {
    /// `GatewayEvent::Delivered`.
    Delivered {
        /// Sequence number the receiver reconstructed.
        seq: u64,
        /// Payload it handed up.
        payload: &'a [u8],
    },
    /// `GatewayEvent::ReplayDropped`.
    ReplayDropped {
        /// Sequence number the window rejected.
        seq: u64,
    },
    /// Any other per-frame event; index into [`OTHER_KINDS`].
    Other(usize),
}

/// Per-frame events no workload constructs; each one seen is a failure.
pub const OTHER_KINDS: [&str; 4] = ["auth_failed", "unknown_sa", "buffered", "dropped_down"];
/// Index of `AuthFailed` in [`OTHER_KINDS`].
pub const AUTH_FAILED: usize = 0;
/// Index of `UnknownSa`.
pub const UNKNOWN_SA: usize = 1;
/// Index of `Buffered`.
pub const BUFFERED: usize = 2;
/// Index of `DroppedDown`.
pub const DROPPED_DOWN: usize = 3;

/// Exact event counts, as the oracle saw them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    /// Frames delivered.
    pub delivered: u64,
    /// Frames the window dropped.
    pub replay_dropped: u64,
    /// Events of [`OTHER_KINDS`], same order.
    pub other: [u64; 4],
    /// `FailedClosed` events seen during recoveries.
    pub failed_closed: u64,
}

#[derive(Debug, Clone, Default)]
struct SaModel {
    /// Bit `s` set: sequence number `s` was delivered.
    delivered: Vec<u64>,
    /// Highest fresh sequence number pushed.
    highest_sent: u64,
    /// Fresh sequence numbers up to here may be dropped (0: none).
    sacrifice_until: u64,
    /// Fresh frames dropped since the last receiver reset.
    sacrificed: u64,
    /// A fresh frame was delivered since the last receiver reset.
    converged: bool,
}

impl SaModel {
    /// Marks `seq` delivered; false if it already was.
    fn deliver(&mut self, seq: u64) -> bool {
        let (word, bit) = ((seq / 64) as usize, 1u64 << (seq % 64));
        if self.delivered.len() <= word {
            self.delivered.resize(word + 1, 0);
        }
        let first = self.delivered[word] & bit == 0;
        self.delivered[word] |= bit;
        first
    }
}

/// The oracle for one engine pair.
#[derive(Debug)]
pub struct Oracle {
    two_k: u64,
    sas: Vec<SaModel>,
    /// Frames pushed plus recoveries attempted.
    pub ops: u64,
    /// Violations found.
    pub failed: u64,
    /// The first few violations, for the report.
    pub violations: Vec<String>,
    /// Event counts.
    pub counts: Counts,
    /// Sum and count of closed per-(receiver reset, SA) sacrifices.
    sacrifice_sum: u64,
    sacrifice_n: u64,
    /// Scratch: frame indices grouped by SA, and per-SA read cursors.
    order: Vec<u32>,
    cursor: Vec<u32>,
}

impl Oracle {
    /// An oracle for `sas` SAs saving every `k` messages.
    pub fn new(sas: u32, k: u64) -> Oracle {
        Oracle {
            two_k: 2 * k,
            sas: vec![SaModel::default(); sas as usize],
            ops: 0,
            failed: 0,
            violations: Vec::new(),
            counts: Counts::default(),
            sacrifice_sum: 0,
            sacrifice_n: 0,
            order: Vec::new(),
            cursor: vec![0; sas as usize],
        }
    }

    fn violation(&mut self, what: String) {
        self.failed += 1;
        if self.violations.len() < 5 {
            self.violations.push(what);
        }
    }

    /// Judges one pushed batch. `verdicts` are `(sa, verdict)` in the
    /// order the gateway reported them: per-SA order is arrival order
    /// (the shard determinism contract), cross-SA order is free.
    /// `payload_of` resolves a [`Sent::payload`] range to its bytes.
    pub fn check_batch<'a>(
        &mut self,
        sent: &[Sent],
        verdicts: impl Iterator<Item = (u32, Verdict<'a>)>,
        payload_of: impl Fn(&Sent) -> &'a [u8],
    ) {
        self.ops += sent.len() as u64;
        // Group the frames by SA, keeping arrival order inside a group.
        self.order.clear();
        self.order.extend(0..sent.len() as u32);
        self.order.sort_by_key(|&i| sent[i as usize].sa);
        for (pos, &i) in self.order.iter().enumerate().rev() {
            self.cursor[sent[i as usize].sa as usize] = pos as u32;
        }
        let mut judged = 0usize;
        for (sa, verdict) in verdicts {
            let frame = self
                .cursor
                .get(sa as usize)
                .and_then(|&pos| self.order.get(pos as usize))
                .map(|&i| &sent[i as usize])
                .filter(|frame| frame.sa == sa);
            let Some(frame) = frame else {
                self.violation(format!("sa {sa}: verdict {verdict:?} for no pushed frame"));
                continue;
            };
            self.cursor[sa as usize] += 1;
            judged += 1;
            self.judge(frame, verdict, payload_of(frame));
        }
        if judged != sent.len() {
            self.violation(format!("{} frames got no verdict", sent.len() - judged));
        }
    }

    fn judge(&mut self, frame: &Sent, verdict: Verdict<'_>, sent_payload: &[u8]) {
        let sa = frame.sa;
        let model = &mut self.sas[sa as usize];
        if frame.expect == Expect::Fresh {
            model.highest_sent = model.highest_sent.max(frame.seq);
        }
        let complaint = match verdict {
            Verdict::Delivered { seq, payload } => {
                self.counts.delivered += 1;
                if !model.deliver(seq) {
                    Some(format!("seq {seq} delivered twice (replay accepted)"))
                } else if frame.expect == Expect::Replay {
                    Some(format!(
                        "copy of seq {} delivered (replay accepted)",
                        frame.seq
                    ))
                } else if seq != frame.seq {
                    Some(format!("delivered seq {seq}, sent seq {}", frame.seq))
                } else if payload != sent_payload {
                    Some(format!(
                        "seq {seq} delivered with a payload that was not sent"
                    ))
                } else {
                    model.converged = true;
                    None
                }
            }
            Verdict::ReplayDropped { seq } => {
                self.counts.replay_dropped += 1;
                if seq != frame.seq {
                    Some(format!("dropped seq {seq}, sent seq {}", frame.seq))
                } else if frame.expect == Expect::Replay {
                    None
                } else if frame.seq > model.sacrifice_until {
                    Some(format!(
                        "fresh seq {seq} dropped beyond the sacrifice window (until {})",
                        model.sacrifice_until
                    ))
                } else {
                    model.sacrificed += 1;
                    (model.sacrificed > self.two_k).then(|| {
                        format!(
                            "{} fresh frames sacrificed, 2K = {}",
                            model.sacrificed, self.two_k
                        )
                    })
                }
            }
            Verdict::Other(kind) => {
                self.counts.other[kind] += 1;
                Some(format!("seq {} got {}", frame.seq, OTHER_KINDS[kind]))
            }
        };
        if let Some(what) = complaint {
            self.violation(format!("sa {sa}: {what}"));
        }
    }

    /// The receiver reset and recovered: closes the previous sacrifice
    /// window of every SA and opens the next.
    pub fn receiver_reset(&mut self) {
        self.close_windows();
        for model in &mut self.sas {
            model.sacrifice_until = model.highest_sent + self.two_k;
        }
    }

    fn close_windows(&mut self) {
        for model in &mut self.sas {
            // An SA that saw no delivery since the reset has not shown
            // its whole sacrifice yet; it is not a sample.
            if model.sacrifice_until > 0 && model.converged {
                self.sacrifice_sum += model.sacrificed;
                self.sacrifice_n += 1;
            }
            model.sacrifice_until = 0;
            model.sacrificed = 0;
            model.converged = false;
        }
    }

    /// One `reset()` + `recover()`: `woke` directions came back of
    /// `installed`, with `failed_closed` SAs replaced.
    pub fn recovery(&mut self, woke: usize, installed: usize, failed_closed: u64) {
        self.ops += 1;
        self.counts.failed_closed += failed_closed;
        if woke != installed || failed_closed != 0 {
            self.violation(format!(
                "recover woke {woke} of {installed} SA directions, {failed_closed} failed closed"
            ));
        }
    }

    /// Mean fresh sequence numbers sacrificed per (receiver reset, SA)
    /// over the SAs that converged, and how many such samples there are.
    /// Closes any open windows first.
    pub fn sacrifice(&mut self) -> (f64, u64) {
        self.close_windows();
        let mean = if self.sacrifice_n == 0 {
            0.0
        } else {
            self.sacrifice_sum as f64 / self.sacrifice_n as f64
        };
        (mean, self.sacrifice_n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const K: u64 = 4;
    const PAYLOAD: &[u8] = b"payload";

    fn fresh(sa: u32, seq: u64) -> Sent {
        Sent {
            sa,
            seq,
            expect: Expect::Fresh,
            payload: 0..0,
        }
    }

    fn copy(sa: u32, seq: u64) -> Sent {
        Sent {
            expect: Expect::Replay,
            ..fresh(sa, seq)
        }
    }

    fn delivered(seq: u64) -> Verdict<'static> {
        Verdict::Delivered {
            seq,
            payload: PAYLOAD,
        }
    }

    fn check(o: &mut Oracle, sent: &[Sent], verdicts: Vec<(u32, Verdict<'static>)>) {
        o.check_batch(sent, verdicts.into_iter(), |_| PAYLOAD);
    }

    #[test]
    fn accepts_a_legal_run_with_duplicates_resets_and_shard_order() {
        let mut o = Oracle::new(2, K);
        // Two SAs interleaved; verdicts arrive grouped by SA (shard-then-
        // arrival order), which per-SA matching must tolerate.
        let sent = [
            fresh(0, 1),
            fresh(1, 1),
            fresh(0, 2),
            copy(0, 1),
            fresh(1, 2),
        ];
        let verdicts = vec![
            (1, delivered(1)),
            (1, delivered(2)),
            (0, delivered(1)),
            (0, delivered(2)),
            (0, Verdict::ReplayDropped { seq: 1 }),
        ];
        check(&mut o, &sent, verdicts);
        // Receiver reset: up to 2K = 8 fresh numbers past seq 2 may go.
        o.receiver_reset();
        o.recovery(4, 4, 0);
        let sent: Vec<Sent> = (3..=12).map(|s| fresh(0, s)).collect();
        let verdicts = (3..=12)
            .map(|s| {
                if s <= 10 {
                    (0, Verdict::ReplayDropped { seq: s })
                } else {
                    (0, delivered(s))
                }
            })
            .collect();
        check(&mut o, &sent, verdicts);
        assert_eq!((o.failed, o.ops), (0, 16), "{:?}", o.violations);
        assert_eq!(o.counts.delivered, 6);
        assert_eq!(o.counts.replay_dropped, 9);
        // SA 0 converged with 8 sacrificed; SA 1 saw no traffic since.
        assert_eq!(o.sacrifice(), (8.0, 1));
    }

    #[test]
    fn flags_a_double_delivery() {
        let mut o = Oracle::new(1, K);
        check(&mut o, &[fresh(0, 1)], vec![(0, delivered(1))]);
        check(&mut o, &[copy(0, 1)], vec![(0, delivered(1))]);
        assert_eq!(o.failed, 1);
        assert!(
            o.violations[0].contains("delivered twice"),
            "{:?}",
            o.violations
        );
        // A copy of a never-delivered frame must not be delivered either.
        let mut o = Oracle::new(1, K);
        check(&mut o, &[copy(0, 5)], vec![(0, delivered(5))]);
        assert_eq!(o.failed, 1);
    }

    #[test]
    fn flags_a_sacrifice_beyond_two_k() {
        let mut o = Oracle::new(1, K);
        check(&mut o, &[fresh(0, 1)], vec![(0, delivered(1))]);
        // No reset: any dropped fresh frame is a violation.
        check(
            &mut o,
            &[fresh(0, 2)],
            vec![(0, Verdict::ReplayDropped { seq: 2 })],
        );
        assert_eq!(o.failed, 1);
        // After a reset the window reaches seq 2 + 2K = 10 and no further.
        o.receiver_reset();
        check(
            &mut o,
            &[fresh(0, 10)],
            vec![(0, Verdict::ReplayDropped { seq: 10 })],
        );
        assert_eq!(o.failed, 1);
        check(
            &mut o,
            &[fresh(0, 11)],
            vec![(0, Verdict::ReplayDropped { seq: 11 })],
        );
        assert_eq!(o.failed, 2);
        assert!(o.violations[1].contains("beyond the sacrifice window"));
    }

    #[test]
    fn flags_a_payload_mismatch_and_unconstructed_verdicts() {
        let mut o = Oracle::new(1, K);
        let wrong = Verdict::Delivered {
            seq: 1,
            payload: b"other",
        };
        check(&mut o, &[fresh(0, 1)], vec![(0, wrong)]);
        assert!(o.violations[0].contains("payload"));
        check(
            &mut o,
            &[fresh(0, 2)],
            vec![(0, Verdict::Other(AUTH_FAILED))],
        );
        check(&mut o, &[fresh(0, 3)], vec![]);
        check(&mut o, &[], vec![(0, delivered(4))]);
        o.recovery(3, 4, 0);
        assert_eq!(o.failed, 5, "{:?}", o.violations);
        assert_eq!(o.counts.other, [1, 0, 0, 0]);
    }
}
