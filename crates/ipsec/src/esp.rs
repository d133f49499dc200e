//! The ESP datapath: SAVE/FETCH-protected sequence numbers under real
//! authentication and (simulated) encryption.
//!
//! [`Outbound`] allocates sequence numbers through
//! [`anti_replay::SfSender`] and seals packets; [`Inbound`] verifies the
//! ICV **first** (RFC 2406 order: authentication before replay check),
//! reconstructs the full 64-bit sequence number (ESN), consults the
//! anti-replay window, then decrypts and delivers. Both endpoints survive
//! resets through their stable stores and the `2K` leap.
//!
//! # One receive path
//!
//! A frame is authenticated, windowed and decrypted in one drain body and
//! nowhere else. A drain is a list of runs — consecutive frames for one
//! SA — and three walks over it plus one decrypt:
//!
//! 1. **Resolve.** [`crate::Sadb::process_batch`] cuts a batch into SPI
//!    runs and finds every run's slot before any frame is verified.
//!    [`Inbound::process_batch`] is a batch of one run, resolved to
//!    itself; [`Inbound::process`] is a batch of one frame, and the frames
//!    buffered during a wake-up are one too when [`Inbound::finish_wakeup`]
//!    resolves them.
//! 2. **Verify.** Every frame of every running run is parsed and its ICV
//!    verified, the ESN high half guessed at the SA's right edge as of
//!    batch start. An AEAD SA's frames go into stack groups of 16 that
//!    cross SA boundaries,
//!    [`reset_crypto::ChaCha20Poly1305Suite::verify_batch_across`] keying
//!    each lane with its own SA — so a wide fleet, whose runs are single
//!    frames, still fills the lanes. The HMAC suites verify per run
//!    through [`reset_crypto::CipherSuite::verify_batch`], in groups of
//!    that run's frames.
//! 3. **Window.** Per run, in arrival order: the window, the machine,
//!    SAVE queueing and the copy into the arena. A frame whose guessed
//!    high half the window has since moved past is re-verified under the
//!    live inference — an SA that crosses 2³² earlier in its run, or in an
//!    earlier run of the same batch, is where the batch-start guess goes
//!    stale — so every verdict is the one a frame-at-a-time receiver
//!    would reach.
//! 4. **Decrypt.** One call over the whole drain:
//!    [`reset_crypto::ChaCha20Poly1305Suite::decrypt_batch_across`] for
//!    every AEAD payload whichever SA it is for, the keystream suite's
//!    payloads one at a time.
//!
//! The paper's premise is a ~4 µs per-message budget, so after warm-up
//! that drain allocates nothing per frame and nothing per SPI run: all
//! crypto dispatches through the SA's precomputed suite — no per-packet
//! key schedule — and delivered payloads are either zero-copy slices of
//! the input (non-encrypting suites) or decrypted in place in an arena
//! shared by the whole drain and frozen once at its end.
//!
//! One exception, below this crate: on the SIMD backends the two HMAC
//! suites' multi-buffer verifier still builds a bucket map per
//! `verify_batch` call (`reset_crypto`, `verify_batch_multiway`), i.e.
//! per group of up to 16 frames. The default ChaCha20-Poly1305 suite and
//! the scalar backend allocate nothing; `tests/it_alloc.rs` counts the
//! default suite on every backend.
//!
//! # One send path
//!
//! A frame is sealed in one body too: [`Outbound::protect`] and
//! [`crate::Sadb::protect`] (so every `Gateway` send) are
//! `Outbound::protect_ahead`, which takes the next sequence number — after
//! checking that a 32-bit space still has one — and hands the frame to
//! `reset_wire::seal_frame_ahead` and so to the suite's fused
//! [`reset_crypto::CipherSuite::seal`]. What differs between the callers
//! is only whose send look-ahead the suite may fill: the database's,
//! kept from frame to frame (see [`crate::sadb`], "The send look-ahead"),
//! or one local to the call.
//!
//! # Where the working memory lives
//!
//! The drain's working vectors (resolved runs, parsed records, decrypt
//! jobs, result fix-ups) and the handle that recycles the arena are one
//! `DrainScratch`. The [`crate::Sadb`] owns one and lends it to every run
//! of every batch it drains — that is the gateway path, shard workers
//! included, and it is the one that reaches an allocation-free steady
//! state. An [`Inbound`] owns none: a wide fleet must not keep an arena
//! resident per SA, so the standalone [`Inbound`] verbs run the same body
//! over a scratch local to the call and pay for it per call.
//!
//! The arena is reclaimed for the next drain once the consumer has
//! dropped every payload of the previous one. Retaining *one* payload
//! pins the arena of the whole drain it came from — every SA's payloads
//! of that batch, not one SA's run — and makes the next drain allocate a
//! fresh one; consumers that keep payloads beyond their event loop should
//! copy them out (`Bytes::copy_from_slice`).

use std::ops::Range;

use bytes::{Bytes, BytesMut};
use reset_crypto::{ChaCha20Poly1305Suite, FrameToVerify, SealAhead};
use reset_stable::{SlotId, StableError, StableStore};
use reset_wire::{
    check_frame_length, frame_overhead, infer_esn, seal_frame_ahead, verify_frame_with, WireError,
    HEADER_LEN,
};

use anti_replay::machine::DEFAULT_WAKEUP_BUFFER;
use anti_replay::{Phase, RxOutcome, SeqNum, SfReceiver, SfSender};

use crate::sa::SecurityAssociation;
use crate::IpsecError;

/// Sender half of one SA's datapath.
///
/// # Examples
///
/// ```
/// use reset_ipsec::{Inbound, Outbound, RxResult, SaKeys, SecurityAssociation};
/// use reset_stable::MemStable;
///
/// let keys = SaKeys::derive(b"shared", b"a->b");
/// let sa = SecurityAssociation::new(7, keys);
/// let mut tx = Outbound::new(sa.clone(), MemStable::new(), 25);
/// let mut rx = Inbound::new(sa, MemStable::new(), 25, 64);
///
/// let wire = tx.protect(b"hello")?.expect("endpoint up");
/// match rx.process(&wire)? {
///     RxResult::Delivered { payload, seq } => {
///         assert_eq!(&payload[..], b"hello");
///         assert_eq!(seq.value(), 1);
///     }
///     other => panic!("{other:?}"),
/// }
/// # Ok::<(), reset_ipsec::IpsecError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Outbound<S> {
    sa: SecurityAssociation,
    seq: SfSender<S>,
}

impl<S: StableStore> Outbound<S> {
    /// An outbound endpoint persisting its counter in `store` every `k`
    /// packets.
    pub fn new(sa: SecurityAssociation, store: S, k: u64) -> Self {
        let slot = SlotId::sender(sa.spi());
        Outbound {
            sa,
            seq: SfSender::new(store, slot, k),
        }
    }

    /// The SA this endpoint serves.
    pub fn sa(&self) -> &SecurityAssociation {
        &self.sa
    }

    /// The SAVE/FETCH sender (counters, phase, pending saves).
    pub fn seq_state(&self) -> &SfSender<S> {
        &self.seq
    }

    /// Protects one payload. Returns `None` while the endpoint is down or
    /// waking (nothing can be sent), `Some(wire)` otherwise.
    ///
    /// This is the standalone form of the one sealing body: its send
    /// look-ahead is local to the call, so each frame's spare crypto
    /// lanes are computed and thrown away. A run of sends on one SA is
    /// cheaper through [`crate::Sadb::protect`], whose database keeps the
    /// look-ahead from frame to frame.
    ///
    /// # Errors
    ///
    /// Lifetime exhaustion, sequence overflow, or store failures.
    pub fn protect(&mut self, payload: &[u8]) -> Result<Option<Bytes>, IpsecError> {
        self.protect_ahead(payload, &mut SealAhead::default())
    }

    /// The sealing body: [`Outbound::protect`] over the caller's
    /// look-ahead, which must hold nothing computed under another key
    /// (the [`crate::Sadb`] lends its own under that rule).
    pub(crate) fn protect_ahead(
        &mut self,
        payload: &[u8],
        ahead: &mut SealAhead,
    ) -> Result<Option<Bytes>, IpsecError> {
        self.sa.check_lifetime()?;
        // A 32-bit sequence space ends at `u32::MAX`. Refuse *before*
        // `send_next` consumes a number (and, every `K`, a SAVE) for a
        // frame that cannot be sealed; a down endpoint still reports
        // `None`, not an error.
        let exhausted = !self.sa.esn() && self.seq.next_seq().value() > u64::from(u32::MAX);
        if exhausted && self.seq.phase() == Phase::Running {
            return Err(WireError::SeqOverflow.into());
        }
        let Some(seq) = self.seq.send_next()? else {
            return Ok(None);
        };
        // The suite encrypts in place inside the wire buffer, so the
        // per-packet allocations are the returned buffer's own two: the
        // `Vec` behind it and the `Arc` that `freeze` wraps it in.
        let cipher = self.sa.cipher();
        let mut wire = BytesMut::with_capacity(frame_overhead(cipher) + payload.len());
        let (spi, esn) = (self.sa.spi(), self.sa.esn());
        seal_frame_ahead(&mut wire, spi, seq.value(), payload, cipher, esn, ahead)?;
        self.sa.account(payload.len());
        Ok(Some(wire.freeze()))
    }

    /// Background SAVE completion (simulator-driven).
    ///
    /// # Errors
    ///
    /// Store failures (retryable).
    pub fn save_completed(&mut self) -> Result<(), StableError> {
        self.seq.save_completed().map(|_| ())
    }

    /// Reset: volatile counter lost.
    pub fn reset(&mut self) {
        self.seq.reset();
    }

    /// Wake up: FETCH + leap `2K` + synchronous SAVE. Returns the resumed
    /// sequence number.
    ///
    /// # Errors
    ///
    /// Store failures.
    pub fn wake_up(&mut self) -> Result<SeqNum, StableError> {
        self.seq.wake_up()
    }

    /// First half of wake-up (FETCH + leap + issue the synchronous
    /// SAVE); the endpoint stays unable to send until
    /// [`finish_wakeup`](Self::finish_wakeup). Timed drivers (the
    /// harness) split the halves around the store's save latency.
    ///
    /// # Errors
    ///
    /// Store failures (the endpoint stays down).
    pub fn begin_wakeup(&mut self) -> Result<SeqNum, StableError> {
        self.seq.begin_wakeup()
    }

    /// Second half of wake-up: the synchronous SAVE completed; sending
    /// resumes at the leaped counter.
    ///
    /// # Errors
    ///
    /// Store failures (the endpoint stays waking; retry).
    pub fn finish_wakeup(&mut self) -> Result<SeqNum, StableError> {
        self.seq.finish_wakeup()
    }

    /// Current phase.
    pub fn phase(&self) -> Phase {
        self.seq.phase()
    }

    /// Mutable access to the persistent store — SA teardown (a correct
    /// teardown erases `SlotId::sender(spi)` so a later FETCH cannot
    /// resurrect this SA's counters into a reused SPI's number space)
    /// and fault-injection tests.
    pub fn store_mut(&mut self) -> &mut S {
        self.seq.store_mut()
    }
}

/// Why a packet was rejected before reaching the anti-replay window
/// (reported in-line by [`Inbound::process_batch`];
/// [`Inbound::process`] surfaces the first two as [`IpsecError`]s).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RxReject {
    /// Framing or ICV failure (forged, corrupted or malformed bytes).
    Wire(WireError),
    /// No SA is installed for the packet's SPI.
    UnknownSa {
        /// The SPI the packet named.
        spi: u32,
    },
}

/// What happened to one inbound packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RxResult {
    /// Authenticated, fresh, decrypted: handed to the application.
    Delivered {
        /// The decrypted payload.
        payload: Bytes,
        /// The full (ESN-reconstructed) sequence number.
        seq: SeqNum,
    },
    /// Authenticated but rejected by the anti-replay window.
    AntiReplay {
        /// Stale or duplicate.
        outcome: RxOutcome,
        /// The rejected sequence number.
        seq: SeqNum,
    },
    /// Rejected before the window: bad framing, failed authentication or
    /// an unknown SPI, reported in-line rather than aborting the batch.
    Rejected(RxReject),
    /// Endpoint is waking; the packet is buffered and will be resolved by
    /// [`Inbound::finish_wakeup`].
    Buffered,
    /// Endpoint is down; the packet evaporates.
    DroppedDown,
}

impl RxResult {
    /// True iff the packet reached the application.
    pub fn is_delivered(&self) -> bool {
        matches!(self, RxResult::Delivered { .. })
    }
}

/// How many well-framed frames one verify call takes. The borrowed
/// [`FrameToVerify`] list cannot live in the reusable scratch, so it is a
/// stack array: a multiple of every backend's lane width, and large
/// enough that a 16-frame SPI run still verifies in one call.
const VERIFY_GROUP: usize = 16;

/// Walk (ii)'s record of one frame, read by walk (iii).
#[derive(Debug)]
enum Parsed {
    /// Framing failure (counted as an auth failure).
    Bad(WireError),
    /// Foreign SPI: rejected before any crypto.
    Foreign(u32),
    /// Well-framed, with its ICV verdict under the guessed ESN high half.
    Frame {
        seq_lo: u32,
        payload_len: usize,
        guess_hi: Option<u32>,
        ok: bool,
    },
}

/// One SPI run of a result vector: `len` consecutive verdicts, all for
/// `spi`, classified by the inbound SA in slab slot `slot` of the
/// [`crate::Sadb`] — `None` when no SA was (an unknown SPI, or a frame too
/// short to carry one, which reports SPI 0).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Run {
    pub(crate) spi: u32,
    pub(crate) slot: Option<u32>,
    pub(crate) len: usize,
}

/// Where a drain finds the inbound half serving the slot of each run it
/// resolved: the [`crate::Sadb`]'s records, or a standalone [`Inbound`]
/// serving its one run itself.
pub(crate) trait Receivers<S> {
    fn receiver(&self, slot: u32) -> &Inbound<S>;
    fn receiver_mut(&mut self, slot: u32) -> &mut Inbound<S>;
    /// Walk (iii) has windowed a run of `slot` (the database queues the
    /// SAVE the run may have issued).
    fn windowed(&mut self, _slot: u32) {}
}

impl<S> Receivers<S> for Inbound<S> {
    fn receiver(&self, _: u32) -> &Inbound<S> {
        self
    }

    fn receiver_mut(&mut self, _: u32) -> &mut Inbound<S> {
        self
    }
}

/// AEAD frames of any SA waiting for one cross-key verify call, each with
/// the index of its record in the drain's parsed list.
struct Across<'a> {
    frames: [(&'a ChaCha20Poly1305Suite, FrameToVerify<'a>); VERIFY_GROUP],
    at: [usize; VERIFY_GROUP],
    len: usize,
}

impl<'a> Across<'a> {
    /// Adds a frame and verifies a group it fills. The group is built by
    /// its first frame, so a drain without AEAD frames builds none.
    fn push(
        group: &mut Option<Self>,
        frame: (&'a ChaCha20Poly1305Suite, FrameToVerify<'a>),
        at: usize,
        parsed: &mut [Parsed],
        ok: &mut Vec<bool>,
    ) {
        let g = group.get_or_insert_with(|| Across {
            frames: [frame; VERIFY_GROUP],
            at: [0; VERIFY_GROUP],
            len: 0,
        });
        g.frames[g.len] = frame;
        g.at[g.len] = at;
        g.len += 1;
        if g.len == VERIFY_GROUP {
            g.flush(parsed, ok);
        }
    }

    fn flush(&mut self, parsed: &mut [Parsed], ok: &mut Vec<bool>) {
        ChaCha20Poly1305Suite::verify_batch_across(&self.frames[..self.len], ok);
        settle(parsed, &self.at[..self.len], ok);
        self.len = 0;
    }
}

/// Writes the verdicts of one verify call into the records they are for.
fn settle(parsed: &mut [Parsed], at: &[usize], verdicts: &[bool]) {
    for (&k, &verdict) in at.iter().zip(verdicts) {
        if let Parsed::Frame { ok, .. } = &mut parsed[k] {
            *ok = verdict;
        }
    }
}

/// Walks (ii) and (iii) and the decrypt (module docs, "One receive path")
/// over the runs walk (i) left in `scratch.resolved`, inside the drain the
/// caller opened on `scratch`: `at(i)` is the drain's `i`-th frame, and
/// one result per frame is appended to `out`.
pub(crate) fn drain<'w, S: StableStore>(
    scratch: &mut DrainScratch,
    receivers: &mut impl Receivers<S>,
    at: impl Fn(usize) -> &'w Bytes + Copy,
    out: &mut Vec<RxResult>,
) {
    let frames = move |start: usize, run: &Run| (start..start + run.len).map(at);
    // ---- Walk (ii): parse every frame of every running run and verify
    // the ICVs of the well-framed ones.
    let mut across = None;
    let mut start = 0;
    for run in &scratch.resolved {
        if let Some(slot) = run.slot {
            // Nothing moves a phase or a right edge before walk (iii), so
            // an SA read here, in any of its runs, is as at batch start.
            let inbound = receivers.receiver(slot);
            if inbound.phase() == Phase::Running {
                inbound.parse_run(
                    frames(start, run),
                    &mut scratch.parsed,
                    &mut scratch.group_ok,
                    &mut across,
                );
            }
        }
        start += run.len;
    }
    if let Some(group) = &mut across {
        group.flush(&mut scratch.parsed, &mut scratch.group_ok);
    }
    // ---- Walk (iii): per run, in arrival order, the window, the
    // machine, SAVE queueing and the copy into the arena.
    let mut parsed = std::mem::take(&mut scratch.parsed);
    let mut records = parsed.drain(..);
    let mut start = 0;
    for k in 0..scratch.resolved.len() {
        let run = scratch.resolved[k];
        let wires = frames(start, &run);
        match run.slot {
            Some(slot) => {
                let inbound = receivers.receiver_mut(slot);
                inbound.window_run(scratch, wires, &mut records, slot, out);
                receivers.windowed(slot);
            }
            None => out.extend(wires.map(|wire| {
                RxResult::Rejected(match wire.len() {
                    // A frame too short to name an SPI: a run of its own.
                    got @ 0..4 => RxReject::Wire(WireError::Truncated { needed: 4, got }),
                    _ => RxReject::UnknownSa { spi: run.spi },
                })
            })),
        }
        start += run.len;
    }
    drop(records);
    scratch.parsed = parsed;
    // ---- Decrypt: one call over the whole drain.
    scratch.decrypt(|slot| receivers.receiver(slot).sa());
    scratch.finish(out);
}

/// The working memory of the receive drain, reused across every SPI run
/// of every batch so that the steady state allocates nothing. One drain
/// is [`DrainScratch::begin`], walk (i) filling `resolved`, then [`drain`]
/// over one result vector. The [`crate::Sadb`] owns the one that
/// persists; the module docs say why an [`Inbound`] does not.
#[derive(Debug, Default)]
pub(crate) struct DrainScratch {
    /// How the database's last result vector falls into SPI runs, in
    /// order and without gaps. Written by the database's run walker (and
    /// its recovery sweep, whose result vector spans one drain per waking
    /// SA — so a drain keeps its own runs in `resolved`); read by the
    /// gateway, which turns verdicts into events run by run with the SA's
    /// record in hand.
    pub(crate) runs: Vec<Run>,
    /// The current drain's runs as walk (i) resolved them.
    pub(crate) resolved: Vec<Run>,
    /// Walk (ii)'s records of the current drain, in order (walk (iii)
    /// drains them).
    parsed: Vec<Parsed>,
    /// The verdicts of one verify call (which clears its output).
    group_ok: Vec<bool>,
    /// `(slot, seq, arena range)` of every payload this drain delivered
    /// into the arena, for the drain's one decrypt.
    jobs: Vec<(u32, u64, Range<usize>)>,
    /// Whether a job is under the keystream suite, which the cross-key
    /// decrypt does not take.
    keystream: bool,
    /// Per job, the index of its placeholder in the result vector.
    slots: Vec<usize>,
    /// The drain's decryption arena, empty between drains.
    arena: BytesMut,
    /// The batch's wire bytes — more than the arena can be asked to hold.
    /// Reserved in one step when the first payload needs the arena, so a
    /// drain that delivers nothing encrypted reserves nothing.
    arena_bound: usize,
    /// Handle onto the previous drain's frozen arena. Once the consumer
    /// has dropped that drain's payloads this is the unique owner and
    /// the next drain reclaims the allocation.
    recycled: Bytes,
}

impl DrainScratch {
    /// Opens a drain of frames totalling `wire_bytes`.
    pub(crate) fn begin(&mut self, wire_bytes: usize) {
        self.resolved.clear();
        self.jobs.clear();
        self.keystream = false;
        self.slots.clear();
        self.arena = BytesMut::recycle(std::mem::take(&mut self.recycled), 0);
        self.arena_bound = wire_bytes;
    }

    /// The drain's one decrypt: every AEAD payload in the arena, whichever
    /// SA delivered it, in one cross-key call; the keystream suite's, which
    /// has no lanes across keys, one at a time. `sa_of` names the SA a
    /// job's slot holds.
    fn decrypt<'s>(&mut self, sa_of: impl Fn(u32) -> &'s SecurityAssociation) {
        let buf = self.arena.as_mut();
        let aead = self
            .jobs
            .iter()
            .filter_map(|(slot, seq, range)| Some((sa_of(*slot).aead()?, *seq, range.clone())));
        ChaCha20Poly1305Suite::decrypt_batch_across(buf, aead);
        if self.keystream {
            for (slot, seq, range) in &self.jobs {
                let sa = sa_of(*slot);
                if sa.aead().is_none() {
                    sa.cipher().decrypt(*seq, &mut buf[range.clone()]);
                }
            }
        }
    }

    /// Closes the drain: freezes the arena once and points every
    /// delivered placeholder in `out` at its decrypted slice.
    pub(crate) fn finish(&mut self, out: &mut [RxResult]) {
        let frozen = std::mem::take(&mut self.arena).freeze();
        for (&slot, (_, _, range)) in self.slots.iter().zip(&self.jobs) {
            let RxResult::Delivered { payload, .. } = &mut out[slot] else {
                unreachable!("a slot names a delivered placeholder");
            };
            *payload = frozen.slice(range.clone());
        }
        self.recycled = frozen;
    }
}

/// Receiver half of one SA's datapath.
#[derive(Debug, Clone)]
pub struct Inbound<S> {
    sa: SecurityAssociation,
    rx: SfReceiver<S>,
    /// Wire packets that arrived during a wake-up (the §4 buffer, held at
    /// the packet level so payloads survive to delivery). Bounded by
    /// `wakeup_buffer`; overflow is dropped, not stored.
    pending: Vec<Bytes>,
    /// Cap on `pending`: a frame flood while the wake-up SAVE is in
    /// flight must not grow memory without bound.
    wakeup_buffer: usize,
    /// Authentication failures seen (forgeries/corruption).
    auth_failures: u64,
}

impl<S: StableStore> Inbound<S> {
    /// An inbound endpoint persisting its right edge in `store` every `k`
    /// advances, with window size `w`.
    pub fn new(sa: SecurityAssociation, store: S, k: u64, w: u64) -> Self {
        let slot = SlotId::receiver(sa.spi());
        Inbound {
            sa,
            rx: SfReceiver::new(store, slot, k, w),
            pending: Vec::new(),
            wakeup_buffer: DEFAULT_WAKEUP_BUFFER,
            auth_failures: 0,
        }
    }

    /// Caps the wake-up packet buffer at `limit` frames (clamped to ≥ 1;
    /// default [`DEFAULT_WAKEUP_BUFFER`]). Frames arriving while `Waking`
    /// beyond the cap are reported [`RxResult::DroppedDown`] instead of
    /// growing memory without bound. The same limit is mirrored onto the
    /// inner [`SfReceiver`]'s sequence-number buffer.
    pub fn set_wakeup_buffer(&mut self, limit: usize) {
        self.wakeup_buffer = limit.max(1);
        self.rx.set_buffer_limit(limit);
    }

    /// The configured wake-up packet-buffer cap.
    pub fn wakeup_buffer(&self) -> usize {
        self.wakeup_buffer
    }

    /// The SA this endpoint serves.
    pub fn sa(&self) -> &SecurityAssociation {
        &self.sa
    }

    /// The SAVE/FETCH receiver (window, phase, stats).
    pub fn seq_state(&self) -> &SfReceiver<S> {
        &self.rx
    }

    /// Authentication failures observed so far.
    pub fn auth_failures(&self) -> u64 {
        self.auth_failures
    }

    /// Processes one wire packet — [`Inbound::process_batch`] over a
    /// batch of one, with the in-line rejections turned into errors.
    ///
    /// # Errors
    ///
    /// * [`IpsecError::UnknownSa`] for a foreign SPI.
    /// * [`IpsecError::Wire`] for framing/ICV failures (also counted in
    ///   [`Inbound::auth_failures`]).
    pub fn process(&mut self, wire: &Bytes) -> Result<RxResult, IpsecError> {
        let mut results = self.process_batch(std::slice::from_ref(wire))?;
        match results.pop().expect("one result per frame") {
            RxResult::Rejected(RxReject::Wire(e)) => Err(IpsecError::Wire(e)),
            RxResult::Rejected(RxReject::UnknownSa { spi }) => Err(IpsecError::UnknownSa { spi }),
            result => Ok(result),
        }
    }

    /// Drains a burst of packets for this SA in arrival order, through
    /// the one drain body that authenticates, windows and decrypts a
    /// frame. The working vectors and the decryption arena are local to
    /// this call; a gateway drains through
    /// [`crate::Sadb::process_batch`], whose database keeps them from
    /// drain to drain and so allocates nothing per frame or per run.
    ///
    /// The results do not depend on how a stream is cut into batches
    /// (partition-invariance and a per-frame oracle built from
    /// `reset_wire` + a plain window are differential-tested in
    /// `tests/it_suites.rs`), while a batch amortizes two things:
    ///
    /// * **Batched ICV verification.** The well-framed frames of the
    ///   batch are verified 16 at a time (module docs, "One receive
    ///   path"); the HMAC suite's two-pass verifier amortizes the
    ///   one-shot SHA-256 padding assembly and outer-hash bookkeeping
    ///   across each group (the benchmark of record's
    ///   `crypto.verify_batch_ns` row). ESN high halves are guessed at the
    ///   batch-start right edge; the rare frame whose guess is
    ///   invalidated by the window advancing across a 2³² boundary
    ///   mid-batch is re-verified individually, so the verdict is the
    ///   one a frame-at-a-time receiver would reach.
    /// * **One decryption arena.** The whole drain shares one buffer, so
    ///   there is no buffer allocation per delivered packet:
    ///   non-encrypting suites slice the input buffers, encrypting
    ///   suites slice the arena.
    ///
    /// Per-packet failures (bad ICV, foreign SPI, malformed framing,
    /// store hiccups) are reported in-line as [`RxResult::Rejected`]
    /// without aborting the batch; background SAVEs issued while the
    /// batch advances the window coalesce into the single newest pending
    /// save (the disk queue collapses, see
    /// [`reset_stable::BackgroundSaver::issue`]).
    ///
    /// Memory caveat: every encrypted payload of a drain is a slice of
    /// the drain's one arena, so *retaining* any single payload pins the
    /// whole buffer. Consumers that keep payloads beyond the drain loop
    /// should copy them out (`Bytes::copy_from_slice`).
    ///
    /// # Errors
    ///
    /// Reserved for non-per-packet infrastructure failures; today all
    /// failures are reported in-line and the call returns `Ok`.
    pub fn process_batch(&mut self, wires: &[Bytes]) -> Result<Vec<RxResult>, IpsecError> {
        Ok(self.drain_alone(&mut DrainScratch::default(), wires))
    }

    /// A whole drain over this SA alone: a batch of one run, which walk
    /// (i) resolves to this endpoint without a lookup.
    fn drain_alone(&mut self, scratch: &mut DrainScratch, wires: &[Bytes]) -> Vec<RxResult> {
        let mut out = Vec::with_capacity(wires.len());
        scratch.begin(wires.iter().map(Bytes::len).sum());
        let run = Run {
            spi: self.sa.spi(),
            slot: Some(0),
            len: wires.len(),
        };
        scratch.resolved.push(run);
        drain(scratch, self, |i| &wires[i], &mut out);
        out
    }

    /// Walk (ii) for one run of this SA: parses each frame `wires`
    /// yields, appends its record to `parsed` and hands the ICV of each
    /// well-framed one to a verify call. ESN high halves are guessed at
    /// the right edge as of batch start, and re-checked in walk (iii). An
    /// AEAD SA's frames join `across`, the cross-SA group the drain
    /// flushes; the HMAC suites verify a run's frames through their own
    /// `verify_batch`, in stack groups of this run.
    fn parse_run<'a, 'w: 'a>(
        &'a self,
        wires: impl Iterator<Item = &'w Bytes>,
        parsed: &mut Vec<Parsed>,
        ok: &mut Vec<bool>,
        across: &mut Option<Across<'a>>,
    ) {
        let edge0 = self.rx.right_edge().value();
        let esn = self.sa.esn();
        let cipher = self.sa.cipher();
        let aead = self.sa.aead();
        let overhead = HEADER_LEN + cipher.iv_len() + cipher.icv_len();
        let body_off = HEADER_LEN + cipher.iv_len();
        let mut own = [FrameToVerify {
            seq: 0,
            header: &[],
            ciphertext: &[],
            esn_hi: None,
            icv: &[],
        }; VERIFY_GROUP];
        let mut own_at = [0; VERIFY_GROUP];
        let mut owned = 0;
        for wire in wires {
            let at = parsed.len();
            if wire.len() < 8 {
                parsed.push(Parsed::Bad(WireError::Truncated {
                    needed: 8,
                    got: wire.len(),
                }));
                continue;
            }
            let spi = u32::from_be_bytes(wire[0..4].try_into().expect("fixed"));
            if spi != self.sa.spi() {
                parsed.push(Parsed::Foreign(spi));
                continue;
            }
            // Framing rules have one definition, in reset_wire.
            let (_, seq_lo, declared) = match check_frame_length(wire, overhead) {
                Ok(parts) => parts,
                Err(e) => {
                    parsed.push(Parsed::Bad(e));
                    continue;
                }
            };
            let (seq, guess_hi) = if esn {
                let inferred = infer_esn(seq_lo, edge0);
                (inferred, Some((inferred >> 32) as u32))
            } else {
                (seq_lo as u64, None)
            };
            parsed.push(Parsed::Frame {
                seq_lo,
                payload_len: declared,
                guess_hi,
                ok: false,
            });
            let ct_end = wire.len() - cipher.icv_len();
            let frame = FrameToVerify {
                seq,
                header: &wire[..body_off],
                ciphertext: &wire[body_off..ct_end],
                esn_hi: guess_hi,
                icv: &wire[ct_end..],
            };
            let Some(suite) = aead else {
                own[owned] = frame;
                own_at[owned] = at;
                owned += 1;
                if owned == VERIFY_GROUP {
                    cipher.verify_batch(&own, ok);
                    settle(parsed, &own_at, ok);
                    owned = 0;
                }
                continue;
            };
            Across::push(across, (suite, frame), at, parsed, ok);
        }
        if owned > 0 {
            cipher.verify_batch(&own[..owned], ok);
            settle(parsed, &own_at[..owned], ok);
        }
    }

    /// Walk (iii) for one run of this SA: reads walk (ii)'s `records` in
    /// arrival order, driving the window, the machine and the copy into
    /// the drain's arena, where a payload waits, as a job of `slot`, for
    /// the drain's one decrypt. One result per frame is appended to
    /// `out`; payloads delivered into the arena are empty placeholders
    /// until [`DrainScratch::finish`] patches them.
    fn window_run<'w>(
        &mut self,
        scratch: &mut DrainScratch,
        wires: impl Iterator<Item = &'w Bytes>,
        records: &mut impl Iterator<Item = Parsed>,
        slot: u32,
        out: &mut Vec<RxResult>,
    ) {
        // The phase only changes through external calls, never inside a
        // drain, so it gates the whole run at once — as it gated walk (ii).
        match self.rx.phase() {
            Phase::Down => {
                out.extend(wires.map(|_| RxResult::DroppedDown));
                return;
            }
            Phase::Waking => {
                out.extend(wires.map(|wire| {
                    if self.pending.len() >= self.wakeup_buffer {
                        RxResult::DroppedDown
                    } else {
                        self.pending.push(wire.clone());
                        RxResult::Buffered
                    }
                }));
                return;
            }
            Phase::Running => {}
        }

        // Decryption is deferred: a delivered payload's ciphertext is
        // copied into the arena and recorded as a job, and the drain's one
        // decrypt fills the lanes across frames and SAs.
        let esn = self.sa.esn();
        let body_off = HEADER_LEN + self.sa.cipher().iv_len();
        let keystream = self.sa.aead().is_none();
        for wire in wires {
            let record = records.next().expect("walk (ii) parsed every frame");
            let (seq_lo, payload_len, guess_hi, guessed_ok) = match record {
                Parsed::Bad(e) => {
                    self.auth_failures += 1;
                    out.push(RxResult::Rejected(RxReject::Wire(e)));
                    continue;
                }
                Parsed::Foreign(spi) => {
                    out.push(RxResult::Rejected(RxReject::UnknownSa { spi }));
                    continue;
                }
                Parsed::Frame {
                    seq_lo,
                    payload_len,
                    guess_hi,
                    ok,
                } => (seq_lo, payload_len, guess_hi, ok),
            };
            let (seq64, esn_hi) = if esn {
                let inferred = infer_esn(seq_lo, self.rx.right_edge().value());
                (inferred, Some((inferred >> 32) as u32))
            } else {
                (seq_lo as u64, None)
            };
            let ok = if esn_hi == guess_hi {
                guessed_ok
            } else {
                // The window crossed an ESN boundary since batch start —
                // earlier in this run, or in an earlier run of this SA in
                // the same batch — and invalidated the guess; re-verify
                // with the live inference.
                verify_frame_with(wire, self.sa.cipher(), esn_hi).is_ok()
            };
            if !ok {
                self.auth_failures += 1;
                out.push(RxResult::Rejected(RxReject::Wire(WireError::IcvMismatch)));
                continue;
            }
            let seq = SeqNum::new(seq64);
            let outcome = self
                .rx
                .receive(seq)
                .expect("SfReceiver::receive never errs (see its docs)");
            match outcome {
                RxOutcome::Delivered => {
                    self.sa.account(payload_len);
                    let body = body_off..body_off + payload_len;
                    if !self.sa.cipher().encrypts() {
                        // Zero-copy: the payload is a slice of the input.
                        out.push(RxResult::Delivered {
                            payload: wire.slice(body),
                            seq,
                        });
                        continue;
                    }
                    if scratch.arena.capacity() < scratch.arena_bound {
                        // First use this drain: one reservation, so the
                        // arena never grows by doubling inside the loop.
                        scratch
                            .arena
                            .reserve(scratch.arena_bound - scratch.arena.len());
                    }
                    let start = scratch.arena.len();
                    scratch.arena.extend_from_slice(&wire[body]);
                    let range = start..start + payload_len;
                    scratch.jobs.push((slot, seq.value(), range));
                    scratch.keystream |= keystream;
                    scratch.slots.push(out.len());
                    out.push(RxResult::Delivered {
                        payload: Bytes::new(),
                        seq,
                    });
                }
                outcome @ (RxOutcome::DiscardedStale | RxOutcome::DiscardedDuplicate) => {
                    out.push(RxResult::AntiReplay { outcome, seq });
                }
                RxOutcome::Buffered | RxOutcome::DroppedDown => {
                    unreachable!("phase checked before classification")
                }
            }
        }
    }

    /// Background SAVE completion.
    ///
    /// # Errors
    ///
    /// Store failures (retryable).
    pub fn save_completed(&mut self) -> Result<(), StableError> {
        self.rx.save_completed().map(|_| ())
    }

    /// Reset: the window and any buffered packets are lost.
    pub fn reset(&mut self) {
        self.rx.reset();
        self.pending.clear();
    }

    /// First half of wake-up (FETCH + leap + issue synchronous SAVE);
    /// packets arriving until [`finish_wakeup`](Self::finish_wakeup) are
    /// buffered.
    ///
    /// # Errors
    ///
    /// Store failures.
    pub fn begin_wakeup(&mut self) -> Result<SeqNum, StableError> {
        self.rx.begin_wakeup()
    }

    /// Second half of wake-up: rebuild the window at the leaped edge and
    /// classify every buffered packet in arrival order, through the same
    /// drain as live traffic.
    ///
    /// # Errors
    ///
    /// Store failures leave the endpoint `Waking` (retry); wire errors on
    /// buffered packets are reported per-packet inside the result vector
    /// as dropped (auth failures are counted).
    pub fn finish_wakeup(&mut self) -> Result<Vec<RxResult>, StableError> {
        self.finish_wakeup_with(&mut DrainScratch::default())
    }

    /// [`Inbound::finish_wakeup`] over the caller's scratch: the buffered
    /// frames are one drain of their own (the SADB's recovery sweep lends
    /// its scratch to each waking SA in turn).
    pub(crate) fn finish_wakeup_with(
        &mut self,
        scratch: &mut DrainScratch,
    ) -> Result<Vec<RxResult>, StableError> {
        self.rx.finish_wakeup()?;
        if self.pending.is_empty() {
            // The common case: a fleet recovery wakes every SA and almost
            // none has a frame buffered. Returning here keeps the sweep
            // from opening and closing a drain per SA.
            return Ok(Vec::new());
        }
        let pending = std::mem::take(&mut self.pending);
        let mut results = self.drain_alone(scratch, &pending);
        for r in &mut results {
            if matches!(r, RxResult::Rejected(_)) {
                *r = RxResult::DroppedDown; // unauthenticated buffered junk
            }
        }
        Ok(results)
    }

    /// Atomic wake-up; returns classified buffered packets (normally
    /// empty since nothing arrived in between).
    ///
    /// # Errors
    ///
    /// Store failures.
    pub fn wake_up(&mut self) -> Result<Vec<RxResult>, StableError> {
        self.begin_wakeup()?;
        self.finish_wakeup()
    }

    /// Current phase.
    pub fn phase(&self) -> Phase {
        self.rx.phase()
    }

    /// Mutable access to the persistent store — SA teardown (erase
    /// `SlotId::receiver(spi)`) and fault-injection tests.
    pub fn store_mut(&mut self) -> &mut S {
        self.rx.store_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sa::{CryptoSuite, SaKeys};
    use reset_stable::MemStable;

    #[test]
    fn debug_of_an_endpoint_prints_no_key_material() {
        // 32 + 32 distinct known bytes, none of which may survive into
        // `{:?}` — as Rust prints byte arrays (decimal, comma-separated)
        // or as hex, in runs of three or more.
        let keys = SaKeys {
            auth: std::array::from_fn(|i| 0x40 + i as u8),
            enc: std::array::from_fn(|i| 0xa0 + i as u8),
        };
        for &suite in CryptoSuite::ALL {
            let sa = SecurityAssociation::new(0x77, keys.clone()).with_suite(suite);
            let tx = Outbound::new(sa.clone(), MemStable::new(), 25);
            let rx = Inbound::new(sa, MemStable::new(), 25, 64);
            for shown in [format!("{tx:?}"), format!("{rx:?}"), format!("{tx:#?}")] {
                let flat: String = shown.split_whitespace().collect();
                for run in keys.auth.windows(3).chain(keys.enc.windows(3)) {
                    let decimal = format!("{},{},{}", run[0], run[1], run[2]);
                    let hex = format!("{:02x}{:02x}{:02x}", run[0], run[1], run[2]);
                    let leaked = flat.contains(&decimal) || flat.to_lowercase().contains(&hex);
                    assert!(!leaked, "{suite:?}: key bytes {run:?} in {shown}");
                }
                assert!(shown.contains("<redacted>") || shown.contains("auth_len"));
            }
        }
    }

    fn endpoints(k: u64, w: u64) -> (Outbound<MemStable>, Inbound<MemStable>) {
        let keys = SaKeys::derive(b"shared-secret", b"a->b");
        let sa = SecurityAssociation::new(0x55, keys);
        (
            Outbound::new(sa.clone(), MemStable::new(), k),
            Inbound::new(sa, MemStable::new(), k, w),
        )
    }

    #[test]
    fn end_to_end_traffic() {
        let (mut tx, mut rx) = endpoints(25, 64);
        for i in 0..100u64 {
            let payload = format!("packet {i}");
            let wire = tx.protect(payload.as_bytes()).unwrap().unwrap();
            match rx.process(&wire).unwrap() {
                RxResult::Delivered { payload: got, seq } => {
                    assert_eq!(got, payload.as_bytes());
                    assert_eq!(seq.value(), i + 1);
                }
                other => panic!("packet {i}: {other:?}"),
            }
        }
    }

    #[test]
    fn payload_is_actually_encrypted() {
        let (mut tx, _) = endpoints(25, 64);
        let wire = tx.protect(b"supersecret").unwrap().unwrap();
        let haystack = wire.to_vec();
        let needle = b"supersecret";
        let found = haystack.windows(needle.len()).any(|w| w == needle);
        assert!(!found, "plaintext leaked onto the wire");
    }

    #[test]
    fn auth_only_suite_skips_encryption() {
        let keys = SaKeys::derive(b"s", b"d");
        let sa = SecurityAssociation::new(1, keys).with_suite(CryptoSuite::HmacSha256AuthOnly);
        let mut tx = Outbound::new(sa.clone(), MemStable::new(), 25);
        let mut rx = Inbound::new(sa, MemStable::new(), 25, 64);
        let wire = tx.protect(b"visible").unwrap().unwrap();
        assert!(wire.windows(7).any(|w| w == b"visible"));
        assert!(rx.process(&wire).unwrap().is_delivered());
    }

    #[test]
    fn replayed_packet_rejected_by_window_not_auth() {
        let (mut tx, mut rx) = endpoints(25, 64);
        let wire = tx.protect(b"x").unwrap().unwrap();
        assert!(rx.process(&wire).unwrap().is_delivered());
        match rx.process(&wire).unwrap() {
            RxResult::AntiReplay { outcome, seq } => {
                assert_eq!(outcome, RxOutcome::DiscardedDuplicate);
                assert_eq!(seq.value(), 1);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(rx.auth_failures(), 0, "replay authenticates fine");
    }

    #[test]
    fn forged_packet_rejected_by_auth() {
        let (mut tx, mut rx) = endpoints(25, 64);
        let wire = tx.protect(b"x").unwrap().unwrap();
        let mut forged = wire.to_vec();
        let n = forged.len();
        forged[n - 1] ^= 0xFF;
        assert!(rx.process(&Bytes::from(forged)).is_err());
        assert_eq!(rx.auth_failures(), 1);
    }

    #[test]
    fn foreign_spi_rejected() {
        let (mut tx, _) = endpoints(25, 64);
        let keys = SaKeys::derive(b"shared-secret", b"a->b");
        let other_sa = SecurityAssociation::new(0x99, keys);
        let mut other_rx = Inbound::new(other_sa, MemStable::new(), 25, 64);
        let wire = tx.protect(b"x").unwrap().unwrap();
        assert!(matches!(
            other_rx.process(&wire),
            Err(IpsecError::UnknownSa { spi: 0x55 })
        ));
    }

    #[test]
    fn receiver_reset_then_wakeup_blocks_all_replays() {
        let (mut tx, mut rx) = endpoints(10, 64);
        let mut recorded = Vec::new();
        for _ in 0..30 {
            let wire = tx.protect(b"data").unwrap().unwrap();
            recorded.push(wire.clone());
            rx.process(&wire).unwrap();
        }
        // Let the receiver's background save land, then crash it.
        rx.save_completed().unwrap();
        rx.reset();
        assert_eq!(rx.process(&recorded[0]).unwrap(), RxResult::DroppedDown);
        rx.wake_up().unwrap();
        // Full history replay: nothing delivered.
        for wire in &recorded {
            let r = rx.process(wire).unwrap();
            assert!(!r.is_delivered(), "replay accepted: {r:?}");
        }
        // Fresh traffic beyond the leap flows once the sender catches up.
        let edge = rx.seq_state().right_edge().value();
        for _ in 0..(2 * 10 + 5) {
            let wire = tx.protect(b"new").unwrap().unwrap();
            let _ = rx.process(&wire).unwrap();
        }
        assert!(
            rx.seq_state().right_edge().value() > edge,
            "traffic resumed past the leap"
        );
    }

    #[test]
    fn sender_reset_resumes_fresh_without_discards() {
        let (mut tx, mut rx) = endpoints(10, 128);
        let mut delivered = 0u64;
        let mut sent = 0u64;
        for round in 0..100u64 {
            if round == 50 {
                tx.save_completed().unwrap();
                tx.reset();
                assert!(tx.protect(b"down").unwrap().is_none());
                tx.wake_up().unwrap();
            }
            if let Some(wire) = tx.protect(b"payload").unwrap() {
                sent += 1;
                if rx.process(&wire).unwrap().is_delivered() {
                    delivered += 1;
                }
            }
        }
        assert_eq!(sent, delivered, "condition (i): no fresh loss");
    }

    #[test]
    fn buffered_packets_resolved_after_wakeup() {
        let (mut tx, mut rx) = endpoints(5, 64);
        for _ in 0..12 {
            let wire = tx.protect(b"pre").unwrap().unwrap();
            rx.process(&wire).unwrap();
        }
        rx.save_completed().unwrap();
        rx.reset();
        rx.begin_wakeup().unwrap();
        // Old replay + genuinely fresh packet arrive during the wake-up
        // SAVE. (Sender counter is ahead of the leaped edge? Ensure fresh:
        // push sender far forward first.)
        for _ in 0..30 {
            tx.protect(b"skip").unwrap();
        }
        let fresh = tx.protect(b"fresh").unwrap().unwrap();
        assert_eq!(rx.process(&fresh).unwrap(), RxResult::Buffered);
        let results = rx.finish_wakeup().unwrap();
        assert_eq!(results.len(), 1);
        assert!(results[0].is_delivered(), "{results:?}");
    }

    #[test]
    fn esn_stream_crosses_32bit_boundary() {
        // Start the sender near the 2^32 boundary by leaping it there:
        // simulate with a store that already holds a huge counter.
        use reset_stable::{SlotId, StableStore};
        let keys = SaKeys::derive(b"s", b"d");
        let sa = SecurityAssociation::new(3, keys);
        let mut store = MemStable::new();
        let start = (1u64 << 32) - 5;
        store.store(SlotId::sender(3), start).unwrap();
        let mut tx = Outbound::new(sa.clone(), store, 10);
        // Wake from "reset" to adopt the stored counter (+2K leap).
        tx.reset();
        let resumed = tx.wake_up().unwrap();
        assert!(resumed.value() > u32::MAX as u64 - 30);

        // The receiver's last durable edge trails the sender's by one
        // save interval (2K = 20), so its leap lands exactly at `start`
        // and the sender's resumed counter is strictly beyond it.
        let mut rx_store = MemStable::new();
        rx_store.store(SlotId::receiver(3), start - 20).unwrap();
        let mut rx = Inbound::new(sa, rx_store, 10, 64);
        rx.reset();
        rx.wake_up().unwrap();

        for i in 0..50u64 {
            let wire = tx.protect(format!("p{i}").as_bytes()).unwrap().unwrap();
            let r = rx.process(&wire).unwrap();
            assert!(r.is_delivered(), "packet {i} across boundary: {r:?}");
        }
        assert!(rx.seq_state().right_edge().value() > u32::MAX as u64);
    }

    #[test]
    fn exhausted_32bit_space_refuses_before_consuming_a_number() {
        // Regression: `protect` used to take the next sequence number and
        // only then fail to seal it, so every send past the end of a
        // 32-bit space burned a number (and a SAVE every `K`) for nothing.
        use reset_crypto::Backend;
        use reset_stable::{SlotId, StableStore};
        let k = 4;
        let edge = u64::from(u32::MAX);
        for esn in [false, true] {
            let sa = SecurityAssociation::new(9, SaKeys::derive(b"edge", b"d")).with_esn(esn);
            let oracle = sa.clone().with_backend(Backend::Scalar);
            let mut store = MemStable::new();
            store.store(SlotId::sender(9), edge - 2 * k - 11).unwrap();
            let mut tx = Outbound::new(sa, store, k);
            tx.reset();
            assert_eq!(tx.wake_up().unwrap().value(), edge - 11);
            // One look-ahead across the run, as the SADB lends it: frames
            // on both sides of 2^32 are drawn from it.
            let mut ahead = SealAhead::default();
            let mut send = |tx: &mut Outbound<MemStable>| {
                let seq = tx.seq_state().next_seq().value();
                let wire = tx.protect_ahead(&[0xE5; 64], &mut ahead).unwrap();
                let expect =
                    reset_wire::seal_frame(9, seq, &[0xE5; 64], oracle.cipher(), esn).unwrap();
                assert_eq!(wire, Some(expect), "esn {esn} seq {seq}");
            };
            while tx.seq_state().next_seq().value() <= edge {
                send(&mut tx);
            }
            if esn {
                for _ in 0..12 {
                    send(&mut tx);
                }
                assert_eq!(tx.seq_state().next_seq().value(), edge + 13);
                continue;
            }
            let state = |tx: &Outbound<MemStable>| {
                let seq = tx.seq_state();
                let stats = seq.stats();
                (
                    seq.next_seq(),
                    stats.sent,
                    stats.saves_issued,
                    seq.pending_save(),
                )
            };
            let (before, cached) = (state(&tx), format!("{ahead:?}"));
            for _ in 0..2 * k {
                assert!(matches!(
                    tx.protect_ahead(&[0xE5; 64], &mut ahead),
                    Err(IpsecError::Wire(WireError::SeqOverflow))
                ));
                assert_eq!(state(&tx), before);
                assert_eq!(format!("{ahead:?}"), cached);
            }
            // Down is still "nothing can be sent", not an error.
            tx.reset();
            assert!(tx.protect(b"down").unwrap().is_none());
        }
    }

    /// Drains `wires` cut into batches of `chunk` frames.
    fn drain_chunked(rx: &mut Inbound<MemStable>, wires: &[Bytes], chunk: usize) -> Vec<RxResult> {
        wires
            .chunks(chunk)
            .flat_map(|c| rx.process_batch(c).unwrap())
            .collect()
    }

    #[test]
    fn process_batch_matches_sequential_process() {
        // Partition invariance: the same stream cut into batches of one
        // (the sequential receiver), seven, or drained whole must yield
        // identical results and auth-failure counts.
        let (mut tx, rx) = endpoints(25, 128);
        let mut wires: Vec<Bytes> = Vec::new();
        for i in 0..60u64 {
            wires.push(tx.protect(format!("m{i}").as_bytes()).unwrap().unwrap());
        }
        // Mix in replays and a forgery.
        wires.push(wires[3].clone());
        wires.push(wires[10].clone());
        let mut forged = wires[5].to_vec();
        forged[HEADER_LEN] ^= 0xAA;
        wires.push(Bytes::from(forged));

        let mut rx_whole = rx.clone();
        let whole = rx_whole.process_batch(&wires).unwrap();
        assert_eq!(whole.len(), wires.len());
        assert_eq!(rx_whole.auth_failures(), 1, "exactly the forgery");
        for chunk in [1, 7] {
            let mut rx_cut = rx.clone();
            assert_eq!(
                drain_chunked(&mut rx_cut, &wires, chunk),
                whole,
                "chunk {chunk}"
            );
            assert_eq!(rx_cut.auth_failures(), rx_whole.auth_failures());
        }
    }

    #[test]
    fn batch_payloads_share_one_arena() {
        let (mut tx, mut rx) = endpoints(25, 128);
        let wires: Vec<Bytes> = (0..8u64)
            .map(|i| {
                tx.protect(format!("payload {i}").as_bytes())
                    .unwrap()
                    .unwrap()
            })
            .collect();
        let results = rx.process_batch(&wires).unwrap();
        let payloads: Vec<&Bytes> = results
            .iter()
            .map(|r| match r {
                RxResult::Delivered { payload, .. } => payload,
                other => panic!("{other:?}"),
            })
            .collect();
        // All delivered payloads point into one contiguous arena.
        let base = payloads[0].as_ptr() as usize;
        let mut offset = 0usize;
        for (i, p) in payloads.iter().enumerate() {
            assert_eq!(p.as_ptr() as usize, base + offset, "payload {i}");
            assert_eq!(&p[..], format!("payload {i}").as_bytes());
            offset += p.len();
        }
    }

    #[test]
    fn steady_state_recycles_the_arena() {
        // The arena belongs to the SADB's drain scratch: when the
        // consumer drops a drain's payloads before the next one, the same
        // allocation serves every drain, whichever SA the frames are for.
        // (The standalone `Inbound` verbs use a scratch local to the
        // call, so there is nothing to recycle there.)
        let mut db: crate::Sadb<MemStable> = crate::Sadb::new();
        for spi in [0x55u32, 0x56] {
            let sa = SecurityAssociation::new(spi, SaKeys::derive(b"arena", &spi.to_be_bytes()));
            db.install_outbound(sa.clone(), MemStable::new(), 25);
            db.install_inbound(sa, MemStable::new(), 25, 128);
        }
        let arena_of = |db: &mut crate::Sadb<MemStable>, spi: u32, fill: u8| {
            let wire = db.protect(spi, &[fill; 64]).unwrap().unwrap();
            match db.process_batch(&[wire]).unwrap().pop() {
                Some(RxResult::Delivered { payload, .. }) => {
                    assert_eq!(&payload[..], &[fill; 64]);
                    payload.as_ptr() as usize
                }
                other => panic!("{other:?}"),
            } // payload dropped here
        };
        // Warm-up packet establishes the arena.
        let first = arena_of(&mut db, 0x55, 0);
        for i in 0..32u8 {
            let spi = 0x55 + u32::from(i % 2);
            assert_eq!(arena_of(&mut db, spi, i), first, "arena was reallocated");
        }
        // A retained payload pins the arena: the next drain gets a fresh
        // one and the retained bytes stay intact.
        let wire = db.protect(0x55, b"keep me").unwrap().unwrap();
        let kept = db.process_batch(&[wire]).unwrap();
        let RxResult::Delivered { payload: kept, .. } = &kept[0] else {
            panic!("{kept:?}");
        };
        assert_eq!(kept.as_ptr() as usize, first);
        assert_ne!(
            arena_of(&mut db, 0x56, 9),
            first,
            "a shared arena was overwritten"
        );
        assert_eq!(&kept[..], b"keep me");
    }

    #[test]
    fn verify_groups_fill_every_backends_lanes() {
        // A group that is not a whole number of lane groups would send a
        // partial tail down the scalar path in the middle of a long run.
        for backend in crate::Backend::ALL {
            assert_eq!(VERIFY_GROUP % backend.lanes(), 0, "{backend}");
        }
        // Longer runs than one group verify across the group boundary.
        let (mut tx, mut rx) = endpoints(25, 128);
        let mut wires: Vec<Bytes> = (0..2 * VERIFY_GROUP + 3)
            .map(|i| tx.protect(format!("g{i}").as_bytes()).unwrap().unwrap())
            .collect();
        for at in [VERIFY_GROUP - 1, VERIFY_GROUP, 2 * VERIFY_GROUP + 2] {
            let mut forged = wires[at].to_vec();
            *forged.last_mut().unwrap() ^= 1;
            wires[at] = Bytes::from(forged);
        }
        let results = rx.process_batch(&wires).unwrap();
        for (i, r) in results.iter().enumerate() {
            let forged = [VERIFY_GROUP - 1, VERIFY_GROUP, 2 * VERIFY_GROUP + 2].contains(&i);
            assert_eq!(r.is_delivered(), !forged, "frame {i}: {r:?}");
        }
        assert_eq!(rx.auth_failures(), 3);
    }

    #[test]
    fn auth_only_process_is_zero_copy() {
        let keys = SaKeys::derive(b"s", b"d");
        let sa = SecurityAssociation::new(4, keys).with_suite(CryptoSuite::HmacSha256AuthOnly);
        let mut tx = Outbound::new(sa.clone(), MemStable::new(), 25);
        let mut rx = Inbound::new(sa, MemStable::new(), 25, 64);
        let wire = tx.protect(b"view me in place").unwrap().unwrap();
        match rx.process(&wire).unwrap() {
            RxResult::Delivered { payload, .. } => {
                let wire_range = wire.as_ptr() as usize..wire.as_ptr() as usize + wire.len();
                assert!(
                    wire_range.contains(&(payload.as_ptr() as usize)),
                    "payload must be a slice of the input"
                );
                assert_eq!(&payload[..], b"view me in place");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn every_suite_runs_end_to_end_with_batch_parity() {
        for &suite in CryptoSuite::ALL {
            let keys = SaKeys::derive(b"suite-e2e", b"d");
            let sa = SecurityAssociation::new(0x61, keys).with_suite(suite);
            let mut tx = Outbound::new(sa.clone(), MemStable::new(), 25);
            let rx = Inbound::new(sa, MemStable::new(), 25, 128);
            let mut wires: Vec<Bytes> = (0..40u64)
                .map(|i| tx.protect(format!("s{i}").as_bytes()).unwrap().unwrap())
                .collect();
            wires.push(wires[2].clone()); // replay
            let mut forged = wires[5].to_vec();
            let n = forged.len();
            forged[n - 1] ^= 0x10; // tag corruption
            wires.push(Bytes::from(forged));

            let mut rx_whole = rx.clone();
            let whole = rx_whole.process_batch(&wires).unwrap();
            for (i, r) in whole[..40].iter().enumerate() {
                match r {
                    RxResult::Delivered { payload, seq } => {
                        assert_eq!(&payload[..], format!("s{i}").as_bytes(), "{suite:?}");
                        assert_eq!(seq.value(), i as u64 + 1, "{suite:?}");
                    }
                    other => panic!("{suite:?} packet {i}: {other:?}"),
                }
            }
            assert!(
                matches!(whole[40], RxResult::AntiReplay { .. }),
                "{suite:?}"
            );
            assert_eq!(
                whole[41],
                RxResult::Rejected(RxReject::Wire(WireError::IcvMismatch)),
                "{suite:?}"
            );
            assert_eq!(
                rx_whole.auth_failures(),
                1,
                "{suite:?}: exactly the forgery"
            );
            // Batch parity: cutting the stream differently changes nothing.
            for chunk in [1, 7] {
                let mut rx_cut = rx.clone();
                assert_eq!(
                    drain_chunked(&mut rx_cut, &wires, chunk),
                    whole,
                    "{suite:?} chunk {chunk}"
                );
                assert_eq!(rx_cut.auth_failures(), 1, "{suite:?}");
            }
        }
    }

    #[test]
    fn aead_frames_are_longer_but_confidential() {
        let keys = SaKeys::derive(b"aead", b"d");
        let sa = SecurityAssociation::new(0x62, keys).with_suite(CryptoSuite::ChaCha20Poly1305);
        let mut tx = Outbound::new(sa.clone(), MemStable::new(), 25);
        let mut rx = Inbound::new(sa, MemStable::new(), 25, 64);
        let wire = tx.protect(b"supersecret").unwrap().unwrap();
        // 16-byte Poly1305 tag instead of the 12-byte HMAC ICV.
        assert_eq!(wire.len(), HEADER_LEN + b"supersecret".len() + 16);
        assert!(!wire.windows(11).any(|w| w == b"supersecret"));
        match rx.process(&wire).unwrap() {
            RxResult::Delivered { payload, seq } => {
                assert_eq!(&payload[..], b"supersecret");
                assert_eq!(seq.value(), 1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn frames_from_a_different_suite_fail_authentication() {
        // Same keys, different negotiated suite: every frame must be
        // rejected by the ICV check, not misparsed.
        let keys = SaKeys::derive(b"cross", b"d");
        let legacy = SecurityAssociation::new(0x63, keys.clone())
            .with_suite(CryptoSuite::HmacSha256WithKeystream);
        let aead = SecurityAssociation::new(0x63, keys).with_suite(CryptoSuite::ChaCha20Poly1305);
        let mut tx_legacy = Outbound::new(legacy.clone(), MemStable::new(), 25);
        let mut tx_aead = Outbound::new(aead.clone(), MemStable::new(), 25);
        let mut rx_legacy = Inbound::new(legacy, MemStable::new(), 25, 64);
        let mut rx_aead = Inbound::new(aead, MemStable::new(), 25, 64);
        for _ in 0..5 {
            let from_legacy = tx_legacy.protect(b"legacy frame").unwrap().unwrap();
            let from_aead = tx_aead.protect(b"aead frame").unwrap().unwrap();
            assert!(rx_aead.process(&from_legacy).is_err(), "stale-suite frame");
            assert!(rx_legacy.process(&from_aead).is_err(), "future-suite frame");
            assert!(rx_legacy.process(&from_legacy).unwrap().is_delivered());
            assert!(rx_aead.process(&from_aead).unwrap().is_delivered());
        }
        assert_eq!(rx_aead.auth_failures(), 5);
        assert_eq!(rx_legacy.auth_failures(), 5);
    }

    #[test]
    fn batch_during_wakeup_buffers_then_resolves() {
        let (mut tx, mut rx) = endpoints(5, 64);
        for _ in 0..12 {
            let wire = tx.protect(b"pre").unwrap().unwrap();
            rx.process(&wire).unwrap();
        }
        rx.save_completed().unwrap();
        rx.reset();
        rx.begin_wakeup().unwrap();
        for _ in 0..30 {
            tx.protect(b"skip").unwrap();
        }
        let fresh: Vec<Bytes> = (0..3)
            .map(|_| tx.protect(b"fresh").unwrap().unwrap())
            .collect();
        let during = rx.process_batch(&fresh).unwrap();
        assert!(during.iter().all(|r| *r == RxResult::Buffered));
        let resolved = rx.finish_wakeup().unwrap();
        assert_eq!(resolved.len(), 3);
        assert!(resolved.iter().all(|r| r.is_delivered()), "{resolved:?}");
    }

    #[test]
    fn wakeup_packet_buffer_is_bounded() {
        // Regression: pre-fix code buffered every frame arriving during
        // Waking without bound — a mid-wake-up frame flood was an OOM
        // vector. The cap drops overflow as DroppedDown.
        let (mut tx, mut rx) = endpoints(5, 32);
        rx.set_wakeup_buffer(4);
        assert_eq!(rx.wakeup_buffer(), 4);
        let wire = tx.protect(b"pre").unwrap().unwrap();
        rx.process(&wire).unwrap();
        rx.reset();
        rx.begin_wakeup().unwrap();
        // Push the sender past the leaped edge so buffered frames are
        // genuinely fresh.
        for _ in 0..20 {
            tx.protect(b"skip").unwrap();
        }
        let flood: Vec<Bytes> = (0..10)
            .map(|_| tx.protect(b"flood").unwrap().unwrap())
            .collect();
        for (i, wire) in flood.iter().enumerate() {
            let want = if i < 4 {
                RxResult::Buffered
            } else {
                RxResult::DroppedDown
            };
            assert_eq!(rx.process(wire).unwrap(), want, "frame {i}");
        }
        let resolved = rx.finish_wakeup().unwrap();
        assert_eq!(resolved.len(), 4, "only the capped buffer is classified");
        assert!(resolved.iter().all(|r| r.is_delivered()), "{resolved:?}");

        // The batch path honors the same cap.
        rx.reset();
        rx.begin_wakeup().unwrap();
        let batch: Vec<Bytes> = (0..6)
            .map(|_| tx.protect(b"batch").unwrap().unwrap())
            .collect();
        let during = rx.process_batch(&batch).unwrap();
        assert_eq!(
            during.iter().filter(|r| **r == RxResult::Buffered).count(),
            4
        );
        assert_eq!(
            during
                .iter()
                .filter(|r| **r == RxResult::DroppedDown)
                .count(),
            2
        );
    }
}
