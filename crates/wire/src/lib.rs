//! # reset-wire — ESP-style packet formats
//!
//! The messages `msg(s)` of the paper become authenticated packets here:
//! an SPI identifying the security association, the sequence number the
//! anti-replay window reasons about, a payload, and an HMAC ICV. The ICV
//! is what limits the adversary to *replaying* recorded packets — the
//! exact threat model of the paper — since forged or modified packets
//! fail authentication before the window is ever consulted.
//!
//! * [`seal_frame`] / [`seal_frame_into`] — encode + authenticate under
//!   a [`reset_crypto::CipherSuite`] (fresh or caller-owned buffer);
//!   both are [`seal_frame_ahead`], the one sealing body, over a
//!   call-local look-ahead.
//! * [`verify_frame_with`] — framing + ICV check without touching the
//!   payload; [`open_frame`] — verify + decrypt into an [`EspPacket`].
//! * [`peek_spi`] / [`spi_shard`] — the pre-crypto demultiplexing step.
//! * [`infer_esn`] — RFC 4304 extended sequence numbers, approximating
//!   the paper's unbounded counters on a 32-bit wire field.
//!
//! There is one codec tier. It dispatches all bulk crypto through the
//! suite it is handed, so the multi-lane backend the suite was
//! constructed with ([`reset_crypto::Backend`]) applies transparently:
//! `open_frame`'s decrypt uses the same-key multi-block lane mode on
//! large payloads, and the SA layer's batched receive path fans whole
//! NIC drains into `verify_batch`/`decrypt_batch`. See the repo-level
//! `ARCHITECTURE.md` for how wire sits between the crypto and ipsec
//! layers.
//!
//! # Examples
//!
//! ```
//! use bytes::Bytes;
//! use reset_crypto::ChaCha20Poly1305Suite;
//! use reset_wire::{open_frame, seal_frame, WireError};
//!
//! let suite = ChaCha20Poly1305Suite::new([0x5a; 32]);
//! let wire = seal_frame(0xABCD, 1, b"first packet", &suite, false)?;
//!
//! // The adversary can replay these bytes verbatim...
//! let replayed = open_frame(&wire, &suite, None)?;
//! assert_eq!(replayed.seq_lo, 1); // ...and they verify again:
//! // only the anti-replay window (crates/core) detects the replay.
//!
//! // But the adversary cannot alter them:
//! let mut forged = wire.to_vec();
//! forged[4] ^= 0xFF; // bump the sequence number
//! assert_eq!(
//!     open_frame(&Bytes::from(forged), &suite, None),
//!     Err(WireError::IcvMismatch)
//! );
//! # Ok::<(), WireError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod esn;
mod esp;

pub use error::WireError;
pub use esn::infer_esn;
pub use esp::{
    check_frame_length, esn_seq, frame_overhead, open_frame, peek_spi, seal_frame,
    seal_frame_ahead, seal_frame_into, spi_shard, verify_frame_with, EspPacket, HEADER_LEN,
};
