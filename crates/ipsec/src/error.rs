//! Error type for the IPsec substrate.

use std::error::Error;
use std::fmt;

use reset_stable::StableError;
use reset_wire::WireError;

/// Errors surfaced by SA management and the ESP pipeline.
#[derive(Debug)]
pub enum IpsecError {
    /// Packet framing or authentication failed (includes replayed bytes
    /// tampered with in flight).
    Wire(WireError),
    /// Persistent memory failed.
    Stable(StableError),
    /// No SA is installed for this SPI.
    UnknownSa {
        /// The SPI the packet named.
        spi: u32,
    },
    /// The SA exists but its lifetime is exhausted (RFC 2401 requires
    /// rekeying).
    LifetimeExpired {
        /// The affected SPI.
        spi: u32,
    },
    /// A [`ShardedGateway`](crate::ShardedGateway) worker job panicked.
    /// The panic is reported here instead of hanging or killing the
    /// caller; the shard's worker thread survives and keeps serving,
    /// with its state left exactly as the interrupted operation left it.
    WorkerPanicked {
        /// Index of the shard whose job panicked.
        shard: usize,
        /// The panic message, best-effort stringified.
        message: String,
    },
}

impl fmt::Display for IpsecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IpsecError::Wire(e) => write!(f, "wire layer: {e}"),
            IpsecError::Stable(e) => write!(f, "persistent memory: {e}"),
            IpsecError::UnknownSa { spi } => write!(f, "no SA for spi {spi:#x}"),
            IpsecError::LifetimeExpired { spi } => {
                write!(f, "SA lifetime expired for spi {spi:#x}")
            }
            IpsecError::WorkerPanicked { shard, message } => {
                write!(f, "shard {shard} worker job panicked: {message}")
            }
        }
    }
}

impl Error for IpsecError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            IpsecError::Wire(e) => Some(e),
            IpsecError::Stable(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WireError> for IpsecError {
    fn from(e: WireError) -> Self {
        IpsecError::Wire(e)
    }
}

impl From<StableError> for IpsecError {
    fn from(e: StableError) -> Self {
        IpsecError::Stable(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        assert!(IpsecError::UnknownSa { spi: 0xff }
            .to_string()
            .contains("0xff"));
        assert!(IpsecError::LifetimeExpired { spi: 0x10 }
            .to_string()
            .contains("expired"));
    }

    #[test]
    fn sources_chain() {
        let e = IpsecError::from(WireError::IcvMismatch);
        assert!(e.source().is_some());
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<IpsecError>();
    }
}
