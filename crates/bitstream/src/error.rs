use std::error::Error;
use std::fmt;

use salus_fpga::FpgaError;

/// Errors from bitstream compilation, parsing and manipulation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BitstreamError {
    /// The netlist does not fit the partition's resource budget.
    ResourceOverflow {
        /// Which class overflowed ("LUT", "Register", "BRAM").
        class: &'static str,
    },
    /// A BRAM cell's initial contents exceed one BRAM's capacity.
    BramTooLarge {
        /// The offending cell's path.
        path: String,
        /// The byte size requested.
        bytes: usize,
    },
    /// The named cell does not exist in the placement map.
    UnknownCell(String),
    /// New contents for a manipulated cell exceed the original size.
    ManipulationTooLarge {
        /// Bytes available at the target location.
        available: usize,
        /// Bytes requested.
        requested: usize,
    },
    /// The loaded configuration does not decode as a logic image
    /// (e.g. the partition holds garbage or a foreign CL).
    UndecodableImage(&'static str),
    /// Two module instances share a hierarchical path.
    DuplicatePath(String),
    /// A stream handed to manipulation parses but is not laid out as
    /// the compiler emits it, so its cells cannot be located.
    NonCanonical(&'static str),
    /// An underlying device/wire-format error.
    Fpga(FpgaError),
}

impl fmt::Display for BitstreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BitstreamError::ResourceOverflow { class } => {
                write!(f, "netlist exceeds partition {class} budget")
            }
            BitstreamError::BramTooLarge { path, bytes } => {
                write!(f, "bram cell {path} too large ({bytes} bytes)")
            }
            BitstreamError::UnknownCell(path) => write!(f, "unknown cell: {path}"),
            BitstreamError::ManipulationTooLarge {
                available,
                requested,
            } => write!(
                f,
                "manipulation payload {requested} bytes exceeds cell capacity {available}"
            ),
            BitstreamError::UndecodableImage(what) => {
                write!(f, "configuration memory does not decode: {what}")
            }
            BitstreamError::DuplicatePath(path) => write!(f, "duplicate module path: {path}"),
            BitstreamError::NonCanonical(what) => write!(f, "non-canonical stream: {what}"),
            BitstreamError::Fpga(e) => write!(f, "fpga error: {e}"),
        }
    }
}

impl Error for BitstreamError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            BitstreamError::Fpga(e) => Some(e),
            _ => None,
        }
    }
}

#[doc(hidden)]
impl From<FpgaError> for BitstreamError {
    fn from(e: FpgaError) -> Self {
        BitstreamError::Fpga(e)
    }
}
