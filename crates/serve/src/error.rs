//! Typed serving errors: every failure a checkpoint, request frame, or
//! embedding call can produce, surfaced as a value — the serving loop and
//! the corruption suite both rely on these paths never panicking.

use std::fmt;
use std::io;
use timedrl_tensor::TensorError;

/// Any error the serving stack can produce.
#[derive(Debug)]
pub enum ServeError {
    /// Underlying I/O failure (socket closed, file unreadable, ...).
    Io(io::Error),
    /// The model container failed validation (bad magic/version/kind,
    /// checksum mismatch, corrupt header, shape mismatch).
    BadModel(String),
    /// The model's backbone has no compiled execution plan (only the
    /// Transformer encoder/decoder backbones are compiled).
    UnsupportedEncoder(&'static str),
    /// A wire frame violated the protocol (bad length prefix, checksum
    /// mismatch, unknown tag, dimension mismatch, truncated payload).
    BadFrame(String),
    /// A request was well-formed but unservable (window shape differs from
    /// the model, batch exceeds the server cap).
    BadRequest(String),
    /// A tensor operation failed during execution — indicates a plan bug,
    /// surfaced instead of panicking the serving process.
    Exec(TensorError),
    /// An exactness-tier mismatch: a byte-exact comparison was requested
    /// against a response whose precision tag names another tier. The
    /// server only writes exact frames, but a frame read from outside the
    /// program may carry the retired relaxed tag (DESIGN.md §15), and such
    /// output is never byte-comparable with exact goldens.
    PrecisionMismatch {
        /// Tier the comparison baseline was produced under.
        expected: &'static str,
        /// Tier the response under test was produced under.
        actual: &'static str,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
            ServeError::BadModel(msg) => write!(f, "bad model container: {msg}"),
            ServeError::UnsupportedEncoder(name) => {
                write!(f, "no compiled plan for the {name} backbone")
            }
            ServeError::BadFrame(msg) => write!(f, "protocol violation: {msg}"),
            ServeError::BadRequest(msg) => write!(f, "unservable request: {msg}"),
            ServeError::Exec(e) => write!(f, "execution error: {e}"),
            ServeError::PrecisionMismatch { expected, actual } => write!(
                f,
                "precision mismatch: byte-exact comparison expects the {expected} tier, \
                 response was produced under the {actual} tier"
            ),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        // Container readers signal corruption as InvalidData, and a file
        // too short for even the container header as UnexpectedEof; both
        // are corrupt artifacts, distinct from transport failures.
        if matches!(e.kind(), io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof) {
            ServeError::BadModel(e.to_string())
        } else {
            ServeError::Io(e)
        }
    }
}

impl From<TensorError> for ServeError {
    fn from(e: TensorError) -> Self {
        ServeError::Exec(e)
    }
}

/// Serving result alias.
pub type Result<T> = std::result::Result<T, ServeError>;
