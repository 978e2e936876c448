//! Workspace-wide error type.

use std::fmt;

pub type Result<T> = std::result::Result<T, Error>;

/// Unified error enum. Kept small and explicit: database substrates report
/// structural corruption distinctly from user-level type/parse problems so
/// tests can assert on the failure class.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// Malformed literal (decimal/date parse failures etc.).
    Parse(String),
    /// Type mismatch at runtime (e.g. comparing a date to a string column).
    Type(String),
    /// Arithmetic fault (division by zero, overflow).
    Arithmetic(String),
    /// Structural corruption: bad page checksums, broken record chains.
    Corruption(String),
    /// Referenced object (page, slice, table, index) does not exist.
    NotFound(String),
    /// Operation rejected in the current state (e.g. write in a read-only
    /// transaction, descriptor/page version no longer retained).
    InvalidState(String),
    /// The request is well-formed but outside what the engine serves
    /// (e.g. a retired wire request kind).
    Unsupported(String),
    /// Catch-all for internal invariant breaks; always a bug.
    Internal(String),
    /// The node (or one of its resource pools) is at capacity and shed
    /// the request instead of queueing it. Always retryable: nothing was
    /// executed, and capacity frees up as in-flight work drains.
    Overloaded(String),
    /// The query's deadline budget expired before the read path could
    /// complete (browned-out store, exhausted retries). The partial work
    /// is discarded; retrying with a fresh budget is safe.
    DeadlineExceeded(String),
    /// Static verification rejected the plan/program before execution:
    /// the message carries the verifier's rendered diagnostics (kind,
    /// plan-path location, detail — one per line). Raised by the
    /// `taurus-verify` pre-execution gate instead of letting a malformed
    /// plan surface as an `Internal` invariant break mid-scan.
    Verify(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Parse(m) => write!(f, "parse error: {m}"),
            Error::Type(m) => write!(f, "type error: {m}"),
            Error::Arithmetic(m) => write!(f, "arithmetic error: {m}"),
            Error::Corruption(m) => write!(f, "corruption: {m}"),
            Error::NotFound(m) => write!(f, "not found: {m}"),
            Error::InvalidState(m) => write!(f, "invalid state: {m}"),
            Error::Unsupported(m) => write!(f, "unsupported: {m}"),
            Error::Internal(m) => write!(f, "internal error: {m}"),
            Error::Overloaded(m) => write!(f, "overloaded: {m}"),
            Error::DeadlineExceeded(m) => write!(f, "deadline exceeded: {m}"),
            Error::Verify(m) => write!(f, "verification failed: {m}"),
        }
    }
}

impl std::error::Error for Error {}

/// The message a panic carried, from the payload `catch_unwind` or a
/// thread join hands back: every thread that turns a panic into an
/// [`Error::Internal`] reports it through here.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_class_and_message() {
        let e = Error::Corruption("bad checksum on 3:7".into());
        assert_eq!(e.to_string(), "corruption: bad checksum on 3:7");
    }

    #[test]
    fn panic_message_reads_str_and_string_payloads() {
        let caught = |f: fn()| std::panic::catch_unwind(f).unwrap_err();
        assert_eq!(panic_message(&*caught(|| panic!("static"))), "static");
        assert_eq!(panic_message(&*caught(|| panic!("row {}", 7))), "row 7");
        let other = std::panic::catch_unwind(|| std::panic::panic_any(7u8)).unwrap_err();
        assert_eq!(panic_message(&*other), "non-string panic payload");
    }
}
