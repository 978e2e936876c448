//! The stable error-code table: `taurus_common::Error` ⇄ wire codes.
//!
//! One table, one exhaustive `match` per direction — adding an `Error`
//! variant fails **this crate's build** (non-exhaustive match), never a
//! deployed client. Only the variant's *inner message* crosses the wire
//! (the same text `Display` shows); `Debug` renderings, which leak Rust
//! type structure and are not a stable format, never do.

use taurus_common::Error;

/// The wire code for an error variant. Codes are a published contract:
/// append-only, never renumbered. Code 7 (`NameResolution`, the retired
/// query builder's name errors) stays reserved: SQL reports names as a
/// positioned `Parse` error, and a 7 from the wire decodes as an unknown
/// code.
pub fn error_code(e: &Error) -> u16 {
    match e {
        Error::Parse(_) => 1,
        Error::Type(_) => 2,
        Error::Arithmetic(_) => 3,
        Error::Corruption(_) => 4,
        Error::NotFound(_) => 5,
        Error::InvalidState(_) => 6,
        Error::Unsupported(_) => 8,
        Error::Internal(_) => 9,
        Error::Overloaded(_) => 10,
        Error::DeadlineExceeded(_) => 11,
        Error::Verify(_) => 12,
    }
}

/// Is a wire code worth an automatic client retry? `Overloaded` (10) and
/// `DeadlineExceeded` (11) both mean "nothing committed, capacity/time
/// ran out" — a fresh attempt is safe and often succeeds once load or
/// the brownout passes. Everything else is deterministic: retrying a
/// parse error or a missing table yields the same failure.
pub fn is_retryable(code: u16) -> bool {
    matches!(code, 10 | 11)
}

/// Split an error into `(code, client-safe message)` for an error frame.
pub fn encode_error(e: &Error) -> (u16, String) {
    let m = match e {
        Error::Parse(m)
        | Error::Type(m)
        | Error::Arithmetic(m)
        | Error::Corruption(m)
        | Error::NotFound(m)
        | Error::InvalidState(m)
        | Error::Unsupported(m)
        | Error::Internal(m)
        | Error::Overloaded(m)
        | Error::DeadlineExceeded(m)
        | Error::Verify(m) => m.clone(),
    };
    (error_code(e), m)
}

/// Rebuild a structured error from a wire `(code, message)` pair, so
/// client-side `matches!(err, Error::NotFound(_))` works exactly like
/// in-process. Unknown codes (a newer server) degrade to
/// [`Error::Internal`] with the code preserved in the message.
pub fn decode_error(code: u16, message: String) -> Error {
    match code {
        1 => Error::Parse(message),
        2 => Error::Type(message),
        3 => Error::Arithmetic(message),
        4 => Error::Corruption(message),
        5 => Error::NotFound(message),
        6 => Error::InvalidState(message),
        8 => Error::Unsupported(message),
        9 => Error::Internal(message),
        10 => Error::Overloaded(message),
        11 => Error::DeadlineExceeded(message),
        12 => Error::Verify(message),
        _ => Error::Internal(format!("unknown wire error code {code}: {message}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_variants() -> Vec<Error> {
        // One instance per variant; `error_code`'s exhaustive match is
        // what guarantees a new variant cannot be forgotten here without
        // the compiler flagging the table first.
        vec![
            Error::Parse("p".into()),
            Error::Type("t".into()),
            Error::Arithmetic("a".into()),
            Error::Corruption("c".into()),
            Error::NotFound("n".into()),
            Error::InvalidState("i".into()),
            Error::Unsupported("u".into()),
            Error::Internal("x".into()),
            Error::Overloaded("o".into()),
            Error::DeadlineExceeded("d".into()),
            Error::Verify("v".into()),
        ]
    }

    #[test]
    fn codes_are_stable_and_distinct() {
        let codes: Vec<u16> = all_variants().iter().map(error_code).collect();
        // Published contract — these exact numbers, in declaration order.
        // Append-only: codes 1–9 predate the governance variants and must
        // never shift under them; 7 is reserved.
        assert_eq!(codes[..8], [1, 2, 3, 4, 5, 6, 8, 9]);
        assert_eq!(codes, vec![1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12]);
        assert!(matches!(decode_error(7, "r".into()), Error::Internal(m) if m.contains("7")));
    }

    #[test]
    fn only_governance_codes_are_retryable() {
        for e in all_variants() {
            let code = error_code(&e);
            let expect = matches!(e, Error::Overloaded(_) | Error::DeadlineExceeded(_));
            assert_eq!(is_retryable(code), expect, "{e:?}");
        }
        assert!(!is_retryable(999));
    }

    #[test]
    fn every_variant_roundtrips() {
        for e in all_variants() {
            let (code, msg) = encode_error(&e);
            assert_eq!(decode_error(code, msg), e, "{e:?}");
        }
    }

    #[test]
    fn no_debug_leakage() {
        let e = Error::InvalidState("replica lag 12 exceeds max 4".into());
        let (_, msg) = encode_error(&e);
        // The message is the inner text, not `InvalidState("...")`.
        assert_eq!(msg, "replica lag 12 exceeds max 4");
        assert!(!msg.contains("InvalidState"));
        // And the client-side rendering matches in-process Display.
        let (code, msg) = encode_error(&e);
        assert_eq!(decode_error(code, msg).to_string(), e.to_string());
    }

    #[test]
    fn unknown_code_degrades_to_internal() {
        match decode_error(999, "future".into()) {
            Error::Internal(m) => assert!(m.contains("999") && m.contains("future")),
            other => panic!("{other:?}"),
        }
    }
}
