//! Error types for CDR and GIOP parsing.

use std::error::Error;
use std::fmt;

/// Errors produced while decoding CDR values or GIOP messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GiopError {
    /// The buffer ended before the value was complete.
    Truncated {
        /// What was being decoded.
        what: &'static str,
        /// How many more bytes were needed.
        needed: usize,
        /// How many bytes remained.
        remaining: usize,
    },
    /// The first four bytes of a GIOP message were not `GIOP`.
    BadMagic([u8; 4]),
    /// A GIOP version this implementation does not speak.
    UnsupportedVersion {
        /// Major version found.
        major: u8,
        /// Minor version found.
        minor: u8,
    },
    /// An unknown message type octet in the GIOP header (including
    /// GIOP 1.1's `Fragment`, 7, which this implementation does not
    /// reassemble).
    UnknownMessageType(u8),
    /// The header's more-fragments flag is set: the message continues in
    /// `Fragment` messages, which this implementation does not reassemble.
    Fragmented,
    /// An enum discriminant outside the defined range.
    BadEnumValue {
        /// The enum being decoded.
        what: &'static str,
        /// The offending discriminant.
        value: u32,
    },
    /// A string was not valid UTF-8 or lacked its NUL terminator.
    BadString,
    /// A declared length exceeds the enclosing buffer (corrupt or hostile).
    LengthOverrun {
        /// What carried the bad length.
        what: &'static str,
        /// The declared length.
        declared: usize,
        /// The bytes actually available.
        available: usize,
    },
    /// A stringified IOR was malformed.
    BadStringifiedIor(&'static str),
    /// An object key did not follow this deployment's key convention.
    BadObjectKey,
}

impl fmt::Display for GiopError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GiopError::Truncated {
                what,
                needed,
                remaining,
            } => write!(
                f,
                "truncated {what}: needed {needed} more bytes, {remaining} remain"
            ),
            GiopError::BadMagic(m) => write!(f, "bad GIOP magic {m:?}"),
            GiopError::UnsupportedVersion { major, minor } => {
                write!(f, "unsupported GIOP version {major}.{minor}")
            }
            GiopError::UnknownMessageType(t) => write!(f, "unknown GIOP message type {t}"),
            GiopError::Fragmented => write!(f, "fragmented GIOP message (unsupported)"),
            GiopError::BadEnumValue { what, value } => {
                write!(f, "invalid {what} discriminant {value}")
            }
            GiopError::BadString => write!(f, "malformed CDR string"),
            GiopError::LengthOverrun {
                what,
                declared,
                available,
            } => write!(
                f,
                "{what} declares length {declared} but only {available} bytes available"
            ),
            GiopError::BadStringifiedIor(why) => write!(f, "malformed stringified IOR: {why}"),
            GiopError::BadObjectKey => write!(f, "object key does not match the FTDK convention"),
        }
    }
}

impl Error for GiopError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = GiopError::Truncated {
            what: "ulong",
            needed: 4,
            remaining: 1,
        };
        assert!(e.to_string().contains("ulong"));
        assert!(GiopError::BadMagic(*b"HTTP").to_string().contains("magic"));
        assert!(GiopError::UnsupportedVersion { major: 9, minor: 9 }
            .to_string()
            .contains("9.9"));
    }
}
