//! The one typed error of the public API (PR 5 satellite: replaces
//! `panic!`/`String` returns at crate boundaries).
//!
//! Every fallible entry point of the facade — request validation, the
//! service protocol, the worker pool, artifact validation, the CLI — returns
//! this enum. Variants map one-to-one onto distinct CLI exit codes so shell
//! callers can branch on failure class without parsing messages.

use std::fmt;

/// Failure classes of the PrimePar public API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Bad request configuration: unknown model, zero batch, missing flag
    /// value, unknown subcommand argument…
    Config(String),
    /// Unsatisfiable cluster topology: non-power-of-two device count, empty
    /// partition space for the cluster size…
    Topology(String),
    /// Malformed service protocol frame or artifact document.
    Protocol(String),
    /// The request was cancelled or its deadline expired before completion.
    Cancelled(String),
    /// Everything else: filesystem errors, a panicked worker, a dropped
    /// channel.
    Internal(String),
}

impl Error {
    /// A [`Error::Config`] with the given message.
    pub fn config(msg: impl Into<String>) -> Self {
        Error::Config(msg.into())
    }

    /// A [`Error::Topology`] with the given message.
    pub fn topology(msg: impl Into<String>) -> Self {
        Error::Topology(msg.into())
    }

    /// A [`Error::Protocol`] with the given message.
    pub fn protocol(msg: impl Into<String>) -> Self {
        Error::Protocol(msg.into())
    }

    /// A [`Error::Cancelled`] with the given message.
    pub fn cancelled(msg: impl Into<String>) -> Self {
        Error::Cancelled(msg.into())
    }

    /// An [`Error::Internal`] with the given message.
    pub fn internal(msg: impl Into<String>) -> Self {
        Error::Internal(msg.into())
    }

    /// The machine-readable failure class, as carried in protocol error
    /// frames.
    pub fn kind(&self) -> &'static str {
        match self {
            Error::Config(_) => "config",
            Error::Topology(_) => "topology",
            Error::Protocol(_) => "protocol",
            Error::Cancelled(_) => "cancelled",
            Error::Internal(_) => "internal",
        }
    }

    /// The bare message, without the kind prefix [`Display`](fmt::Display)
    /// adds.
    pub fn message(&self) -> &str {
        match self {
            Error::Config(m)
            | Error::Topology(m)
            | Error::Protocol(m)
            | Error::Cancelled(m)
            | Error::Internal(m) => m,
        }
    }

    /// The CLI exit code of this failure class (success is 0; 1 is reserved
    /// for the legacy undifferentiated failure).
    pub fn exit_code(&self) -> u8 {
        match self {
            Error::Config(_) => 2,
            Error::Topology(_) => 3,
            Error::Protocol(_) => 4,
            Error::Cancelled(_) => 5,
            Error::Internal(_) => 6,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind(), self.message())
    }
}

impl std::error::Error for Error {}

/// A frame or artifact that fails to read is a [`Error::Protocol`].
impl From<primepar_obs::SchemaError> for Error {
    fn from(e: primepar_obs::SchemaError) -> Self {
        Error::Protocol(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_codes_and_display_line_up() {
        let cases = [
            (Error::config("bad model"), "config", 2),
            (Error::topology("7 devices"), "topology", 3),
            (Error::protocol("bad frame"), "protocol", 4),
            (Error::cancelled("deadline"), "cancelled", 5),
            (Error::internal("io"), "internal", 6),
        ];
        let mut codes = std::collections::HashSet::new();
        for (err, kind, code) in cases {
            assert_eq!(err.kind(), kind);
            assert_eq!(err.exit_code(), code);
            assert!(err.to_string().starts_with(kind));
            assert!(err.to_string().contains(err.message()));
            assert!(codes.insert(code), "exit codes must be distinct");
        }
    }

    #[test]
    fn implements_std_error() {
        fn take(_: &dyn std::error::Error) {}
        take(&Error::config("x"));
    }
}
