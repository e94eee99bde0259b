//! Error type for the Sentinel runtime.

use sentinel_dnn::ExecError;
use sentinel_mem::MemError;
use std::error::Error;
use std::fmt;

/// Errors from a Sentinel training run.
#[derive(Debug)]
#[non_exhaustive]
pub enum SentinelError {
    /// Execution failed (allocation, policy action, or a memory-level
    /// sanitizer violation surfaced by the executor).
    Exec(ExecError),
    /// A policy-level residency invariant was violated (e.g. a short-lived
    /// reserve-region tensor was migrated to slow memory).
    Invariant {
        /// Human-readable description of the broken invariant.
        detail: String,
    },
    /// The short-lived reservation consumed all of fast memory, leaving the
    /// interval solver a zero migration budget: every candidate plan would
    /// silently promote nothing (Eq. 1 can never hold with `S − RS = 0`).
    ZeroMigrationBudget {
        /// Usable fast-memory bytes `S` given to the solver.
        fast_bytes: u64,
        /// Short-lived reservation bytes `RS`; `>= fast_bytes` here.
        reserve_bytes: u64,
    },
}

impl fmt::Display for SentinelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SentinelError::Exec(e) => write!(f, "execution failed: {e}"),
            SentinelError::Invariant { detail } => {
                write!(f, "sentinel invariant violated: {detail}")
            }
            SentinelError::ZeroMigrationBudget { fast_bytes, reserve_bytes } => {
                write!(
                    f,
                    "zero migration budget: short-lived reservation ({reserve_bytes} B) \
                     consumes all usable fast memory ({fast_bytes} B), no interval plan \
                     can promote anything"
                )
            }
        }
    }
}

impl Error for SentinelError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SentinelError::Exec(e) => Some(e),
            SentinelError::Invariant { .. } | SentinelError::ZeroMigrationBudget { .. } => None,
        }
    }
}

impl From<ExecError> for SentinelError {
    fn from(e: ExecError) -> Self {
        SentinelError::Exec(e)
    }
}

impl From<MemError> for SentinelError {
    fn from(e: MemError) -> Self {
        SentinelError::Exec(ExecError::Mem(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_exec_and_mem_errors() {
        let e: SentinelError = MemError::NotMapped { page: 7 }.into();
        assert!(e.to_string().contains("page 7"));
        assert!(e.source().is_some());
    }

    #[test]
    fn invariant_display_carries_detail() {
        let e = SentinelError::Invariant { detail: "tensor t1 leaked".into() };
        assert!(e.to_string().contains("tensor t1 leaked"));
        assert!(e.source().is_none());
    }

    #[test]
    fn zero_budget_display_carries_both_sides() {
        let e = SentinelError::ZeroMigrationBudget { fast_bytes: 4096, reserve_bytes: 8192 };
        let text = e.to_string();
        assert!(text.contains("4096"), "{text}");
        assert!(text.contains("8192"), "{text}");
        assert!(e.source().is_none());
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SentinelError>();
    }
}
