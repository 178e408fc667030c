//! Graceful-degradation bookkeeping: why variants were quarantined and
//! what the runtime did to keep the launch's output exact.
//!
//! The degradation ladder, in escalation order:
//!
//! 1. **retry** — a transient launch error is retried with bounded
//!    exponential backoff ([`crate::RuntimeConfig::max_launch_retries`]);
//! 2. **deadline discard** — a variant whose profiling measurement blows
//!    the per-launch deadline is dropped from selection
//!    ([`crate::RuntimeConfig::profile_deadline_factor`]);
//! 3. **quarantine** — a variant that failed permanently, hung, or
//!    produced wrong output is excluded from this and every later launch
//!    of the signature;
//! 4. **fallback** — selection, the eager default and the selection cache
//!    only ever consider non-quarantined variants;
//! 5. **typed error** — with every variant quarantined the launch returns
//!    [`crate::DyselError::AllVariantsFaulted`] and the user buffers are
//!    restored untouched.

use std::fmt;

use dysel_device::Cycles;
use dysel_kernel::VariantId;

// Fault *injection* lives in `dysel-device` (faults are device behaviour);
// this re-export makes `dysel-core` the one user-facing home for all
// fault-handling types, so callers never import `dysel_device` directly.
pub use dysel_device::{
    FaultKind, FaultPlan, FaultRule, InjectedFault, PlanParseError, DEFAULT_HANG_FACTOR,
};

/// Why a variant was excluded from selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QuarantineReason {
    /// Its launches kept failing after the configured retries.
    LaunchFailed,
    /// Its profiling measurement exceeded the per-launch deadline.
    DeadlineExceeded,
    /// Output validation caught it writing different bits than its peers.
    WrongOutput,
    /// The trace-replay sanitizer observed cross-group write overlap from a
    /// variant whose metadata declares disjoint outputs — its IR lied to
    /// the static verifier.
    MetadataMismatch,
}

impl fmt::Display for QuarantineReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            QuarantineReason::LaunchFailed => "launch-failed",
            QuarantineReason::DeadlineExceeded => "deadline-exceeded",
            QuarantineReason::WrongOutput => "wrong-output",
            QuarantineReason::MetadataMismatch => "metadata-mismatch",
        })
    }
}

/// What the degradation machinery saw and did during one launch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Launch failures observed (including each failed retry).
    pub launch_errors: u64,
    /// Retries issued for transient launch failures.
    pub retries: u64,
    /// Variants dropped because their measurement blew the deadline. A
    /// cooperative preemption counts here too: the budget subsystem is the
    /// deadline rung of the ladder enforced *during* the launch instead of
    /// after it.
    pub deadline_discards: u64,
    /// Launches cooperatively preempted by the cycle-budget subsystem
    /// before completing their slice.
    pub preemptions: u64,
    /// Work-groups the preempted launches executed before stopping —
    /// always short of their slices' totals, which is the point.
    pub preempted_groups: u64,
    /// Priced cycles the preempted launches spent before stopping; each
    /// launch's share is bounded by its budget.
    pub preempted_cycles: Cycles,
    /// Variants caught by output validation (cross-check or consensus).
    pub validation_failures: u64,
    /// Extra launches issued by output validation.
    pub validation_launches: u64,
    /// Productive profiling slices re-executed with the winner because a
    /// faulted variant left them unwritten or corrupt.
    pub repaired_slices: u64,
    /// Workload units covered by those repairs.
    pub repaired_units: u64,
    /// Variants quarantined during this launch, in quarantine order.
    pub quarantined: Vec<(VariantId, QuarantineReason)>,
}

impl FaultReport {
    /// True when the launch saw no fault at all — the healthy path.
    /// Validation launches alone do not count: they are the price of
    /// having output validation enabled, not a fault.
    pub fn is_clean(&self) -> bool {
        let FaultReport {
            launch_errors,
            retries,
            deadline_discards,
            preemptions,
            preempted_groups,
            preempted_cycles,
            validation_failures,
            validation_launches: _,
            repaired_slices,
            repaired_units,
            quarantined,
        } = self;
        *launch_errors == 0
            && *retries == 0
            && *deadline_discards == 0
            && *preemptions == 0
            && *preempted_groups == 0
            && *preempted_cycles == Cycles::ZERO
            && *validation_failures == 0
            && *repaired_slices == 0
            && *repaired_units == 0
            && quarantined.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_means_default() {
        assert!(FaultReport::default().is_clean());
        let r = FaultReport {
            retries: 1,
            ..FaultReport::default()
        };
        assert!(!r.is_clean());
    }

    #[test]
    fn reasons_display() {
        assert_eq!(QuarantineReason::LaunchFailed.to_string(), "launch-failed");
        assert_eq!(
            QuarantineReason::DeadlineExceeded.to_string(),
            "deadline-exceeded"
        );
        assert_eq!(QuarantineReason::WrongOutput.to_string(), "wrong-output");
        assert_eq!(
            QuarantineReason::MetadataMismatch.to_string(),
            "metadata-mismatch"
        );
    }
}
