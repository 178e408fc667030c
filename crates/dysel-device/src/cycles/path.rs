//! Runtime selection between the scalar reference pricing path and the
//! batched fast path.
//!
//! Both paths are required to produce **bit-identical** timelines (see
//! DESIGN.md §4.15): integer-count trace reductions (segment counts,
//! distinct lines, conflict degrees) may be computed by any algorithm as
//! long as the counts agree. The CPU cost sink sums integer half-cycles,
//! so only the order of its cache accesses is bound; the GPU cost sink
//! sums `f64` cycles, and every one of its `f64` accumulations keeps the
//! scalar path's exact operation order. The switch therefore exists for
//! two reasons only: to keep the simple scalar code as the executable
//! reference that the `pricing_diff` differential suite compares against,
//! and as an escape hatch (`DYSEL_PRICING=scalar`) if a platform ever
//! miscompiles the chunked helpers.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Which implementation the device cost sinks use to reduce traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PricingPath {
    /// Element-by-element reference implementation (allocating, simple).
    Scalar,
    /// Chunked fixed-width-lane implementation (allocation-free hot path).
    Batched,
}

/// Process-wide override; 0 = unset (fall back to the environment).
static OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// `DYSEL_PRICING` is read once; later environment changes are ignored.
static FROM_ENV: OnceLock<PricingPath> = OnceLock::new();

fn env_default() -> PricingPath {
    *FROM_ENV.get_or_init(|| match std::env::var("DYSEL_PRICING").as_deref() {
        Ok("scalar") => PricingPath::Scalar,
        _ => PricingPath::Batched,
    })
}

/// The pricing path new device cost models will use.
///
/// Precedence: programmatic [`set_pricing_path`] override, then the
/// `DYSEL_PRICING` environment variable (`scalar` forces the reference
/// path), then the batched default.
pub fn pricing_path() -> PricingPath {
    match OVERRIDE.load(Ordering::Relaxed) {
        1 => PricingPath::Scalar,
        2 => PricingPath::Batched,
        _ => env_default(),
    }
}

/// Forces the pricing path for the whole process (used by the differential
/// tests to run the same workload through both implementations). Pass
/// `None` to fall back to the environment default again.
///
/// Devices read the path when they price a launch, so the switch takes
/// effect for the next launch, not retroactively.
pub fn set_pricing_path(path: Option<PricingPath>) {
    let v = match path {
        None => 0,
        Some(PricingPath::Scalar) => 1,
        Some(PricingPath::Batched) => 2,
    };
    OVERRIDE.store(v, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn override_wins_and_clears() {
        // Not racing other tests: this is the only test that sets the
        // override inside this crate's unit-test binary, and integration
        // tests run in their own processes.
        set_pricing_path(Some(PricingPath::Scalar));
        assert_eq!(pricing_path(), PricingPath::Scalar);
        set_pricing_path(Some(PricingPath::Batched));
        assert_eq!(pricing_path(), PricingPath::Batched);
        set_pricing_path(None);
        let _ = pricing_path(); // env default; value depends on DYSEL_PRICING
    }
}
