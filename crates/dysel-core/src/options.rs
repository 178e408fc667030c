//! Launch options — the paper's `DySelLaunchKernel` parameters plus the
//! engineering knobs discussed in §5.

use dysel_kernel::{Orchestration, ProfilingMode, VariantId};

/// Identifies the tenant a runtime (or a launch-service stream) belongs
/// to. Tenant `0` is the default single-tenant world: every existing
/// runtime keeps working unchanged. A multi-tenant [`crate::LaunchService`]
/// isolates selection, quarantine and diagnostics state per tenant and
/// threads the id through [`crate::LaunchReport`], the persisted state
/// format and `dysel-obs` event attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct TenantId(pub u32);

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// How the asynchronous flow picks its initial default variant (§2.4: "we
/// require that the compiler or programmer suggest an initial version").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InitialSelection {
    /// Use variant 0 (the compiler's first deposit).
    #[default]
    First,
    /// Use an explicit variant index.
    Index(usize),
}

impl InitialSelection {
    /// Resolves to a variant id, checking bounds.
    pub fn resolve(self, k: usize) -> Option<VariantId> {
        match self {
            InitialSelection::First => (k > 0).then_some(VariantId(0)),
            InitialSelection::Index(i) => (i < k).then_some(VariantId(i)),
        }
    }
}

/// Options for one `launch_kernel` call (Fig. 6(b)) plus runtime knobs.
///
/// # Example
///
/// ```
/// use dysel_core::{InitialSelection, LaunchOptions};
/// use dysel_kernel::{Orchestration, ProfilingMode};
///
/// // An iterative solver's steady-state launch: reuse the cached pick.
/// let steady = LaunchOptions::new().without_profiling();
/// assert!(!steady.profiling);
///
/// // Force swap-based profiling with a suggested initial default and
/// // three measurement repetitions to fight timer noise (§5.2).
/// let careful = LaunchOptions::new()
///     .with_mode(ProfilingMode::SwapPartial)
///     .with_orchestration(Orchestration::Sync)
///     .with_initial(InitialSelection::Index(1))
///     .with_profile_reps(3);
/// assert_eq!(careful.profile_reps, 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchOptions {
    /// Profiling activation flag: `false` reuses the last selection for
    /// this signature (iterative solvers profile only the first iteration).
    pub profiling: bool,
    /// Profiling-mode override; `None` defers to the compiler analyses.
    pub mode: Option<ProfilingMode>,
    /// Synchronous or asynchronous orchestration.
    pub orchestration: Orchestration,
    /// Initial default for eager execution in asynchronous mode.
    pub initial: InitialSelection,
    /// Measurement repetitions per variant (fighting noise at extra
    /// profiling cost, §5.2). The best (minimum) of the repetitions wins.
    pub profile_reps: u32,
    /// Work-groups per eager chunk, in multiples of the device's execution
    /// units; `None` uses the runtime default of one.
    pub chunk_groups_per_unit: Option<u64>,
}

impl Default for LaunchOptions {
    fn default() -> Self {
        LaunchOptions {
            profiling: true,
            mode: None,
            orchestration: Orchestration::Async,
            initial: InitialSelection::First,
            profile_reps: 1,
            chunk_groups_per_unit: None,
        }
    }
}

impl LaunchOptions {
    /// Default options (profiling on, analyses pick the mode, async).
    pub fn new() -> Self {
        LaunchOptions::default()
    }

    /// Builder-style: disable profiling (reuse the cached selection).
    pub fn without_profiling(mut self) -> Self {
        self.profiling = false;
        self
    }

    /// Builder-style: force a profiling mode.
    pub fn with_mode(mut self, mode: ProfilingMode) -> Self {
        self.mode = Some(mode);
        self
    }

    /// Builder-style: choose the orchestration.
    pub fn with_orchestration(mut self, orch: Orchestration) -> Self {
        self.orchestration = orch;
        self
    }

    /// Builder-style: suggest the async initial default.
    pub fn with_initial(mut self, initial: InitialSelection) -> Self {
        self.initial = initial;
        self
    }

    /// Builder-style: set measurement repetitions.
    ///
    /// # Panics
    ///
    /// Panics if `reps` is zero.
    pub fn with_profile_reps(mut self, reps: u32) -> Self {
        assert!(reps > 0, "at least one profiling repetition is required");
        self.profile_reps = reps;
        self
    }

    /// Builder-style: set the eager chunk size (work-groups per unit).
    pub fn with_chunk_groups_per_unit(mut self, groups: u64) -> Self {
        self.chunk_groups_per_unit = Some(groups.max(1));
        self
    }
}

/// How the runtime reacts to static-verifier findings on the variant
/// metadata it is handed (see `dysel-verify`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VerifyLevel {
    /// Trust the metadata as the paper's runtime does; no checks run. The
    /// default: existing behaviour is bit-identical.
    #[default]
    Off,
    /// Run the checks; `Deny` findings downgrade the launch to swap-based
    /// profiling (the always-safe mode) and are recorded on the runtime
    /// ([`crate::Runtime::diagnostics`]) instead of failing the launch.
    Lenient,
    /// Run the checks; `Deny` findings reject the registration or launch
    /// with [`crate::DyselError::Rejected`].
    Strict,
}

/// How the runtime applies static dominance pruning to the
/// micro-profiling pool (see `dysel_analysis::VariantFeatures`).
///
/// A variant is *dominated* when a same-context sibling is at least as
/// good on every static access-shape axis (coalescing, striding,
/// indirection, arithmetic intensity) and strictly better on one.
/// Dominance abstains on divergent or irregular variants — their work is
/// input-dependent, which is exactly what micro-profiling is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PruneLevel {
    /// No pruning; every active variant is micro-profiled. The default:
    /// existing behaviour is bit-identical.
    #[default]
    Off,
    /// Compute the dominated set but still profile everything; when a
    /// would-be-pruned variant *wins*, record a `DV502` pruning
    /// disagreement on the runtime diagnostics and bump
    /// `dysel_prune_disagreements_total`. The falsifiability mode: run
    /// the full suite under `Audit` and a zero disagreement count is
    /// evidence the rule never prunes a winner.
    Audit,
    /// Exclude dominated variants from micro-profiling (they remain
    /// registered and selectable by cached/warm selections from earlier
    /// runs). The pool never shrinks below one variant.
    On,
}

/// How the runtime uses a trained winner-prediction model (see
/// `dysel-predict`).
///
/// Shadow is the falsifiability mode (the same pattern as
/// [`PruneLevel::Audit`]): predict on every launch, still profile, and
/// count `dysel_predict_{hits,misses}_total` so model accuracy is
/// measurable against ground truth. On additionally skips micro-profiling
/// when the model's confidence margin clears 50‰ of the runner-up's
/// predicted cost — with a drift detector that invalidates a predicted
/// selection whose observed cost leaves its band.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PredictLevel {
    /// No prediction; classic reactive profiling only. The default:
    /// existing behaviour is bit-identical.
    #[default]
    Off,
    /// Predict and record accuracy, but never alter selection: profiling
    /// runs exactly as under [`PredictLevel::Off`], so selections (and
    /// the digest over them) are bit-identical to an unpredicted run.
    Shadow,
    /// Skip micro-profiling when the model names a winner with a
    /// confidence margin of at least 50‰; fall back to classic profiling
    /// otherwise. Predicted selections are watched for drift: three
    /// consecutive launches above twice the cheapest per-unit cost seen
    /// force a re-profile.
    On,
}

/// Runtime-wide configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeConfig {
    /// Launches whose base work-group count falls below this threshold skip
    /// profiling entirely ("profiling-based kernel selection is deactivated
    /// for small workload", §2.1; Fig. 2 motivates 128).
    pub profile_threshold_groups: u64,
    /// When set, a signature is micro-profiled at most once per runtime:
    /// any later launch of the same signature reuses the cached selection
    /// even with profiling enabled in its [`LaunchOptions`]. Iterative
    /// solvers get the §5.2 steady-state behaviour without having to pass
    /// [`LaunchOptions::without_profiling`] from the second iteration on.
    pub profile_once_per_signature: bool,
    /// How many times a transient launch failure is retried before the
    /// variant is quarantined (first rung of the degradation ladder).
    /// Attempt `n` waits `2,000 × 2^n` cycles after observing the failure.
    pub max_launch_retries: u32,
    /// When set, a profiled variant whose measurement exceeds
    /// `factor * best measurement` is dropped from selection and
    /// quarantined (`DeadlineExceeded`) — the hang guard. `None` (the
    /// default) waits for every variant, as the paper's runtime does.
    pub profile_deadline_factor: Option<f64>,
    /// When `true`, profiled outputs are cross-checked before a variant
    /// may win: sandboxed variants must agree with the consensus digest,
    /// and a fully-productive winner is re-validated against a runner-up.
    /// Off by default — the healthy path pays nothing for it.
    pub validate_outputs: bool,
    /// When set, the runtime persists what it learns — per-signature
    /// selections and quarantine entries — to this file
    /// ([`crate::Runtime::save_state`]) and loads it back on construction,
    /// so iterative applications restart warm and skip micro-profiling
    /// entirely. The file is versioned, checksummed and written
    /// atomically; a corrupt or incompatible file cold-starts the runtime
    /// with a typed [`crate::StateError`] instead of panicking. `None`
    /// (the default) keeps all state in memory.
    pub state_path: Option<std::path::PathBuf>,
    /// Static-verification level for variant metadata at `add_kernel` and
    /// launch time. [`VerifyLevel::Off`] by default — verification is
    /// opt-in and the healthy path pays nothing for it.
    pub verify: VerifyLevel,
    /// When `true` (and `verify` is not [`VerifyLevel::Off`]), the first
    /// profiling launch of each declared-disjoint variant additionally runs
    /// the trace-replay sanitizer: a few work-groups execute against a
    /// copy-on-write clone and their *observed* store footprints are
    /// cross-checked for cross-group overlap. A variant whose observation
    /// contradicts its declaration is quarantined
    /// ([`crate::QuarantineReason::MetadataMismatch`]). Off by default:
    /// the sanitizer allocates scratch buffers and costs a few groups of
    /// execution per variant.
    pub sanitize_traces: bool,
    /// When set, the runtime (and the device it drives) emit structured
    /// launch-lifecycle events and metrics into this sink — see
    /// `dysel_obs`. Events are ordered by the canonical serial-replay
    /// timeline, so exports are bit-identical at any worker-thread count.
    /// `None` (the default) emits nothing: the off path is a single
    /// `Option` check per site and leaves timelines and selections
    /// untouched. Sink equality is identity, so configs stay comparable.
    pub observe: Option<std::sync::Arc<dysel_obs::EventSink>>,
    /// The tenant this runtime's launches belong to. [`TenantId`] `0` (the
    /// default) is the single-tenant world; a [`crate::LaunchService`] sets
    /// it per lane so every [`crate::LaunchReport`] carries its tenant.
    pub tenant: TenantId,
    /// Static dominance pruning of the micro-profiling pool.
    /// [`PruneLevel::Off`] by default — pruning is opt-in and the healthy
    /// path pays nothing for it.
    pub prune: PruneLevel,
    /// Learned winner prediction. [`PredictLevel::Off`] by default — the
    /// healthy path pays nothing; Shadow/On additionally require
    /// [`RuntimeConfig::predict_model`].
    pub predict: PredictLevel,
    /// The trained model consulted when [`RuntimeConfig::predict`] is not
    /// Off. `None` disables prediction regardless of the level (a missing
    /// or corrupt model file must degrade to classic profiling, never
    /// fail a launch).
    pub predict_model: Option<std::sync::Arc<dysel_predict::Model>>,
    /// When `true`, the runtime re-addresses every launch's buffers — and
    /// allocates sandbox copies — from its own private
    /// [`dysel_kernel::AddrSpace`] instead of the calling thread's
    /// virtual-address region. The device cache models hash buffer
    /// addresses into lines and sets. Each thread allocates from its own
    /// region, so other threads' concurrent allocations never move a
    /// runtime's timeline; but without private addresses that timeline
    /// still depends on everything the launching thread (and the thread
    /// that built the arguments) allocated before. With private
    /// addresses it is a pure function of the runtime's own launch
    /// history. A [`crate::LaunchService`] lane sets this so every stream
    /// replays bit-identically to a serial run at any client count, since
    /// client threads build the arguments and a shard worker runs many
    /// lanes. Off by default: a single-runtime process keeps the
    /// allocator behaviour (and timings) it always had.
    pub private_addrs: bool,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            profile_threshold_groups: 128,
            profile_once_per_signature: false,
            max_launch_retries: 2,
            profile_deadline_factor: None,
            validate_outputs: false,
            state_path: None,
            verify: VerifyLevel::Off,
            sanitize_traces: false,
            observe: None,
            tenant: TenantId(0),
            prune: PruneLevel::Off,
            predict: PredictLevel::Off,
            predict_model: None,
            private_addrs: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_selection_bounds() {
        assert_eq!(InitialSelection::First.resolve(3), Some(VariantId(0)));
        assert_eq!(InitialSelection::Index(2).resolve(3), Some(VariantId(2)));
        assert_eq!(InitialSelection::Index(3).resolve(3), None);
        assert_eq!(InitialSelection::First.resolve(0), None);
    }

    #[test]
    fn builder_chains() {
        let o = LaunchOptions::new()
            .with_mode(ProfilingMode::HybridPartial)
            .with_orchestration(Orchestration::Sync)
            .with_profile_reps(3)
            .with_chunk_groups_per_unit(2);
        assert_eq!(o.mode, Some(ProfilingMode::HybridPartial));
        assert_eq!(o.orchestration, Orchestration::Sync);
        assert_eq!(o.profile_reps, 3);
        assert_eq!(o.chunk_groups_per_unit, Some(2));
        assert!(o.profiling);
    }

    #[test]
    #[should_panic(expected = "repetition")]
    fn zero_reps_rejected() {
        let _ = LaunchOptions::new().with_profile_reps(0);
    }
}
