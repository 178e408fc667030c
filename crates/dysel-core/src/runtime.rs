//! The DySel runtime: productive micro-profiling and dynamic selection.
//!
//! Besides the paper's profiling/selection pipeline, the runtime carries a
//! graceful-degradation ladder (see [`crate::FaultReport`]): transient
//! launch failures are retried with bounded backoff, variants that blow the
//! profiling deadline or produce wrong output are quarantined per
//! signature, selection and the eager default fall back to the surviving
//! candidates, and productive profiling slices a faulted variant left
//! unwritten or corrupt are re-executed with the winner so the final output
//! stays exact. Only when *every* variant is quarantined does a launch fail
//! — with [`DyselError::AllVariantsFaulted`] and the user buffers restored
//! untouched.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use dysel_analysis::{infer_mode, safe_point, VariantFeatures};
use dysel_device::{
    BatchEntry, BudgetPolicy, Cycles, Device, LaunchOutcome, LaunchRecord, LaunchSpec, StreamId,
};
use dysel_kernel::{
    Args, Orchestration, ProfilingMode, UnitRange, Variant, VariantId, VariantMeta,
};
use dysel_obs::{names, Event, MetricsSnapshot, Stage};

use dysel_verify::{has_deny, sanitize_variant, Diagnostic, LintCode};

use crate::fault::{FaultReport, QuarantineReason};
use crate::persist::{self, StateError};
use crate::pool::SandboxPool;
use crate::store::{CacheEntry, ShardedCache, Slot, StreamKey};
use crate::timeline::{LaunchKind, Timeline, TimelineEntry};
use crate::{
    DyselError, KernelPool, LaunchOptions, LaunchReport, LaunchStats, Measurement, PredictLevel,
    PruneLevel, RuntimeConfig, SkipReason, VerifyLevel,
};

/// The compute stream used for eager chunks and the final batch; profiling
/// launches use streams `1..=K`.
const COMPUTE_STREAM: StreamId = StreamId(0);

/// Stream for output-validation cross-check launches. Their writes land in
/// a scratch sandbox and never reach the final output.
const VALIDATE_STREAM: StreamId = StreamId(u32::MAX);

/// Sandbox-pool slot of the shared validation scratch space (outside the
/// `0..K` variant range, so it never collides with a private output lease).
const VALIDATE_SLOT: usize = usize::MAX;

/// Cap on distinct verifier findings kept per signature. A lenient-verify
/// runtime relaunching a bad signature forever must not grow its
/// diagnostics without bound; findings past the cap are counted, not kept.
const MAX_DIAGS_PER_SIGNATURE: usize = 32;

/// Eager chunk size in work-groups per execution unit, unless the launch
/// overrides it ([`LaunchOptions::chunk_groups_per_unit`]).
const DEFAULT_CHUNK_GROUPS_PER_UNIT: u64 = 1;

/// Base host-side backoff before a retry: attempt `n` waits
/// `RETRY_BACKOFF * 2^n` cycles after observing the failure.
const RETRY_BACKOFF: Cycles = Cycles(2_000);

/// Minimum confidence margin (per-mille of the runner-up's predicted cost)
/// for [`PredictLevel::On`] to skip micro-profiling. The centroid fallback
/// always reports margin 0, so it never skips.
const PREDICT_MARGIN_PM: u32 = 50;

/// Drift watch window: this many *consecutive* over-band launches of a
/// reused selection invalidate it and force re-profiling.
const DRIFT_WINDOW: u32 = 3;

/// Drift band in per-mille: a launch is over-band when its per-unit cost
/// exceeds the cheapest seen × `DRIFT_FACTOR_PM / 1000` (2×).
const DRIFT_FACTOR_PM: u64 = 2000;

/// Recorded verifier findings for one signature: the first
/// [`MAX_DIAGS_PER_SIGNATURE`] distinct findings, plus how many distinct
/// findings the cap dropped.
#[derive(Debug, Default)]
struct DiagSlot {
    diags: Vec<Diagnostic>,
    dropped: u64,
}

/// The DySel runtime, owning a device and the kernel pool.
///
/// # Example
///
/// ```
/// use dysel_core::{LaunchOptions, Runtime};
/// use dysel_device::{CpuConfig, CpuDevice};
/// use dysel_kernel::{Args, Buffer, KernelIr, Space, Variant, VariantMeta};
///
/// # fn main() -> Result<(), dysel_core::DyselError> {
/// let mut rt = Runtime::new(Box::new(CpuDevice::new(CpuConfig::noiseless())));
/// rt.add_kernel(
///     "fill",
///     Variant::from_fn(VariantMeta::new("v0", KernelIr::regular(vec![0])), |ctx, args| {
///         for i in ctx.units().iter() {
///             args.f32_mut(0).unwrap()[i as usize] = 1.0;
///         }
///     }),
/// );
/// let mut args = Args::new();
/// args.push(Buffer::f32("out", vec![0.0; 512], Space::Global));
/// let report = rt.launch("fill", &mut args, 512, &LaunchOptions::new())?;
/// assert_eq!(report.selected.0, 0);
/// assert_eq!(args.f32(0).unwrap()[511], 1.0);
/// # Ok(())
/// # }
/// ```
pub struct Runtime {
    device: Box<dyn Device>,
    pool: KernelPool,
    stats: LaunchStats,
    config: RuntimeConfig,
    /// The learned state — selections, variant counts, warm markers and
    /// quarantine — keyed by `(config.tenant, signature)`: private to a
    /// plain runtime, the service's shared store for a lane.
    store: Arc<ShardedCache>,
    sandboxes: SandboxPool,
    timeline: Timeline,
    /// What went wrong with the best-effort state load at construction,
    /// if anything; the runtime cold-started in that case.
    state_error: Option<StateError>,
    /// Static-verifier findings recorded per signature (deduplicated and
    /// capped; see [`DiagSlot`]).
    diagnostics: HashMap<String, DiagSlot>,
    /// `(signature, variant)` pairs the trace-replay sanitizer already
    /// cross-checked; the sanitizer runs once per pair, not per launch.
    sanitized: HashSet<(String, usize)>,
    /// Per-signature per-unit-cost drift watch (see [`DriftTracker`]);
    /// populated only while [`RuntimeConfig::predict`] is not `Off`.
    drift: HashMap<String, DriftTracker>,
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("device", &self.device.name())
            .field("signatures", &self.pool.len())
            .field("config", &self.config)
            .finish()
    }
}

/// Per-signature drift watch over skip-path launches (prediction enabled).
///
/// All integer arithmetic: per-unit cost is tracked scaled by 1000, and a
/// launch is over-band when `cost * 1000 > floor * DRIFT_FACTOR_PM`. After
/// [`DRIFT_WINDOW`] *consecutive* over-band launches the cached selection
/// is invalidated so the next launch re-profiles.
#[derive(Debug, Clone, Copy)]
struct DriftTracker {
    /// Cheapest per-unit cost seen so far, scaled by 1000.
    floor: u64,
    /// Consecutive launches above the drift band.
    over: u32,
    /// The watch tripped: the next launch must reach live profiling, so
    /// prediction skips are suppressed until the re-profile clears this.
    hold: bool,
}

impl Runtime {
    /// Creates a runtime on a device with default configuration.
    pub fn new(device: Box<dyn Device>) -> Self {
        Runtime::with_config(device, RuntimeConfig::default())
    }

    /// Creates a runtime with an explicit configuration and a private
    /// learned-state store.
    ///
    /// With [`RuntimeConfig::state_path`] set and the file present, the
    /// persisted selection state is loaded best-effort: on success the
    /// runtime starts warm (cached selections and quarantine restored,
    /// micro-profiling skipped for the loaded signatures); a corrupt,
    /// truncated or version-skewed file cold-starts the runtime and parks
    /// the typed error in [`Runtime::state_load_error`]. A missing file is
    /// a plain cold start, not an error.
    pub fn with_config(device: Box<dyn Device>, config: RuntimeConfig) -> Self {
        let mut rt = Runtime::with_store(device, config, Arc::new(ShardedCache::new(1)));
        if let Some(path) = rt.config.state_path.clone() {
            if path.exists() {
                match persist::load(&path) {
                    Ok((_, records)) => rt.store.replay(&records),
                    Err(e) => rt.state_error = Some(e),
                }
            }
        }
        rt
    }

    /// A runtime that reads and commits its learned state through `store`
    /// (a service lane shares the service's store). Loads no state file.
    pub(crate) fn with_store(
        device: Box<dyn Device>,
        config: RuntimeConfig,
        store: Arc<ShardedCache>,
    ) -> Self {
        let sandboxes = if config.private_addrs {
            SandboxPool::with_private_addrs()
        } else {
            SandboxPool::default()
        };
        let mut rt = Runtime {
            device,
            pool: KernelPool::new(),
            stats: LaunchStats::new(),
            config,
            store,
            sandboxes,
            timeline: Timeline::default(),
            state_error: None,
            diagnostics: HashMap::new(),
            sanitized: HashSet::new(),
            drift: HashMap::new(),
        };
        if let Some(obs) = &rt.config.observe {
            rt.device.set_observer(Some(obs.clone()));
        }
        rt
    }

    /// This runtime's store key for `signature`.
    fn key(&self, signature: &str) -> StreamKey {
        StreamKey::new(self.config.tenant, signature)
    }

    /// Persists the learned state — selections and quarantine — to the
    /// configured [`RuntimeConfig::state_path`], atomically (temp file +
    /// rename): a crash mid-save leaves the previous file intact.
    ///
    /// # Errors
    ///
    /// [`DyselError::State`] if no state path is configured or the write
    /// fails; in-memory state is unaffected either way.
    pub fn save_state(&self) -> Result<(), DyselError> {
        let path = self
            .config
            .state_path
            .as_deref()
            .ok_or(StateError::NoStatePath)?;
        self.store.checkpoint(path)?;
        Ok(())
    }

    /// Explicitly (re)loads the state file from the configured
    /// [`RuntimeConfig::state_path`] — its selections become warm, its
    /// quarantine entries are merged in — and returns the file's journal
    /// sequence and state: the entries a fresh store rebuilds from it.
    ///
    /// # Errors
    ///
    /// [`DyselError::State`] if no state path is configured, the file is
    /// missing or unreadable, or its content is rejected (bad magic,
    /// version skew, truncation, checksum mismatch, malformed payload).
    /// On error the in-memory state is left exactly as it was — the
    /// cold-start guarantee.
    pub fn load_state(&mut self) -> Result<(u64, BTreeMap<StreamKey, CacheEntry>), DyselError> {
        let path = self
            .config
            .state_path
            .clone()
            .ok_or(StateError::NoStatePath)?;
        let (journal_seq, records) = persist::load(&path)?;
        self.store.replay(&records);
        self.state_error = None;
        // The file's own state, not the merge: what a fresh store rebuilds.
        let scratch = ShardedCache::new(1);
        scratch.replay(&records);
        Ok((journal_seq, scratch.snapshot()))
    }

    /// The typed error of the best-effort state load performed at
    /// construction, if it failed (the runtime cold-started). `None`
    /// after a successful or skipped load.
    pub fn state_load_error(&self) -> Option<&StateError> {
        self.state_error.as_ref()
    }

    /// The learned state — cached selections, quarantine entries, variant
    /// counts — as a value, without touching any file: what
    /// [`Runtime::save_state`] persists.
    pub fn export_state(&self) -> BTreeMap<StreamKey, CacheEntry> {
        self.store.snapshot()
    }

    /// Registers a kernel variant (`DySelAddKernel`).
    ///
    /// With [`RuntimeConfig::verify`] enabled the variant's metadata is
    /// linted on the way in and the findings are recorded on the runtime
    /// ([`Runtime::diagnostics`]); registration itself never fails — the
    /// launch path is where [`VerifyLevel::Strict`] rejects. Use
    /// [`Runtime::try_add_kernel`] to refuse bad metadata at the door.
    pub fn add_kernel(&mut self, signature: impl Into<String>, variant: Variant) -> VariantId {
        let signature = signature.into();
        if self.config.verify != VerifyLevel::Off {
            let diags = dysel_verify::verify_variant(&variant.meta);
            record_diags(&mut self.diagnostics, &self.config, &signature, diags);
        }
        self.pool.add_kernel(signature, variant)
    }

    /// Registers a kernel variant after running the static verifier on its
    /// metadata, regardless of [`RuntimeConfig::verify`]. Findings are
    /// recorded on the runtime ([`Runtime::diagnostics`]).
    ///
    /// # Errors
    ///
    /// [`DyselError::Rejected`] if the verifier reports any `Deny`-severity
    /// finding (index out of range, disjointness over-claim, undeclared
    /// store site, …); the variant is *not* registered in that case.
    pub fn try_add_kernel(
        &mut self,
        signature: impl Into<String>,
        variant: Variant,
    ) -> Result<VariantId, DyselError> {
        let signature = signature.into();
        let diags = dysel_verify::verify_variant(&variant.meta);
        if has_deny(&diags) {
            return Err(DyselError::Rejected {
                signature,
                diagnostics: diags,
            });
        }
        record_diags(&mut self.diagnostics, &self.config, &signature, diags);
        Ok(self.pool.add_kernel(signature, variant))
    }

    /// Registers a whole candidate set.
    pub fn add_kernels(
        &mut self,
        signature: impl Into<String>,
        variants: impl IntoIterator<Item = Variant>,
    ) {
        let signature = signature.into();
        for variant in variants {
            self.add_kernel(signature.clone(), variant);
        }
    }

    /// Static-verifier findings recorded for `signature` so far — from
    /// registration (with [`RuntimeConfig::verify`] enabled or via
    /// [`Runtime::try_add_kernel`]) and from verified launches. Duplicate
    /// findings are recorded once, and at most the first 32 distinct
    /// findings are kept per signature (see
    /// [`Runtime::diagnostics_dropped`]). Empty for unverified signatures.
    pub fn diagnostics(&self, signature: &str) -> &[Diagnostic] {
        self.diagnostics
            .get(signature)
            .map(|slot| slot.diags.as_slice())
            .unwrap_or(&[])
    }

    /// How many distinct verifier findings for `signature` were dropped by
    /// the per-signature diagnostics cap. Also exported as the
    /// `dysel_diagnostics_dropped_total` metric when observation is on.
    pub fn diagnostics_dropped(&self, signature: &str) -> u64 {
        self.diagnostics
            .get(signature)
            .map(|slot| slot.dropped)
            .unwrap_or(0)
    }

    /// The kernel pool.
    pub fn pool(&self) -> &KernelPool {
        &self.pool
    }

    /// The device.
    pub fn device(&self) -> &dyn Device {
        self.device.as_ref()
    }

    /// Launch statistics collected so far (Fig. 2).
    pub fn stats(&self) -> &LaunchStats {
        &self.stats
    }

    /// The recorded schedule of the most recent launch (or launch region):
    /// which variant ran which units, when, and as what kind of work —
    /// the data behind the paper's Fig. 5 comparison.
    pub fn last_timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// The cached selection for a signature: its last micro-profiling
    /// winner, or a warm restore (never a quarantined variant).
    pub fn cached_selection(&self, signature: &str) -> Option<VariantId> {
        self.store
            .get(&self.key(signature))
            .and_then(|e| e.selection)
    }

    /// Variants of `signature` currently quarantined, with the reason each
    /// was excluded, in quarantine order. Empty for healthy signatures.
    pub fn quarantined(&self, signature: &str) -> Vec<(VariantId, QuarantineReason)> {
        self.store
            .get(&self.key(signature))
            .map(|e| e.quarantine)
            .unwrap_or_default()
    }

    /// Clears device time (replaying any installed fault plan), statistics,
    /// the learned-state store (cached selections, warm markers,
    /// quarantine), the drift watch, the recorded timeline and the pooled
    /// profiling sandboxes (including their lease counters). A service
    /// lane never resets: its store is the service's.
    pub fn reset(&mut self) {
        self.device.reset();
        self.stats.reset();
        self.store.clear();
        self.sandboxes.clear();
        self.timeline.clear();
        self.diagnostics.clear();
        self.sanitized.clear();
        self.drift.clear();
    }

    /// Sandbox-pool accounting: `(fresh allocations, recycled leases)`.
    /// Hybrid- and swap-mode profiling leases its private output copies
    /// from a per-`(signature, variant)` pool, so steady-state re-profiling
    /// stops allocating after the first launch.
    pub fn sandbox_stats(&self) -> (u64, u64) {
        (self.sandboxes.allocations(), self.sandboxes.reuses())
    }

    /// A point-in-time copy of every counter and histogram recorded into
    /// the configured observation sink ([`RuntimeConfig::observe`]).
    /// Empty when observation is off.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.config
            .observe
            .as_ref()
            .map(|o| o.metrics_snapshot())
            .unwrap_or_default()
    }

    /// The configured observation sink, if any.
    pub fn observer(&self) -> Option<&std::sync::Arc<dysel_obs::EventSink>> {
        self.config.observe.as_ref()
    }

    /// Launches `signature` over `total_units` workload units
    /// (`DySelLaunchKernel`, Fig. 6(b)).
    ///
    /// With profiling enabled (and a large enough workload), DySel deploys
    /// every registered variant on a small slice of `args`' actual data,
    /// measures them, and processes the remaining units with the winner.
    ///
    /// # Errors
    ///
    /// Fails if the signature is unknown, an explicit initial variant is
    /// out of range, sandbox construction hits a bad argument index, or
    /// the degradation ladder runs out of variants
    /// ([`DyselError::AllVariantsFaulted`], [`DyselError::LaunchFailed`]).
    /// On error the user buffers hold their pre-launch contents.
    pub fn launch(
        &mut self,
        signature: &str,
        args: &mut Args,
        total_units: u64,
        opts: &LaunchOptions,
    ) -> Result<LaunchReport, DyselError> {
        self.launch_region(signature, args, 0, total_units, opts)
    }

    /// Launches `signature` over the workload units `[start, end)` only.
    /// Building block of [`Runtime::launch`] (whole workload) and
    /// [`Runtime::launch_mixed`] (per-region selection).
    ///
    /// The launch runs as a pipeline of stages over one per-launch
    /// context; DESIGN.md §4.20 lists the stages in order.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Runtime::launch`].
    ///
    /// # Panics
    ///
    /// Panics if `start > end`.
    pub fn launch_region(
        &mut self,
        signature: &str,
        args: &mut Args,
        start: u64,
        end: u64,
        opts: &LaunchOptions,
    ) -> Result<LaunchReport, DyselError> {
        // Private-address mode: re-address the incoming buffers from this
        // runtime's own address space before anything observes them, so
        // the priced timeline is independent of which thread allocated
        // them and what else that thread allocated (see
        // [`RuntimeConfig::private_addrs`]).
        self.sandboxes.rebase(args);
        let variants = self.pool.variants(signature)?;
        let initial =
            opts.initial
                .resolve(variants.len())
                .ok_or_else(|| DyselError::BadVariantIndex {
                    signature: signature.to_owned(),
                    index: match opts.initial {
                        crate::InitialSelection::Index(i) => i,
                        crate::InitialSelection::First => 0,
                    },
                    len: variants.len(),
                })?;
        let key = self.key(signature);
        let config = &self.config;
        let needs_features = config.prune != PruneLevel::Off || active_model(config).is_some();
        let mut l = Launch {
            device: self.device.as_mut(),
            config,
            timeline: &mut self.timeline,
            sandboxes: &mut self.sandboxes,
            stats: &mut self.stats,
            diagnostics: &mut self.diagnostics,
            sanitized: &mut self.sanitized,
            drift: &mut self.drift,
            learned: self.store.read(&key),
            signature,
            variants,
            args,
            opts,
            units: UnitRange::new(start, end),
            features: if needs_features {
                let extract = |v: &Variant| dysel_analysis::extract_features(&v.meta);
                variants.iter().map(extract).collect()
            } else {
                Vec::new()
            },
            t_start: Cycles::ZERO,
            alive: Vec::new(),
            would_prune: Vec::new(),
            predicted: None,
            private: Vec::new(),
            scratch: None,
            dead: Vec::new(),
            faults: FaultReport::default(),
            launches: 0,
        };
        let report = l.run(initial);
        // Commit once, success or not: quarantines outlive a failed launch.
        self.store.write(&key, &l.learned);
        report
    }
}

/// One profiling launch's bookkeeping.
struct ProfiledLaunch {
    variant: usize,
    record: LaunchRecord,
}

/// The argument set a device launch runs against.
#[derive(Clone, Copy)]
enum Target {
    /// The user's buffers.
    Live,
    /// The launching variant's leased private output copy.
    Private,
    /// The validation scratch sandbox.
    Scratch,
}

/// One device launch, short of its issue time.
#[derive(Clone, Copy)]
struct Dispatch {
    variant: usize,
    target: Target,
    units: UnitRange,
    stream: StreamId,
    measured: bool,
}

impl Dispatch {
    /// An unmeasured launch of `units` on the compute stream, against the
    /// user's buffers.
    fn compute(variant: usize, units: UnitRange) -> Self {
        Dispatch {
            variant,
            target: Target::Live,
            units,
            stream: COMPUTE_STREAM,
            measured: false,
        }
    }
}

/// A feasible micro-profiling plan.
struct Plan {
    mode: ProfilingMode,
    /// Orchestration actually used: swap-based profiling cannot run
    /// asynchronously (Table 1).
    orchestration: Orchestration,
    /// The profiled candidates; the one at position `pos` profiles on
    /// stream `pos + 1`.
    slots: Vec<usize>,
    reps: u64,
    /// Units per profiling slice (safe point analysis, §3.4).
    slice: u64,
    /// First unit of the launch range.
    base: u64,
    /// The eager-execution default before any measurement lands.
    initial: VariantId,
}

impl Plan {
    /// The slice the candidate at `pos` profiles on repetition `r`: its
    /// own productive slice in fully-productive mode, the shared leading
    /// slice otherwise.
    fn slice(&self, pos: usize, r: u64) -> UnitRange {
        let idx = match self.mode {
            ProfilingMode::FullyProductive => pos as u64 * self.reps + r,
            _ => 0,
        };
        UnitRange::new(
            self.base + idx * self.slice,
            self.base + (idx + 1) * self.slice,
        )
    }

    /// Every slice variant `vi` profiled.
    fn slices_of(&self, vi: usize) -> impl Iterator<Item = UnitRange> + '_ {
        let pos = self.slots.iter().position(|&a| a == vi);
        pos.into_iter()
            .flat_map(move |pos| (0..self.reps).map(move |r| self.slice(pos, r)))
    }

    /// Units profiling wrote into the live output: every slice in
    /// fully-productive mode, the shared one otherwise.
    fn productive_units(&self) -> u64 {
        match self.mode {
            ProfilingMode::FullyProductive => self.slots.len() as u64 * self.reps * self.slice,
            _ => self.slice,
        }
    }
}

/// The per-launch context of [`Runtime::launch_region`]: the runtime state
/// a launch borrows, plus everything the launch itself owns. Each stage
/// of the launch pipeline is one method; DESIGN.md §4.20 gives their
/// order.
struct Launch<'a> {
    device: &'a mut dyn Device,
    config: &'a RuntimeConfig,
    timeline: &'a mut Timeline,
    sandboxes: &'a mut SandboxPool,
    stats: &'a mut LaunchStats,
    diagnostics: &'a mut HashMap<String, DiagSlot>,
    sanitized: &'a mut HashSet<(String, usize)>,
    drift: &'a mut HashMap<String, DriftTracker>,
    /// The stream's learned state, read from the store at the start and
    /// committed back at the end.
    learned: Slot,
    signature: &'a str,
    variants: &'a [Variant],
    args: &'a mut Args,
    opts: &'a LaunchOptions,
    units: UnitRange,
    /// Static features of every variant, extracted once when pruning or
    /// prediction will read them (empty otherwise).
    features: Vec<VariantFeatures>,
    /// Device time when the launch started.
    t_start: Cycles,
    /// The surviving candidates: not quarantined (and not pruned, when
    /// the launch profiles under `PruneLevel::On`).
    alive: Vec<usize>,
    /// Variants static dominance pruning flagged on this launch.
    would_prune: Vec<usize>,
    /// The trained model's predicted winner, when it ranked the launch.
    predicted: Option<String>,
    /// Private output copies leased for sandboxed profiling, by variant.
    private: Vec<Option<Args>>,
    /// Scratch sandbox of fully-productive winner validation.
    scratch: Option<Args>,
    /// Productive slices a faulted variant left unwritten or corrupt; the
    /// winner re-executes them before the final batch.
    dead: Vec<UnitRange>,
    faults: FaultReport,
    /// Device launches issued, retries and repairs included.
    launches: u64,
}

impl Launch<'_> {
    /// Emits a runtime event for this signature; `build` runs only when
    /// observation is on.
    fn emit(&self, stage: Stage, build: impl FnOnce(Event) -> Event) {
        if let Some(obs) = &self.config.observe {
            obs.emit(build(Event::new(stage).signature(self.signature)));
        }
    }

    /// Bumps an observation counter (a no-op when observation is off).
    fn count(&self, name: &str, delta: u64) {
        if let Some(obs) = &self.config.observe {
            obs.count(name, delta);
        }
    }

    fn name(&self, vi: usize) -> &str {
        self.variants[vi].name()
    }

    /// Fails the launch with [`DyselError::AllVariantsFaulted`] once no
    /// candidate survives.
    fn ensure_alive(&self) -> Result<(), DyselError> {
        if !self.alive.is_empty() {
            return Ok(());
        }
        Err(DyselError::AllVariantsFaulted {
            signature: self.signature.to_owned(),
            quarantined: self.learned.entry.quarantine.len(),
        })
    }

    /// Removes `vi` from the surviving candidates and records the
    /// quarantine in both the stream's learned state and this launch's
    /// fault report — plus, when observation is on, the event stream and
    /// the quarantine counter (counted here rather than from the report,
    /// so sanitizer quarantines that never reach a report are still
    /// covered). Quarantine always wins: a selection naming `vi` is
    /// dropped, and a warm-restored one is invalidated on the spot.
    fn quarantine(&mut self, vi: usize, reason: QuarantineReason) {
        let Some(pos) = self.alive.iter().position(|&a| a == vi) else {
            return;
        };
        self.alive.remove(pos);
        let was_warm = self.learned.warm;
        self.learned.quarantine(VariantId(vi), reason);
        self.faults.quarantined.push((VariantId(vi), reason));
        self.emit(Stage::Quarantine, |e| {
            e.variant(self.name(vi)).detail(format!("{reason:?}"))
        });
        self.count(names::QUARANTINES, 1);
        if was_warm && !self.learned.warm {
            self.invalidate_warm(format!("selected variant {vi} quarantined"));
        }
    }

    /// Drops a stale warm-restored selection, so the stream falls back to
    /// live profiling.
    fn invalidate_warm(&mut self, why: String) {
        self.learned.invalidate();
        self.emit(Stage::WarmInvalidate, |e| e.detail(why));
        self.count(names::WARM_INVALIDATIONS, 1);
    }

    /// Pushes a timeline entry, mirroring it into the observation sink as a
    /// structured span event first — the timeline order IS the canonical
    /// event order for runtime-level spans.
    fn record(&mut self, kind: LaunchKind, d: &Dispatch, rec: &LaunchRecord) {
        let stage = match kind {
            LaunchKind::Profile => Stage::Profile,
            LaunchKind::EagerChunk => Stage::EagerChunk,
            LaunchKind::Batch => Stage::Batch,
            LaunchKind::Validate => Stage::Validate,
            LaunchKind::Repair => Stage::Repair,
        };
        self.emit(stage, |e| {
            e.variant(self.name(d.variant))
                .stream(d.stream.0)
                .span(rec.start.0, rec.end.0)
                .units(d.units.start, d.units.end)
        });
        self.timeline.push(TimelineEntry {
            kind,
            variant: VariantId(d.variant),
            variant_name: self.name(d.variant).to_owned(),
            units: d.units,
            start: rec.start,
            end: rec.end,
        });
    }

    /// Issues one device launch of `d` at `not_before`.
    fn issue(&mut self, d: Dispatch, not_before: Cycles) -> LaunchOutcome {
        self.launches += 1;
        let v = &self.variants[d.variant];
        let args = match d.target {
            Target::Live => &mut *self.args,
            Target::Private => self.private[d.variant].as_mut().expect("leased"),
            Target::Scratch => self.scratch.as_mut().expect("leased"),
        };
        self.device.launch(LaunchSpec {
            kernel: v.kernel.as_ref(),
            meta: &v.meta,
            units: d.units,
            args,
            stream: d.stream,
            not_before,
            measured: d.measured,
            budget: None,
        })
    }

    /// Issues `d` at `not_before` — or settles `pending`, the outcome of
    /// an entry already issued in a batch — retrying transient failures
    /// with bounded exponential backoff (first rung of the degradation
    /// ladder).
    ///
    /// `Err(())` means the launch failed permanently or exhausted its
    /// retries; the caller decides whether that quarantines the variant or
    /// fails the whole DySel launch. A failed device launch executed
    /// nothing.
    fn launch_checked(
        &mut self,
        d: Dispatch,
        mut not_before: Cycles,
        mut pending: Option<LaunchOutcome>,
    ) -> Result<LaunchRecord, ()> {
        let mut attempt = 0u32;
        loop {
            let outcome = match pending.take() {
                Some(outcome) => outcome,
                None => self.issue(d, not_before),
            };
            match outcome {
                LaunchOutcome::Done(rec) => return Ok(rec),
                LaunchOutcome::Failed(failure) => {
                    self.faults.launch_errors += 1;
                    if !failure.transient || attempt >= self.config.max_launch_retries {
                        return Err(());
                    }
                    self.faults.retries += 1;
                    not_before = failure.at + RETRY_BACKOFF * (1u64 << attempt.min(16));
                    attempt += 1;
                    self.emit(Stage::Retry, |e| {
                        e.variant(self.name(d.variant))
                            .stream(d.stream.0)
                            .at(not_before.0)
                            .detail(format!("attempt={attempt}"))
                    });
                }
                LaunchOutcome::Preempted(_) => {
                    // Only batch entries carry a budget, so a retry is
                    // never preempted; defensively, a preempted launch is
                    // discarded like a hard failure.
                    self.faults.preemptions += 1;
                    return Err(());
                }
            }
        }
    }

    /// Runs `units` with `winner` on the compute stream and records it; a
    /// launch that keeps failing fails the whole DySel launch.
    fn run_winner(
        &mut self,
        kind: LaunchKind,
        winner: usize,
        units: UnitRange,
        not_before: Cycles,
    ) -> Result<LaunchRecord, DyselError> {
        let d = Dispatch::compute(winner, units);
        let rec =
            self.launch_checked(d, not_before, None)
                .map_err(|()| DyselError::LaunchFailed {
                    signature: self.signature.to_owned(),
                    variant: self.name(winner).to_owned(),
                })?;
        self.record(kind, &d, &rec);
        Ok(rec)
    }

    /// The report of a launch of `selected` that finished at `end`; the
    /// profiling path fills in its profiling fields on top.
    fn report(&self, selected: usize, end: Cycles) -> LaunchReport {
        LaunchReport {
            signature: self.signature.to_owned(),
            tenant: self.config.tenant,
            selected: VariantId(selected),
            selected_name: self.name(selected).to_owned(),
            mode: None,
            orchestration: self.opts.orchestration,
            skipped: None,
            total_time: end.saturating_sub(self.t_start),
            profile_time: Cycles::ZERO,
            measurements: Vec::new(),
            productive_units: 0,
            wasted_units: 0,
            extra_space_bytes: 0,
            eager_chunks: 0,
            launches: self.launches,
            pruned_variants: self.would_prune.len() as u64,
            prune_disagreement: false,
            predicted: None,
            predict_hit: None,
            drift_reprofiled: false,
            faults: self.faults.clone(),
        }
    }

    /// The launch pipeline; DESIGN.md §4.20 lists the stages in order.
    fn run(&mut self, initial: VariantId) -> Result<LaunchReport, DyselError> {
        self.audit_warm();
        self.filter_quarantined()?;
        let force_swap = self.verify()?;
        self.start_clock();
        let mut skip = self.skip_reason(initial);
        if skip.is_none() {
            self.sanitize()?;
        }
        self.prune(skip.is_none());
        self.predict(&mut skip);
        let report = match skip.map_or_else(|| self.plan(initial, force_swap), Err) {
            Ok(plan) => self.run_profiled(&plan),
            Err((reason, selected)) => self.run_skipped(reason, selected.0),
        };
        self.stats.record_faults(&self.faults);
        Ok(self.score(report?))
    }

    // ---- pipeline stages, in launch order ---------------------------------

    /// Warm-restore staleness audit. A warm-restored selection was chosen
    /// by a previous process against that process's candidate set; before
    /// letting it skip micro-profiling, cross-check it against *this*
    /// process. Stale when the signature re-registered with a different
    /// variant count or the persisted winner is out of range (quarantining
    /// a warm winner already dropped it).
    fn audit_warm(&mut self) {
        let (Some(id), true) = (self.learned.winner, self.learned.warm) else {
            return;
        };
        let (k, warm_k) = (self.variants.len(), self.learned.entry.variants);
        if id.0 >= k {
            self.invalidate_warm(format!("selected variant {} out of range (k={k})", id.0));
        } else if warm_k != 0 && warm_k as usize != k {
            self.invalidate_warm(format!("variant count changed ({warm_k} -> {k})"));
        }
    }

    /// Fallback rung of the degradation ladder: only non-quarantined
    /// variants may run, win, or serve as the eager default.
    fn filter_quarantined(&mut self) -> Result<(), DyselError> {
        let entry = &self.learned.entry;
        self.alive = (0..self.variants.len())
            .filter(|&i| !entry.is_quarantined(VariantId(i)))
            .collect();
        self.ensure_alive()
    }

    /// Static verification (see `dysel-verify`). Strict mode refuses the
    /// launch before touching any user buffer; lenient mode downgrades a
    /// denied launch to swap-based profiling — the mode that is safe
    /// whatever the metadata claims — by returning `true`.
    fn verify(&mut self) -> Result<bool, DyselError> {
        if self.config.verify == VerifyLevel::Off {
            return Ok(false);
        }
        let metas: Vec<VariantMeta> = self
            .alive
            .iter()
            .map(|&i| self.variants[i].meta.clone())
            .collect();
        let mut diags: Vec<Diagnostic> = Vec::new();
        for m in &metas {
            diags.extend(dysel_verify::verify_variant(m));
            diags.extend(dysel_verify::verify_arity(m, self.args.len()));
        }
        if let Some(requested) = self.opts.mode {
            diags.extend(dysel_verify::verify_mode_override(&metas, requested));
        }
        let deny = has_deny(&diags);
        if deny && self.config.verify == VerifyLevel::Strict {
            return Err(DyselError::Rejected {
                signature: self.signature.to_owned(),
                diagnostics: diags,
            });
        }
        record_diags(self.diagnostics, self.config, self.signature, diags);
        Ok(deny)
    }

    /// Counts the launch (Fig. 2) and stamps its start time. Budget rung
    /// of the ladder: with a deadline factor configured the device derives
    /// per-launch cycle budgets for profiling launches from the best
    /// measurement seen so far and cooperatively preempts any launch that
    /// blows its budget mid-slice.
    fn start_clock(&mut self) {
        self.stats.record(self.units.len());
        self.device
            .set_budget_policy(self.config.profile_deadline_factor.map(BudgetPolicy::new));
        self.t_start = self.device.busy_until();
    }

    /// Why this launch skips micro-profiling, and which variant runs it
    /// instead; `None` when it profiles.
    fn skip_reason(&self, initial: VariantId) -> Option<(SkipReason, VariantId)> {
        let clamped = |id| clamp(&self.alive, id);
        let cached = self.learned.winner;
        if !self.opts.profiling {
            return Some(match cached {
                Some(id) => (SkipReason::CachedSelection, clamped(id)),
                None => (SkipReason::ProfilingDisabled, clamped(initial)),
            });
        }
        match cached {
            // Profile-once runtimes treat every later launch of a profiled
            // signature as the steady state of an iterative solver; a
            // selection loaded from the state file gets the same warm
            // treatment — that is the point of persisting it.
            Some(id) if self.config.profile_once_per_signature || self.learned.warm => {
                Some((SkipReason::CachedSelection, clamped(id)))
            }
            _ if self.alive.len() == 1 => {
                Some((SkipReason::SingleVariant, VariantId(self.alive[0])))
            }
            // Small workloads skip profiling (§2.1); reuse an earlier
            // selection for this signature if one exists.
            _ if self.units.len() < self.config.profile_threshold_groups => Some((
                SkipReason::SmallWorkload,
                clamped(cached.unwrap_or(initial)),
            )),
            _ => None,
        }
    }

    /// Trace-replay sanitizer (dynamic cross-check). Before the first
    /// profiled launch of a declared-disjoint variant, replay a few of its
    /// work-groups against a copy-on-write clone and cross-check the
    /// *observed* store footprints for cross-group overlap. A variant
    /// whose observation contradicts its declaration lied to the static
    /// verifier and is quarantined.
    fn sanitize(&mut self) -> Result<(), DyselError> {
        if !self.config.sanitize_traces || self.config.verify == VerifyLevel::Off {
            return Ok(());
        }
        for vi in self.alive.clone() {
            let key = (self.signature.to_owned(), vi);
            if !self.variants[vi].meta.ir.output_disjoint || self.sanitized.contains(&key) {
                continue;
            }
            self.sanitized.insert(key);
            // A replay that cannot run (bad argument index) is the
            // verifier's DV301 finding, not a sanitizer verdict.
            if let Ok(outcome) = sanitize_variant(&self.variants[vi], self.args, self.units.len()) {
                if outcome.contradicts_disjoint() {
                    self.quarantine(vi, QuarantineReason::MetadataMismatch);
                }
            }
        }
        // Sanitizer quarantines reach the runtime statistics, not the
        // launch report.
        self.stats.record_faults(&std::mem::take(&mut self.faults));
        self.ensure_alive()
    }

    /// Static dominance pruning (see `dysel_analysis::features`). A
    /// variant Pareto-dominated on every static access-shape axis by a
    /// same-context sibling is excluded from the micro-profiling pool
    /// (`PruneLevel::On`) or profiled anyway and cross-checked against the
    /// winner (`PruneLevel::Audit`). Pareto maximality guarantees at least
    /// one variant always survives. The *accounting* (events, counters,
    /// report fields) runs on every launch — warm and cold alike, so
    /// metric streams stay comparable across restarts — but the pool is
    /// only actually shrunk when this launch will profile.
    fn prune(&mut self, profiling: bool) {
        if self.config.prune == PruneLevel::Off || self.alive.len() < 2 {
            return;
        }
        let feats = &self.features;
        self.would_prune = self
            .alive
            .iter()
            .copied()
            .filter(|&vi| {
                self.alive
                    .iter()
                    .any(|&vj| vj != vi && feats[vj].dominates(&feats[vi]))
            })
            .collect();
        if self.would_prune.is_empty() {
            return;
        }
        let detail = match self.config.prune {
            PruneLevel::On => "pruned",
            _ => "audit",
        };
        for &vi in &self.would_prune {
            self.emit(Stage::Prune, |e| {
                e.variant(self.name(vi)).at(self.t_start.0).detail(detail)
            });
        }
        self.count(names::PRUNED, self.would_prune.len() as u64);
        if self.config.prune == PruneLevel::On && profiling {
            self.alive.retain(|vi| !self.would_prune.contains(vi));
        }
    }

    /// Trained-model prediction (see `dysel-predict`). Shadow mode ranks
    /// the surviving candidates and records the verdict (events plus
    /// hit/miss counters folded at score time) without touching control
    /// flow. On mode additionally converts a would-profile launch into a
    /// skip when the model's confidence margin clears
    /// [`PREDICT_MARGIN_PM`] — an exact-tier margin of zero (unranked or
    /// centroid-sourced prediction) never skips, and neither does a
    /// signature whose drift watch tripped.
    fn predict(&mut self, skip: &mut Option<(SkipReason, VariantId)>) {
        let Some(model) = active_model(self.config) else {
            return;
        };
        let candidates: Vec<dysel_predict::Candidate<'_>> = self
            .alive
            .iter()
            .map(|&i| dysel_predict::Candidate {
                name: self.name(i),
                features: &self.features[i],
            })
            .collect();
        let Some(p) = model.predict(self.signature, &candidates) else {
            return;
        };
        self.emit(Stage::Predict, |e| {
            e.variant(&p.variant).at(self.t_start.0).detail(format!(
                "source={} margin_pm={}",
                p.source.as_str(),
                p.margin_pm
            ))
        });
        if self.config.predict == PredictLevel::On
            && skip.is_none()
            && self.alive.len() > 1
            && p.margin_pm > 0
            && p.margin_pm >= PREDICT_MARGIN_PM
            && !self.drift.get(self.signature).is_some_and(|t| t.hold)
        {
            if let Some(&vi) = self.alive.iter().find(|&&i| self.name(i) == p.variant) {
                self.count(names::PREDICT_SKIPS, 1);
                *skip = Some((SkipReason::Predicted, VariantId(vi)));
            }
        }
        self.predicted = Some(p.variant);
    }

    /// The micro-profiling plan: profiling mode (forced swap, the caller's
    /// override, or the compiler analyses), repetitions and the safe-point
    /// slice size. `Err` skips profiling when safe point analysis cannot
    /// fit the slices into the workload.
    fn plan(&self, initial: VariantId, force_swap: bool) -> Result<Plan, (SkipReason, VariantId)> {
        let initial = clamp(&self.alive, initial);
        let metas: Vec<_> = self
            .alive
            .iter()
            .map(|&i| self.variants[i].meta.clone())
            .collect();
        let mode = if force_swap {
            ProfilingMode::SwapPartial
        } else {
            self.opts.mode.unwrap_or_else(|| infer_mode(&metas))
        };
        let reps = u64::from(self.opts.profile_reps);
        let distinct_slices = match mode {
            ProfilingMode::FullyProductive => self.alive.len() as u64 * reps,
            _ => 1,
        };
        let wa_factors: Vec<u32> = metas.iter().map(|m| m.wa_factor).collect();
        let Some(sp) = safe_point(
            &wa_factors,
            self.device.units(),
            self.units.len(),
            distinct_slices,
        ) else {
            return Err((SkipReason::InfeasiblePlan, initial));
        };
        Ok(Plan {
            mode,
            orchestration: match mode {
                ProfilingMode::SwapPartial => Orchestration::Sync,
                _ => self.opts.orchestration,
            },
            slots: self.alive.clone(),
            reps,
            slice: sp.slice_units,
            base: self.units.start,
            initial,
        })
    }

    /// The skip path: the whole range runs as one batch. Retry-then-fall-
    /// back: a variant whose launch keeps failing is quarantined and the
    /// next surviving candidate runs instead.
    fn run_skipped(
        &mut self,
        reason: SkipReason,
        mut selected: usize,
    ) -> Result<LaunchReport, DyselError> {
        // Say why profiling was skipped before the batch runs, so the
        // event stream reads in lifecycle order. A cached selection is a
        // warm skip when it came from the state file, a plain
        // selection-cache hit otherwise.
        if reason == SkipReason::CachedSelection {
            let (stage, counter) = if self.learned.warm {
                (Stage::WarmSkip, names::WARM_SKIPS)
            } else {
                (Stage::CacheHit, names::CACHE_HITS)
            };
            self.emit(stage, |e| e.variant(self.name(selected)).at(self.t_start.0));
            self.count(counter, 1);
        }
        self.timeline.clear();
        let (d, rec) = loop {
            let d = Dispatch::compute(selected, self.units);
            match self.launch_checked(d, self.t_start, None) {
                Ok(rec) => break (d, rec),
                Err(()) => {
                    self.quarantine(selected, QuarantineReason::LaunchFailed);
                    self.ensure_alive()?;
                    selected = self.alive[0];
                }
            }
        };
        self.record(LaunchKind::Batch, &d, &rec);
        Ok(LaunchReport {
            skipped: Some(reason),
            ..self.report(selected, rec.end)
        })
    }

    /// The profiling path. Guarantees the cleanup invariants: leased
    /// sandboxes go back to the pool, and on error the user buffers are
    /// restored bit-exactly from a pre-launch snapshot.
    fn run_profiled(&mut self, plan: &Plan) -> Result<LaunchReport, DyselError> {
        self.timeline.clear();
        // Copy-on-write snapshot: the healthy path pays a handful of Arc
        // clones, and a degraded-to-error launch restores from it exactly.
        let snapshot = self.args.clone();
        let result = self
            .lease(plan)
            .and_then(|extra_space_bytes| self.profile(plan, &snapshot, extra_space_bytes));
        for (vi, private) in std::mem::take(&mut self.private).into_iter().enumerate() {
            if let Some(sandbox) = private {
                self.sandboxes.give_back(self.signature, vi, sandbox);
            }
        }
        if result.is_err() {
            *self.args = snapshot;
        }
        result
    }

    /// Leases the private output copies sandboxed profiling writes into,
    /// from the sandbox pool so steady-state re-profiling recycles them
    /// instead of allocating each launch. Returns the extra space pinned.
    fn lease(&mut self, plan: &Plan) -> Result<u64, DyselError> {
        self.private = (0..self.variants.len()).map(|_| None).collect();
        let mut extra_space_bytes = 0u64;
        for (pos, &vi) in plan.slots.iter().enumerate() {
            let needs_copy = match plan.mode {
                ProfilingMode::FullyProductive => false,
                ProfilingMode::HybridPartial => pos > 0,
                ProfilingMode::SwapPartial => true,
            };
            if needs_copy {
                let sandbox_args = &self.variants[vi].meta.sandbox_args;
                extra_space_bytes += self.args.sandbox_bytes(sandbox_args)?;
                let obs = self.config.observe.as_deref();
                let lease =
                    self.sandboxes
                        .lease(self.signature, vi, self.args, sandbox_args, obs)?;
                self.private[vi] = Some(lease);
            }
        }
        Ok(extra_space_bytes)
    }

    /// Micro-profiling, selection, degradation and the remaining workload.
    /// Fault accounting lands in `self.faults` even when this fails.
    fn profile(
        &mut self,
        plan: &Plan,
        snapshot: &Args,
        extra_space_bytes: u64,
    ) -> Result<LaunchReport, DyselError> {
        let profiled = self.profile_batch(plan);
        // In hybrid mode the first candidate writes the live slice; if
        // every one of its launches failed, that slice is unwritten.
        let first = plan.slots[0];
        if plan.mode == ProfilingMode::HybridPartial
            && !self.alive.contains(&first)
            && !profiled.iter().any(|p| p.variant == first)
        {
            self.dead.push(plan.slice(0, 0));
        }

        // Per-variant best-of-reps measurements (quarantined and
        // launch-less variants surface as `Cycles::MAX` and can never win).
        let measurements: Vec<Measurement> = (0..self.variants.len())
            .map(|i| {
                let runs = || profiled.iter().filter(move |p| p.variant == i);
                Measurement {
                    variant: VariantId(i),
                    measured: runs()
                        .filter_map(|p| p.record.measured)
                        .min()
                        .unwrap_or(Cycles::MAX),
                    true_time: runs().map(|p| p.record.span()).min().unwrap_or(Cycles::MAX),
                }
            })
            .collect();
        self.discard_over_deadline(&measurements);

        // The host waits only for launches of variants it still cares about.
        let profile_end = profiled
            .iter()
            .filter(|p| self.alive.contains(&p.variant))
            .map(|p| p.record.end)
            .max()
            .unwrap_or(self.t_start);
        if self.config.validate_outputs && plan.mode != ProfilingMode::FullyProductive {
            self.check_consensus(plan, &profiled, snapshot)?;
        }
        self.ensure_alive()?;

        // ---- asynchronous eager execution (Fig. 4(b), Fig. 5) -----------
        let end = self.units.end;
        let mut next_unit = self.units.start + plan.productive_units();
        let mut eager_chunks = 0u64;
        let mut chunk_ends = Cycles::ZERO;
        let mut t_host = self.t_start;
        if plan.orchestration == Orchestration::Async {
            let chunk_groups = self
                .opts
                .chunk_groups_per_unit
                .unwrap_or(DEFAULT_CHUNK_GROUPS_PER_UNIT)
                .max(1)
                * u64::from(self.device.units());
            let all_done = |t: Cycles, alive: &[usize]| {
                profiled
                    .iter()
                    .filter(|p| alive.contains(&p.variant))
                    .all(|p| p.record.end <= t)
            };
            while next_unit < end {
                // One status query per still-running profiling launch.
                let unfinished = profiled
                    .iter()
                    .filter(|p| self.alive.contains(&p.variant) && p.record.end > t_host)
                    .count()
                    .max(1);
                t_host += self.device.query_latency() * unfinished as u64;
                if all_done(t_host, &self.alive) {
                    break;
                }
                // Wait for a vacant execution unit before dispatching a chunk.
                let free = self.device.earliest_unit_free();
                if free > t_host {
                    t_host = free;
                    if all_done(t_host, &self.alive) {
                        break;
                    }
                }
                // The chunk runs with the best surviving variant the host
                // has seen so far; before any measurement lands, that is
                // the suggested initial default (Fig. 5(b)/(c)).
                let current = best_so_far(&profiled, &self.alive, t_host)
                    .unwrap_or_else(|| clamp(&self.alive, plan.initial))
                    .0;
                let chunk_units = chunk_groups * u64::from(self.variants[current].meta.wa_factor);
                let chunk_end = (next_unit + chunk_units).min(end);
                let d = Dispatch::compute(current, UnitRange::new(next_unit, chunk_end));
                match self.launch_checked(d, t_host, None) {
                    Ok(rec) => {
                        self.record(LaunchKind::EagerChunk, &d, &rec);
                        eager_chunks += 1;
                        chunk_ends = chunk_ends.max(rec.end);
                        next_unit = chunk_end;
                        // Asynchronous enqueue: the host only pays the
                        // submission side of the launch overhead.
                        t_host += self.device.launch_overhead() / 4;
                    }
                    // A failed launch executed nothing: quarantine the
                    // variant and re-dispatch the same chunk with another.
                    Err(()) => {
                        self.quarantine(current, QuarantineReason::LaunchFailed);
                        self.ensure_alive()?;
                    }
                }
            }
        }

        // ---- selection ---------------------------------------------------
        let t_sel = t_host.max(profile_end) + self.device.query_latency();
        // Surviving candidates by measurement; ties keep the lower index,
        // so a healthy run selects exactly what the paper's arg-min would.
        let mut order = self.alive.clone();
        order.sort_by_key(|&vi| (measurements[vi].measured, vi));
        let mut t_val = t_sel;
        // Fully-productive slices were each written by a DIFFERENT
        // variant, so no consensus exists; instead the winner recomputes
        // the losers' slices into a scratch sandbox (and a referee
        // recomputes the winner's).
        if self.config.validate_outputs
            && plan.mode == ProfilingMode::FullyProductive
            && order.len() >= 2
        {
            let scratch = self.sandboxes.lease(
                self.signature,
                VALIDATE_SLOT,
                self.args,
                &self.variants[order[0]].meta.sandbox_args,
                self.config.observe.as_deref(),
            )?;
            self.scratch = Some(scratch);
            let validated = self.validate(plan, &mut order, &mut t_val);
            let scratch = self.scratch.take().expect("leased above");
            self.sandboxes
                .give_back(self.signature, VALIDATE_SLOT, scratch);
            validated?;
        }
        let winner = order[0];
        self.emit(Stage::Select, |e| {
            e.variant(self.name(winner))
                .at(t_val.0)
                .detail(format!("measured={}", measurements[winner].measured.0))
        });
        // Swap-based: adopt the winner's private outputs as the final output.
        if plan.mode == ProfilingMode::SwapPartial {
            if let Some(private) = self.private[winner].as_mut() {
                self.args
                    .adopt_outputs(private, &self.variants[winner].meta.sandbox_args)?;
            }
        }

        // ---- repairs -----------------------------------------------------
        // Re-execute every dead productive slice with the winner so the
        // final output is exactly what an all-healthy launch would have
        // produced. Every repair is enqueued at the same host issue time
        // (`t_val`): the compute stream serializes them, and the per-launch
        // overhead overlaps execution of the previous repair (pipelined
        // enqueue) instead of being paid again between every pair.
        let mut t_repair = t_val;
        for range in std::mem::take(&mut self.dead) {
            let rec = self.run_winner(LaunchKind::Repair, winner, range, t_val)?;
            self.faults.repaired_slices += 1;
            self.faults.repaired_units += range.len();
            t_repair = t_repair.max(rec.end);
        }

        // ---- remaining workload ------------------------------------------
        // Issued at selection time; the compute stream already orders it
        // behind any repairs (same pipelined-enqueue overlap as above).
        let mut total_end = t_val.max(chunk_ends).max(profile_end).max(t_repair);
        if next_unit < end {
            let units = UnitRange::new(next_unit, end);
            let rec = self.run_winner(LaunchKind::Batch, winner, units, t_val)?;
            total_end = total_end.max(rec.end);
        }

        let productive_units = plan
            .productive_units()
            .saturating_sub(self.faults.repaired_units);
        let profiled_units = plan.slots.len() as u64 * plan.reps * plan.slice;
        Ok(LaunchReport {
            mode: Some(plan.mode),
            orchestration: plan.orchestration,
            profile_time: t_val.saturating_sub(self.t_start),
            measurements,
            productive_units,
            wasted_units: profiled_units.saturating_sub(productive_units),
            extra_space_bytes,
            eager_chunks,
            ..self.report(winner, total_end)
        })
    }

    /// Issues all K × reps profiling launches as ONE device batch: they are
    /// mutually independent (disjoint productive slices, or private
    /// sandboxes), so each may read its target as it was before the batch
    /// while the device schedules them in issue order. A failed
    /// entry is retried serially — its slot in the batch schedule is gone,
    /// but a profiling slice is small and the stream otherwise idle.
    fn profile_batch(&mut self, plan: &Plan) -> Vec<ProfiledLaunch> {
        let variants = self.variants;
        let dispatches: Vec<Dispatch> = plan
            .slots
            .iter()
            .enumerate()
            .flat_map(|(pos, &vi)| {
                let target = match self.private[vi] {
                    Some(_) => Target::Private,
                    None => Target::Live,
                };
                (0..plan.reps).map(move |r| Dispatch {
                    variant: vi,
                    target,
                    units: plan.slice(pos, r),
                    stream: StreamId(pos as u32 + 1),
                    measured: true,
                })
            })
            .collect();
        // targets[0] is the live argument set; each leased sandbox follows.
        let mut targets: Vec<&mut Args> = vec![&mut *self.args];
        let mut target_of = vec![0; variants.len()];
        for (vi, private) in self.private.iter_mut().enumerate() {
            if let Some(sandbox) = private {
                target_of[vi] = targets.len();
                targets.push(sandbox);
            }
        }
        let entries: Vec<BatchEntry<'_>> = dispatches
            .iter()
            .map(|d| BatchEntry {
                kernel: variants[d.variant].kernel.as_ref(),
                meta: &variants[d.variant].meta,
                units: d.units,
                target: target_of[d.variant],
                stream: d.stream,
                not_before: self.t_start,
                measured: true,
                budget: None,
            })
            .collect();
        self.launches += entries.len() as u64;
        let outcomes = self.device.launch_batch(&entries, &mut targets);
        debug_assert_eq!(outcomes.len(), entries.len());

        let mut profiled = Vec::with_capacity(dispatches.len());
        for (d, outcome) in dispatches.into_iter().zip(outcomes) {
            let record = match outcome {
                LaunchOutcome::Preempted(p) => {
                    // The launch blew its cycle budget and was cut off
                    // mid-slice; the device discarded its partial writes.
                    // Fold the preemption into the deadline rung of the
                    // ladder: quarantine the variant and hand any
                    // productive slice it owned to the winner for repair.
                    self.faults.preemptions += 1;
                    self.faults.preempted_groups += p.groups_done;
                    self.faults.preempted_cycles += p.cycles_spent;
                    self.faults.deadline_discards += 1;
                    self.quarantine(d.variant, QuarantineReason::DeadlineExceeded);
                    None
                }
                outcome => match self.launch_checked(d, self.t_start, Some(outcome)) {
                    Ok(rec) => Some(rec),
                    Err(()) => {
                        self.quarantine(d.variant, QuarantineReason::LaunchFailed);
                        None
                    }
                },
            };
            let Some(record) = record else {
                if plan.mode == ProfilingMode::FullyProductive {
                    // Its productive slice was never written.
                    self.dead.push(d.units);
                }
                continue;
            };
            if let Some(obs) = &self.config.observe {
                obs.count(names::PROFILE_LAUNCHES, 1);
                if let Some(m) = record.measured {
                    let key = dysel_obs::profile_cycles_key(self.signature, self.name(d.variant));
                    obs.record_hist(&key, m.0);
                }
            }
            self.record(LaunchKind::Profile, &d, &record);
            profiled.push(ProfiledLaunch {
                variant: d.variant,
                record,
            });
        }
        profiled
    }

    /// Deadline discard (hang guard): a variant whose measurement exceeds
    /// `factor * best` is dropped — the host stops waiting for it instead
    /// of stalling selection. Its data is valid (the launch did complete
    /// in virtual time), so no repair.
    fn discard_over_deadline(&mut self, measurements: &[Measurement]) {
        let Some(factor) = self.config.profile_deadline_factor else {
            return;
        };
        let measured = |vi: usize| measurements[vi].measured;
        let best = self
            .alive
            .iter()
            .map(|&vi| measured(vi))
            .filter(|&m| m < Cycles::MAX)
            .min();
        let Some(best) = best else {
            return;
        };
        let budget = Cycles::from_f64(best.as_f64() * factor.max(1.0));
        let over: Vec<usize> = self
            .alive
            .iter()
            .copied()
            .filter(|&vi| measured(vi) > budget)
            .collect();
        for vi in over {
            self.faults.deadline_discards += 1;
            self.quarantine(vi, QuarantineReason::DeadlineExceeded);
        }
    }

    /// Output consensus (sandboxed modes): hybrid/swap candidates all
    /// computed the SAME slice, so their output digests must agree.
    /// Computed before any eager chunk touches the live buffers.
    fn check_consensus(
        &mut self,
        plan: &Plan,
        profiled: &[ProfiledLaunch],
        snapshot: &Args,
    ) -> Result<(), DyselError> {
        let first = plan.slots[0];
        let outs = outputs_of(&self.variants[first].meta, self.args);
        let mut digests: Vec<(usize, u64)> = Vec::new();
        for &vi in &self.alive {
            if profiled.iter().any(|p| p.variant == vi) {
                let out = self.private[vi].as_ref().unwrap_or(self.args);
                digests.push((vi, out.changed_digest(snapshot, &outs)?));
            }
        }
        if digests.len() < 2 {
            return Ok(());
        }
        let mut groups: HashMap<u64, Vec<usize>> = HashMap::new();
        for &(vi, d) in &digests {
            groups.entry(d).or_default().push(vi);
        }
        // Largest agreeing group wins; ties prefer the group holding the
        // live-slice writer, then the lowest variant index.
        let trusted = groups
            .values()
            .max_by_key(|members| {
                (
                    members.len(),
                    members.contains(&first),
                    std::cmp::Reverse(members[0]),
                )
            })
            .cloned()
            .unwrap_or_default();
        for (vi, _) in digests {
            if !trusted.contains(&vi) {
                self.faults.validation_failures += 1;
                self.quarantine(vi, QuarantineReason::WrongOutput);
                if plan.mode == ProfilingMode::HybridPartial && vi == first {
                    // The dissenter wrote the live slice: re-execute it.
                    self.dead.push(plan.slice(0, 0));
                }
            }
        }
        Ok(())
    }

    /// Fully-productive winner validation (two passes over the scratch
    /// sandbox).
    ///
    /// Pass 1: the provisional winner recomputes every runner-up's
    /// productive slices and flags those whose bits disagree with what the
    /// runner-up wrote. Pass 2: a referee (the best non-suspect runner-up)
    /// recomputes the *winner's* slices — this runs even with zero
    /// suspects, because a corrupt winner whose validation launches happen
    /// to be clean (a windowed fault) is otherwise invisible. A winner
    /// contradicted by the referee, or by ALL of at least two runner-ups,
    /// is quarantined and its slices marked dead; otherwise the dissenting
    /// runner-ups are.
    ///
    /// With only two candidates left and a disagreement, the pair is
    /// indistinguishable; the runtime trusts the (faster) winner — the
    /// documented K=2 limitation.
    fn validate(
        &mut self,
        plan: &Plan,
        order: &mut Vec<usize>,
        t_val: &mut Cycles,
    ) -> Result<(), DyselError> {
        while order.len() >= 2 {
            let winner = order[0];
            // Pass 1: winner recomputes each runner-up's slices.
            let mut suspects: Vec<usize> = Vec::new();
            let mut checked = 0usize;
            let mut winner_broke = false;
            for &cand in &order[1..] {
                match self.recompute(plan, winner, cand, t_val)? {
                    Some(differs) => {
                        checked += 1;
                        if differs {
                            suspects.push(cand);
                        }
                    }
                    None => {
                        winner_broke = true;
                        break;
                    }
                }
            }
            if winner_broke {
                // The winner cannot even launch any more: quarantine it.
                // Its own productive slices were written successfully
                // earlier and stay valid — no repair needed.
                self.quarantine(winner, QuarantineReason::LaunchFailed);
                order.remove(0);
                continue;
            }

            // Pass 2: a referee recomputes the winner's slices.
            let mut winner_bad = checked >= 2 && !suspects.is_empty() && suspects.len() == checked;
            let referee = order[1..].iter().find(|vi| !suspects.contains(vi)).copied();
            if let Some(rf) = referee {
                match self.recompute(plan, rf, winner, t_val)? {
                    Some(differs) => winner_bad |= differs,
                    None => {
                        self.quarantine(rf, QuarantineReason::LaunchFailed);
                        order.retain(|&vi| vi != rf);
                        continue; // same winner, next referee
                    }
                }
            }

            if winner_bad {
                self.faults.validation_failures += 1;
                self.quarantine(winner, QuarantineReason::WrongOutput);
                self.dead.extend(plan.slices_of(winner));
                order.remove(0);
                continue; // revalidate under the next-best winner
            }
            // Winner confirmed: the dissenting runner-ups are the wrong ones.
            for &cand in &suspects {
                self.faults.validation_failures += 1;
                self.quarantine(cand, QuarantineReason::WrongOutput);
                self.dead.extend(plan.slices_of(cand));
            }
            order.retain(|vi| !suspects.contains(vi));
            return Ok(());
        }
        Ok(())
    }

    /// Variant `by` recomputes every slice variant `of` profiled into the
    /// refreshed scratch sandbox: `Some(true)` when any recomputed bits
    /// disagree with the live output, `None` when a recompute launch
    /// itself failed.
    fn recompute(
        &mut self,
        plan: &Plan,
        by: usize,
        of: usize,
        t_val: &mut Cycles,
    ) -> Result<Option<bool>, DyselError> {
        let outs = outputs_of(&self.variants[by].meta, self.args);
        let mut differs = false;
        for units in plan.slices_of(of) {
            let scratch = self.scratch.as_mut().expect("leased");
            scratch.refresh_from(self.args)?;
            self.faults.validation_launches += 1;
            let d = Dispatch {
                variant: by,
                target: Target::Scratch,
                units,
                stream: VALIDATE_STREAM,
                measured: false,
            };
            let Ok(rec) = self.launch_checked(d, *t_val, None) else {
                return Ok(None);
            };
            self.record(LaunchKind::Validate, &d, &rec);
            *t_val = (*t_val).max(rec.end);
            let scratch = self.scratch.as_ref().expect("leased");
            differs |= self.args.bits_differ(scratch, &outs)?;
        }
        Ok(Some(differs))
    }

    /// Scores a finished launch: the prune audit, the prediction verdict,
    /// the drift watch (skip path) or the fresh selection (profiling path),
    /// and the report metrics.
    fn score(&mut self, mut report: LaunchReport) -> LaunchReport {
        // Audit-mode falsification: a winner — freshly profiled or reused —
        // that the dominance rule would have pruned falsifies the rule for
        // this signature. Counting reused winners too keeps warm and cold
        // metric streams at parity.
        if self.config.prune == PruneLevel::Audit && self.would_prune.contains(&report.selected.0) {
            report.prune_disagreement = true;
            self.count(names::PRUNE_DISAGREEMENTS, 1);
            let what = match report.skipped {
                Some(_) => "cached selection",
                None => "micro-profiling winner",
            };
            let finding = Diagnostic::new(
                LintCode::PruningDisagreement,
                report.selected_name.as_str(),
                format!(
                    "dominance pruning would have excluded the {what}; \
                     the static rule is falsified for this signature"
                ),
            );
            record_diags(self.diagnostics, self.config, self.signature, vec![finding]);
        }
        // A launch with no prediction (mode off, no model, model could not
        // rank) leaves the prediction fields `None` and the counters alone.
        if let Some(predicted) = self.predicted.take() {
            let hit = predicted == report.selected_name;
            let counter = if hit {
                names::PREDICT_HITS
            } else {
                names::PREDICT_MISSES
            };
            self.count(counter, 1);
            report.predict_hit = Some(hit);
            report.predicted = Some(predicted);
        }
        match report.skipped {
            Some(reason) => self.watch_drift(reason, &mut report),
            None => {
                // A fresh profile starts a fresh bet; the drift watch
                // re-seeds its per-unit-cost floor from the next skip-path
                // launch. Only a micro-profiling winner becomes the
                // stream's winner: a skipped launch keeps the stored one.
                self.drift.remove(self.signature);
                self.learned
                    .select(report.selected, self.variants.len() as u32);
            }
        }
        fold_report_metrics(self.config, &report);
        report
    }

    /// Drift watch. Reusing a selection without measuring alternatives is
    /// a bet; the watch hedges it. The per-unit cost of each skip-path
    /// launch is compared against the cheapest seen so far, and after
    /// [`DRIFT_WINDOW`] consecutive launches above the band the selection
    /// is invalidated — the next launch falls through to live
    /// micro-profiling.
    fn watch_drift(&mut self, reason: SkipReason, report: &mut LaunchReport) {
        let total_units = self.units.len();
        if self.config.predict == PredictLevel::Off
            || !matches!(reason, SkipReason::CachedSelection | SkipReason::Predicted)
            || total_units == 0
        {
            return;
        }
        let cost = report.total_time.0.saturating_mul(1000) / total_units;
        let t = self
            .drift
            .entry(self.signature.to_owned())
            .or_insert(DriftTracker {
                floor: cost,
                over: 0,
                hold: false,
            });
        if cost.saturating_mul(1000) <= t.floor.saturating_mul(DRIFT_FACTOR_PM) {
            t.over = 0;
            t.floor = t.floor.min(cost);
            return;
        }
        t.over += 1;
        if t.over < DRIFT_WINDOW || t.hold {
            return;
        }
        // Keep the entry: the `hold` suppresses prediction skips until the
        // re-profile removes it.
        t.hold = true;
        t.over = 0;
        report.drift_reprofiled = true;
        self.learned.invalidate();
        self.emit(Stage::Predict, |e| {
            e.variant(&report.selected_name)
                .at(self.t_start.0)
                .detail("drift-reprofile")
        });
        self.count(names::PREDICT_DRIFT_REPROFILES, 1);
    }
}

/// The trained model prediction consults: configured, non-empty, and
/// prediction not [`PredictLevel::Off`].
fn active_model(config: &RuntimeConfig) -> Option<&dysel_predict::Model> {
    config
        .predict_model
        .as_deref()
        .filter(|m| config.predict != PredictLevel::Off && !m.is_empty())
}

/// Folds one finished launch's report into the observation metrics. The
/// per-launch fault counters land here (exactly once per report);
/// quarantines are counted at the quarantine site instead, because
/// sanitizer-path quarantines never reach a report.
fn fold_report_metrics(config: &RuntimeConfig, report: &LaunchReport) {
    let Some(obs) = &config.observe else {
        return;
    };
    obs.count(names::LAUNCHES, 1);
    obs.count(names::DEVICE_LAUNCHES, report.launches);
    obs.count(names::LAUNCH_ERRORS, report.faults.launch_errors);
    obs.count(names::RETRIES, report.faults.retries);
    obs.count(names::PREEMPTIONS, report.faults.preemptions);
    obs.count(names::DEADLINE_DISCARDS, report.faults.deadline_discards);
    obs.count(
        names::VALIDATION_FAILURES,
        report.faults.validation_failures,
    );
    obs.count(names::REPAIRED_SLICES, report.faults.repaired_slices);
}

/// Records verifier findings for a signature, skipping exact duplicates —
/// re-verifying the same metadata on every launch must not grow the list —
/// and capping the kept findings at [`MAX_DIAGS_PER_SIGNATURE`]: a lenient
/// runtime relaunching a bad signature with ever-changing arguments must
/// not grow its diagnostics store without bound either. Findings past the
/// cap only bump the slot's drop counter (and the
/// `dysel_diagnostics_dropped_total` metric when observation is on).
/// A free function (not a method) so callers holding disjoint-field borrows
/// of the runtime can still record.
fn record_diags(
    store: &mut HashMap<String, DiagSlot>,
    config: &RuntimeConfig,
    signature: &str,
    diags: Vec<Diagnostic>,
) {
    if diags.is_empty() {
        return;
    }
    let slot = store.entry(signature.to_owned()).or_default();
    for d in diags {
        if slot.diags.contains(&d) {
            continue;
        }
        if slot.diags.len() >= MAX_DIAGS_PER_SIGNATURE {
            slot.dropped += 1;
            if let Some(obs) = &config.observe {
                obs.count(names::DIAG_DROPPED, 1);
            }
            continue;
        }
        slot.diags.push(d);
    }
}

/// Clamps a selection to the surviving candidate set.
fn clamp(alive: &[usize], id: VariantId) -> VariantId {
    if alive.contains(&id.0) {
        id
    } else {
        VariantId(alive[0])
    }
}

/// The declared output arguments of a variant that exist in `args`.
fn outputs_of(meta: &VariantMeta, args: &Args) -> Vec<usize> {
    meta.ir
        .output_args
        .iter()
        .copied()
        .filter(|&i| i < args.len())
        .collect()
}

/// Best (minimum measured) surviving variant among profiling launches the
/// host has observed complete by `t`.
fn best_so_far(profiled: &[ProfiledLaunch], alive: &[usize], t: Cycles) -> Option<VariantId> {
    profiled
        .iter()
        .filter(|p| alive.contains(&p.variant) && p.record.end <= t)
        .filter_map(|p| p.record.measured.map(|m| (m, p.variant)))
        .min()
        .map(|(_, v)| VariantId(v))
}
