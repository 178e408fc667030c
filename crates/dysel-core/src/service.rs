//! A shared, multi-tenant launch service over the single-owner [`Runtime`].
//!
//! The runtime is deliberately a synchronous `&mut self` object: one
//! signature profiled at a time, deterministic by construction. Production
//! selection services face the opposite shape — many client threads
//! submitting launches for thousands of signatures concurrently, with
//! long-lived learned state shared across all of them. [`LaunchService`]
//! bridges the two without giving up determinism:
//!
//! * **Sharded execution.** Every `(tenant, signature)` pair is a
//!   *stream*. A stream hashes to one of N shards; each shard owns one
//!   worker thread and a FIFO queue, so all launches of one stream are
//!   serialized in submission order while distinct streams proceed in
//!   parallel. Per-shard locks replace the global `&mut`.
//! * **Per-stream lanes.** The first launch of a stream materializes a
//!   *lane*: a private [`Runtime`] on a private device (from the service's
//!   device factory) with a private event sink and a private virtual
//!   address space ([`crate::RuntimeConfig::private_addrs`] — the device
//!   cache models price buffer addresses, so lanes must not share the
//!   process-global allocator). Virtual clocks, fault-plan counters,
//!   event sequence numbers and buffer addresses are therefore never
//!   shared across streams — each stream's reports, selection digest and
//!   exported trace bytes are bit-identical to the same submissions
//!   replayed serially on a plain `Runtime` with the same per-lane
//!   config. That is the **shard determinism contract**, and
//!   `tests/service.rs` enforces it at 1, 2 and 8 client threads.
//! * **Admission control.** Queues are bounded. A full shard pushes back
//!   with a typed [`SubmitError::Busy`] (the caller gets its buffers back
//!   and decides when to retry); an unknown signature or a shutdown in
//!   progress is a typed [`SubmitError::Rejected`]. Nothing blocks
//!   unboundedly.
//! * **Tenant isolation.** Lanes are keyed by tenant: selection,
//!   quarantine and diagnostics state never leak between tenants even for
//!   the same signature. [`crate::TenantId`] is threaded through
//!   [`LaunchReport`], event attribution (the lane sink stamps it on every
//!   event; Chrome traces group by it as the `pid`) and the v3 persist
//!   format.
//! * **One learned-state store.** Every lane runtime reads and commits
//!   its stream's winner, warm marker and quarantine list through the
//!   service's [`ShardedCache`] (DESIGN.md §4.16), once each per launch;
//!   the service then records the variant the launch ran as the stream's
//!   selection. Every update is atomic under the store's shard lock, so
//!   [`LaunchService::save_state`] can never observe a torn entry.
//!   `tests/persistence.rs` storms the service while saving concurrently
//!   to prove it.
//!
//! # Fault containment (`DESIGN.md` §4.17)
//!
//! A service that multiplexes many tenants must assume some of their
//! kernels are hostile to its liveness. Four mechanisms keep a fault
//! inside the `(tenant, signature)` lane that caused it:
//!
//! * **Lane supervision.** Every launch runs under `catch_unwind`. A
//!   panicking kernel poisons only its own lane — the lane is discarded
//!   (a later submission builds a fresh one, which reads everything the
//!   stream's earlier launches committed to the store), the ticket
//!   resolves [`DyselError::LanePanicked`] with the buffers handed back
//!   (contents unspecified), and the stream's circuit breaker trips.
//!   Other lanes, the worker and the service never notice.
//! * **Worker supervision.** A supervisor thread restarts shard workers
//!   that die anyway (a bug, or an injected [`ChaosAction::Kill`]) with
//!   bounded deterministic backoff; jobs stranded on a dead worker —
//!   queued or in flight — resolve [`DyselError::WorkerDied`], never
//!   hang. Past [`ServiceConfig::max_worker_restarts`] the shard is
//!   declared dead and submissions answer [`RejectReason::ShardFailed`].
//! * **Deadlines and a watchdog.** [`LaunchService::submit_with_deadline`]
//!   stamps an expiry: a job whose deadline passed before its worker got
//!   to it resolves [`DyselError::DeadlineExpired`] without touching the
//!   lane. [`Ticket::wait_timeout`] bounds the caller side. When
//!   [`ServiceConfig::stuck_after`] is set, the supervisor also watches
//!   each shard's in-flight launch and escalates a wall-clock-stuck lane
//!   into the breaker ladder.
//! * **Circuit breakers.** Per-stream: [`BreakerConfig::failures_to_open`]
//!   consecutive failures (or a single panic, or a stuck verdict) open
//!   the breaker — submissions fail fast with [`SubmitError::LaneFailed`]
//!   for a cooldown, then a single half-open probe either closes it or
//!   re-opens it with doubled (capped) cooldown.
//!
//! # Crash recovery
//!
//! With [`ServiceConfig::state_path`] set, the store appends every change
//! a lane commits — selection, quarantine, invalidation — to a
//! checksummed write-ahead journal (`<state_path>.journal`, see
//! [`crate::journal`]) before the next checkpoint folds it into the
//! atomic v5 state file. Construction replays checkpoint, then journal,
//! into the store — tolerating a torn tail from a killed process — and
//! rewrites a merged checkpoint, so a `SIGKILL` at any point loses at
//! most the record being written. The deterministic chaos
//! harness (`tests/chaos.rs`) drives panics, worker kills and journal
//! kill-points from a seeded [`ChaosPlan`] and asserts all of the above.
//!
//! # Locking policy
//!
//! Every `Mutex`/`Condvar` acquisition in this module goes through
//! [`lock`] (or the equivalent `unwrap_or_else(PoisonError::into_inner)`
//! on `Condvar` waits): poisoning is deliberately ignored. Rationale:
//! kernel panics are caught *inside* the lane guard's scope, so a
//! poisoned mutex can only mean a worker died between two guarded
//! mutations — and every guarded region leaves the map/queue it touches
//! structurally consistent at each await point (inserts and removes are
//! single calls, never staged). Recovery — not cascading the panic — is
//! the correct policy for a supervisor that must keep other tenants
//! running. `KernelPool` (see `pool.rs`) holds no locks at all; the
//! registry is guarded here, by the service.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dysel_device::Device;
use dysel_kernel::{Args, Variant, FNV_OFFSET};
use dysel_obs::{names, Event, EventSink, MetricsSnapshot, Stage};

use crate::chaos::{ChaosAction, ChaosPlan};
use crate::journal::{self, Journal};
use crate::options::{RuntimeConfig, TenantId};
use crate::persist::{self, RuntimeState, StateError};
use crate::pool::KernelPool;
use crate::report::LaunchReport;
use crate::runtime::Runtime;
use crate::store::{fnv_fold, lock, ShardedCache, StreamKey};
use crate::{DyselError, LaunchOptions};

/// How often the supervisor polls worker liveness and the watchdog slots.
const SUPERVISOR_POLL: Duration = Duration::from_millis(1);

/// Panic payloads for injected chaos faults ([`ChaosPlan`]).
const CHAOS_PANIC: &str = "chaos: injected lane panic";
const CHAOS_KILL: &str = "chaos: injected worker kill";

/// Why a submission was refused outright (no queue slot was consumed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// No kernel variants are registered under the signature.
    UnknownSignature,
    /// The service is shutting down.
    ShuttingDown,
    /// The stream's shard worker died more than
    /// [`ServiceConfig::max_worker_restarts`] times and was retired; the
    /// shard no longer executes anything.
    ShardFailed,
}

/// Typed submission backpressure. Every variant hands the argument
/// buffers back (`args`) so the caller can retry without re-building
/// them.
#[derive(Debug)]
pub enum SubmitError {
    /// The stream's shard queue is full — admission control. Retry later;
    /// nothing was enqueued.
    Busy {
        /// Stream that was refused.
        key: StreamKey,
        /// Shard whose queue is full.
        shard: usize,
        /// The configured per-shard queue capacity.
        capacity: usize,
        /// The submission's buffers, returned untouched.
        args: Args,
    },
    /// The submission is not admissible at all (unknown signature,
    /// shutdown, or a retired shard); retrying without fixing the cause
    /// will fail again.
    Rejected {
        /// Stream that was refused.
        key: StreamKey,
        /// Why.
        reason: RejectReason,
        /// The submission's buffers, returned untouched.
        args: Args,
    },
    /// The stream's circuit breaker is open after repeated failures (or a
    /// panic): the service fails fast instead of queueing work it expects
    /// to fail. Retry after `retry_after`; nothing was enqueued.
    LaneFailed {
        /// Stream whose breaker is open.
        key: StreamKey,
        /// Time left until the breaker admits a half-open probe.
        retry_after: Duration,
        /// The submission's buffers, returned untouched.
        args: Args,
    },
}

impl SubmitError {
    /// Recovers the argument buffers for a retry.
    pub fn into_args(self) -> Args {
        match self {
            SubmitError::Busy { args, .. }
            | SubmitError::Rejected { args, .. }
            | SubmitError::LaneFailed { args, .. } => args,
        }
    }
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Busy {
                key,
                shard,
                capacity,
                ..
            } => write!(
                f,
                "shard {shard} queue full ({capacity}) for {} {:?}",
                key.tenant, key.signature
            ),
            SubmitError::Rejected { key, reason, .. } => write!(
                f,
                "submission for {} {:?} rejected: {}",
                key.tenant,
                key.signature,
                match reason {
                    RejectReason::UnknownSignature => "unknown signature",
                    RejectReason::ShuttingDown => "service shutting down",
                    RejectReason::ShardFailed => "shard worker failed permanently",
                }
            ),
            SubmitError::LaneFailed {
                key, retry_after, ..
            } => write!(
                f,
                "circuit breaker open for {} {:?} (retry in {retry_after:?})",
                key.tenant, key.signature
            ),
        }
    }
}

impl std::error::Error for SubmitError {}

/// What one submission resolves to: the buffers come back in either case.
/// On a typed error they are untouched — except [`DyselError::LanePanicked`],
/// where the panicking kernel may have partially written them.
pub type LaunchOutcome = (Args, Result<LaunchReport, DyselError>);

#[derive(Debug)]
struct TicketState {
    slot: Mutex<Option<LaunchOutcome>>,
    cv: Condvar,
}

/// A handle to one accepted submission. [`Ticket::wait`] blocks until the
/// stream's shard worker has executed the launch.
///
/// Waiting cannot hang on a dead worker: a job stranded by a worker death
/// — whether queued behind it or in flight on it — is resolved with
/// [`DyselError::WorkerDied`] (by the unwinding worker itself or by the
/// supervisor's drain), so every ticket resolves. Use
/// [`Ticket::wait_timeout`] to additionally bound the wait against
/// *slow* launches.
#[derive(Debug)]
pub struct Ticket {
    state: Arc<TicketState>,
}

impl Ticket {
    /// Blocks until the launch completed and returns its buffers and
    /// report (or typed error).
    pub fn wait(self) -> LaunchOutcome {
        let mut slot = lock(&self.state.slot);
        loop {
            if let Some(out) = slot.take() {
                return out;
            }
            slot = self
                .state
                .cv
                .wait(slot)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Waits at most `timeout`; returns the ticket back if the launch is
    /// still in flight so the caller can keep waiting (or drop it — the
    /// launch still runs to completion).
    pub fn wait_timeout(self, timeout: Duration) -> Result<LaunchOutcome, Ticket> {
        let deadline = Instant::now().checked_add(timeout);
        match deadline {
            Some(d) => self.wait_deadline(d),
            None => Ok(self.wait()),
        }
    }

    /// Waits until `deadline`; returns the ticket back if the launch is
    /// still in flight by then.
    pub fn wait_deadline(self, deadline: Instant) -> Result<LaunchOutcome, Ticket> {
        let mut slot = lock(&self.state.slot);
        loop {
            if let Some(out) = slot.take() {
                return Ok(out);
            }
            let now = Instant::now();
            if now >= deadline {
                drop(slot);
                return Err(self);
            }
            slot = self
                .state
                .cv
                .wait_timeout(slot, deadline - now)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    /// Returns the outcome if the launch already completed, the ticket
    /// otherwise.
    pub fn try_wait(self) -> Result<LaunchOutcome, Ticket> {
        let taken = lock(&self.state.slot).take();
        match taken {
            Some(out) => Ok(out),
            None => Err(self),
        }
    }
}

/// Builds a fresh device for one lane. Lanes never share a device — that
/// is what keeps per-stream virtual time (and thus determinism)
/// independent of how streams interleave across the service.
pub type DeviceFactory = Arc<dyn Fn() -> Box<dyn Device> + Send + Sync>;

/// Per-stream circuit-breaker tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive launch failures that open the breaker (min 1). A lane
    /// panic or a stuck-lane verdict opens it immediately, regardless.
    pub failures_to_open: u32,
    /// How long an open breaker fails fast before admitting a single
    /// half-open probe.
    pub cooldown: Duration,
    /// Cap for the cooldown doubling applied when a half-open probe fails.
    pub max_cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failures_to_open: 3,
            cooldown: Duration::from_millis(100),
            max_cooldown: Duration::from_secs(5),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    Closed,
    /// Failing fast until `until` (`None` = forever, from a cooldown too
    /// large for the clock).
    Open {
        until: Option<Instant>,
    },
    /// One probe is in flight; further submissions still fail fast.
    HalfOpen,
}

#[derive(Debug)]
struct Breaker {
    state: BreakerState,
    failures: u32,
    cooldown: Duration,
}

/// What construction recovered from the write-ahead journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryInfo {
    /// Journal records replayed over the checkpoint.
    pub replayed: u64,
    /// Whether the journal ended in a torn/corrupt tail (dropped; the
    /// replayed prefix is still good).
    pub torn: bool,
}

/// Configuration of a [`LaunchService`].
#[derive(Clone)]
pub struct ServiceConfig {
    /// Shard (worker thread) count, min 1.
    pub shards: usize,
    /// Bounded per-shard queue capacity, min 1; a full queue answers
    /// [`SubmitError::Busy`].
    pub queue_capacity: usize,
    /// Template for every lane's [`RuntimeConfig`]. The service overrides
    /// `tenant` (per lane), `observe` (per-lane sinks, see
    /// [`ServiceConfig::observe`]) and `state_path`, which a lane ignores:
    /// lanes never touch disk, the service loads and persists its one
    /// store through [`ServiceConfig::state_path`].
    pub runtime: RuntimeConfig,
    /// When `true`, every lane gets its own tenant-stamped event sink and
    /// [`LaunchService::stream_events`] returns per-stream traces. Off by
    /// default — the unobserved path allocates nothing.
    pub observe: bool,
    /// When set, [`LaunchService::save_state`] persists the multi-tenant
    /// state (v5 format) here, construction warm-restores from it, and a
    /// write-ahead journal at `<state_path>.journal` records every new
    /// decision between checkpoints (see the module docs on crash
    /// recovery).
    pub state_path: Option<PathBuf>,
    /// Per-stream circuit-breaker tuning.
    pub breaker: BreakerConfig,
    /// Journal records that trigger an automatic checkpoint (state-file
    /// rewrite + journal truncation), min 1. Only meaningful with
    /// [`ServiceConfig::state_path`].
    pub checkpoint_every: u64,
    /// When set, the supervisor flags a launch that has been executing
    /// longer than this wall-clock bound: counts it, and opens the
    /// stream's breaker so further submissions fail fast. `None` (the
    /// default) disables the watchdog — virtual-time simulation makes
    /// wall-clock bounds meaningless for most tests.
    pub stuck_after: Option<Duration>,
    /// Base of the supervisor's deterministic exponential restart backoff
    /// (restart *n* waits `restart_backoff * 2^min(n-1, 6)`).
    pub restart_backoff: Duration,
    /// Worker deaths per shard the supervisor tolerates before retiring
    /// the shard ([`RejectReason::ShardFailed`]).
    pub max_worker_restarts: u32,
    /// Deterministic fault-injection schedule for the chaos harness; see
    /// [`ChaosPlan`]. `None` (the default) injects nothing.
    pub chaos: Option<ChaosPlan>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            shards: 4,
            queue_capacity: 64,
            runtime: RuntimeConfig::default(),
            observe: false,
            state_path: None,
            breaker: BreakerConfig::default(),
            checkpoint_every: 256,
            stuck_after: None,
            restart_backoff: Duration::from_millis(5),
            max_worker_restarts: 8,
            chaos: None,
        }
    }
}

/// One queued submission. `args` stays inside the job until the ticket is
/// resolved, so dropping an unresolved job — a worker unwinding with it
/// in flight, a supervisor draining a dead shard's queue, the service
/// dropping with stranded work — hands the buffers back with a typed
/// [`DyselError::WorkerDied`] instead of hanging the waiter.
struct Job {
    key: StreamKey,
    args: Option<Args>,
    total_units: u64,
    opts: LaunchOptions,
    expires_at: Option<Instant>,
    ticket: Arc<TicketState>,
}

impl Drop for Job {
    fn drop(&mut self) {
        if let Some(args) = self.args.take() {
            let result = Err(DyselError::WorkerDied {
                signature: self.key.signature.clone(),
            });
            let mut slot = lock(&self.ticket.slot);
            *slot = Some((args, result));
            self.ticket.cv.notify_all();
        }
    }
}

/// The watchdog's view of a shard's in-flight launch.
struct ExecSlot {
    key: StreamKey,
    since: Instant,
    /// Already counted/escalated — one verdict per incident.
    flagged: bool,
}

/// Per-stream bookkeeping that survives lane discards (a reincarnated
/// lane keeps its stream's digest, launch count and event sink).
struct StreamStats {
    launches: u64,
    digest: u64,
    predict: PredictStats,
    sink: Option<Arc<EventSink>>,
}

impl Default for StreamStats {
    fn default() -> Self {
        StreamStats {
            launches: 0,
            digest: FNV_OFFSET,
            predict: PredictStats::default(),
            sink: None,
        }
    }
}

/// Prediction accounting for one tenant (or one stream): how the trained
/// model scored against the launches' final selections, and how often the
/// drift watch invalidated a reused selection. All zeros while prediction
/// is off.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredictStats {
    /// Launches whose prediction matched the final selection.
    pub hits: u64,
    /// Launches whose prediction missed.
    pub misses: u64,
    /// Launches whose drift watch invalidated the reused selection.
    pub drift_reprofiles: u64,
}

impl PredictStats {
    fn fold(&mut self, report: &LaunchReport) {
        match report.predict_hit {
            Some(true) => self.hits += 1,
            Some(false) => self.misses += 1,
            None => {}
        }
        if report.drift_reprofiled {
            self.drift_reprofiles += 1;
        }
    }

    fn add(&mut self, other: &PredictStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.drift_reprofiles += other.drift_reprofiles;
    }
}

struct Shard {
    queue: Mutex<VecDeque<Job>>,
    cv: Condvar,
    /// Stream lanes. The map lock is held only to look up / insert /
    /// discard a lane; the launch itself runs under the lane's own lock,
    /// so introspection never blocks behind a long launch.
    lanes: Mutex<HashMap<StreamKey, Arc<Mutex<Lane>>>>,
    /// Digests, launch counts and sinks, separate from the lanes so they
    /// survive a lane discard and stay readable mid-launch.
    stats: Mutex<HashMap<StreamKey, StreamStats>>,
    /// What this shard's worker is executing right now (watchdog input).
    executing: Mutex<Option<ExecSlot>>,
    /// Set by the supervisor once the restart budget is exhausted.
    dead: AtomicBool,
}

/// One stream's private execution state: its own runtime on its own
/// device. Discarded wholesale when a launch panics.
struct Lane {
    runtime: Runtime,
}

struct Inner {
    factory: DeviceFactory,
    config: ServiceConfig,
    registry: Mutex<KernelPool>,
    shards: Box<[Shard]>,
    /// The learned-state store every lane reads and commits through; it
    /// journals each change when a state path is configured.
    cache: Arc<ShardedCache>,
    /// What went wrong loading the checkpoint or opening the journal.
    state_error: Option<StateError>,
    shutdown: AtomicBool,
    /// Service-level admission/containment counters and events (always
    /// on). Never routed to lane sinks — lane traces must stay
    /// bit-identical to serial replay.
    sink: Arc<EventSink>,
    /// Per-stream circuit breakers (entries materialize on first failure).
    breakers: Mutex<HashMap<StreamKey, Breaker>>,
    /// Mutable chaos schedule (per-stream counters advance in here).
    chaos: Mutex<Option<ChaosPlan>>,
    /// What construction recovered from the journal (`None` without a
    /// state path).
    recovery: Option<RecoveryInfo>,
    /// Worker join handles, shared with the supervisor for restarts.
    handles: Mutex<Vec<Option<JoinHandle<()>>>>,
}

/// An `Arc`-shareable, multi-tenant launch service. See the module docs
/// for the architecture; `DESIGN.md` §4.16 for the determinism contract
/// and §4.17 for fault containment and crash recovery.
///
/// ```
/// use std::sync::Arc;
/// use dysel_core::{LaunchOptions, LaunchService, ServiceConfig, TenantId};
/// use dysel_device::{CpuConfig, CpuDevice};
/// use dysel_kernel::{Args, Buffer, KernelIr, Space, Variant, VariantMeta};
///
/// let svc = Arc::new(LaunchService::with_factory(
///     || Box::new(CpuDevice::new(CpuConfig::noiseless())),
///     ServiceConfig::default(),
/// ));
/// svc.register(
///     "double",
///     [Variant::from_fn(
///         VariantMeta::new("v0", KernelIr::regular(vec![0])),
///         |ctx, args| {
///             for u in ctx.units().iter() {
///                 args.f32_mut(0).unwrap()[u as usize] = 2.0 * u as f32;
///             }
///         },
///     )],
/// );
/// let mut args = Args::new();
/// args.push(Buffer::f32("out", vec![0.0; 256], Space::Global));
/// let ticket = svc
///     .submit(TenantId(1), "double", args, 256, &LaunchOptions::new())
///     .unwrap();
/// let (args, report) = ticket.wait();
/// assert_eq!(report.unwrap().tenant, TenantId(1));
/// assert_eq!(args.f32(0).unwrap()[3], 6.0);
/// ```
pub struct LaunchService {
    inner: Arc<Inner>,
    supervisor: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for LaunchService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LaunchService")
            .field("shards", &self.inner.shards.len())
            .field("queue_capacity", &self.inner.config.queue_capacity)
            .field("streams", &self.inner.cache.len())
            .finish()
    }
}

impl LaunchService {
    /// A service whose lanes draw devices from `factory`.
    pub fn new(factory: DeviceFactory, config: ServiceConfig) -> Self {
        let shards = config.shards.max(1);
        let sink = Arc::new(EventSink::new());
        let cache = Arc::new(ShardedCache::new(shards));
        let (recovery, state_error) = init_persistence(&config, &cache, &sink);
        let chaos = config.chaos.clone().filter(|p| !p.is_empty());
        let inner = Arc::new(Inner {
            factory,
            config,
            registry: Mutex::new(KernelPool::new()),
            shards: (0..shards)
                .map(|_| Shard {
                    queue: Mutex::new(VecDeque::new()),
                    cv: Condvar::new(),
                    lanes: Mutex::new(HashMap::new()),
                    stats: Mutex::new(HashMap::new()),
                    executing: Mutex::new(None),
                    dead: AtomicBool::new(false),
                })
                .collect(),
            cache,
            state_error,
            shutdown: AtomicBool::new(false),
            sink,
            breakers: Mutex::new(HashMap::new()),
            chaos: Mutex::new(chaos),
            recovery,
            handles: Mutex::new(Vec::new()),
        });
        if let Some(info) = &inner.recovery {
            if info.replayed > 0 {
                inner
                    .sink
                    .count(names::SERVICE_JOURNAL_REPLAYS, info.replayed);
            }
        }
        {
            let mut handles = lock(&inner.handles);
            for i in 0..shards {
                handles.push(Some(spawn_worker(&inner, i)));
            }
        }
        let supervisor = {
            let inner = inner.clone();
            std::thread::Builder::new()
                .name("dysel-supervisor".into())
                .spawn(move || supervisor_loop(&inner))
                .expect("spawn supervisor")
        };
        LaunchService {
            inner,
            supervisor: Some(supervisor),
        }
    }

    /// Convenience constructor taking a plain closure factory.
    pub fn with_factory(
        factory: impl Fn() -> Box<dyn Device> + Send + Sync + 'static,
        config: ServiceConfig,
    ) -> Self {
        LaunchService::new(Arc::new(factory), config)
    }

    /// Registers a candidate variant set, shared by every tenant. Lanes
    /// clone the set when their stream first launches; register before
    /// submitting — later additions only affect streams not yet started.
    pub fn register(
        &self,
        signature: impl Into<String>,
        variants: impl IntoIterator<Item = Variant>,
    ) {
        lock(&self.inner.registry).add_kernels(signature, variants)
    }

    /// Submits one launch for the `(tenant, signature)` stream.
    ///
    /// Accepted submissions return a [`Ticket`]; the launch executes on
    /// the stream's shard in submission order. A full shard queue returns
    /// [`SubmitError::Busy`] (nothing enqueued, buffers returned); an
    /// unregistered signature, a shutdown or a retired shard returns
    /// [`SubmitError::Rejected`]; an open circuit breaker returns
    /// [`SubmitError::LaneFailed`].
    pub fn submit(
        &self,
        tenant: TenantId,
        signature: &str,
        args: Args,
        total_units: u64,
        opts: &LaunchOptions,
    ) -> Result<Ticket, SubmitError> {
        self.submit_inner(tenant, signature, args, total_units, opts, None)
    }

    /// Like [`LaunchService::submit`], with an absolute deadline: if the
    /// launch has not *started* by `deadline`, the worker skips it and the
    /// ticket resolves [`DyselError::DeadlineExpired`] with the buffers
    /// untouched. (A launch that starts in time runs to completion — the
    /// deadline bounds queue delay, not execution.)
    pub fn submit_with_deadline(
        &self,
        tenant: TenantId,
        signature: &str,
        args: Args,
        total_units: u64,
        opts: &LaunchOptions,
        deadline: Instant,
    ) -> Result<Ticket, SubmitError> {
        self.submit_inner(tenant, signature, args, total_units, opts, Some(deadline))
    }

    fn submit_inner(
        &self,
        tenant: TenantId,
        signature: &str,
        args: Args,
        total_units: u64,
        opts: &LaunchOptions,
        expires_at: Option<Instant>,
    ) -> Result<Ticket, SubmitError> {
        let key = StreamKey::new(tenant, signature);
        let inner = &self.inner;
        if inner.shutdown.load(Ordering::SeqCst) {
            inner.sink.count(names::SERVICE_REJECTS, 1);
            return Err(SubmitError::Rejected {
                key,
                reason: RejectReason::ShuttingDown,
                args,
            });
        }
        if !lock(&inner.registry).contains(signature) {
            inner.sink.count(names::SERVICE_REJECTS, 1);
            return Err(SubmitError::Rejected {
                key,
                reason: RejectReason::UnknownSignature,
                args,
            });
        }
        let shard_idx = inner.cache.shard_of(&key);
        let shard = &inner.shards[shard_idx];
        if shard.dead.load(Ordering::SeqCst) {
            inner.sink.count(names::SERVICE_REJECTS, 1);
            return Err(SubmitError::Rejected {
                key,
                reason: RejectReason::ShardFailed,
                args,
            });
        }
        if let Err(retry_after) = breaker_admit(inner, &key, Instant::now(), false) {
            inner.sink.count(names::SERVICE_BREAKER_REJECTS, 1);
            return Err(SubmitError::LaneFailed {
                key,
                retry_after,
                args,
            });
        }
        let capacity = inner.config.queue_capacity.max(1);
        let state = Arc::new(TicketState {
            slot: Mutex::new(None),
            cv: Condvar::new(),
        });
        {
            let mut queue = lock(&shard.queue);
            if queue.len() >= capacity {
                drop(queue);
                inner.sink.count(names::SERVICE_BUSY, 1);
                return Err(SubmitError::Busy {
                    key,
                    shard: shard_idx,
                    capacity,
                    args,
                });
            }
            queue.push_back(Job {
                key,
                args: Some(args),
                total_units,
                opts: opts.clone(),
                expires_at,
                ticket: state.clone(),
            });
        }
        inner.sink.count(names::SERVICE_SUBMITS, 1);
        shard.cv.notify_one();
        Ok(Ticket { state })
    }

    /// Stops admitting work. Already-queued launches still execute;
    /// workers exit once their queue drains (joined on drop). Subsequent
    /// submissions answer [`SubmitError::Rejected`].
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        for shard in self.inner.shards.iter() {
            // Notify under the queue lock: a worker between its shutdown
            // check and its wait would otherwise miss the wake-up and
            // never exit.
            let _queue = lock(&shard.queue);
            shard.cv.notify_all();
        }
    }

    /// The learned-state store every lane reads and commits through.
    pub fn cache(&self) -> &ShardedCache {
        &self.inner.cache
    }

    /// Per-stream FNV-1a digest over the `(signature, selected name)`
    /// sequence of the stream's completed launches, in execution order —
    /// directly comparable to a serial replay's digest. `None` if the
    /// stream never launched.
    pub fn stream_digest(&self, tenant: TenantId, signature: &str) -> Option<u64> {
        let key = StreamKey::new(tenant, signature);
        let shard = &self.inner.shards[self.inner.cache.shard_of(&key)];
        lock(&shard.stats).get(&key).map(|s| s.digest)
    }

    /// The stream's event log (empty unless [`ServiceConfig::observe`]).
    /// Sequence numbers and virtual times are the stream's own — identical
    /// to a serial replay of the same submissions on a plain runtime.
    pub fn stream_events(&self, tenant: TenantId, signature: &str) -> Vec<Event> {
        let key = StreamKey::new(tenant, signature);
        let shard = &self.inner.shards[self.inner.cache.shard_of(&key)];
        lock(&shard.stats)
            .get(&key)
            .and_then(|s| s.sink.as_ref().map(|s| s.events()))
            .unwrap_or_default()
    }

    /// The global selection digest: every stream's digest folded in
    /// canonical `(tenant, signature)` order. Independent of client-thread
    /// count and shard interleaving — the value `experiments --clients N`
    /// prints, equal for every N.
    pub fn digest(&self) -> u64 {
        let mut streams: BTreeMap<StreamKey, u64> = BTreeMap::new();
        for shard in self.inner.shards.iter() {
            for (key, stats) in lock(&shard.stats).iter() {
                streams.insert(key.clone(), stats.digest);
            }
        }
        let mut digest = FNV_OFFSET;
        for (key, stream_digest) in streams {
            fnv_fold(&mut digest, &key.tenant.0.to_le_bytes());
            fnv_fold(&mut digest, key.signature.as_bytes());
            fnv_fold(&mut digest, &stream_digest.to_le_bytes());
        }
        digest
    }

    /// One stream's prediction accounting (`None` if the stream never
    /// launched). Counted from the launch reports, so it reflects exactly
    /// the launches this stream completed — unlike the lane sinks, it
    /// survives lane discards and needs no observability to be on.
    pub fn stream_predict_stats(&self, tenant: TenantId, signature: &str) -> Option<PredictStats> {
        let key = StreamKey::new(tenant, signature);
        let shard = &self.inner.shards[self.inner.cache.shard_of(&key)];
        lock(&shard.stats).get(&key).map(|s| s.predict)
    }

    /// The tenant's prediction accounting, summed over all of its streams.
    pub fn tenant_predict_stats(&self, tenant: TenantId) -> PredictStats {
        let mut total = PredictStats::default();
        for shard in self.inner.shards.iter() {
            for (key, stats) in lock(&shard.stats).iter() {
                if key.tenant == tenant {
                    total.add(&stats.predict);
                }
            }
        }
        total
    }

    /// Total launches completed across all streams.
    pub fn launches(&self) -> u64 {
        self.inner
            .shards
            .iter()
            .map(|s| lock(&s.stats).values().map(|st| st.launches).sum::<u64>())
            .sum()
    }

    /// Service-level metrics: admission (submits, busy, rejects,
    /// completed) and containment (lane panics, worker restarts, breaker
    /// transitions, deadline expiries, journal activity).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner.sink.metrics_snapshot()
    }

    /// Service-level containment events (lane panics, worker restarts,
    /// breaker transitions, deadline expiries, journal compactions).
    /// Distinct from lane traces — those stay bit-identical to serial
    /// replay.
    pub fn service_events(&self) -> Vec<Event> {
        self.inner.sink.events()
    }

    /// What construction recovered from the write-ahead journal (`None`
    /// without a state path).
    pub fn recovery(&self) -> Option<RecoveryInfo> {
        self.inner.recovery
    }

    /// The typed error of a later journal write failure (journaling
    /// disabled; in-memory state unaffected) or, failing that, of the
    /// best-effort state load at construction (the service cold-started).
    pub fn state_load_error(&self) -> Option<StateError> {
        let inner = &self.inner;
        inner.cache.journal_error().or(inner.state_error.clone())
    }

    /// The multi-tenant learned state as a value: tenant 0 in the flat
    /// maps, every other tenant nested — snapshotted through the store's
    /// shard locks, so no half-applied launch can be observed.
    pub fn export_state(&self) -> RuntimeState {
        self.inner.cache.export()
    }

    /// Atomically persists [`LaunchService::export_state`] to the
    /// configured [`ServiceConfig::state_path`], stamping the journal
    /// sequence and truncating the absorbed journal. Safe to call from
    /// any thread while launches are in flight: the snapshot is taken
    /// through the shard locks, between launches, never mid-launch.
    ///
    /// # Errors
    ///
    /// [`DyselError::State`] if no state path is configured or the write
    /// fails.
    pub fn save_state(&self) -> Result<(), DyselError> {
        let inner = &self.inner;
        let path = inner
            .config
            .state_path
            .as_deref()
            .ok_or(StateError::NoStatePath)?;
        inner.cache.checkpoint(path)?;
        Ok(())
    }
}

impl Drop for LaunchService {
    fn drop(&mut self) {
        self.shutdown();
        // Supervisor first: once it exits, no more restarts race the
        // handle harvest below.
        if let Some(supervisor) = self.supervisor.take() {
            let _ = supervisor.join();
        }
        let handles: Vec<JoinHandle<()>> = lock(&self.inner.handles)
            .iter_mut()
            .filter_map(Option::take)
            .collect();
        for handle in handles {
            let _ = handle.join();
        }
        // A worker that died with jobs queued leaves them stranded;
        // dropping them resolves each ticket with `WorkerDied`.
        for shard in self.inner.shards.iter() {
            drain_queue(shard);
        }
    }
}

/// Replays the checkpoint, then the journal (tolerating a torn tail),
/// into `store`, rewrites a merged checkpoint when the journal held
/// anything, and attaches a fresh journal to the store. Returns the
/// recovery info and what went wrong, if anything. Never panics: every
/// failure is typed and degrades to a cold start or disabled journaling.
fn init_persistence(
    config: &ServiceConfig,
    store: &ShardedCache,
    sink: &Arc<EventSink>,
) -> (Option<RecoveryInfo>, Option<StateError>) {
    let Some(path) = &config.state_path else {
        return (None, None);
    };
    let mut error = None;
    let mut seq = 0;
    if path.exists() {
        match persist::load(path) {
            Ok((saved, records)) => {
                store.replay(&records);
                seq = saved;
            }
            Err(e) => error = Some(e),
        }
    }
    let journal_path = journal::journal_path(path);
    let replay = match journal::replay(&journal_path) {
        Ok(replay) => replay,
        // An unreadable/foreign journal is a typed cold start for the
        // journal only — the checkpoint (if any) is still honored.
        Err(e) => return (None, Some(e)),
    };
    store.replay(&replay.records);
    let replayed = replay.records.len() as u64;
    seq += replayed;
    let recovery = Some(RecoveryInfo {
        replayed,
        torn: replay.torn,
    });
    // Fold the recovered records into the checkpoint before truncating the
    // journal; if the checkpoint write fails, leave the journal file
    // untouched (the records survive for the next recovery attempt) and
    // disable journaling.
    if replayed > 0 || replay.torn {
        if let Err(e) = store.write_checkpoint(path, seq) {
            return (recovery, Some(e));
        }
    }
    match Journal::create(&journal_path, seq) {
        Ok(journal) => {
            let kill_after = config
                .chaos
                .as_ref()
                .and_then(ChaosPlan::journal_kill_after);
            store.attach_journal(journal, kill_after, sink.clone());
            (recovery, error)
        }
        Err(e) => (recovery, Some(e)),
    }
}

fn spawn_worker(inner: &Arc<Inner>, shard_idx: usize) -> JoinHandle<()> {
    let inner = inner.clone();
    std::thread::Builder::new()
        .name(format!("dysel-shard-{shard_idx}"))
        .spawn(move || worker_loop(&inner, shard_idx))
        .expect("spawn shard worker")
}

fn worker_loop(inner: &Inner, shard_idx: usize) {
    let shard = &inner.shards[shard_idx];
    loop {
        let job = {
            let mut queue = lock(&shard.queue);
            loop {
                if let Some(job) = queue.pop_front() {
                    break Some(job);
                }
                if inner.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                queue = shard.cv.wait(queue).unwrap_or_else(PoisonError::into_inner);
            }
        };
        match job {
            Some(job) => process(inner, shard, job),
            None => return,
        }
    }
}

/// Resolves queued jobs on a shard whose worker is gone: dropping them
/// fires [`Job`]'s drop resolver ([`DyselError::WorkerDied`]).
fn drain_queue(shard: &Shard) {
    let stranded: Vec<Job> = {
        let mut queue = lock(&shard.queue);
        queue.drain(..).collect()
    };
    drop(stranded);
}

/// Supervises the shard workers: restarts crashed ones with bounded
/// deterministic backoff, retires shards past their restart budget, and
/// (when configured) watches for wall-clock-stuck launches.
fn supervisor_loop(inner: &Arc<Inner>) {
    let mut restarts = vec![0u32; inner.shards.len()];
    loop {
        if inner.shutdown.load(Ordering::SeqCst) {
            // Final sweep: a worker that died before shutdown leaves its
            // queue stranded — resolve those tickets before exiting.
            for (i, shard) in inner.shards.iter().enumerate() {
                let gone = lock(&inner.handles)[i]
                    .as_ref()
                    .is_none_or(|h| h.is_finished());
                if gone {
                    drain_queue(shard);
                }
            }
            return;
        }
        watchdog(inner);
        for (i, restart_count) in restarts.iter_mut().enumerate() {
            let finished = lock(&inner.handles)[i]
                .as_ref()
                .is_some_and(|h| h.is_finished());
            if !finished {
                continue;
            }
            // Workers only return on shutdown (checked above), so a
            // finished handle here is a crash.
            if let Some(handle) = lock(&inner.handles)[i].take() {
                let _ = handle.join();
            }
            *lock(&inner.shards[i].executing) = None;
            if *restart_count >= inner.config.max_worker_restarts {
                inner.shards[i].dead.store(true, Ordering::SeqCst);
                drain_queue(&inner.shards[i]);
                continue;
            }
            *restart_count += 1;
            inner.sink.count(names::SERVICE_WORKER_RESTARTS, 1);
            inner.sink.emit(
                Event::new(Stage::WorkerRestart)
                    .detail(format!("shard {i} restart {restart_count}")),
            );
            let backoff = inner
                .config
                .restart_backoff
                .saturating_mul(1 << (*restart_count - 1).min(6));
            if !backoff.is_zero() {
                std::thread::sleep(backoff);
            }
            lock(&inner.handles)[i] = Some(spawn_worker(inner, i));
        }
        std::thread::sleep(SUPERVISOR_POLL);
    }
}

/// Flags launches stuck past [`ServiceConfig::stuck_after`] wall-clock
/// and escalates them into the breaker ladder (one verdict per incident).
fn watchdog(inner: &Inner) {
    let Some(stuck_after) = inner.config.stuck_after else {
        return;
    };
    for shard in inner.shards.iter() {
        let key = {
            let mut slot = lock(&shard.executing);
            match slot.as_mut() {
                Some(s) if !s.flagged && s.since.elapsed() >= stuck_after => {
                    s.flagged = true;
                    Some(s.key.clone())
                }
                _ => None,
            }
        };
        if let Some(key) = key {
            inner.sink.count(names::SERVICE_LANE_STUCK, 1);
            breaker_record(inner, &key, false, true);
        }
    }
}

/// Checks the stream's breaker. `at_worker` distinguishes the two call
/// sites: a worker admits a half-open probe (it *is* the probe, or work
/// admitted before the breaker opened); a submitter does not (one probe
/// at a time). `Err` carries the time until the next probe window.
fn breaker_admit(
    inner: &Inner,
    key: &StreamKey,
    now: Instant,
    at_worker: bool,
) -> Result<(), Duration> {
    let mut breakers = lock(&inner.breakers);
    let Some(b) = breakers.get_mut(key) else {
        return Ok(());
    };
    match b.state {
        BreakerState::Closed => Ok(()),
        BreakerState::HalfOpen => {
            if at_worker {
                Ok(())
            } else {
                Err(b.cooldown)
            }
        }
        BreakerState::Open { until } => match until {
            Some(u) if now >= u => {
                b.state = BreakerState::HalfOpen;
                inner.sink.count(names::SERVICE_BREAKER_HALF_OPENS, 1);
                inner.sink.emit(
                    Event::new(Stage::BreakerHalfOpen)
                        .signature(&key.signature)
                        .tenant(key.tenant.0),
                );
                Ok(())
            }
            Some(u) => Err(u - now),
            None => Err(Duration::MAX),
        },
    }
}

/// Records a launch outcome against the stream's breaker. A success
/// closes it (from any state); `failures_to_open` consecutive failures, a
/// panic (`panicked`), or any failure while half-open opens it — the
/// half-open re-open doubles the cooldown up to the cap.
fn breaker_record(inner: &Inner, key: &StreamKey, success: bool, panicked: bool) {
    let cfg = &inner.config.breaker;
    let mut breakers = lock(&inner.breakers);
    if success {
        // No entry means a healthy stream: never allocate for those.
        if let Some(b) = breakers.get_mut(key) {
            if b.state != BreakerState::Closed {
                inner.sink.count(names::SERVICE_BREAKER_CLOSES, 1);
                inner.sink.emit(
                    Event::new(Stage::BreakerClose)
                        .signature(&key.signature)
                        .tenant(key.tenant.0),
                );
            }
            b.state = BreakerState::Closed;
            b.failures = 0;
            b.cooldown = cfg.cooldown;
        }
        return;
    }
    let b = breakers.entry(key.clone()).or_insert_with(|| Breaker {
        state: BreakerState::Closed,
        failures: 0,
        cooldown: cfg.cooldown,
    });
    b.failures += 1;
    let reopen = b.state == BreakerState::HalfOpen;
    if panicked || reopen || b.failures >= cfg.failures_to_open.max(1) {
        if reopen {
            b.cooldown = b.cooldown.saturating_mul(2).min(cfg.max_cooldown);
        }
        b.state = BreakerState::Open {
            until: Instant::now().checked_add(b.cooldown),
        };
        b.failures = 0;
        inner.sink.count(names::SERVICE_BREAKER_OPENS, 1);
        inner.sink.emit(
            Event::new(Stage::BreakerOpen)
                .signature(&key.signature)
                .tenant(key.tenant.0),
        );
    }
}

/// Best-effort stringification of a panic payload.
fn payload_str(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Resolves the job's ticket, handing the buffers back. Idempotent: the
/// drop resolver in [`Job`] becomes a no-op afterwards.
fn resolve(inner: &Inner, job: &mut Job, result: Result<LaunchReport, DyselError>) {
    if let Some(args) = job.args.take() {
        inner.sink.count(names::SERVICE_COMPLETED, 1);
        let mut slot = lock(&job.ticket.slot);
        *slot = Some((args, result));
        job.ticket.cv.notify_all();
    }
}

/// Executes one launch on its stream's lane, under lane supervision:
/// deadline check, breaker check, chaos injection, `catch_unwind` around
/// the launch (which commits the stream's learned state to the store),
/// recording the variant it ran, breaker bookkeeping, ticket resolution.
/// The shard's lanes-map lock is held only around lookup and discard; the
/// launch runs under the lane's own lock.
fn process(inner: &Inner, shard: &Shard, mut job: Job) {
    let key = job.key.clone();
    let now = Instant::now();
    if let Some(expires) = job.expires_at {
        if now >= expires {
            inner.sink.count(names::SERVICE_DEADLINE_EXPIRIES, 1);
            inner.sink.emit(
                Event::new(Stage::DeadlineExpire)
                    .signature(&key.signature)
                    .tenant(key.tenant.0),
            );
            resolve(
                inner,
                &mut job,
                Err(DyselError::DeadlineExpired {
                    signature: key.signature.clone(),
                }),
            );
            return;
        }
    }
    // A job queued before its stream's breaker opened fails fast here
    // instead of touching the lane.
    if breaker_admit(inner, &key, now, true).is_err() {
        inner.sink.count(names::SERVICE_BREAKER_REJECTS, 1);
        resolve(
            inner,
            &mut job,
            Err(DyselError::CircuitOpen {
                signature: key.signature.clone(),
            }),
        );
        return;
    }
    // Chaos decisions index *lane launch attempts*: skipped jobs
    // (deadline, breaker) above do not advance the stream's counter.
    let action = lock(&inner.chaos)
        .as_mut()
        .and_then(|plan| plan.decide(key.tenant.0, &key.signature));
    if action == Some(ChaosAction::Kill) {
        // Escapes containment by design: the worker dies, `job`'s drop
        // resolver hands the buffers back as `WorkerDied`, and the
        // supervisor restarts the worker. `resume_unwind` skips the
        // panic hook, so injected kills don't spam stderr.
        std::panic::resume_unwind(Box::new(CHAOS_KILL));
    }
    let lane = {
        let mut lanes = lock(&shard.lanes);
        if let Some(lane) = lanes.get(&key) {
            lane.clone()
        } else {
            // Reuse the stream's sink across lane reincarnations so its
            // event log stays append-only.
            let sink = inner.config.observe.then(|| {
                lock(&shard.stats)
                    .entry(key.clone())
                    .or_default()
                    .sink
                    .get_or_insert_with(|| Arc::new(EventSink::with_tenant(key.tenant.0)))
                    .clone()
            });
            let lane = Arc::new(Mutex::new(new_lane(inner, &key, sink)));
            lanes.insert(key.clone(), lane.clone());
            lane
        }
    };
    *lock(&shard.executing) = Some(ExecSlot {
        key: key.clone(),
        since: Instant::now(),
        flagged: false,
    });
    let mut lane_guard = lock(&lane);
    let inject_panic = action == Some(ChaosAction::Panic);
    let launched = {
        let args = job
            .args
            .as_mut()
            .expect("args stay in the job until resolution");
        let runtime = &mut lane_guard.runtime;
        // The guard lives *outside* the closure: a caught panic never
        // unwinds through it, so the lane mutex is not poisoned — and
        // `args` is borrowed, not moved, so the buffers survive the
        // panic and go back to the caller (contents unspecified).
        catch_unwind(AssertUnwindSafe(|| {
            if inject_panic {
                std::panic::resume_unwind(Box::new(CHAOS_PANIC));
            }
            runtime.launch(&key.signature, args, job.total_units, &job.opts)
        }))
    };
    *lock(&shard.executing) = None;
    let result = match launched {
        Ok(result) => {
            {
                let mut stats = lock(&shard.stats);
                let entry = stats.entry(key.clone()).or_default();
                entry.launches += 1;
                if let Ok(report) = &result {
                    fnv_fold(&mut entry.digest, report.signature.as_bytes());
                    fnv_fold(&mut entry.digest, report.selected_name.as_bytes());
                    entry.predict.fold(report);
                }
            }
            // The service records the variant every successful launch ran,
            // skipped or not; the lane keeps reusing its profiling winner.
            if let Ok(report) = &result {
                let variants = lock(&inner.registry)
                    .variants(&key.signature)
                    .map_or(0, |v| v.len() as u32);
                inner.cache.insert(&key, report.selected, variants);
            }
            drop(lane_guard);
            breaker_record(inner, &key, result.is_ok(), false);
            result
        }
        Err(payload) => {
            // Containment: discard the lane (its runtime/device state is
            // suspect mid-panic), trip the breaker, resolve typed. The
            // stream's stats and sink survive, and so does everything its
            // earlier launches committed to the store: the next admitted
            // launch builds a fresh lane that reads it from there.
            drop(lane_guard);
            lock(&shard.lanes).remove(&key);
            let detail = payload_str(payload.as_ref());
            inner.sink.count(names::SERVICE_LANE_PANICS, 1);
            inner.sink.emit(
                Event::new(Stage::LanePanic)
                    .signature(&key.signature)
                    .tenant(key.tenant.0)
                    .detail(detail.clone()),
            );
            breaker_record(inner, &key, false, true);
            Err(DyselError::LanePanicked {
                signature: key.signature.clone(),
                detail,
            })
        }
    };
    // Checkpoint before resolving: a waiter that observes its outcome
    // can rely on the decision being durable (journaled, and folded into
    // the checkpoint if the threshold was hit).
    if let Some(path) = &inner.config.state_path {
        inner
            .cache
            .maybe_checkpoint(path, inner.config.checkpoint_every);
    }
    resolve(inner, &mut job, result);
}

/// Materializes a stream's lane: private device, private runtime (tenant
/// stamped into its config) reading and committing through the service's
/// store, the stream's tenant-stamped sink, variants cloned from the
/// shared registry.
fn new_lane(inner: &Inner, key: &StreamKey, sink: Option<Arc<EventSink>>) -> Lane {
    let mut config = inner.config.runtime.clone();
    config.tenant = key.tenant;
    config.state_path = None;
    config.observe = sink;
    // Lane determinism: buffer addresses must be a pure function of this
    // stream's own launch history, not of which other lanes allocated
    // concurrently (the device cache models price addresses).
    config.private_addrs = true;
    let mut runtime = Runtime::with_store((inner.factory)(), config, inner.cache.clone());
    if let Ok(variants) = lock(&inner.registry).variants(&key.signature) {
        runtime.add_kernels(&key.signature, variants.to_vec());
    }
    Lane { runtime }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QuarantineReason;
    use dysel_device::{CpuConfig, CpuDevice};
    use dysel_kernel::{Buffer, KernelIr, Space, VariantId, VariantMeta};
    use std::sync::atomic::AtomicBool as TestFlag;

    fn writer(name: &str, cost: u64) -> Variant {
        Variant::from_fn(
            VariantMeta::new(name, KernelIr::regular(vec![0])),
            move |ctx, args| {
                for u in ctx.units().iter() {
                    args.f32_mut(0).unwrap()[u as usize] = u as f32 + 1.0;
                    ctx.vector_compute(cost, 8, 8, 1);
                }
            },
        )
    }

    fn fresh_args(n: usize) -> Args {
        let mut a = Args::new();
        a.push(Buffer::f32("out", vec![0.0; n], Space::Global));
        a
    }

    fn service(config: ServiceConfig) -> LaunchService {
        let svc = LaunchService::with_factory(
            || Box::new(CpuDevice::new(CpuConfig::noiseless())),
            config,
        );
        svc.register("pair", [writer("slow", 9), writer("fast", 3)]);
        svc
    }

    /// Like [`service`], but with a single-threaded functional executor so
    /// kernel panics carry their payload to the shard worker unchanged.
    fn inline_service(config: ServiceConfig) -> LaunchService {
        let svc = LaunchService::with_factory(
            || {
                Box::new(CpuDevice::new(CpuConfig {
                    threads: 1,
                    ..CpuConfig::noiseless()
                }))
            },
            config,
        );
        svc.register("pair", [writer("slow", 9), writer("fast", 3)]);
        svc
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "dysel-service-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn submit_executes_and_reports_tenant() {
        let svc = service(ServiceConfig::default());
        let opts = LaunchOptions::new();
        let t = svc
            .submit(TenantId(3), "pair", fresh_args(4096), 4096, &opts)
            .unwrap();
        let (args, report) = t.wait();
        let report = report.unwrap();
        assert_eq!(report.tenant, TenantId(3));
        assert_eq!(args.f32(0).unwrap()[7], 8.0);
        assert_eq!(svc.launches(), 1);
        let entry = svc
            .cache()
            .get(&StreamKey::new(TenantId(3), "pair"))
            .unwrap();
        assert_eq!(entry.selection, Some(report.selected));
        assert_eq!(entry.variants, 2);
        assert_eq!(svc.metrics().counter(names::SERVICE_SUBMITS), 1);
        assert_eq!(svc.metrics().counter(names::SERVICE_COMPLETED), 1);
    }

    #[test]
    fn unknown_signature_is_rejected_with_args_back() {
        let svc = service(ServiceConfig::default());
        let err = svc
            .submit(TenantId(0), "nope", fresh_args(8), 8, &LaunchOptions::new())
            .unwrap_err();
        match &err {
            SubmitError::Rejected { reason, .. } => {
                assert_eq!(*reason, RejectReason::UnknownSignature)
            }
            other => panic!("expected Rejected, got {other:?}"),
        }
        assert_eq!(err.into_args().len(), 1);
        assert_eq!(svc.metrics().counter(names::SERVICE_REJECTS), 1);
    }

    #[test]
    fn shutdown_rejects_new_submissions() {
        let svc = service(ServiceConfig::default());
        svc.shutdown();
        let err = svc
            .submit(TenantId(0), "pair", fresh_args(8), 8, &LaunchOptions::new())
            .unwrap_err();
        assert!(matches!(
            err,
            SubmitError::Rejected {
                reason: RejectReason::ShuttingDown,
                ..
            }
        ));
    }

    #[test]
    fn tenants_are_isolated_in_the_cache() {
        let svc = service(ServiceConfig::default());
        let opts = LaunchOptions::new();
        for t in [0u32, 1] {
            svc.submit(TenantId(t), "pair", fresh_args(4096), 4096, &opts)
                .unwrap()
                .wait()
                .1
                .unwrap();
        }
        let a = StreamKey::new(TenantId(0), "pair");
        let b = StreamKey::new(TenantId(1), "pair");
        svc.cache()
            .quarantine(&a, VariantId(0), QuarantineReason::LaunchFailed);
        assert_eq!(svc.cache().get(&b).unwrap().quarantine, vec![]);
        let state = svc.export_state();
        assert!(state.selections.contains_key("pair"));
        assert!(state.tenants[&1].selections.contains_key("pair"));
    }

    #[test]
    fn cache_never_resurrects_quarantined_variants() {
        let cache = ShardedCache::new(3);
        let key = StreamKey::new(TenantId(2), "k");
        assert!(cache.insert(&key, VariantId(1), 3));
        assert!(!cache.insert(&key, VariantId(1), 3), "unchanged re-insert");
        assert!(cache.quarantine(&key, VariantId(1), QuarantineReason::WrongOutput));
        assert!(
            !cache.quarantine(&key, VariantId(1), QuarantineReason::LaunchFailed),
            "quarantine is idempotent per variant"
        );
        let e = cache.get(&key).unwrap();
        assert_eq!(e.selection, None, "quarantine must drop the selection");
        assert!(!cache.insert(&key, VariantId(1), 3), "quarantine wins");
        assert!(!cache.warm_restore(&key, VariantId(1), 3));
        assert_eq!(cache.get(&key).unwrap().selection, None);
        assert!(cache.warm_restore(&key, VariantId(0), 3));
        cache.invalidate(&key);
        let e = cache.get(&key).unwrap();
        assert_eq!(e.selection, None);
        assert_eq!(e.quarantine.len(), 1, "invalidate must keep quarantine");
    }

    #[test]
    fn wait_timeout_hands_ticket_back_until_resolution() {
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let svc = service(ServiceConfig::default());
        let kernel_gate = gate.clone();
        svc.register(
            "gated",
            [Variant::from_fn(
                VariantMeta::new("g0", KernelIr::regular(vec![0])),
                move |ctx, args| {
                    let (flag, cv) = &*kernel_gate;
                    let mut open = lock(flag);
                    while !*open {
                        open = cv.wait(open).unwrap_or_else(PoisonError::into_inner);
                    }
                    drop(open);
                    for u in ctx.units().iter() {
                        args.f32_mut(0).unwrap()[u as usize] = 1.0;
                    }
                },
            )],
        );
        let ticket = svc
            .submit(
                TenantId(0),
                "gated",
                fresh_args(256),
                256,
                &LaunchOptions::new(),
            )
            .unwrap();
        let ticket = ticket
            .wait_timeout(Duration::from_millis(20))
            .expect_err("gated launch cannot finish before the gate opens");
        {
            let (flag, cv) = &*gate;
            *lock(flag) = true;
            cv.notify_all();
        }
        let (args, report) = ticket.wait();
        report.unwrap();
        assert_eq!(args.f32(0).unwrap()[5], 1.0);
    }

    #[test]
    fn expired_deadline_resolves_typed_without_launching() {
        let svc = service(ServiceConfig::default());
        let t = svc
            .submit_with_deadline(
                TenantId(0),
                "pair",
                fresh_args(64),
                64,
                &LaunchOptions::new(),
                Instant::now(),
            )
            .unwrap();
        let (args, result) = t.wait();
        assert_eq!(
            result.unwrap_err(),
            DyselError::DeadlineExpired {
                signature: "pair".into()
            }
        );
        assert_eq!(args.f32(0).unwrap()[0], 0.0, "buffers untouched");
        assert_eq!(svc.launches(), 0);
        assert_eq!(svc.metrics().counter(names::SERVICE_DEADLINE_EXPIRIES), 1);
    }

    #[test]
    fn panicking_kernel_poisons_only_its_lane() {
        let mut config = ServiceConfig::default();
        // Keep the breaker open once tripped so the fail-fast assertion
        // below is timing-independent.
        config.breaker.cooldown = Duration::from_secs(3600);
        let svc = inline_service(config);
        svc.register(
            "boom",
            [Variant::from_fn(
                VariantMeta::new("b0", KernelIr::regular(vec![0])),
                |_ctx, _args| panic!("kaboom"),
            )],
        );
        let opts = LaunchOptions::new();
        let (args, result) = svc
            .submit(TenantId(1), "boom", fresh_args(64), 64, &opts)
            .unwrap()
            .wait();
        match result.unwrap_err() {
            DyselError::LanePanicked { signature, detail } => {
                assert_eq!(signature, "boom");
                assert!(detail.contains("kaboom"), "payload carried: {detail:?}");
            }
            other => panic!("expected LanePanicked, got {other}"),
        }
        assert_eq!(args.len(), 1, "buffers handed back");
        // The breaker fails fast now.
        let err = svc
            .submit(TenantId(1), "boom", fresh_args(64), 64, &opts)
            .unwrap_err();
        assert!(matches!(err, SubmitError::LaneFailed { .. }), "{err}");
        // Other lanes — same tenant included — are untouched.
        let (_, result) = svc
            .submit(TenantId(1), "pair", fresh_args(256), 256, &opts)
            .unwrap()
            .wait();
        result.unwrap();
        let m = svc.metrics();
        assert_eq!(m.counter(names::SERVICE_LANE_PANICS), 1);
        assert_eq!(m.counter(names::SERVICE_BREAKER_OPENS), 1);
        assert_eq!(m.counter(names::SERVICE_BREAKER_REJECTS), 1);
        assert!(svc
            .service_events()
            .iter()
            .any(|e| e.stage == Stage::LanePanic && e.signature == "boom"));
    }

    #[test]
    fn breaker_half_open_probe_recloses_after_recovery() {
        let mut config = ServiceConfig::default();
        config.breaker.cooldown = Duration::ZERO;
        let svc = inline_service(config);
        let once = Arc::new(TestFlag::new(true));
        let trip = once.clone();
        svc.register(
            "flaky",
            [Variant::from_fn(
                VariantMeta::new("f0", KernelIr::regular(vec![0])),
                move |ctx, args| {
                    if trip.swap(false, Ordering::SeqCst) {
                        panic!("first launch dies");
                    }
                    for u in ctx.units().iter() {
                        args.f32_mut(0).unwrap()[u as usize] = 2.0;
                    }
                },
            )],
        );
        let opts = LaunchOptions::new();
        let (_, result) = svc
            .submit(TenantId(0), "flaky", fresh_args(64), 64, &opts)
            .unwrap()
            .wait();
        assert!(matches!(result, Err(DyselError::LanePanicked { .. })));
        // Zero cooldown: the next submission is the half-open probe; the
        // reincarnated lane succeeds and the breaker closes.
        let (args, result) = svc
            .submit(TenantId(0), "flaky", fresh_args(64), 64, &opts)
            .unwrap()
            .wait();
        result.unwrap();
        assert_eq!(args.f32(0).unwrap()[3], 2.0);
        let m = svc.metrics();
        assert_eq!(m.counter(names::SERVICE_BREAKER_OPENS), 1);
        assert_eq!(m.counter(names::SERVICE_BREAKER_HALF_OPENS), 1);
        assert_eq!(m.counter(names::SERVICE_BREAKER_CLOSES), 1);
    }

    #[test]
    fn chaos_kill_resolves_ticket_and_supervisor_restarts_worker() {
        let mut config = ServiceConfig {
            shards: 1,
            restart_backoff: Duration::ZERO,
            ..ServiceConfig::default()
        };
        config.chaos = Some("seed=1;pair@0+1=kill".parse().unwrap());
        let svc = service(config);
        let opts = LaunchOptions::new();
        let (args, result) = svc
            .submit(TenantId(0), "pair", fresh_args(64), 64, &opts)
            .unwrap()
            .wait();
        assert_eq!(
            result.unwrap_err(),
            DyselError::WorkerDied {
                signature: "pair".into()
            }
        );
        assert_eq!(args.len(), 1);
        // The supervisor restarts the worker; the next launch (chaos
        // window passed) runs normally on the same shard.
        let deadline = Instant::now() + Duration::from_secs(10);
        while svc.metrics().counter(names::SERVICE_WORKER_RESTARTS) == 0 {
            assert!(Instant::now() < deadline, "supervisor never restarted");
            std::thread::sleep(Duration::from_millis(1));
        }
        let (_, result) = svc
            .submit(TenantId(0), "pair", fresh_args(4096), 4096, &opts)
            .unwrap()
            .wait();
        result.unwrap();
        assert!(svc
            .service_events()
            .iter()
            .any(|e| e.stage == Stage::WorkerRestart));
    }

    #[test]
    fn journal_recovers_unsaved_decisions_after_unclean_stop() {
        let dir = temp_dir("journal");
        let state_path = dir.join("state.bin");
        let config = ServiceConfig {
            state_path: Some(state_path.clone()),
            checkpoint_every: 100,
            ..ServiceConfig::default()
        };
        let opts = LaunchOptions::new();
        let snapshot = {
            let svc = service(config.clone());
            for t in 1..=3u32 {
                svc.submit(TenantId(t), "pair", fresh_args(4096), 4096, &opts)
                    .unwrap()
                    .wait()
                    .1
                    .unwrap();
            }
            assert_eq!(svc.metrics().counter(names::SERVICE_JOURNAL_APPENDS), 3);
            svc.cache().snapshot()
            // Dropped without save_state: the checkpoint never gets these
            // decisions — only the journal has them.
        };
        assert!(!state_path.exists(), "no checkpoint was ever written");
        let svc = service(config.clone());
        assert_eq!(
            svc.recovery(),
            Some(RecoveryInfo {
                replayed: 3,
                torn: false
            })
        );
        assert_eq!(svc.metrics().counter(names::SERVICE_JOURNAL_REPLAYS), 3);
        assert_eq!(svc.cache().snapshot(), snapshot);
        assert!(state_path.exists(), "recovery rewrites a merged checkpoint");
        drop(svc);
        // Third start: the journal was truncated after recovery, so
        // everything now comes from the merged checkpoint alone.
        let svc = service(config);
        assert_eq!(
            svc.recovery(),
            Some(RecoveryInfo {
                replayed: 0,
                torn: false
            })
        );
        assert_eq!(svc.cache().snapshot(), snapshot);
        drop(svc);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_every_compacts_automatically() {
        let dir = temp_dir("checkpoint");
        let state_path = dir.join("state.bin");
        let config = ServiceConfig {
            state_path: Some(state_path.clone()),
            checkpoint_every: 1,
            ..ServiceConfig::default()
        };
        let svc = service(config.clone());
        svc.submit(
            TenantId(1),
            "pair",
            fresh_args(4096),
            4096,
            &LaunchOptions::new(),
        )
        .unwrap()
        .wait()
        .1
        .unwrap();
        // checkpoint_every = 1: the first journaled decision triggers a
        // checkpoint immediately.
        assert!(svc.metrics().counter(names::SERVICE_JOURNAL_COMPACTIONS) >= 1);
        assert!(state_path.exists());
        let expected = svc.cache().snapshot();
        drop(svc);
        let svc = service(config);
        assert_eq!(svc.recovery().unwrap().replayed, 0, "journal was compacted");
        assert_eq!(svc.cache().snapshot(), expected);
        drop(svc);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
