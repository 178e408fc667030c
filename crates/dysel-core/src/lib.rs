//! The DySel runtime (Chang, Kim, Hwu — ASPLOS 2016).
//!
//! DySel removes the burden of picking the single best code version from
//! the optimizing compiler: the compiler (or programmer) deposits several
//! candidate kernel variants, and at launch time the runtime deploys each
//! candidate on a small slice of the *actual* workload on the *actual*
//! device (**micro-profiling**), then processes the remaining workload with
//! the winner. Profiling is *productive* — profiled slices contribute to
//! the final output wherever the programming pattern allows.
//!
//! The crate implements, faithfully to the paper:
//!
//! * the registration / launch interface of §3.1 ([`Runtime::add_kernel`],
//!   [`Runtime::launch`], [`LaunchOptions`] with a profiling activation
//!   flag and mode override);
//! * the three productive profiling modes of §2.2
//!   ([`dysel_kernel::ProfilingMode`]);
//! * synchronous and asynchronous orchestration with eager chunked
//!   execution and best-so-far selection updates (§2.4);
//! * safe-point-normalized profiling work assignment, uniform-workload and
//!   side-effect mode inference (§3.4, via `dysel-analysis`);
//! * small-workload profiling deactivation (§2.1) and launch statistics
//!   ([`LaunchStats`], Fig. 2);
//! * per-launch [`LaunchReport`]s with overhead, productive/wasted-unit,
//!   extra-space and selection-accuracy accounting (§4, §5).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chaos;
mod error;
mod fault;
mod journal;
mod mixed;
mod options;
mod persist;
mod pool;
mod report;
mod runtime;
mod service;
mod stats;
mod store;
mod timeline;

pub use chaos::{ChaosAction, ChaosPlan, ChaosRule};
pub use error::DyselError;
pub use fault::{
    FaultKind, FaultPlan, FaultReport, FaultRule, InjectedFault, PlanParseError, QuarantineReason,
    DEFAULT_HANG_FACTOR,
};
pub use journal::journal_path;
pub use mixed::MixedReport;
pub use options::{
    InitialSelection, LaunchOptions, PredictLevel, PruneLevel, RuntimeConfig, TenantId, VerifyLevel,
};
pub use persist::StateError;
pub use pool::KernelPool;
pub use report::{LaunchReport, Measurement, SkipReason};
pub use runtime::Runtime;
pub use service::{
    BreakerConfig, DeviceFactory, LaunchOutcome, LaunchService, RecoveryInfo, RejectReason,
    ServiceConfig, SubmitError, Ticket,
};
pub use stats::LaunchStats;
pub use store::{CacheEntry, ShardedCache, StreamKey};
pub use timeline::{LaunchKind, Timeline, TimelineEntry};
