//! The device abstraction the DySel runtime drives.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use dysel_kernel::{Args, Kernel, UnitRange, VariantMeta};
use dysel_obs::EventSink;

use crate::fault::FaultPlan;
use crate::Cycles;

/// Which family of device model is behind the trait object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// Multicore CPU model (cache hierarchy + SIMD).
    Cpu,
    /// Throughput GPU model (SMs, warps, coalescing).
    Gpu,
}

impl fmt::Display for DeviceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DeviceKind::Cpu => "cpu",
            DeviceKind::Gpu => "gpu",
        })
    }
}

/// Identifier of an in-order command stream (CUDA stream / task group).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct StreamId(pub u32);

impl fmt::Display for StreamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// One kernel launch handed to a device.
pub struct LaunchSpec<'a> {
    /// The kernel implementation to run.
    pub kernel: &'a dyn Kernel,
    /// Its registration metadata (group size, placements, IR, wa factor).
    pub meta: &'a VariantMeta,
    /// The workload units this launch covers; the device splits them into
    /// work-groups of `meta.wa_factor` units each.
    pub units: UnitRange,
    /// Kernel arguments (mutated in place by functional execution).
    pub args: &'a mut Args,
    /// Stream to enqueue into (in-order within a stream).
    pub stream: StreamId,
    /// Host issue time: execution starts no earlier than this.
    pub not_before: Cycles,
    /// Whether to wrap the launch with measurement instrumentation
    /// (in-kernel cycle counters on the GPU, timer calls on the CPU).
    pub measured: bool,
    /// Cooperative launch budget in priced cycles. When set, the device
    /// checks an accumulated-cost watermark at every work-group boundary
    /// and preempts the launch ([`LaunchOutcome::Preempted`]) the moment
    /// committing the next group would exceed the budget; a preempted
    /// launch spends strictly `<= budget` cycles. `None` (the default)
    /// runs to completion.
    pub budget: Option<Cycles>,
}

impl fmt::Debug for LaunchSpec<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LaunchSpec")
            .field("variant", &self.meta.name)
            .field("units", &self.units)
            .field("stream", &self.stream)
            .field("not_before", &self.not_before)
            .field("measured", &self.measured)
            .field("budget", &self.budget)
            .finish()
    }
}

/// What a completed (virtually scheduled) launch reported back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchRecord {
    /// Time the first work-group started executing.
    pub start: Cycles,
    /// Time the last work-group finished.
    pub end: Cycles,
    /// Number of work-groups executed.
    pub groups: u64,
    /// Total execution-unit busy time consumed by the launch's groups
    /// (excludes queueing behind other launches).
    pub busy: Cycles,
    /// Measured cost, present iff the launch was measured: the
    /// throughput-normalized busy time (per-group in-kernel clock deltas
    /// summed on the host, Fig. 7), perturbed by the device noise model.
    /// Safe point analysis gives every profiling launch the same unit
    /// count, so these compare directly even when work-assignment factors
    /// (and therefore group counts and queueing) differ.
    pub measured: Option<Cycles>,
}

impl LaunchRecord {
    /// True completion span of the launch.
    pub fn span(&self) -> Cycles {
        self.end.saturating_sub(self.start)
    }
}

/// Why a launch failed without executing any work-group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchFailure {
    /// Virtual time at which the host observes the failure.
    pub at: Cycles,
    /// Whether a retry may succeed. Injected [`crate::FaultKind::LaunchError`]
    /// faults are transient: the retry consults the plan afresh.
    pub transient: bool,
}

/// How far a cooperatively preempted launch got before its budget ran out.
///
/// A preempted launch is discarded wholesale: its target buffers are
/// untouched (partial writes are thrown away with the snapshot they were
/// made against) and its stream did not advance. Only the execution units
/// that ran the committed groups were occupied — that is the bounded cost
/// the budget buys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchPreemption {
    /// Virtual time at which the host observes the preemption (the end of
    /// the last committed work-group, or the launch gate when the very
    /// first group already blew the budget).
    pub at: Cycles,
    /// Priced cycles spent on committed groups. Strictly `<= budget`: the
    /// watermark is checked *before* each group commits.
    pub cycles_spent: Cycles,
    /// Work-groups that executed and were priced before preemption. Always
    /// less than the launch's total group count.
    pub groups_done: u64,
}

/// Result of a launch: a virtual schedule, a failure report, or a
/// cooperative preemption.
///
/// A failed launch executed nothing — its target buffers are untouched,
/// its stream did not advance, and no execution unit was occupied. A
/// preempted launch ([`LaunchPreemption`]) stopped at its cycle budget;
/// its partial writes were discarded and its stream did not advance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "a launch may have failed; check the outcome"]
pub enum LaunchOutcome {
    /// The launch ran; here is its virtual schedule.
    Done(LaunchRecord),
    /// The launch failed before executing.
    Failed(LaunchFailure),
    /// The launch blew its cycle budget and was cooperatively preempted.
    Preempted(LaunchPreemption),
}

impl LaunchOutcome {
    /// The record, if the launch completed.
    pub fn done(self) -> Option<LaunchRecord> {
        match self {
            LaunchOutcome::Done(r) => Some(r),
            LaunchOutcome::Failed(_) | LaunchOutcome::Preempted(_) => None,
        }
    }

    /// True when the launch failed.
    pub fn is_failed(&self) -> bool {
        matches!(self, LaunchOutcome::Failed(_))
    }

    /// The preemption report, if the launch blew its budget.
    pub fn preempted(self) -> Option<LaunchPreemption> {
        match self {
            LaunchOutcome::Preempted(p) => Some(p),
            LaunchOutcome::Done(_) | LaunchOutcome::Failed(_) => None,
        }
    }

    /// The record of a completed launch.
    ///
    /// # Panics
    ///
    /// Panics if the launch failed or was preempted. For callers that do
    /// not inject faults or budgets (or have already filtered failures)
    /// this is the infallible path.
    pub fn unwrap_done(self) -> LaunchRecord {
        match self {
            LaunchOutcome::Done(r) => r,
            LaunchOutcome::Failed(f) => panic!("launch failed at {}", f.at),
            LaunchOutcome::Preempted(p) => panic!("launch preempted at {}", p.at),
        }
    }
}

/// One entry of a batched launch (see [`Device::launch_batch`]).
///
/// Unlike [`LaunchSpec`], the argument set is named by an *index* into the
/// batch's target slice rather than borrowed directly — several entries may
/// share one target (the K fully-productive profiling launches all mutate
/// the real workload buffers), which a slice of `&mut Args` per entry could
/// not express.
pub struct BatchEntry<'a> {
    /// The kernel implementation to run.
    pub kernel: &'a dyn Kernel,
    /// Its registration metadata (group size, placements, IR, wa factor).
    pub meta: &'a VariantMeta,
    /// The workload units this launch covers.
    pub units: UnitRange,
    /// Index into the batch's `targets` slice naming the argument set this
    /// entry executes against.
    pub target: usize,
    /// Stream to enqueue into (in-order within a stream).
    pub stream: StreamId,
    /// Host issue time: execution starts no earlier than this.
    pub not_before: Cycles,
    /// Whether to wrap the launch with measurement instrumentation.
    pub measured: bool,
    /// Explicit cooperative cycle budget for this entry (see
    /// [`LaunchSpec::budget`]). Takes precedence over any installed
    /// [`BudgetPolicy`]-derived budget.
    pub budget: Option<Cycles>,
}

impl fmt::Debug for BatchEntry<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BatchEntry")
            .field("variant", &self.meta.name)
            .field("units", &self.units)
            .field("target", &self.target)
            .field("stream", &self.stream)
            .field("not_before", &self.not_before)
            .field("measured", &self.measured)
            .field("budget", &self.budget)
            .finish()
    }
}

/// Device-level policy deriving default launch budgets for *measured*
/// (profiling) launches from the best measurement seen so far within a
/// batch: once some measured entry completes at cost `best`, every later
/// measured entry in the same batch runs under a budget of
/// `deadline_factor x best` (updated as better measurements arrive). The
/// first measured entry has no baseline and runs unbudgeted; unmeasured
/// launches are never budgeted by policy. Budgets are defined in priced
/// cycles, so the policy's decisions — like everything else in the virtual
/// timeline — are independent of the worker-thread count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetPolicy {
    /// Multiple of the best-so-far measurement a profiling launch may
    /// spend before it is preempted. Values below 1.0 are clamped to 1.0.
    pub deadline_factor: f64,
}

impl BudgetPolicy {
    /// A policy preempting measured launches at `deadline_factor x best`.
    pub fn new(deadline_factor: f64) -> Self {
        BudgetPolicy { deadline_factor }
    }

    /// The budget this policy derives from a best-so-far measurement.
    pub fn budget_for(&self, best: Cycles) -> Cycles {
        Cycles::from_f64(best.as_f64() * self.deadline_factor.max(1.0))
    }
}

/// A deterministic device timing model that functionally executes kernels.
///
/// Launches are scheduled in virtual time: `launch` runs the kernel's
/// work-groups immediately (producing real output in `args`) and returns
/// when, in virtual device time, the work would have started and finished.
/// Streams are in-order; distinct streams share execution units.
///
/// Devices are `Send`: the `LaunchService` moves each lane's device onto
/// its shard worker thread. (They are deliberately not `Sync` — a device
/// is always driven by exactly one runtime at a time.)
pub trait Device: Send {
    /// Device family.
    fn kind(&self) -> DeviceKind;

    /// Short human-readable name (e.g. `"cpu/i7-3820-like"`).
    fn name(&self) -> String;

    /// Number of execution units (cores / SMs). Safe point analysis scales
    /// profiling workloads to a multiple of this (§3.4).
    fn units(&self) -> u32;

    /// Fixed cost the host pays per kernel launch.
    fn launch_overhead(&self) -> Cycles;

    /// Cost of one host-side stream status query (`cudaStreamQuery` on the
    /// GPU; nearly free on the CPU). Drives the §5.1 async discussion.
    fn query_latency(&self) -> Cycles;

    /// Executes a launch, returning its virtual schedule — or a failure,
    /// if an installed [`FaultPlan`] injects a launch error. Without a
    /// plan the outcome is always [`LaunchOutcome::Done`].
    fn launch(&mut self, spec: LaunchSpec<'_>) -> LaunchOutcome;

    /// Executes a batch of launches as if issued back-to-back in entry
    /// order, returning one outcome per entry (same order).
    ///
    /// Schedules like looping [`Device::launch`] (the default
    /// implementation): stream gating, unit scheduling and the noise
    /// sequence all advance exactly as in the serial issue order. On the
    /// CPU and GPU models every entry reads its target as it was before the
    /// batch, never another entry's writes. The runtime hands its K
    /// independent micro-profiling launches to this method as one batch.
    ///
    /// Every `entry.target` must index into `targets`.
    fn launch_batch(
        &mut self,
        entries: &[BatchEntry<'_>],
        targets: &mut [&mut Args],
    ) -> Vec<LaunchOutcome> {
        entries
            .iter()
            .map(|e| {
                self.launch(LaunchSpec {
                    kernel: e.kernel,
                    meta: e.meta,
                    units: e.units,
                    args: &mut *targets[e.target],
                    stream: e.stream,
                    not_before: e.not_before,
                    measured: e.measured,
                    budget: e.budget,
                })
            })
            .collect()
    }

    /// Installs (or removes, with `None`) a fault-injection plan. The
    /// default device injects nothing and discards the plan.
    fn set_fault_plan(&mut self, _plan: Option<FaultPlan>) {}

    /// Installs (or removes, with `None`) a launch-budget policy. The
    /// default device never preempts and discards the policy.
    fn set_budget_policy(&mut self, _policy: Option<BudgetPolicy>) {}

    /// The installed budget policy. `None` when budgets are off (the
    /// default).
    fn budget_policy(&self) -> Option<BudgetPolicy> {
        None
    }

    /// The installed fault plan, with its live launch counters and
    /// injection log — the ground truth tests compare report counters
    /// against. `None` when fault injection is off (the default).
    fn fault_plan(&self) -> Option<&FaultPlan> {
        None
    }

    /// Installs (or removes, with `None`) an observability sink. Observed
    /// devices emit enqueue / launch-error / preempt events into it from
    /// their serial pricing pass; the default device discards the sink
    /// and emits nothing.
    fn set_observer(&mut self, _obs: Option<Arc<EventSink>>) {}

    /// The installed observability sink. `None` when observation is off
    /// (the default).
    fn observer(&self) -> Option<&Arc<EventSink>> {
        None
    }

    /// Completion time of all work enqueued so far in `stream`
    /// (`Cycles::ZERO` if the stream never ran anything).
    fn stream_end(&self, stream: StreamId) -> Cycles;

    /// Earliest time at which some execution unit is idle.
    fn earliest_unit_free(&self) -> Cycles;

    /// Time at which the whole device drains.
    fn busy_until(&self) -> Cycles;

    /// Resets virtual time, stream state, caches, the noise generator and
    /// any installed fault plan's launch counters (the plan's rules stay:
    /// a reset device replays the same fault sequence).
    fn reset(&mut self);
}

/// Book-keeping for in-order streams, shared by the device models.
#[derive(Debug, Clone, Default)]
pub(crate) struct StreamTable {
    end: HashMap<StreamId, Cycles>,
}

impl StreamTable {
    pub(crate) fn end_of(&self, s: StreamId) -> Cycles {
        self.end.get(&s).copied().unwrap_or(Cycles::ZERO)
    }

    /// Earliest permissible start for a launch in `s` issued at `host_t`.
    pub(crate) fn gate(&self, s: StreamId, host_t: Cycles) -> Cycles {
        self.end_of(s).max(host_t)
    }

    pub(crate) fn record(&mut self, s: StreamId, end: Cycles) {
        let e = self.end.entry(s).or_insert(Cycles::ZERO);
        *e = (*e).max(end);
    }

    pub(crate) fn reset(&mut self) {
        self.end.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_table_orders_work() {
        let mut t = StreamTable::default();
        assert_eq!(t.end_of(StreamId(0)), Cycles::ZERO);
        t.record(StreamId(0), Cycles(100));
        assert_eq!(t.gate(StreamId(0), Cycles(40)), Cycles(100));
        assert_eq!(t.gate(StreamId(0), Cycles(140)), Cycles(140));
        assert_eq!(t.gate(StreamId(1), Cycles(40)), Cycles(40));
        t.reset();
        assert_eq!(t.end_of(StreamId(0)), Cycles::ZERO);
    }

    #[test]
    fn record_keeps_the_max() {
        let mut t = StreamTable::default();
        t.record(StreamId(2), Cycles(50));
        t.record(StreamId(2), Cycles(30));
        assert_eq!(t.end_of(StreamId(2)), Cycles(50));
    }
}
