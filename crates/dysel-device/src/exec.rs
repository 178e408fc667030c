//! The launch engine: the one simulated device.
//!
//! [`Engine`] holds the state every device model shares (unit pool, stream
//! table, noise, fault plan, budget policy, observer) and implements
//! [`Device`] once, generic over a [`DeviceModel`] that prices work-groups
//! against *stateful* per-unit cache models. With a greedy earliest-free
//! unit scheduler on top, the virtual timeline is an inherently serial
//! computation. The engine therefore runs a batch in one pass, entry by
//! entry in issue order, and runs every non-refused entry the same way
//! ([`run_entry`]):
//!
//! 1. it takes one copy-on-write snapshot of its target's pre-batch
//!    arguments (inputs stay shared; a buffer is copied on first write);
//! 2. it runs its work-groups in the launch's canonical group order against
//!    that snapshot. Each group is placed on the earliest-free unit and
//!    emits its cost trace straight into that unit's cost sink while it
//!    runs, so no trace is ever stored;
//! 3. it merges the snapshot's writes into the target once.
//!
//! **Visibility.** A work-group sees the earlier writes of its own entry,
//! never another entry's: every entry of a batch starts from its target as
//! it was before the batch. Work-groups of a data-parallel kernel are
//! independent, so no kernel may rely on more than that.
//!
//! Everything happens on the calling thread in a fixed order, so the same
//! seed yields bit-identical outputs, measurements and schedules on every
//! run and after every `Device::reset`.
//!
//! ## Output merge
//!
//! The executed snapshot is compared against the pristine one, per
//! declared output argument:
//!
//! * disjoint outputs (`ir.output_disjoint`, no atomics): changed elements
//!   overwrite the target — each element is written by at most one group;
//! * overlapping/atomic outputs: the element-wise *delta* is added with
//!   wrapping arithmetic, which composes exactly for the commutative
//!   accumulations (e.g. histogram bin counts) such kernels perform, and
//!   keeps the writes of earlier entries on a shared target.

use std::sync::Arc;

use dysel_kernel::{Args, GroupCtx, Kernel, TraceSink, UnitRange, VariantMeta};
use dysel_obs::{Event, EventSink, Stage};

use crate::cycles::path::{pricing_path, PricingPath};
use crate::device::{
    BatchEntry, BudgetPolicy, Device, DeviceKind, LaunchFailure, LaunchOutcome, LaunchPreemption,
    LaunchRecord, LaunchSpec, StreamId, StreamTable,
};
use crate::fault::{FaultKind, FaultPlan};
use crate::noise::NoiseModel;
use crate::sched::UnitPool;
use crate::Cycles;

/// Runs one work-group of `kernel` against `args`, emitting its cost trace
/// into `sink`.
pub(crate) fn run_group(
    kernel: &dyn Kernel,
    meta: &VariantMeta,
    (group, units): (u64, UnitRange),
    args: &mut Args,
    sink: &mut dyn TraceSink,
) {
    let mut ctx = GroupCtx::new(group, units, meta.group_size, args, &meta.placements, sink);
    kernel.run_group(&mut ctx, args);
}

/// The declared output arguments of `meta` that exist in `target`.
fn output_indices(meta: &VariantMeta, target: &Args) -> Vec<usize> {
    meta.ir
        .output_args
        .iter()
        .copied()
        .filter(|&i| i < target.len())
        .collect()
}

/// What distinguishes one simulated device from another: its identity, its
/// fixed costs, and the stateful cost model of each execution unit.
pub trait DeviceModel: Send {
    /// Device family.
    fn kind(&self) -> DeviceKind;
    /// Short human-readable name.
    fn name(&self) -> String;
    /// Number of execution units.
    fn units(&self) -> u32;
    /// Fixed cost the host pays per kernel launch.
    fn launch_overhead(&self) -> Cycles;
    /// Cost of one host-side stream status query.
    fn query_latency(&self) -> Cycles;
    /// Runs work-group `group` of `kernel` against `args` (with
    /// [`run_group`]) into the cost sink of `unit` on `path`, and returns
    /// its cost.
    fn price_group(
        &mut self,
        unit: usize,
        kernel: &dyn Kernel,
        meta: &VariantMeta,
        group: (u64, UnitRange),
        args: &mut Args,
        path: PricingPath,
    ) -> Cycles;
    /// Clears the per-unit cache state.
    fn reset(&mut self);
}

/// A simulated device: the device-independent launch state around one
/// timing model `M`.
#[derive(Debug)]
pub struct Engine<M> {
    pub(crate) model: M,
    pool: UnitPool,
    streams: StreamTable,
    /// Per-group execution noise.
    exec_noise: NoiseModel,
    /// Noise on the busy time a measured launch reports.
    meas_noise: NoiseModel,
    fault: Option<FaultPlan>,
    budget: Option<BudgetPolicy>,
    obs: Option<Arc<EventSink>>,
}

impl<M: DeviceModel> Engine<M> {
    /// An idle device around `model`: measured launches report busy time
    /// perturbed by `noise_sigma`, and every group's cost is perturbed by
    /// `exec_sigma`, both drawn from `seed`.
    pub(crate) fn with_model(noise_sigma: f64, exec_sigma: f64, seed: u64, model: M) -> Self {
        Engine {
            pool: UnitPool::new(model.units() as usize),
            streams: StreamTable::default(),
            exec_noise: NoiseModel::new(exec_sigma, seed ^ 0x9E37_79B9),
            meas_noise: NoiseModel::new(noise_sigma, seed),
            fault: None,
            budget: None,
            obs: None,
            model,
        }
    }

    /// When `e` may start: its stream's gate after the issue overhead.
    /// Launch overhead overlaps execution of earlier work in the same
    /// stream (pipelined enqueue): only the issue side pays it.
    fn gate(&self, e: &BatchEntry<'_>) -> Cycles {
        self.streams
            .gate(e.stream, e.not_before + self.model.launch_overhead())
    }
}

/// One entry's committed work-groups: where they ran and what they cost.
struct Tally {
    gate: Cycles,
    first_start: Cycles,
    last_end: Cycles,
    busy: Cycles,
    groups: u64,
    /// Hang-fault cost multiplier (1 when healthy).
    slow: u64,
}

impl Tally {
    fn new(gate: Cycles, slow: u64) -> Self {
        Tally {
            gate,
            first_start: Cycles::MAX,
            last_end: Cycles::ZERO,
            busy: Cycles::ZERO,
            groups: 0,
            slow,
        }
    }

    /// Runs and prices `group` of `e` against `args` on the earliest-free
    /// unit, applies execution noise and the hang factor, and places it on
    /// that unit — unless the spend would then exceed `budget`, in which
    /// case nothing is placed and `false` is returned.
    fn place<M: DeviceModel>(
        &mut self,
        p: &mut Engine<M>,
        e: &BatchEntry<'_>,
        group: (u64, UnitRange),
        args: &mut Args,
        budget: Option<Cycles>,
        path: PricingPath,
    ) -> bool {
        let unit = p.pool.earliest_unit();
        let cost = p
            .model
            .price_group(unit, e.kernel, e.meta, group, args, path);
        let cost = p.exec_noise.perturb(cost) * self.slow;
        if budget.is_some_and(|b| self.busy + cost > b) {
            return false;
        }
        let placed = p.pool.assign_to(unit, cost, self.gate);
        self.first_start = self.first_start.min(placed.start);
        self.last_end = self.last_end.max(placed.end);
        self.busy += cost;
        self.groups += 1;
        true
    }

    /// The last committed group's end (the gate if none ran).
    fn end(&self) -> Cycles {
        if self.groups == 0 {
            self.gate
        } else {
            self.last_end
        }
    }

    /// Completes `e`: advances its stream and reports the launch.
    fn done<M>(self, p: &mut Engine<M>, e: &BatchEntry<'_>) -> LaunchOutcome {
        let start = if self.groups == 0 {
            self.gate
        } else {
            self.first_start
        };
        let end = self.end();
        p.streams.record(e.stream, end);
        let measured = e.measured.then(|| p.meas_noise.perturb(self.busy));
        LaunchOutcome::Done(LaunchRecord {
            start,
            end,
            groups: self.groups,
            busy: self.busy,
            measured,
        })
    }
}

impl<M: DeviceModel> Device for Engine<M> {
    fn kind(&self) -> DeviceKind {
        self.model.kind()
    }

    fn name(&self) -> String {
        self.model.name()
    }

    fn units(&self) -> u32 {
        self.model.units()
    }

    fn launch_overhead(&self) -> Cycles {
        self.model.launch_overhead()
    }

    fn query_latency(&self) -> Cycles {
        self.model.query_latency()
    }

    fn launch(&mut self, spec: LaunchSpec<'_>) -> LaunchOutcome {
        let entry = BatchEntry {
            kernel: spec.kernel,
            meta: spec.meta,
            units: spec.units,
            target: 0,
            stream: spec.stream,
            not_before: spec.not_before,
            measured: spec.measured,
            budget: spec.budget,
        };
        self.launch_batch(&[entry], &mut [spec.args])
            .pop()
            .expect("one outcome per entry")
    }

    /// Every entry, in issue order, run and priced by [`run_entry`], or
    /// refused by a fault.
    ///
    /// When a [`FaultPlan`] is installed, each entry consults it in issue
    /// order before anything of it runs. An injected `LaunchError` skips
    /// the entry entirely (no functional execution, no noise draws, no
    /// stream or unit-pool advance); `Hang` multiplies every priced group
    /// cost; `WrongOutput`/`Poison` tamper with exactly the elements the
    /// launch wrote, after the merge.
    ///
    /// ## Cooperative launch budgets
    ///
    /// An entry runs under a cycle budget when it carries an explicit
    /// [`BatchEntry::budget`], or when a [`BudgetPolicy`] is installed, the
    /// entry is measured, and an earlier measured entry of this batch
    /// already established a best-so-far baseline (`budget =
    /// deadline_factor x best`, tightening as better measurements arrive).
    /// Each group is committed only if the accumulated spend stays within
    /// budget; the first group that would overflow preempts the launch
    /// ([`LaunchOutcome::Preempted`]) before any further work runs, so
    /// `cycles_spent <= budget` holds strictly and a `hang*64` variant
    /// costs at most the budget instead of 64x the slice. A preempted entry
    /// discards its snapshot (target buffers untouched) and does not
    /// advance its stream; the unit pool keeps only the committed groups'
    /// occupancy. Every budget decision is made in priced virtual cycles.
    fn launch_batch(
        &mut self,
        entries: &[BatchEntry<'_>],
        targets: &mut [&mut Args],
    ) -> Vec<LaunchOutcome> {
        // Scalar reference vs batched fast path, pinned for the batch.
        let path = pricing_path();
        // One pristine snapshot per distinct target (cheap: payloads are
        // shared copy-on-write until an entry writes).
        let pristine: Vec<Args> = targets.iter().map(|t| (**t).clone()).collect();
        let mut best_measured: Option<Cycles> = None;
        let mut outcomes = Vec::with_capacity(entries.len());
        for e in entries {
            let fault = self
                .fault
                .as_mut()
                .and_then(|plan| plan.decide(&e.meta.name));
            let outcome = if fault == Some(FaultKind::LaunchError) {
                // Failed launch: nothing ran, nothing advances. The host
                // observes the failure once the stream would have started.
                LaunchOutcome::Failed(LaunchFailure {
                    at: self.gate(e),
                    transient: true,
                })
            } else {
                let budget = e.budget.or_else(|| match (self.budget, best_measured) {
                    (Some(policy), Some(best)) if e.measured => Some(policy.budget_for(best)),
                    _ => None,
                });
                run_entry(
                    e,
                    targets[e.target],
                    &pristine[e.target],
                    self,
                    fault,
                    budget,
                    path,
                )
            };
            if let LaunchOutcome::Done(LaunchRecord {
                measured: Some(m), ..
            }) = outcome
            {
                best_measured = Some(best_measured.map_or(m, |b| b.min(m)));
            }
            if let Some(sink) = &self.obs {
                emit_outcome(sink, e, &outcome);
            }
            outcomes.push(outcome);
        }
        outcomes
    }

    fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.fault = plan;
    }

    fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref()
    }

    fn set_budget_policy(&mut self, policy: Option<BudgetPolicy>) {
        self.budget = policy;
    }

    fn budget_policy(&self) -> Option<BudgetPolicy> {
        self.budget
    }

    fn set_observer(&mut self, obs: Option<Arc<EventSink>>) {
        self.obs = obs;
    }

    fn observer(&self) -> Option<&Arc<EventSink>> {
        self.obs.as_ref()
    }

    fn stream_end(&self, stream: StreamId) -> Cycles {
        self.streams.end_of(stream)
    }

    fn earliest_unit_free(&self) -> Cycles {
        self.pool.earliest_free()
    }

    fn busy_until(&self) -> Cycles {
        self.pool.busy_until()
    }

    fn reset(&mut self) {
        self.pool.reset();
        self.streams.reset();
        self.meas_noise.reset();
        self.exec_noise.reset();
        self.model.reset();
        if let Some(plan) = &mut self.fault {
            plan.reset();
        }
    }
}

/// Emits the device-level event for one priced launch outcome.
fn emit_outcome(sink: &EventSink, e: &BatchEntry<'_>, outcome: &LaunchOutcome) {
    let base = |stage: Stage| {
        Event::new(stage)
            .variant(&e.meta.name)
            .stream(e.stream.0)
            .units(e.units.start, e.units.end)
    };
    match outcome {
        LaunchOutcome::Done(rec) => {
            let mut detail = format!("groups={} busy={}", rec.groups, rec.busy.0);
            if let Some(m) = rec.measured {
                detail.push_str(&format!(" measured={}", m.0));
            }
            sink.emit(
                base(Stage::Enqueue)
                    .span(rec.start.0, rec.end.0)
                    .detail(detail),
            );
        }
        LaunchOutcome::Failed(f) => {
            let detail = if f.transient {
                "transient launch failure"
            } else {
                "permanent launch failure"
            };
            sink.emit(base(Stage::LaunchError).at(f.at.0).detail(detail));
        }
        LaunchOutcome::Preempted(p) => {
            sink.emit(base(Stage::Preempt).at(p.at.0).detail(format!(
                "groups_done={} cycles_spent={}",
                p.groups_done, p.cycles_spent.0
            )));
        }
    }
}

/// Runs one entry that no fault refused — the one execution policy of a
/// batch entry. Its groups run live, in canonical order, against one
/// snapshot of `pristine` (so a group sees the earlier writes of this entry
/// and no other entry's), each priced and committed only if the accumulated
/// spend stays within `budget`. A completed entry merges the snapshot into
/// `target` once and, under a `WrongOutput`/`Poison` `fault`, tampers with
/// what it wrote once.
fn run_entry<M: DeviceModel>(
    e: &BatchEntry<'_>,
    target: &mut Args,
    pristine: &Args,
    p: &mut Engine<M>,
    fault: Option<FaultKind>,
    budget: Option<Cycles>,
    path: PricingPath,
) -> LaunchOutcome {
    let slow = match fault {
        Some(FaultKind::Hang(factor)) => factor.max(1),
        _ => 1,
    };
    let mut work = pristine.clone();
    let mut tally = Tally::new(p.gate(e), slow);
    for group in e.units.groups(u64::from(e.meta.wa_factor)) {
        if !tally.place(p, e, group, &mut work, budget, path) {
            // Committing this group would blow the budget: preempt before
            // it occupies a unit or any write becomes visible. The snapshot
            // (and with it every partial write) is discarded; the stream
            // does not advance, exactly like a failed launch.
            return LaunchOutcome::Preempted(LaunchPreemption {
                at: tally.end(),
                cycles_spent: tally.busy,
                groups_done: tally.groups,
            });
        }
    }
    let outs = output_indices(e.meta, target);
    let additive = e.meta.ir.has_global_atomics || !e.meta.ir.output_disjoint;
    target
        .merge_outputs(&work, pristine, &outs, additive)
        .expect("work snapshot has the target's arity");
    if let Some(kind @ (FaultKind::WrongOutput | FaultKind::Poison)) = fault {
        target
            .corrupt_changed(&work, pristine, &outs, kind == FaultKind::Poison)
            .expect("work snapshot has the target's arity");
    }
    tally.done(p, e)
}
