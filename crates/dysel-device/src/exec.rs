//! The parallel work-pool executor and the two-phase launch engine.
//!
//! The device models price every work-group against *stateful* per-unit
//! cache models and a greedy earliest-free-unit scheduler, so the virtual
//! timeline is an inherently serial computation. Functional execution of
//! the work-groups, however, is pure: a group's outputs and its cost trace
//! depend only on the pre-launch buffer contents and the group's unit
//! range. The engine exploits exactly that split:
//!
//! 1. **Functional phase (parallel).** A launch's groups are partitioned
//!    into a fixed number of contiguous *spans* (independent of the worker
//!    count). Each span job clones the pre-launch argument snapshot
//!    (copy-on-write, so inputs are shared), executes its groups, and
//!    records each group's cost trace with a
//!    [`dysel_kernel::RecordingSink`]. Jobs run through
//!    [`Executor::ordered`]: `std::thread` workers pull span indexes from a
//!    shared counter and return results over an `mpsc` channel, or, with
//!    one worker, each span runs on the caller thread when phase 2 asks
//!    for it.
//! 2. **Reduction + pricing phase (serial, canonical order).** Phase 2
//!    consumes span results in canonical (entry, span) order as they are
//!    produced; it never waits for the whole batch. For each span it merges
//!    the output deltas into the real argument buffers, replays the span's
//!    group traces — in the launch's canonical group order — through the
//!    device's cost sink, per-unit cache state, scheduler and noise model,
//!    and returns the trace to the executor's arena at once. A one-worker
//!    device therefore records every span into the same warm buffer. With
//!    more workers there is no run-ahead window: the workers keep executing
//!    while the caller prices, and results that arrive before their turn
//!    are parked, so their traces are bounded only by the batch.
//!
//! Because phase 2 consumes span results in canonical order regardless of
//! which worker produced them when, the same seed yields bit-identical
//! outputs, measurements and schedules at any thread count — the
//! determinism contract the test suite pins at 1, 2 and 8 workers.
//!
//! ## Output-merge strategies
//!
//! Workers execute against a snapshot, so every group observes the
//! *pre-launch* buffer state (the same guarantee a real accelerator gives
//! concurrent work-groups). Worker writes are folded back by comparing the
//! executed snapshot against the pristine one, per declared output
//! argument:
//!
//! * disjoint outputs (`ir.output_disjoint`, no atomics): changed elements
//!   overwrite the target in span order — bit-identical to serial
//!   execution, since each element is written by at most one group;
//! * overlapping/atomic outputs: the element-wise *delta* is added with
//!   wrapping arithmetic, which composes exactly for the commutative
//!   accumulations (e.g. histogram bin counts) such kernels perform.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread;

use dysel_kernel::{
    span_bounds, Args, GroupCtx, Kernel, RecordedTrace, RecordingSink, TraceView, UnitRange,
    VariantMeta,
};
use dysel_obs::{Event, EventSink, Stage};

use crate::device::{
    BatchEntry, BudgetPolicy, LaunchFailure, LaunchOutcome, LaunchPreemption, LaunchRecord,
    StreamTable,
};
use crate::fault::{FaultKind, FaultPlan};
use crate::noise::NoiseModel;
use crate::sched::UnitPool;
use crate::Cycles;

/// Spans a launch is split into for the functional phase. Fixed (not a
/// function of the worker count) so that span boundaries — and therefore
/// merge order and recorded traces — are identical at every thread count.
const SPANS_PER_LAUNCH: usize = 16;

/// Upper bound on recycled span traces kept by an [`Executor`]'s arena.
/// One launch produces at most [`SPANS_PER_LAUNCH`] traces per entry, so a
/// small multiple keeps the steady state allocation-free without letting a
/// one-off giant batch pin memory forever.
const MAX_POOLED_TRACES: usize = 64;

/// A std-only work pool: `threads` workers executing indexed jobs pulled
/// from a shared queue, with results reduced in index order.
///
/// `threads == 0` resolves to [`std::thread::available_parallelism`];
/// `threads == 1` runs jobs inline on the caller thread (no spawning).
///
/// The executor also owns the launch engine's *trace arena*: each recorded
/// span trace is returned here as soon as it is priced and handed to the
/// next span job, so the profile→price→discard cycle stops hitting the
/// allocator once the pool is warm.
#[derive(Debug, Clone)]
pub struct Executor {
    threads: usize,
    arena: Arc<Mutex<Vec<RecordedTrace>>>,
}

impl Executor {
    /// Creates an executor with the given worker count (0 = auto).
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            threads
        };
        Executor {
            threads,
            arena: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Pops a recycled trace from the arena (empty if none is available).
    fn take_trace(&self) -> RecordedTrace {
        self.arena
            .lock()
            .map(|mut pool| pool.pop())
            .unwrap_or_default()
            .unwrap_or_default()
    }

    /// Returns a trace's buffers to the arena for reuse.
    fn recycle_trace(&self, mut trace: RecordedTrace) {
        if let Ok(mut pool) = self.arena.lock() {
            if pool.len() < MAX_POOLED_TRACES {
                trace.clear();
                pool.push(trace);
            }
        }
    }

    /// The resolved worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs jobs `0..n` and lets `consume` take their results in job order,
    /// as they become available — the ordered-consumption primitive the
    /// launch engine streams span results through.
    ///
    /// With one worker (or at most one job) nothing runs ahead: each job
    /// executes on the caller thread when [`InOrder::next`] asks for it.
    /// With more workers, the workers pull job indexes off a shared counter
    /// and run ahead while the caller consumes; results that arrive early
    /// are parked until their turn. Either way `consume` sees job `i`
    /// before job `i + 1`, so everything downstream is canonical. Jobs the
    /// caller leaves unconsumed still run (their results are dropped).
    pub fn ordered<T, F, R>(
        &self,
        n: usize,
        job: F,
        consume: impl FnOnce(&mut InOrder<'_, T, F>) -> R,
    ) -> R
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if self.threads <= 1 || n <= 1 {
            return consume(&mut InOrder {
                next: 0,
                n,
                source: Source::OnDemand(&job),
            });
        }
        let workers = self.threads.min(n);
        let claimed = AtomicUsize::new(0);
        thread::scope(|scope| {
            let (tx, rx) = mpsc::channel::<(usize, T)>();
            for _ in 0..workers {
                let tx = tx.clone();
                let (claimed, job) = (&claimed, &job);
                scope.spawn(move || loop {
                    let i = claimed.fetch_add(1, Ordering::Relaxed);
                    if i >= n || tx.send((i, job(i))).is_err() {
                        break;
                    }
                });
            }
            drop(tx);
            let mut parked = Vec::with_capacity(n);
            parked.resize_with(n, || None);
            // Dropping the iterator (and its receiver) before the scope
            // joins lets workers stop at their next send.
            consume(&mut InOrder {
                next: 0,
                n,
                source: Source::Pool { rx, parked },
            })
        })
    }
}

/// The job results of one [`Executor::ordered`] call, yielded in job order.
pub struct InOrder<'a, T, F> {
    next: usize,
    n: usize,
    source: Source<'a, T, F>,
}

/// Where [`InOrder`] takes each job's result from.
enum Source<'a, T, F> {
    /// One worker: run the job on the caller thread when it is asked for.
    OnDemand(&'a F),
    /// Pool workers: their result channel, and the results that arrived
    /// before their turn, parked by job index.
    Pool {
        rx: mpsc::Receiver<(usize, T)>,
        parked: Vec<Option<T>>,
    },
}

impl<T, F: Fn(usize) -> T> Iterator for InOrder<'_, T, F> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        if self.next >= self.n {
            return None;
        }
        let i = self.next;
        self.next += 1;
        match &mut self.source {
            Source::OnDemand(job) => Some(job(i)),
            Source::Pool { rx, parked } => {
                while parked[i].is_none() {
                    let (j, v) = rx.recv().expect("a pool worker panicked");
                    parked[j] = Some(v);
                }
                parked[i].take()
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.n - self.next;
        (left, Some(left))
    }
}

impl Default for Executor {
    fn default() -> Self {
        Executor::new(0)
    }
}

/// One span's worth of functional execution: the mutated snapshot and the
/// span's recorded trace, with one closed group per executed work-group
/// (walk them in order with [`RecordedTrace::groups`]).
struct SpanRun {
    args: Args,
    trace: RecordedTrace,
}

/// One launch to execute functionally, with its canonical group list.
struct FunctionalItem<'a> {
    kernel: &'a dyn Kernel,
    meta: &'a VariantMeta,
    groups: Vec<(u64, UnitRange)>,
    /// Pre-launch snapshot of the argument set this launch targets.
    pristine: &'a Args,
}

/// Executes groups `lo..hi` of `item` against a snapshot of its pristine
/// arguments (one phase-1 job). One recycled trace records the whole span;
/// group boundaries mark the per-group slices for the pricing pass.
fn run_span(exec: &Executor, item: &FunctionalItem<'_>, lo: usize, hi: usize) -> SpanRun {
    let mut args = item.pristine.clone();
    let mut sink = RecordingSink::reusing(exec.take_trace());
    for &(g, gu) in &item.groups[lo..hi] {
        let mut ctx = GroupCtx::new(
            g,
            gu,
            item.meta.group_size,
            &args,
            &item.meta.placements,
            &mut sink,
        );
        item.kernel.run_group(&mut ctx, &mut args);
        drop(ctx);
        sink.end_group();
    }
    SpanRun {
        args,
        trace: sink.into_trace(),
    }
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

/// Device-specific trace pricing: one work-group's recorded trace against
/// the stateful cost model of execution unit `unit`.
pub(crate) trait PriceModel {
    /// The group's execution cost on `unit`.
    fn group_cost(&mut self, unit: usize, meta: &VariantMeta, trace: TraceView<'_>) -> Cycles;
}

/// How phase 2 will handle one batch entry.
enum EntryPlan {
    /// Functionally executed by the phase-1 fan-out, in this many spans.
    Fanned(usize),
    /// Budget-eligible: executed lazily, group by group, inside phase 2 so
    /// a preemption really stops the functional execution.
    Inline,
    /// Injected `LaunchError`: never executes.
    Refused,
}

/// The full two-phase batch launch shared by the device models: parallel
/// functional execution of every entry's spans, streamed into a serial
/// in-order merge, pricing, scheduling and measurement.
///
/// When a [`FaultPlan`] is installed, each entry consults it — in issue
/// order, so decisions are independent of the worker-thread count — before
/// anything runs. An injected `LaunchError` skips the entry entirely (no
/// functional execution, no noise draws, no stream or unit-pool advance);
/// `Hang` multiplies every priced group cost; `WrongOutput`/`Poison`
/// tamper with exactly the elements the launch wrote, after the merge.
/// The healthy path with no plan costs one `Option` check per batch.
///
/// ## Cooperative launch budgets
///
/// An entry runs under a cycle budget when it carries an explicit
/// [`BatchEntry::budget`], or when a [`BudgetPolicy`] is installed, the
/// entry is measured, and an earlier measured entry of this batch already
/// established a best-so-far baseline (`budget = deadline_factor x best`,
/// tightening as better measurements arrive). Budget-eligible entries skip
/// the phase-1 fan-out and execute *inline* during phase 2: each group is
/// run functionally against a private snapshot, priced, and committed only
/// if the accumulated spend stays within budget — the first group that
/// would overflow preempts the launch ([`LaunchOutcome::Preempted`])
/// before executing any further work, so `cycles_spent <= budget` holds
/// strictly and a `hang*64` variant costs at most the budget instead of
/// 64x the slice. A preempted entry discards its snapshot (target buffers
/// untouched) and does not advance its stream; the unit pool keeps only
/// the committed groups' occupancy. The inline path walks the same
/// [`span_bounds`] partition in the same canonical group order and draws
/// noise identically, so an entry that *completes* within budget is
/// bit-identical to the fanned path — and every budget decision is made in
/// priced virtual cycles, keeping outcomes independent of the worker
/// count.
#[allow(clippy::too_many_arguments)]
pub(crate) fn launch_batch_engine<M: PriceModel>(
    exec: &Executor,
    entries: &[BatchEntry<'_>],
    targets: &mut [&mut Args],
    streams: &mut StreamTable,
    pool: &mut UnitPool,
    exec_noise: &mut NoiseModel,
    meas_noise: &mut NoiseModel,
    launch_overhead: Cycles,
    model: &mut M,
    faults: Option<&mut FaultPlan>,
    budget_policy: Option<BudgetPolicy>,
    obs: Option<&EventSink>,
) -> Vec<LaunchOutcome> {
    // Fault decisions, one per entry in issue order (counters tick here).
    let decisions: Vec<Option<FaultKind>> = match faults {
        Some(plan) => entries.iter().map(|e| plan.decide(&e.meta.name)).collect(),
        None => vec![None; entries.len()],
    };

    // Phase 0: one pristine snapshot per distinct target (cheap: payloads
    // are shared copy-on-write until a worker writes).
    let pristine: Vec<Args> = targets.iter().map(|t| (**t).clone()).collect();

    // Phase 1: functional execution of every entry across the pool —
    // except refused entries (which never execute) and budget-eligible
    // ones (which must be able to stop mid-launch, so they run inline in
    // phase 2). Eligibility must be decidable before pricing, so any
    // measured entry is kept inline while a policy is installed, whether
    // or not a baseline ends up binding it.
    let mut plan_of: Vec<EntryPlan> = Vec::with_capacity(entries.len());
    let mut items: Vec<FunctionalItem<'_>> = Vec::with_capacity(entries.len());
    // Span jobs of *all* fanned entries, item-major: (item, group range).
    // Fanning them out together lets a batch of K small profiling launches
    // saturate the workers.
    let mut jobs: Vec<(usize, usize, usize)> = Vec::new();
    for (e, decision) in entries.iter().zip(&decisions) {
        if *decision == Some(FaultKind::LaunchError) {
            plan_of.push(EntryPlan::Refused);
        } else if e.budget.is_some() || (budget_policy.is_some() && e.measured) {
            plan_of.push(EntryPlan::Inline);
        } else {
            let groups: Vec<(u64, UnitRange)> =
                e.units.groups(u64::from(e.meta.wa_factor)).collect();
            let first = jobs.len();
            jobs.extend(
                span_bounds(groups.len(), SPANS_PER_LAUNCH).map(|(lo, hi)| (items.len(), lo, hi)),
            );
            plan_of.push(EntryPlan::Fanned(jobs.len() - first));
            items.push(FunctionalItem {
                kernel: e.kernel,
                meta: e.meta,
                groups,
                pristine: &pristine[e.target],
            });
        }
    }
    let run_job = |j: usize| {
        let (i, lo, hi) = jobs[j];
        run_span(exec, &items[i], lo, hi)
    };

    // Phase 2: serial reduction in issue order, consuming span results as
    // phase 1 produces them — merge each span's outputs, replay its groups'
    // traces through the cost model in canonical order, then hand the trace
    // straight back to the arena so the next span records into warm memory.
    exec.ordered(jobs.len(), run_job, |spans| {
        let mut best_measured: Option<Cycles> = None;
        let mut outcomes = Vec::with_capacity(entries.len());
        for (ei, e) in entries.iter().enumerate() {
            let slow = match decisions[ei] {
                Some(FaultKind::Hang(factor)) => factor.max(1),
                _ => 1,
            };
            let corrupt = match decisions[ei] {
                Some(kind @ (FaultKind::WrongOutput | FaultKind::Poison)) => {
                    Some(kind == FaultKind::Poison)
                }
                _ => None,
            };
            let outcome = match plan_of[ei] {
                EntryPlan::Refused => {
                    // Failed launch: nothing ran, nothing advances. The host
                    // observes the failure once the stream would have started.
                    let at = streams.gate(e.stream, e.not_before + launch_overhead);
                    LaunchOutcome::Failed(LaunchFailure {
                        at,
                        transient: true,
                    })
                }
                EntryPlan::Fanned(span_count) => {
                    let additive = e.meta.ir.has_global_atomics || !e.meta.ir.output_disjoint;
                    let outs = output_indices(e.meta, targets[e.target]);
                    let gate = streams.gate(e.stream, e.not_before + launch_overhead);
                    let mut first_start = Cycles::MAX;
                    let mut last_end = Cycles::ZERO;
                    let mut busy = Cycles::ZERO;
                    let mut groups = 0u64;
                    // Corruption tampers with what every span wrote, after
                    // the entry's last merge, so its snapshots stay alive.
                    let mut written: Vec<Args> = Vec::new();
                    for span in spans.by_ref().take(span_count) {
                        targets[e.target]
                            .merge_outputs(&span.args, &pristine[e.target], &outs, additive)
                            .expect("span snapshot has the target's arity");
                        for view in span.trace.groups() {
                            let unit = pool.earliest_unit();
                            let cost =
                                exec_noise.perturb(model.group_cost(unit, e.meta, view)) * slow;
                            let p = pool.assign_to(unit, cost, gate);
                            first_start = first_start.min(p.start);
                            last_end = last_end.max(p.end);
                            busy += cost;
                            groups += 1;
                        }
                        exec.recycle_trace(span.trace);
                        if corrupt.is_some() {
                            written.push(span.args);
                        }
                    }
                    if let Some(poison) = corrupt {
                        for args in &written {
                            targets[e.target]
                                .corrupt_changed(args, &pristine[e.target], &outs, poison)
                                .expect("span snapshot has the target's arity");
                        }
                    }
                    if groups == 0 {
                        first_start = gate;
                        last_end = gate;
                    }
                    streams.record(e.stream, last_end);
                    let measured = e.measured.then(|| meas_noise.perturb(busy));
                    LaunchOutcome::Done(LaunchRecord {
                        start: first_start,
                        end: last_end,
                        groups,
                        busy,
                        measured,
                    })
                }
                EntryPlan::Inline => {
                    let budget = e.budget.or_else(|| match (budget_policy, best_measured) {
                        (Some(p), Some(best)) if e.measured => Some(p.budget_for(best)),
                        _ => None,
                    });
                    run_budgeted_entry(
                        exec,
                        e,
                        targets,
                        &pristine,
                        streams,
                        pool,
                        exec_noise,
                        meas_noise,
                        launch_overhead,
                        model,
                        slow,
                        corrupt,
                        budget,
                    )
                }
            };
            if let LaunchOutcome::Done(LaunchRecord {
                measured: Some(m), ..
            }) = outcome
            {
                best_measured = Some(best_measured.map_or(m, |b| b.min(m)));
            }
            // Emission happens here, in the serial pricing pass, so device
            // events carry canonical sequence numbers at any worker count.
            if let Some(sink) = obs {
                emit_outcome(sink, e, &outcome);
            }
            outcomes.push(outcome);
        }
        outcomes
    })
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

/// Executes one budget-eligible entry inline (see the budget section of
/// [`launch_batch_engine`]): groups run functionally against a private
/// snapshot in the canonical [`span_bounds`] order, each priced and then
/// committed only if the accumulated spend stays within `budget`.
#[allow(clippy::too_many_arguments)]
fn run_budgeted_entry<M: PriceModel>(
    exec: &Executor,
    e: &BatchEntry<'_>,
    targets: &mut [&mut Args],
    pristine: &[Args],
    streams: &mut StreamTable,
    pool: &mut UnitPool,
    exec_noise: &mut NoiseModel,
    meas_noise: &mut NoiseModel,
    launch_overhead: Cycles,
    model: &mut M,
    slow: u64,
    corrupt: Option<bool>,
    budget: Option<Cycles>,
) -> LaunchOutcome {
    let groups: Vec<(u64, UnitRange)> = e.units.groups(u64::from(e.meta.wa_factor)).collect();
    let gate = streams.gate(e.stream, e.not_before + launch_overhead);
    let mut work = pristine[e.target].clone();
    let mut first_start = Cycles::MAX;
    let mut last_end = Cycles::ZERO;
    let mut busy = Cycles::ZERO;
    let mut groups_done = 0u64;
    let mut preempted = false;
    // One recycled trace, cleared per group: record → price → reuse.
    let mut trace = exec.take_trace();
    'spans: for (lo, hi) in span_bounds(groups.len(), SPANS_PER_LAUNCH) {
        for &(g, gu) in &groups[lo..hi] {
            let mut sink = RecordingSink::reusing(std::mem::take(&mut trace));
            let mut ctx = GroupCtx::new(
                g,
                gu,
                e.meta.group_size,
                &work,
                &e.meta.placements,
                &mut sink,
            );
            e.kernel.run_group(&mut ctx, &mut work);
            drop(ctx);
            trace = sink.into_trace();
            let unit = pool.earliest_unit();
            let cost = exec_noise.perturb(model.group_cost(unit, e.meta, trace.view())) * slow;
            if let Some(b) = budget {
                if busy + cost > b {
                    // Committing this group would blow the budget: preempt
                    // before it occupies a unit or writes become visible.
                    preempted = true;
                    break 'spans;
                }
            }
            let p = pool.assign_to(unit, cost, gate);
            first_start = first_start.min(p.start);
            last_end = last_end.max(p.end);
            busy += cost;
            groups_done += 1;
        }
    }
    exec.recycle_trace(trace);
    if preempted {
        // The snapshot (and with it every partial write) is discarded; the
        // stream does not advance, exactly like a failed launch.
        return LaunchOutcome::Preempted(LaunchPreemption {
            at: if groups_done == 0 { gate } else { last_end },
            cycles_spent: busy,
            groups_done,
        });
    }
    let outs = output_indices(e.meta, targets[e.target]);
    let additive = e.meta.ir.has_global_atomics || !e.meta.ir.output_disjoint;
    targets[e.target]
        .merge_outputs(&work, &pristine[e.target], &outs, additive)
        .expect("work snapshot has the target's arity");
    if let Some(poison) = corrupt {
        targets[e.target]
            .corrupt_changed(&work, &pristine[e.target], &outs, poison)
            .expect("work snapshot has the target's arity");
    }
    if groups_done == 0 {
        first_start = gate;
        last_end = gate;
    }
    streams.record(e.stream, last_end);
    let measured = e.measured.then(|| meas_noise.perturb(busy));
    LaunchOutcome::Done(LaunchRecord {
        start: first_start,
        end: last_end,
        groups: groups_done,
        busy,
        measured,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_collects_results_in_job_order() {
        for threads in [1, 2, 8] {
            let exec = Executor::new(threads);
            let got: Vec<_> = exec.ordered(37, |i| i * i, |results| results.collect());
            assert_eq!(got, (0..37).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_threads_resolves_to_available_parallelism() {
        assert!(Executor::new(0).threads() >= 1);
    }

    #[test]
    fn empty_job_list_is_fine() {
        for threads in [1, 2, 4, 8] {
            let exec = Executor::new(threads);
            let got: Vec<u32> = exec.ordered(0, |_| unreachable!(), |results| results.collect());
            assert!(got.is_empty(), "threads={threads}");
        }
    }

    #[test]
    fn pool_handles_more_jobs_than_workers() {
        let exec = Executor::new(3);
        let got: Vec<_> = exec.ordered(100, |i| i + 1, |results| results.collect());
        assert_eq!(got.len(), 100);
        assert_eq!(got[99], 100);
    }

    #[test]
    fn ordered_delivers_results_in_job_order() {
        for threads in [1, 2, 8] {
            let exec = Executor::new(threads);
            // Zero jobs, fewer jobs than workers, and more.
            for n in [0, 1, 2, 3, 8, 9, 100] {
                let seen = exec.ordered(
                    n,
                    |i| i * 3 + 1,
                    |results| {
                        assert_eq!(results.size_hint(), (n, Some(n)));
                        results.enumerate().collect::<Vec<_>>()
                    },
                );
                let want: Vec<_> = (0..n).map(|i| (i, i * 3 + 1)).collect();
                assert_eq!(seen, want, "threads={threads} n={n}");
            }
        }
    }

    #[test]
    fn ordered_parks_results_that_arrive_early() {
        // Job 0 finishes last, so every other result reaches the caller
        // first and must wait for its turn.
        for threads in [2, 8] {
            let n = 20;
            let finished = AtomicUsize::new(0);
            let got: Vec<_> = Executor::new(threads).ordered(
                n,
                |i| {
                    if i == 0 {
                        while finished.load(Ordering::Acquire) < n - 1 {
                            thread::yield_now();
                        }
                    }
                    finished.fetch_add(1, Ordering::Release);
                    i
                },
                |results| results.collect(),
            );
            assert_eq!(got, (0..n).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn ordered_with_one_worker_runs_each_job_on_demand() {
        // Job i must not start before result i - 1 was consumed: the
        // one-worker engine records every span into the same warm trace.
        let log = Mutex::new(Vec::new());
        Executor::new(1).ordered(
            4,
            |i| log.lock().unwrap().push(format!("run {i}")),
            |results| {
                for (i, ()) in results.enumerate() {
                    log.lock().unwrap().push(format!("use {i}"));
                }
            },
        );
        let log = log.into_inner().unwrap();
        assert_eq!(
            log,
            ["run 0", "use 0", "run 1", "use 1", "run 2", "use 2", "run 3", "use 3"]
        );
    }

    #[test]
    fn ordered_consumer_may_stop_early() {
        for threads in [1, 2, 8] {
            let exec = Executor::new(threads);
            let first: Vec<usize> = exec.ordered(50, |i| i, |results| results.take(5).collect());
            assert_eq!(first, [0, 1, 2, 3, 4]);
        }
    }
}
