//! The parallel work-pool executor and the two-phase launch engine.
//!
//! The device models price every work-group against *stateful* per-unit
//! cache models and a greedy earliest-free-unit scheduler, so the virtual
//! timeline is an inherently serial computation. Functional execution of
//! the work-groups, however, is pure: a group's outputs and its cost trace
//! depend only on the pre-launch buffer contents and the group's unit
//! range. The engine exploits exactly that split:
//!
//! 1. **Functional phase.** A launch's groups are partitioned into a fixed
//!    number of contiguous *spans* (independent of the worker count). Each
//!    span clones the pre-launch argument snapshot (copy-on-write, so
//!    inputs are shared) and executes its groups against it.
//! 2. **Reduction + pricing phase (serial, canonical order).** Phase 2
//!    walks the spans in canonical (entry, span) order. For each span it
//!    prices the span's groups — in the launch's canonical group order —
//!    through the device's cost sink, per-unit cache state, scheduler and
//!    noise model, and merges the span's output deltas into the real
//!    argument buffers.
//!
//! How a group's trace reaches its cost sink depends on whether the
//! executor runs ahead ([`Executor::runs_ahead`]):
//!
//! * **Live (one worker, or a single span).** Nothing runs ahead, so phase
//!   2 executes each span itself when its turn comes, and every group
//!   emits its trace straight into the cost sink of the unit it is placed
//!   on. No trace is stored.
//! * **Recorded (more workers).** Span jobs run ahead on the
//!   [`Executor::ordered`] pool and record each group's trace with a
//!   [`dysel_kernel::RecordingSink`]; phase 2 replays the recorded groups
//!   into the same cost sinks and returns the trace to the executor's
//!   arena. At most `2 x threads` span jobs start beyond the spans phase 2
//!   has taken, so parked results and their traces stay bounded.
//!
//! Either way the cost sinks see the same events in the same order, and
//! because phase 2 handles spans in canonical order regardless of which
//! worker produced them when, the same seed yields bit-identical outputs,
//! measurements and schedules at any thread count — the determinism
//! contract the test suite pins at 1, 2 and 8 workers.
//!
//! ## Output-merge strategies
//!
//! Spans execute against a snapshot, so every group observes the
//! *pre-launch* buffer state (the same guarantee a real accelerator gives
//! concurrent work-groups). Span writes are folded back by comparing the
//! executed snapshot against the pristine one, per declared output
//! argument:
//!
//! * disjoint outputs (`ir.output_disjoint`, no atomics): changed elements
//!   overwrite the target in span order — bit-identical to serial
//!   execution, since each element is written by at most one group;
//! * overlapping/atomic outputs: the element-wise *delta* is added with
//!   wrapping arithmetic, which composes exactly for the commutative
//!   accumulations (e.g. histogram bin counts) such kernels perform.

use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread;

use dysel_kernel::{
    span_bounds, Args, GroupCtx, Kernel, RecordedTrace, RecordingSink, TraceSink, TraceView,
    UnitRange, VariantMeta,
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

/// Jobs each pool worker may start beyond the results the consumer has
/// taken (see [`Executor::ordered`]).
const RUN_AHEAD_PER_WORKER: usize = 2;

/// A std-only work pool: `threads` workers executing indexed jobs pulled
/// from a shared queue, with results reduced in index order.
///
/// `threads == 0` resolves to [`std::thread::available_parallelism`].
///
/// The executor also owns the launch engine's *trace arena*: each recorded
/// span trace is returned here as soon as it is priced and handed to the
/// next span job, so the record→price→discard cycle stops hitting the
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

    /// Whether the launch engine should run `n` span jobs ahead of their
    /// pricing on [`Executor::ordered`]'s workers: only with more than one
    /// worker and more than one job. Otherwise it runs each span live, on
    /// the caller thread, when its turn comes.
    pub fn runs_ahead(&self, n: usize) -> bool {
        self.threads > 1 && n > 1
    }

    /// Runs jobs `0..n` on `threads` pool workers and lets `consume` take
    /// their results in job order, as they become available — the
    /// ordered-consumption primitive the launch engine streams recorded
    /// spans through when it runs ahead ([`Executor::runs_ahead`]).
    ///
    /// The workers pull job indexes off a shared counter and run ahead
    /// while the caller consumes, but start no job more than `2 x threads`
    /// beyond the results already taken; results that arrive early are
    /// parked until their turn. `consume` sees job `i` before job `i + 1`,
    /// so everything downstream is canonical. Once `consume` returns, the
    /// workers stop at their next job; results still in flight are dropped.
    pub fn ordered<T, R>(
        &self,
        n: usize,
        job: impl Fn(usize) -> T + Sync,
        consume: impl FnOnce(&mut InOrder<'_, T>) -> R,
    ) -> R
    where
        T: Send,
    {
        let workers = self.threads.min(n);
        let claimed = AtomicUsize::new(0);
        let window = Window::new(RUN_AHEAD_PER_WORKER * self.threads);
        thread::scope(|scope| {
            let (tx, rx) = mpsc::channel::<(usize, T)>();
            for _ in 0..workers {
                let tx = tx.clone();
                let (claimed, job, window) = (&claimed, &job, &window);
                let work = move || loop {
                    let i = claimed.fetch_add(1, Ordering::Relaxed);
                    if i >= n || !window.admit(i) || tx.send((i, job(i))).is_err() {
                        break;
                    }
                };
                scope.spawn(move || {
                    // A panicking job closes the window, so no other worker
                    // waits for progress that will never come and the
                    // consumer sees the channel close.
                    if let Err(panic) = panic::catch_unwind(AssertUnwindSafe(work)) {
                        window.close();
                        panic::resume_unwind(panic);
                    }
                });
            }
            drop(tx);
            let mut parked = Vec::with_capacity(n);
            parked.resize_with(n, || None);
            // Dropping the iterator before the scope joins closes the
            // window and the channel, so the workers stop.
            consume(&mut InOrder {
                next: 0,
                n,
                rx,
                parked,
                window: &window,
            })
        })
    }
}

/// The run-ahead bound of an [`Executor::ordered`] pool: a worker may
/// start job `i` only while `i < taken + size`, where `taken` counts the
/// results the consumer has been handed.
struct Window {
    size: usize,
    /// Results handed to the consumer; `usize::MAX` once it is gone.
    taken: Mutex<usize>,
    moved: Condvar,
}

impl Window {
    fn new(size: usize) -> Self {
        Window {
            size,
            taken: Mutex::new(0),
            moved: Condvar::new(),
        }
    }

    /// Blocks until job `i` is inside the window. `false` means the
    /// consumer is gone and the job should not run.
    fn admit(&self, i: usize) -> bool {
        let mut taken = self.taken.lock().unwrap_or_else(PoisonError::into_inner);
        while i >= taken.saturating_add(self.size) {
            taken = self
                .moved
                .wait(taken)
                .unwrap_or_else(PoisonError::into_inner);
        }
        *taken != usize::MAX
    }

    /// Records that `taken` results were handed out, waking the workers.
    /// A closed window stays closed.
    fn advance(&self, taken: usize) {
        let mut was = self.taken.lock().unwrap_or_else(PoisonError::into_inner);
        *was = (*was).max(taken);
        self.moved.notify_all();
    }

    /// Admits no further job: the consumer is gone.
    fn close(&self) {
        self.advance(usize::MAX);
    }
}

/// The job results of one [`Executor::ordered`] call, yielded in job order.
pub struct InOrder<'a, T> {
    next: usize,
    n: usize,
    /// The workers' result channel.
    rx: mpsc::Receiver<(usize, T)>,
    /// Results that arrived before their turn, by job index.
    parked: Vec<Option<T>>,
    window: &'a Window,
}

impl<T> Iterator for InOrder<'_, T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        if self.next >= self.n {
            return None;
        }
        let i = self.next;
        self.next += 1;
        self.window.advance(i);
        while self.parked[i].is_none() {
            let (j, v) = self.rx.recv().expect("a pool worker panicked");
            self.parked[j] = Some(v);
        }
        self.parked[i].take()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.n - self.next;
        (left, Some(left))
    }
}

impl<T> Drop for InOrder<'_, T> {
    fn drop(&mut self) {
        self.window.close();
    }
}

impl Default for Executor {
    fn default() -> Self {
        Executor::new(0)
    }
}

/// One recorded span: the mutated snapshot and the span's trace, with one
/// closed group per executed work-group (walk them in order with
/// [`RecordedTrace::groups`]).
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

/// Runs one work-group functionally against `args`, emitting its cost
/// trace into `sink`.
fn run_group(
    kernel: &dyn Kernel,
    meta: &VariantMeta,
    (group, units): (u64, UnitRange),
    args: &mut Args,
    sink: &mut dyn TraceSink,
) {
    let mut ctx = GroupCtx::new(group, units, meta.group_size, args, &meta.placements, sink);
    kernel.run_group(&mut ctx, args);
}

/// Where the trace of a work-group being priced comes from.
pub(crate) enum Feed<'a> {
    /// Run the group now against `args`; its events go straight into the
    /// cost sink.
    Live {
        kernel: &'a dyn Kernel,
        group: (u64, UnitRange),
        args: &'a mut Args,
    },
    /// Replay a group a run-ahead worker recorded.
    Replay(TraceView<'a>),
}

impl Feed<'_> {
    /// Emits the group's trace of `meta` into `sink`. The replay is
    /// monomorphized over the device's cost sink; a live kernel reaches
    /// it through [`GroupCtx`]'s `&mut dyn TraceSink`.
    pub(crate) fn emit<S: TraceSink>(self, meta: &VariantMeta, sink: &mut S) {
        match self {
            Feed::Live {
                kernel,
                group,
                args,
            } => run_group(kernel, meta, group, args, sink),
            Feed::Replay(view) => view.replay(sink),
        }
    }
}

/// Records groups `lo..hi` of `item` against a snapshot of its pristine
/// arguments (one run-ahead job). One recycled trace records the whole
/// span; group boundaries mark the per-group slices for phase 2.
fn record_span(exec: &Executor, item: &FunctionalItem<'_>, lo: usize, hi: usize) -> SpanRun {
    let mut args = item.pristine.clone();
    let mut sink = RecordingSink::reusing(exec.take_trace());
    for &group in &item.groups[lo..hi] {
        run_group(item.kernel, item.meta, group, &mut args, &mut sink);
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

/// Device-specific pricing: the stateful cost model of each execution unit.
pub(crate) trait PriceModel {
    /// The cost on `unit` of one work-group of `meta`, whose trace `feed`
    /// emits ([`Feed::emit`]) into the unit's cost sink: live from the
    /// kernel, or replayed from a recorded span.
    fn price_group(&mut self, unit: usize, meta: &VariantMeta, feed: Feed<'_>) -> Cycles;
}

/// The device state phase 2 prices a batch against, in issue order.
pub(crate) struct Pricer<'a, M> {
    pub(crate) streams: &'a mut StreamTable,
    pub(crate) pool: &'a mut UnitPool,
    /// Per-group execution noise.
    pub(crate) exec_noise: &'a mut NoiseModel,
    /// Noise on the busy time a measured launch reports.
    pub(crate) meas_noise: &'a mut NoiseModel,
    pub(crate) launch_overhead: Cycles,
    pub(crate) model: M,
}

impl<M> Pricer<'_, M> {
    /// When `e` may start: its stream's gate after the issue overhead.
    fn gate(&self, e: &BatchEntry<'_>) -> Cycles {
        self.streams
            .gate(e.stream, e.not_before + self.launch_overhead)
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

    /// Prices the next group of `meta` (trace from `feed`) on the
    /// earliest-free unit, applies execution noise and the hang factor,
    /// and places it on that unit — unless the spend would then exceed
    /// `budget`, in which case nothing is placed and `false` is returned.
    fn place<M: PriceModel>(
        &mut self,
        p: &mut Pricer<'_, M>,
        meta: &VariantMeta,
        budget: Option<Cycles>,
        feed: Feed<'_>,
    ) -> bool {
        let unit = p.pool.earliest_unit();
        let cost = p.exec_noise.perturb(p.model.price_group(unit, meta, feed)) * self.slow;
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
    fn done<M>(self, p: &mut Pricer<'_, M>, e: &BatchEntry<'_>) -> LaunchOutcome {
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

/// How phase 2 will handle one batch entry.
enum EntryPlan {
    /// Executed span by span; the range indexes the batch's span jobs.
    Spans(Range<usize>),
    /// Budget-eligible: executed group by group inside phase 2 so a
    /// preemption really stops the functional execution.
    Budgeted,
    /// Injected `LaunchError`: never executes.
    Refused,
}

/// The full two-phase batch launch shared by the device models: functional
/// execution of every entry's spans — live, or recorded ahead by the
/// executor's workers — streamed into a serial in-order merge, pricing,
/// scheduling and measurement.
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
/// tightening as better measurements arrive). Budget-eligible entries are
/// never recorded ahead: phase 2 runs each of their groups live against
/// one private snapshot, prices it, and commits it only if the
/// accumulated spend stays within budget — the first group that would
/// overflow preempts the launch ([`LaunchOutcome::Preempted`]) before
/// executing any further work, so `cycles_spent <= budget` holds strictly
/// and a `hang*64` variant costs at most the budget instead of 64x the
/// slice. A preempted entry discards its snapshot (target buffers
/// untouched) and does not advance its stream; the unit pool keeps only
/// the committed groups' occupancy. The budgeted path walks the same
/// canonical group order and draws noise identically, so an entry that
/// *completes* within budget is bit-identical to the span path — and every
/// budget decision is made in priced virtual cycles, keeping outcomes
/// independent of the worker count.
pub(crate) fn launch_batch_engine<M: PriceModel>(
    exec: &Executor,
    entries: &[BatchEntry<'_>],
    targets: &mut [&mut Args],
    mut p: Pricer<'_, M>,
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
    // are shared copy-on-write until a span writes).
    let pristine: Vec<Args> = targets.iter().map(|t| (**t).clone()).collect();

    // Split every entry that runs span by span — all but refused entries
    // (which never execute) and budget-eligible ones (which must be able
    // to stop mid-launch). Eligibility must be decidable before pricing,
    // so any measured entry is budgeted while a policy is installed,
    // whether or not a baseline ends up binding it.
    let mut plan_of: Vec<EntryPlan> = Vec::with_capacity(entries.len());
    let mut items: Vec<FunctionalItem<'_>> = Vec::with_capacity(entries.len());
    // Span jobs of *all* span entries, item-major: (item, group range).
    // Fanning them out together lets a batch of K small profiling launches
    // saturate the workers.
    let mut jobs: Vec<(usize, usize, usize)> = Vec::new();
    for (e, decision) in entries.iter().zip(&decisions) {
        if *decision == Some(FaultKind::LaunchError) {
            plan_of.push(EntryPlan::Refused);
        } else if e.budget.is_some() || (budget_policy.is_some() && e.measured) {
            plan_of.push(EntryPlan::Budgeted);
        } else {
            let groups: Vec<(u64, UnitRange)> =
                e.units.groups(u64::from(e.meta.wa_factor)).collect();
            let first = jobs.len();
            jobs.extend(
                span_bounds(groups.len(), SPANS_PER_LAUNCH).map(|(lo, hi)| (items.len(), lo, hi)),
            );
            plan_of.push(EntryPlan::Spans(first..jobs.len()));
            items.push(FunctionalItem {
                kernel: e.kernel,
                meta: e.meta,
                groups,
                pristine: &pristine[e.target],
            });
        }
    }
    let live = !exec.runs_ahead(jobs.len());

    // Phase 2: serial reduction in issue order. A live span runs its
    // groups here, each straight into the cost sink of the unit it is
    // placed on; a recorded span is taken from the workers as it arrives,
    // its groups replayed, and its trace handed straight back to the arena.
    let mut price = |spans: &mut dyn Iterator<Item = SpanRun>| {
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
            let outcome = match &plan_of[ei] {
                EntryPlan::Refused => {
                    // Failed launch: nothing ran, nothing advances. The host
                    // observes the failure once the stream would have started.
                    LaunchOutcome::Failed(LaunchFailure {
                        at: p.gate(e),
                        transient: true,
                    })
                }
                EntryPlan::Spans(span_jobs) => {
                    let additive = e.meta.ir.has_global_atomics || !e.meta.ir.output_disjoint;
                    let outs = output_indices(e.meta, targets[e.target]);
                    let mut tally = Tally::new(p.gate(e), slow);
                    // Corruption tampers with what every span wrote, after
                    // the entry's last merge, so its snapshots stay alive.
                    let mut written: Vec<Args> = Vec::new();
                    for &(item, lo, hi) in &jobs[span_jobs.clone()] {
                        let args = if live {
                            let item = &items[item];
                            let mut args = item.pristine.clone();
                            for &group in &item.groups[lo..hi] {
                                let feed = Feed::Live {
                                    kernel: item.kernel,
                                    group,
                                    args: &mut args,
                                };
                                tally.place(&mut p, e.meta, None, feed);
                            }
                            args
                        } else {
                            let span = spans.next().expect("one result per span job");
                            for view in span.trace.groups() {
                                tally.place(&mut p, e.meta, None, Feed::Replay(view));
                            }
                            exec.recycle_trace(span.trace);
                            span.args
                        };
                        targets[e.target]
                            .merge_outputs(&args, &pristine[e.target], &outs, additive)
                            .expect("span snapshot has the target's arity");
                        if corrupt.is_some() {
                            written.push(args);
                        }
                    }
                    if let Some(poison) = corrupt {
                        for args in &written {
                            targets[e.target]
                                .corrupt_changed(args, &pristine[e.target], &outs, poison)
                                .expect("span snapshot has the target's arity");
                        }
                    }
                    tally.done(&mut p, e)
                }
                EntryPlan::Budgeted => {
                    let budget = e.budget.or_else(|| match (budget_policy, best_measured) {
                        (Some(policy), Some(best)) if e.measured => Some(policy.budget_for(best)),
                        _ => None,
                    });
                    run_budgeted_entry(
                        e,
                        targets[e.target],
                        &pristine[e.target],
                        &mut p,
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
    };
    if live {
        price(&mut std::iter::empty())
    } else {
        let record_job = |j: usize| {
            let (i, lo, hi) = jobs[j];
            record_span(exec, &items[i], lo, hi)
        };
        exec.ordered(jobs.len(), record_job, |spans| price(spans))
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

/// Executes one budget-eligible entry (see the budget section of
/// [`launch_batch_engine`]): groups run live against a private snapshot in
/// canonical order, each priced and then committed only if the accumulated
/// spend stays within `budget`.
fn run_budgeted_entry<M: PriceModel>(
    e: &BatchEntry<'_>,
    target: &mut Args,
    pristine: &Args,
    p: &mut Pricer<'_, M>,
    slow: u64,
    corrupt: Option<bool>,
    budget: Option<Cycles>,
) -> LaunchOutcome {
    let mut work = pristine.clone();
    let mut tally = Tally::new(p.gate(e), slow);
    for group in e.units.groups(u64::from(e.meta.wa_factor)) {
        let feed = Feed::Live {
            kernel: e.kernel,
            group,
            args: &mut work,
        };
        let placed = tally.place(p, e.meta, budget, feed);
        if !placed {
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
    if let Some(poison) = corrupt {
        target
            .corrupt_changed(&work, pristine, &outs, poison)
            .expect("work snapshot has the target's arity");
    }
    tally.done(p, e)
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
        // Job 0 finishes after every job the window lets run ahead of it,
        // so their results reach the caller first and must wait for their
        // turn.
        for threads in [2, 8] {
            let n = 20;
            let ahead = (RUN_AHEAD_PER_WORKER * threads).min(n) - 1;
            let finished = AtomicUsize::new(0);
            let got: Vec<_> = Executor::new(threads).ordered(
                n,
                |i| {
                    if i == 0 {
                        while finished.load(Ordering::Acquire) < ahead {
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
    fn ordered_bounds_how_far_workers_run_ahead() {
        // No job may start more than `window` places past the results
        // taken. The consumer's pause only gives a missing bound the time
        // to show; the assertion holds at any timing.
        for threads in [2, 8] {
            let window = RUN_AHEAD_PER_WORKER * threads;
            let n = 8 * window;
            let taken = AtomicUsize::new(0);
            let ahead = AtomicUsize::new(0);
            let got: Vec<usize> = Executor::new(threads).ordered(
                n,
                |i| {
                    let beyond = (i + 1).saturating_sub(taken.load(Ordering::SeqCst));
                    ahead.fetch_max(beyond, Ordering::SeqCst);
                    i
                },
                |results| {
                    results
                        .inspect(|&i| {
                            thread::sleep(std::time::Duration::from_micros(200));
                            taken.store(i + 1, Ordering::SeqCst);
                        })
                        .collect()
                },
            );
            assert_eq!(got, (0..n).collect::<Vec<_>>(), "threads={threads}");
            let ahead = ahead.into_inner();
            assert!(
                ahead <= window,
                "threads={threads}: a job started {ahead} places past the taken results \
                 (window {window})"
            );
        }
    }

    #[test]
    fn ordered_survives_a_panicking_job() {
        // The other workers must not wait forever in the window: the panic
        // reaches the caller.
        for threads in [2, 8] {
            let run = std::panic::catch_unwind(|| {
                Executor::new(threads).ordered(
                    64,
                    |i| assert!(i != 3, "job 3 fails"),
                    |results| results.count(),
                )
            });
            assert!(run.is_err(), "threads={threads}");
        }
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
