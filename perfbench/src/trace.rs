//! Host-time tracing from outside the library: spans around calls into
//! each layer, plus a timing `Device` and a timing `Kernel` wrapper.
//!
//! Spans are kept in memory and written out when the run ends. A span's
//! parent is the innermost span open on the same thread, so a layer's self
//! time is its duration minus its children's. Work-group (kernel) time is
//! too fine-grained for spans and is kept as a sum and a count per probe.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use dysel_device::{
    BatchEntry, BudgetPolicy, Cycles, Device, DeviceKind, FaultPlan, LaunchOutcome, LaunchSpec,
    StreamId,
};
use dysel_kernel::{Args, GroupCtx, Kernel, Variant};
use dysel_obs::EventSink;
use dysel_workloads::{Target, Workload};

/// One closed span. `parent` and `op` are 0 when there is none.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

fn tracer() -> &'static Tracer {
    static TRACER: OnceLock<Tracer> = OnceLock::new();
    TRACER.get_or_init(|| Tracer {
        epoch: Instant::now(),
        next_id: AtomicU64::new(1),
        spans: Mutex::new(Vec::new()),
    })
}

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static OP: Cell<u64> = const { Cell::new(0) };
}

/// Tags every span this thread opens from now on with `op` (0 = none).
pub fn set_op(op: u64) {
    OP.with(|c| c.set(op));
}

/// An open span; recorded when dropped.
pub struct Guard {
    id: u64,
    parent: u64,
    op: u64,
    name: &'static str,
    start_ns: u64,
}

/// Nanoseconds since the span clock started.
pub fn clock_ns() -> u64 {
    tracer().epoch.elapsed().as_nanos() as u64
}

/// Opens a span named `name` under the innermost span open on this thread.
pub fn span(name: &'static str) -> Guard {
    let id = tracer().next_id.fetch_add(1, Relaxed);
    let parent = OPEN.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    Guard {
        id,
        parent,
        op: OP.with(Cell::get),
        name,
        start_ns: clock_ns(),
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let end_ns = clock_ns();
        OPEN.with(|s| s.borrow_mut().pop());
        let span = Span {
            id: self.id,
            parent: self.parent,
            op: self.op,
            name: self.name,
            start_ns: self.start_ns,
            end_ns,
        };
        tracer()
            .spans
            .lock()
            .expect("span list poisoned by a panicking thread")
            .push(span);
    }
}

/// Runs `f` inside a span named `name` when `on`, bare otherwise.
pub fn within<T>(on: bool, name: &'static str, f: impl FnOnce() -> T) -> T {
    let _guard = on.then(|| span(name));
    f()
}

/// Every span recorded so far, in close order.
pub fn spans() -> Vec<Span> {
    tracer()
        .spans
        .lock()
        .expect("span list poisoned by a panicking thread")
        .clone()
}

/// Counters of one family of wrapped devices and the kernels they run.
/// Device busy time is the sum of this probe's `span` durations.
pub struct Probe {
    pub span: &'static str,
    pub devices: AtomicU64,
    pub launches: AtomicU64,
    pub batch_entries: AtomicU64,
    pub groups: AtomicU64,
    pub kernel_ns: AtomicU64,
    pub kernel_groups: AtomicU64,
}

impl Probe {
    const fn new(span: &'static str) -> Self {
        Probe {
            span,
            devices: AtomicU64::new(0),
            launches: AtomicU64::new(0),
            batch_entries: AtomicU64::new(0),
            groups: AtomicU64::new(0),
            kernel_ns: AtomicU64::new(0),
            kernel_groups: AtomicU64::new(0),
        }
    }

    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Relaxed)
    }

    fn count_groups(&self, outcome: &LaunchOutcome) {
        if let LaunchOutcome::Done(rec) = outcome {
            self.groups.fetch_add(rec.groups, Relaxed);
        }
    }
}

/// Runtime and service devices of the CPU model.
pub static CPU: Probe = Probe::new("device.cpu");
/// Runtime devices of the GPU model.
pub static GPU: Probe = Probe::new("device.gpu");
/// Devices the exhaustive oracle sweep builds (one per variant, each on
/// its own sweep thread).
pub static SWEEP: Probe = Probe::new("baselines.sweep.device");

/// Times every work-group of the wrapped kernel into a probe.
struct TimedKernel {
    inner: Arc<dyn Kernel>,
    probe: &'static Probe,
}

impl Kernel for TimedKernel {
    fn run_group(&self, ctx: &mut GroupCtx<'_>, args: &mut Args) {
        let start = Instant::now();
        self.inner.run_group(ctx, args);
        let ns = start.elapsed().as_nanos() as u64;
        self.probe.kernel_ns.fetch_add(ns, Relaxed);
        self.probe.kernel_groups.fetch_add(1, Relaxed);
    }
}

fn timed_variants(variants: &[Variant], probe: &'static Probe) -> Vec<Variant> {
    variants
        .iter()
        .map(|v| {
            let kernel: Arc<dyn Kernel> = Arc::new(TimedKernel {
                inner: v.kernel.clone(),
                probe,
            });
            Variant::new(v.meta.clone(), kernel)
        })
        .collect()
}

/// Rebuilds `w` with the `target` variants listed by index in `keep`, each
/// kernel timed into `probe` when one is given. The other target's set is
/// dropped. Inputs are shared copy-on-write with `w`.
pub fn rebuild(
    w: &Workload,
    target: Target,
    keep: &[usize],
    probe: Option<&'static Probe>,
) -> Workload {
    let all = w.variants(target);
    let picked: Vec<Variant> = keep.iter().map(|&i| all[i].clone()).collect();
    let variants = match probe {
        Some(p) => timed_variants(&picked, p),
        None => picked,
    };
    let (cpu, gpu) = match target {
        Target::Cpu => (variants, Vec::new()),
        Target::Gpu => (Vec::new(), variants),
    };
    let reference = w.clone();
    let rebuilt = Workload::new(
        w.name.clone(),
        w.fresh_args(),
        w.total_units,
        cpu,
        gpu,
        Arc::new(move |args: &Args| reference.verify(args)),
    );
    if w.iterative {
        rebuilt.iterative()
    } else {
        rebuilt
    }
}

/// Times every launch of the wrapped device into `probe` and forwards
/// every trait method, the defaulted ones included, so batching, budgets,
/// fault plans and observers behave exactly as on the bare device.
pub struct TimedDevice {
    inner: Box<dyn Device>,
    probe: &'static Probe,
}

impl TimedDevice {
    pub fn wrap(inner: Box<dyn Device>, probe: &'static Probe) -> Box<dyn Device> {
        probe.devices.fetch_add(1, Relaxed);
        Box::new(TimedDevice { inner, probe })
    }
}

impl Device for TimedDevice {
    fn kind(&self) -> DeviceKind {
        self.inner.kind()
    }

    fn name(&self) -> String {
        self.inner.name()
    }

    fn units(&self) -> u32 {
        self.inner.units()
    }

    fn launch_overhead(&self) -> Cycles {
        self.inner.launch_overhead()
    }

    fn query_latency(&self) -> Cycles {
        self.inner.query_latency()
    }

    fn launch(&mut self, spec: LaunchSpec<'_>) -> LaunchOutcome {
        let outcome = {
            let _span = span(self.probe.span);
            self.inner.launch(spec)
        };
        self.probe.launches.fetch_add(1, Relaxed);
        self.probe.count_groups(&outcome);
        outcome
    }

    fn launch_batch(
        &mut self,
        entries: &[BatchEntry<'_>],
        targets: &mut [&mut Args],
    ) -> Vec<LaunchOutcome> {
        let outcomes = {
            let _span = span(self.probe.span);
            self.inner.launch_batch(entries, targets)
        };
        self.probe.launches.fetch_add(1, Relaxed);
        self.probe
            .batch_entries
            .fetch_add(entries.len() as u64, Relaxed);
        for outcome in &outcomes {
            self.probe.count_groups(outcome);
        }
        outcomes
    }

    fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.inner.set_fault_plan(plan);
    }

    fn set_budget_policy(&mut self, policy: Option<BudgetPolicy>) {
        self.inner.set_budget_policy(policy);
    }

    fn budget_policy(&self) -> Option<BudgetPolicy> {
        self.inner.budget_policy()
    }

    fn fault_plan(&self) -> Option<&FaultPlan> {
        self.inner.fault_plan()
    }

    fn set_observer(&mut self, obs: Option<Arc<EventSink>>) {
        self.inner.set_observer(obs);
    }

    fn observer(&self) -> Option<&Arc<EventSink>> {
        self.inner.observer()
    }

    fn stream_end(&self, stream: StreamId) -> Cycles {
        self.inner.stream_end(stream)
    }

    fn earliest_unit_free(&self) -> Cycles {
        self.inner.earliest_unit_free()
    }

    fn busy_until(&self) -> Cycles {
        self.inner.busy_until()
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}
