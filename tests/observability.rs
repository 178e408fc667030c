//! Observability acceptance: the structured event stream is deterministic
//! (bit-identical exports across a device reset and a fresh runtime), fault handling shows up as retry-before-quarantine in canonical
//! order, observation off is bit-identical to observation on, and the
//! three PR bugfixes hold — bounded diagnostics, warm-restore staleness
//! invalidation, and size-aware sandbox reuse (covered unit-side; the
//! metrics here cross-check the pool counters end to end).

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use dysel::core::{
    LaunchOptions, LaunchReport, QuarantineReason, Runtime, RuntimeConfig, SkipReason, VerifyLevel,
};
use dysel::device::{CpuConfig, CpuDevice, Device, FaultKind, FaultPlan, FaultRule};
use dysel::kernel::{
    AccessIr, Args, Buffer, KernelIr, LoopBound, LoopIr, LoopKind, Space, Variant, VariantMeta,
};
use dysel::obs::{chrome_trace, jsonl, names, EventSink, Stage};
use dysel::workloads::{spmv_csr, CsrMatrix, Target, Workload};

fn workload() -> Workload {
    spmv_csr::case4_workload("spmv", &CsrMatrix::random(4096, 4096, 0.01, 99), 99)
}

fn observed_runtime(device: Box<dyn Device>) -> (Runtime, Arc<EventSink>) {
    let sink = Arc::new(EventSink::new());
    let rt = Runtime::with_config(
        device,
        RuntimeConfig {
            profile_threshold_groups: 16,
            observe: Some(sink.clone()),
            ..RuntimeConfig::default()
        },
    );
    (rt, sink)
}

fn launch(rt: &mut Runtime, w: &Workload) -> LaunchReport {
    let mut args = w.fresh_args();
    rt.launch(
        &w.signature,
        &mut args,
        w.total_units,
        &LaunchOptions::new(),
    )
    .unwrap()
}

/// The golden-trace contract: `Runtime::reset` + `EventSink::clear`
/// replays the exact same event stream, and so does a fresh runtime, so
/// both exporters produce byte-identical output: the trace is a pure
/// function of the virtual schedule.
#[test]
fn reset_and_rerun_reproduce_the_same_trace() {
    let w = workload();
    let fresh = || {
        let (mut rt, sink) = observed_runtime(Box::new(CpuDevice::new(CpuConfig::default())));
        rt.add_kernels(&w.signature, w.variants(Target::Cpu).to_vec());
        launch(&mut rt, &w);
        (rt, sink)
    };
    let exports = |sink: &EventSink| {
        let events = sink.events();
        assert!(!events.is_empty(), "no events");
        (chrome_trace(&events), jsonl(&events))
    };
    let (mut rt, sink) = fresh();
    let first = exports(&sink);
    sink.clear();
    rt.reset();
    launch(&mut rt, &w);
    assert_eq!(exports(&sink), first, "reset run diverged");
    assert_eq!(exports(&fresh().1), first, "fresh runtime diverged");
}

/// Under an active fault plan the event stream tells the degradation story
/// in canonical order: for the erroring variant, every retry precedes its
/// quarantine, and the stream ends in a selection of a healthy variant
/// followed by the final batch.
#[test]
fn faulted_trace_reads_retry_then_quarantine_in_canonical_order() {
    let w = workload();
    let names_v: Vec<String> = w
        .variants(Target::Cpu)
        .iter()
        .map(|v| v.name().to_owned())
        .collect();
    assert!(names_v.len() >= 2);
    let broken = names_v[0].clone();
    let mut dev = CpuDevice::new(CpuConfig::default());
    dev.set_fault_plan(Some(
        FaultPlan::new(2026).with(FaultRule::new(&broken, FaultKind::LaunchError)),
    ));
    let (mut rt, sink) = observed_runtime(Box::new(dev));
    rt.add_kernels(&w.signature, w.variants(Target::Cpu).to_vec());
    let report = launch(&mut rt, &w);
    assert!(report.faults.retries >= 1, "no retry");
    assert_ne!(report.selected_name, broken);
    let events = sink.events();

    let retry_seqs: Vec<u64> = events
        .iter()
        .filter(|e| e.stage == Stage::Retry && e.variant == broken)
        .map(|e| e.seq)
        .collect();
    let quarantine_seq = events
        .iter()
        .find(|e| e.stage == Stage::Quarantine && e.variant == broken)
        .map(|e| e.seq)
        .expect("the broken variant must be quarantined");
    assert!(!retry_seqs.is_empty(), "retries must be in the stream");
    assert!(
        retry_seqs.iter().all(|&s| s < quarantine_seq),
        "every retry of {broken} must precede its quarantine: {retry_seqs:?} vs {quarantine_seq}"
    );
    let select = events
        .iter()
        .find(|e| e.stage == Stage::Select)
        .expect("a selection event");
    assert_eq!(select.variant, report.selected_name);
    assert!(select.seq > quarantine_seq);
    let batch = events
        .iter()
        .rfind(|e| e.stage == Stage::Batch)
        .expect("a final batch event");
    assert!(batch.seq > select.seq);
}

/// The overhead guard at its strongest: a fully unobserved run produces the
/// exact same report and launch timeline as an observed one — observation
/// is a read-only tap, never a schedule input.
#[test]
fn observation_never_changes_reports_or_timelines() {
    let w = workload();
    let run = |observe: Option<Arc<EventSink>>| {
        let mut rt = Runtime::with_config(
            Box::new(CpuDevice::new(CpuConfig::default())),
            RuntimeConfig {
                profile_threshold_groups: 16,
                observe,
                ..RuntimeConfig::default()
            },
        );
        rt.add_kernels(&w.signature, w.variants(Target::Cpu).to_vec());
        let report = launch(&mut rt, &w);
        (report, rt.last_timeline().clone())
    };
    let plain = run(None);
    let observed = run(Some(Arc::new(EventSink::new())));
    assert_eq!(plain.0, observed.0, "report diverged under observation");
    assert_eq!(plain.1, observed.1, "timeline diverged under observation");
}

/// Metrics snapshot coverage: launch counters, profiling histograms and
/// the sandbox-pool hit/miss counters all land, and a second launch of the
/// same signature registers as a selection-cache hit.
#[test]
fn metrics_cover_launches_profiling_and_the_sandbox_pool() {
    let w = workload();
    let (mut rt, _sink) = observed_runtime(Box::new(CpuDevice::new(CpuConfig::default())));
    rt.add_kernels(&w.signature, w.variants(Target::Cpu).to_vec());
    let report = launch(&mut rt, &w);
    let m = rt.metrics_snapshot();
    assert_eq!(m.counter(names::LAUNCHES), 1);
    assert_eq!(m.counter(names::DEVICE_LAUNCHES), report.launches);
    assert!(m.counter(names::PROFILE_LAUNCHES) >= 1);
    let hist = format!(
        "{}/{}/{}",
        names::PROFILE_CYCLES,
        w.signature,
        report.selected_name
    );
    let h = m.histogram(&hist).expect("winner's profiling histogram");
    assert!(h.count() >= 1 && h.sum() > 0);

    // Steady state: the next launch reuses the cached selection.
    let mut rt = rt;
    let report2 = {
        let mut args = w.fresh_args();
        rt.launch(
            &w.signature,
            &mut args,
            w.total_units,
            &LaunchOptions::new().without_profiling(),
        )
        .unwrap()
    };
    assert_eq!(report2.skipped, Some(SkipReason::CachedSelection));
    let m2 = rt.metrics_snapshot();
    assert_eq!(m2.counter(names::CACHE_HITS), 1);
    assert_eq!(m2.counter(names::LAUNCHES), 2);
    // The render is stable plain text, one metric per line.
    let rendered = m2.render();
    assert!(rendered.contains(&format!("counter {} 2\n", names::LAUNCHES)));
}

// ---- bugfix regressions -------------------------------------------------

const N: u64 = 4096;

fn fresh_args() -> Args {
    let mut a = Args::new();
    a.push(Buffer::f32("out", vec![0.0; N as usize], Space::Global));
    a.push(Buffer::f32(
        "in",
        (0..N).map(|i| i as f32).collect(),
        Space::Global,
    ));
    a
}

/// `out[u] = 2*in[u] + 1` with honest metadata, priced at `cost`.
fn writer(name: &str, cost: u64) -> Variant {
    Variant::from_fn(
        VariantMeta::new(name, KernelIr::regular(vec![0])),
        move |ctx, args| {
            for u in ctx.units().iter() {
                let x = args.f32(1).unwrap()[u as usize];
                args.f32_mut(0).unwrap()[u as usize] = 2.0 * x + 1.0;
                ctx.vector_compute(cost, 8, 8, 1);
            }
        },
    )
}

/// Metadata that lies about disjointness — each distinctly-named variant
/// yields a distinct deny finding.
fn misdeclared(name: &str) -> Variant {
    let ir = KernelIr::regular(vec![0])
        .with_loops(vec![LoopIr::new(
            LoopKind::WorkItem(0),
            LoopBound::Const(N),
        )])
        .with_accesses(vec![AccessIr::affine_store(0, vec![0])]);
    Variant::from_fn(VariantMeta::new(name, ir), |ctx, args| {
        for u in ctx.units().iter() {
            args.f32_mut(0).unwrap()[u as usize] = 1.0;
            ctx.vector_compute(64, 8, 8, 1);
        }
    })
}

/// Regression (diagnostics growth): a lenient runtime fed a stream of
/// distinct findings for one signature keeps the first 32 and counts the
/// rest as dropped instead of growing without bound.
#[test]
fn diagnostics_are_capped_per_signature() {
    let sink = Arc::new(EventSink::new());
    let mut rt = Runtime::with_config(
        Box::new(CpuDevice::new(CpuConfig::noiseless())),
        RuntimeConfig {
            verify: VerifyLevel::Lenient,
            observe: Some(sink.clone()),
            ..RuntimeConfig::default()
        },
    );
    for i in 0..40 {
        rt.add_kernel("k", misdeclared(&format!("liar-{i:02}")));
    }
    assert_eq!(rt.diagnostics("k").len(), 32, "cap at 32 findings");
    assert_eq!(rt.diagnostics_dropped("k"), 8);
    assert_eq!(rt.metrics_snapshot().counter(names::DIAG_DROPPED), 8);
    // Re-registering an already-recorded finding is still a dedup, not a
    // drop: the counter only moves for genuinely new findings past the cap.
    rt.add_kernel("k", misdeclared("liar-00"));
    assert_eq!(rt.diagnostics_dropped("k"), 8);
}

fn temp_state(tag: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("dysel-obs-{}-{tag}.state", std::process::id()));
    let _ = fs::remove_file(&p);
    p
}

fn warm_runtime(
    path: &Path,
    plan: Option<FaultPlan>,
    observe: Option<Arc<EventSink>>,
    variants: Vec<Variant>,
) -> Runtime {
    let mut dev = CpuDevice::new(CpuConfig::noiseless());
    dev.set_fault_plan(plan);
    let mut rt = Runtime::with_config(
        Box::new(dev),
        RuntimeConfig {
            profile_threshold_groups: 16,
            state_path: Some(path.to_path_buf()),
            observe,
            ..RuntimeConfig::default()
        },
    );
    rt.add_kernels("triple", variants);
    rt
}

fn grid() -> Vec<Variant> {
    vec![
        writer("a-slow", 12),
        writer("b-mid", 8),
        writer("c-fast", 4),
    ]
}

fn sync_launch(rt: &mut Runtime) -> LaunchReport {
    let mut args = fresh_args();
    rt.launch("triple", &mut args, N, &LaunchOptions::new())
        .unwrap()
}

/// Regression (warm-restore staleness, quarantine case): when the variant
/// a warm restart restored gets quarantined, the next launch must not keep
/// skipping profiling off the stale entry — it invalidates the warm state
/// and re-profiles against the surviving candidates.
#[test]
fn quarantine_after_warm_restore_invalidates_the_warm_entry() {
    let path = temp_state("quarantine");
    let cold = {
        let mut rt = warm_runtime(&path, None, None, grid());
        let report = sync_launch(&mut rt);
        rt.save_state().unwrap();
        report
    };
    assert_eq!(cold.selected_name, "c-fast");

    // Restart warm, with the persisted winner now permanently erroring.
    let sink = Arc::new(EventSink::new());
    let plan = FaultPlan::new(7).with(FaultRule::new("c-fast", FaultKind::LaunchError));
    let mut rt = warm_runtime(&path, Some(plan), Some(sink.clone()), grid());

    // Launch 1 restores warm, tries the persisted winner, quarantines it
    // and falls back — still a skip launch.
    let r1 = sync_launch(&mut rt);
    assert_eq!(r1.skipped, Some(SkipReason::CachedSelection));
    assert_ne!(r1.selected_name, "c-fast");
    assert!(rt
        .quarantined("triple")
        .iter()
        .any(|(_, why)| *why == QuarantineReason::LaunchFailed));

    // Launch 2 must notice the stale warm entry and go back to profiling.
    let r2 = sync_launch(&mut rt);
    assert!(r2.profiled(), "stale warm entry must force re-profiling");
    assert_eq!(r2.selected_name, "b-mid");
    let m = rt.metrics_snapshot();
    assert_eq!(m.counter(names::WARM_INVALIDATIONS), 1);
    assert_eq!(
        sink.events()
            .iter()
            .filter(|e| e.stage == Stage::WarmInvalidate)
            .count(),
        1
    );
    let _ = fs::remove_file(&path);
}

/// Regression (warm-restore staleness, variant-count case): a state file
/// recorded against K variants must not warm-skip a process that
/// registered a different K — the selection may not even mean the same
/// kernel any more.
#[test]
fn changed_variant_count_invalidates_the_warm_entry() {
    let path = temp_state("count");
    {
        let mut rt = warm_runtime(&path, None, None, grid());
        sync_launch(&mut rt);
        rt.save_state().unwrap();
    }
    // Same signature, four variants now — including a faster one.
    let sink = Arc::new(EventSink::new());
    let mut variants = grid();
    variants.push(writer("d-faster", 2));
    let mut rt = warm_runtime(&path, None, Some(sink.clone()), variants);
    let report = sync_launch(&mut rt);
    assert!(report.profiled(), "changed variant count must re-profile");
    assert_eq!(report.selected_name, "d-faster");
    assert_eq!(rt.metrics_snapshot().counter(names::WARM_INVALIDATIONS), 1);
    let _ = fs::remove_file(&path);
}

/// The unchanged-K warm restart still skips profiling (the staleness audit
/// must not over-invalidate) and now announces itself in the stream.
#[test]
fn healthy_warm_restart_still_skips_and_emits_warm_skip() {
    let path = temp_state("healthy");
    let cold = {
        let mut rt = warm_runtime(&path, None, None, grid());
        let report = sync_launch(&mut rt);
        rt.save_state().unwrap();
        report
    };
    let sink = Arc::new(EventSink::new());
    let mut rt = warm_runtime(&path, None, Some(sink.clone()), grid());
    let warm = sync_launch(&mut rt);
    assert!(!warm.profiled());
    assert_eq!(warm.selected_name, cold.selected_name);
    let m = rt.metrics_snapshot();
    assert_eq!(m.counter(names::WARM_SKIPS), 1);
    assert_eq!(m.counter(names::WARM_INVALIDATIONS), 0);
    let skip = sink
        .events()
        .iter()
        .find(|e| e.stage == Stage::WarmSkip)
        .cloned()
        .expect("a warm-skip event");
    assert_eq!(skip.variant, cold.selected_name);
    let _ = fs::remove_file(&path);
}

// ---- service fault-containment observability ----------------------------

/// Every containment mechanism leaves a deterministic trail: lane panics,
/// breaker open → half-open → close, deadline expiries, worker restarts
/// and journal compactions each bump their counter *and* emit a
/// service-level event (kept apart from lane traces, which must stay
/// bit-identical to serial replay).
#[test]
fn service_containment_counters_and_events_are_complete() {
    use std::sync::atomic::AtomicBool;
    use std::time::{Duration, Instant};

    use dysel::core::{
        BreakerConfig, ChaosAction, ChaosPlan, ChaosRule, DyselError, LaunchService, ServiceConfig,
        TenantId,
    };

    let state = temp_state("containment");
    // Panics once, then behaves: drives open -> half-open -> close.
    let armed = Arc::new(AtomicBool::new(true));
    let flaky = {
        let armed = armed.clone();
        Variant::from_fn(
            VariantMeta::new("flaky", KernelIr::regular(vec![0])),
            move |ctx, args| {
                if armed.swap(false, std::sync::atomic::Ordering::SeqCst) {
                    panic!("observability kaboom");
                }
                for u in ctx.units().iter() {
                    let x = args.f32(1).unwrap()[u as usize];
                    args.f32_mut(0).unwrap()[u as usize] = 2.0 * x + 1.0;
                    ctx.vector_compute(4, 8, 8, 1);
                }
            },
        )
    };
    let service = LaunchService::with_factory(
        || Box::new(CpuDevice::new(CpuConfig::noiseless())),
        ServiceConfig {
            shards: 1,
            observe: true,
            state_path: Some(state.clone()),
            breaker: BreakerConfig {
                cooldown: Duration::ZERO,
                ..BreakerConfig::default()
            },
            restart_backoff: Duration::from_millis(1),
            chaos: Some(
                ChaosPlan::new(9).with(ChaosRule::new("doomed", ChaosAction::Kill).window(0, 1)),
            ),
            ..ServiceConfig::default()
        },
    );
    service.register("flaky", [flaky]);
    service.register("steady", grid());
    service.register("doomed", grid());
    let opts = LaunchOptions::new();
    let tenant = TenantId(3);
    // Lane panic: contained, typed, breaker tripped.
    let (_, r) = service
        .submit(tenant, "flaky", fresh_args(), N, &opts)
        .unwrap()
        .wait();
    assert!(matches!(r, Err(DyselError::LanePanicked { .. })));
    // Zero cooldown: the next submission is the half-open probe; the
    // now-disarmed variant succeeds and the breaker closes.
    let (_, r) = service
        .submit(tenant, "flaky", fresh_args(), N, &opts)
        .unwrap()
        .wait();
    assert!(r.is_ok(), "half-open probe must be admitted and succeed");
    // An already-expired deadline resolves typed without launching.
    let (_, r) = service
        .submit_with_deadline(tenant, "steady", fresh_args(), N, &opts, Instant::now())
        .unwrap()
        .wait();
    assert!(matches!(r, Err(DyselError::DeadlineExpired { .. })));
    // The chaos kill fells the shard worker mid-job; the ticket resolves
    // typed and the supervisor restarts the worker for the retry.
    let (_, r) = service
        .submit(tenant, "doomed", fresh_args(), N, &opts)
        .unwrap()
        .wait();
    assert!(matches!(r, Err(DyselError::WorkerDied { .. })));
    let (_, r) = service
        .submit(tenant, "doomed", fresh_args(), N, &opts)
        .unwrap()
        .wait();
    assert!(r.is_ok(), "the restarted worker serves the stream");
    // Checkpoint: journal absorbed into the v4 state file.
    service.save_state().unwrap();
    let m = service.metrics();
    assert_eq!(m.counter(names::SERVICE_LANE_PANICS), 1);
    assert_eq!(m.counter(names::SERVICE_BREAKER_OPENS), 1);
    assert_eq!(m.counter(names::SERVICE_BREAKER_HALF_OPENS), 1);
    assert_eq!(m.counter(names::SERVICE_BREAKER_CLOSES), 1);
    assert_eq!(m.counter(names::SERVICE_DEADLINE_EXPIRIES), 1);
    assert!(m.counter(names::SERVICE_WORKER_RESTARTS) >= 1);
    assert!(
        m.counter(names::SERVICE_JOURNAL_APPENDS) >= 2,
        "flaky and doomed selections must hit the journal"
    );
    assert_eq!(m.counter(names::SERVICE_JOURNAL_COMPACTIONS), 1);
    let stages: Vec<Stage> = service.service_events().iter().map(|e| e.stage).collect();
    for want in [
        Stage::LanePanic,
        Stage::BreakerOpen,
        Stage::BreakerHalfOpen,
        Stage::BreakerClose,
        Stage::DeadlineExpire,
        Stage::WorkerRestart,
        Stage::JournalCompact,
    ] {
        assert!(
            stages.contains(&want),
            "missing service event stage {want:?} in {stages:?}"
        );
    }
    drop(service);
    let _ = fs::remove_file(&state);
    let _ = fs::remove_file(dysel::core::journal_path(&state));
}
