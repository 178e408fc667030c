//! End-to-end tests of trained-prediction selection: shadow-mode
//! digest/selection parity with prediction off, on-mode profiling skips,
//! drift-triggered re-profiling, and warm-vs-cold metric parity of the
//! prune accounting.

use std::collections::BTreeMap;
use std::sync::Arc;

use dysel_core::{
    FaultPlan, FaultRule, LaunchOptions, PredictLevel, PruneLevel, Runtime, RuntimeConfig,
    SkipReason,
};
use dysel_device::{CpuConfig, CpuDevice, Device, FaultKind};
use dysel_kernel::{
    Args, Buffer, KernelIr, Orchestration, ProfilingMode, Space, Variant, VariantMeta,
};
use dysel_obs::{names, EventSink, Stage};
use dysel_predict::{Model, VariantStats};

const N: u64 = 4096;

/// out[i] = 2*in[i], with an artificial extra compute cost factor.
fn doubling_variant(name: &str, cost_factor: u64) -> Variant {
    Variant::from_fn(
        VariantMeta::new(name, KernelIr::regular(vec![0])),
        move |ctx, args| {
            let u = ctx.units();
            for i in u.iter() {
                let v = args.f32(1).unwrap()[i as usize];
                args.f32_mut(0).unwrap()[i as usize] = 2.0 * v;
            }
            ctx.stream_load(1, u.start, u.len(), 1);
            ctx.stream_store(0, u.start, u.len(), 1);
            ctx.compute(u.len() * cost_factor);
        },
    )
}

fn fresh_args(n: u64) -> Args {
    let mut args = Args::new();
    args.push(Buffer::f32("out", vec![0.0; n as usize], Space::Global));
    args.push(Buffer::f32(
        "in",
        (0..n).map(|i| i as f32).collect(),
        Space::Global,
    ));
    args
}

fn assert_output_complete(args: &Args, n: u64) {
    let out = args.f32(0).unwrap();
    for i in 0..n as usize {
        assert_eq!(out[i], 2.0 * i as f32, "output wrong at {i}");
    }
}

fn three_variants() -> Vec<Variant> {
    vec![
        doubling_variant("slow", 40_000),
        doubling_variant("fast", 200),
        doubling_variant("medium", 10_000),
    ]
}

/// An exact-table model over the three test variants whose means mirror
/// their true cost ranking (margin well above any sane threshold).
fn confident_model() -> Arc<Model> {
    let mut model = Model::default();
    let mut entry = BTreeMap::new();
    entry.insert(
        "slow".to_owned(),
        VariantStats {
            mean_cycles: 400_000,
            observations: 4,
        },
    );
    entry.insert(
        "fast".to_owned(),
        VariantStats {
            mean_cycles: 2_000,
            observations: 4,
        },
    );
    entry.insert(
        "medium".to_owned(),
        VariantStats {
            mean_cycles: 100_000,
            observations: 4,
        },
    );
    model.table.insert("double".to_owned(), entry);
    Arc::new(model)
}

fn predict_runtime(predict: PredictLevel, model: Option<Arc<Model>>) -> (Runtime, Arc<EventSink>) {
    let sink = Arc::new(EventSink::new());
    let config = RuntimeConfig {
        predict,
        predict_model: model,
        observe: Some(sink.clone()),
        ..RuntimeConfig::default()
    };
    let mut rt = Runtime::with_config(Box::new(CpuDevice::new(CpuConfig::noiseless())), config);
    rt.add_kernels("double", three_variants());
    (rt, sink)
}

fn sync_opts() -> LaunchOptions {
    LaunchOptions::new()
        .with_mode(ProfilingMode::FullyProductive)
        .with_orchestration(Orchestration::Sync)
}

#[test]
fn shadow_mode_never_changes_selection() {
    let (mut off, _) = predict_runtime(PredictLevel::Off, None);
    let (mut shadow, sink) = predict_runtime(PredictLevel::Shadow, Some(confident_model()));
    for _ in 0..3 {
        let mut a = fresh_args(N);
        let base = off.launch("double", &mut a, N, &sync_opts()).unwrap();
        let mut b = fresh_args(N);
        let shadowed = shadow.launch("double", &mut b, N, &sync_opts()).unwrap();
        // Same selection, same launch plan, same virtual time — shadow
        // mode observes, it never steers.
        assert_eq!(shadowed.selected_name, base.selected_name);
        assert_eq!(shadowed.skipped, base.skipped);
        assert_eq!(shadowed.launches, base.launches);
        assert_eq!(shadowed.total_time, base.total_time);
        assert_eq!(shadowed.predicted.as_deref(), Some("fast"));
        assert_eq!(shadowed.predict_hit, Some(true));
        assert_eq!(base.predicted, None);
        assert_output_complete(&b, N);
    }
    let metrics = sink.metrics_snapshot();
    assert_eq!(metrics.counter(names::PREDICT_HITS), 3);
    assert_eq!(metrics.counter(names::PREDICT_MISSES), 0);
    assert_eq!(metrics.counter(names::PREDICT_SKIPS), 0);
    assert!(sink.events().iter().any(|e| e.stage == Stage::Predict));
}

#[test]
fn shadow_mode_scores_misses_against_the_profiled_winner() {
    // A model that confidently names the wrong winner: shadow mode must
    // record the miss and still let profiling pick the true best.
    let mut model = Model::default();
    let mut entry = BTreeMap::new();
    for (name, mean) in [("slow", 1_000u64), ("fast", 500_000), ("medium", 100_000)] {
        entry.insert(
            name.to_owned(),
            VariantStats {
                mean_cycles: mean,
                observations: 2,
            },
        );
    }
    model.table.insert("double".to_owned(), entry);
    let (mut rt, sink) = predict_runtime(PredictLevel::Shadow, Some(Arc::new(model)));
    let mut args = fresh_args(N);
    let report = rt.launch("double", &mut args, N, &sync_opts()).unwrap();
    assert_eq!(report.selected_name, "fast");
    assert_eq!(report.predicted.as_deref(), Some("slow"));
    assert_eq!(report.predict_hit, Some(false));
    assert_eq!(sink.metrics_snapshot().counter(names::PREDICT_MISSES), 1);
}

#[test]
fn on_mode_skips_profiling_when_the_margin_clears() {
    let (mut rt, sink) = predict_runtime(PredictLevel::On, Some(confident_model()));
    let mut args = fresh_args(N);
    let report = rt.launch("double", &mut args, N, &sync_opts()).unwrap();
    assert_eq!(report.skipped, Some(SkipReason::Predicted));
    assert_eq!(report.selected_name, "fast");
    assert_eq!(report.predict_hit, Some(true));
    assert!(report.measurements.is_empty());
    assert_output_complete(&args, N);
    let metrics = sink.metrics_snapshot();
    assert_eq!(metrics.counter(names::PREDICT_SKIPS), 1);
    assert_eq!(metrics.counter(names::PROFILE_LAUNCHES), 0);
}

#[test]
fn on_mode_profiles_when_the_margin_is_too_thin() {
    // Identical observed means: margin 0, so on-mode must fall back to
    // live micro-profiling, and the (tied) prediction is scored honestly.
    let mut model = Model::default();
    let mut entry = BTreeMap::new();
    for name in ["slow", "fast", "medium"] {
        entry.insert(
            name.to_owned(),
            VariantStats {
                mean_cycles: 10_000,
                observations: 2,
            },
        );
    }
    model.table.insert("double".to_owned(), entry);
    let (mut rt, _) = predict_runtime(PredictLevel::On, Some(Arc::new(model)));
    let mut args = fresh_args(N);
    let report = rt.launch("double", &mut args, N, &sync_opts()).unwrap();
    assert_eq!(report.skipped, None, "zero margin must not skip profiling");
    assert_eq!(report.selected_name, "fast");
    assert!(report.predicted.is_some());
    assert_output_complete(&args, N);
}

#[test]
fn on_mode_without_a_model_behaves_like_off() {
    let (mut rt, sink) = predict_runtime(PredictLevel::On, None);
    let mut args = fresh_args(N);
    let report = rt.launch("double", &mut args, N, &sync_opts()).unwrap();
    assert_eq!(report.skipped, None);
    assert_eq!(report.predicted, None);
    assert_eq!(report.predict_hit, None);
    assert_eq!(sink.metrics_snapshot().counter(names::PREDICT_SKIPS), 0);
}

/// A predicted (skipping) runtime whose winner starts hanging mid-stream.
fn drift_runtime() -> Runtime {
    // The winner's device launches: profiling reps + the batch run, then
    // one batch per predicted skip. From per-variant launch index 4 every
    // "fast" launch is priced x64 — far outside the default 2x band.
    let plan =
        FaultPlan::new(0).with(FaultRule::new("fast", FaultKind::Hang(64)).window(4, u64::MAX));
    let mut device = Box::new(CpuDevice::new(CpuConfig::noiseless()));
    device.set_fault_plan(Some(plan));
    let config = RuntimeConfig {
        predict: PredictLevel::On,
        predict_model: Some(confident_model()),
        ..RuntimeConfig::default()
    };
    let mut rt = Runtime::with_config(device, config);
    rt.add_kernels("double", three_variants());
    rt
}

/// One launch of the drift scenario as `(selected, skipped,
/// drift_reprofiled)`.
fn drift_launch(rt: &mut Runtime) -> (String, Option<SkipReason>, bool) {
    let mut args = fresh_args(N);
    let report = rt.launch("double", &mut args, N, &sync_opts()).unwrap();
    assert_output_complete(&args, N);
    (
        report.selected_name,
        report.skipped,
        report.drift_reprofiled,
    )
}

/// Runs the drift scenario once: ten launches of a fresh
/// [`drift_runtime`].
fn drift_sequence() -> Vec<(String, Option<SkipReason>, bool)> {
    let mut rt = drift_runtime();
    (0..10).map(|_| drift_launch(&mut rt)).collect()
}

#[test]
fn drift_reprofiles_after_consecutive_over_band_launches() {
    let seq = drift_sequence();
    // The stream starts with predicted skips of the trained winner...
    assert_eq!(seq[0].0, "fast");
    assert_eq!(seq[0].1, Some(SkipReason::Predicted));
    // ...the drift watch trips somewhere mid-stream (three consecutive
    // x64 launches are unmissable under the default 2x band)...
    let trip = seq
        .iter()
        .position(|(_, _, drifted)| *drifted)
        .expect("drift watch must trip");
    assert!(seq[..trip].iter().all(|(name, _, _)| name == "fast"));
    // ...and the very next launch re-profiles live, steering away from
    // the now-degraded variant.
    let after = &seq[trip + 1];
    assert_eq!(after.1, None, "post-drift launch must re-profile");
    assert_eq!(after.0, "medium", "re-profiling must dodge the hung winner");
    // Determinism: the whole faulted sequence replays bit-identically.
    assert_eq!(seq, drift_sequence());
}

/// `Runtime::reset` forgets the drift watch together with the selection
/// cache, so a reset runtime replays the drift scenario launch for launch:
/// the first launch is a predicted skip again and the watch trips on the
/// same launch.
#[test]
fn reset_replays_the_drift_scenario() {
    let mut rt = drift_runtime();
    let first: Vec<_> = (0..7).map(|_| drift_launch(&mut rt)).collect();
    assert_eq!(first[0].1, Some(SkipReason::Predicted));
    assert!(first[6].2, "the seventh launch trips the drift watch");
    assert!(first[..6].iter().all(|(_, _, drifted)| !drifted));
    rt.reset();
    let second: Vec<_> = (0..7).map(|_| drift_launch(&mut rt)).collect();
    assert_eq!(second, first);
}

// ---- warm-vs-cold prune accounting parity --------------------------------

/// A doubling variant with a rankable access shape (stride 1 dominates
/// stride 16, all else equal).
fn shaped_variant(name: &str, cost_factor: u64, stride: i64) -> Variant {
    use dysel_kernel::{AccessIr, LoopBound, LoopIr, LoopKind};
    let ir = KernelIr::regular(vec![0])
        .with_loops(vec![
            LoopIr::new(LoopKind::WorkItem(0), LoopBound::UniformRuntime),
            LoopIr::new(LoopKind::Kernel, LoopBound::Const(16)),
        ])
        .with_accesses(vec![
            AccessIr::affine_load(1, vec![16, stride]),
            AccessIr::affine_store(0, vec![1, 0]),
        ]);
    Variant::from_fn(VariantMeta::new(name, ir), move |ctx, args| {
        let u = ctx.units();
        for i in u.iter() {
            let v = args.f32(1).unwrap()[i as usize];
            args.f32_mut(0).unwrap()[i as usize] = 2.0 * v;
        }
        ctx.stream_load(1, u.start, u.len(), 1);
        ctx.stream_store(0, u.start, u.len(), 1);
        ctx.compute(u.len() * cost_factor);
    })
}

#[test]
fn warm_skip_launches_keep_prune_accounting_parity() {
    let dir = std::env::temp_dir().join(format!("dysel-predict-parity-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let state = dir.join("state.bin");
    let variants = || {
        vec![
            shaped_variant("coalesced", 200, 1),
            shaped_variant("strided", 40_000, 16),
        ]
    };
    let runtime = |sink: &Arc<EventSink>| {
        let config = RuntimeConfig {
            prune: PruneLevel::Audit,
            state_path: Some(state.clone()),
            observe: Some(sink.clone()),
            ..RuntimeConfig::default()
        };
        let mut rt = Runtime::with_config(Box::new(CpuDevice::new(CpuConfig::noiseless())), config);
        rt.add_kernels("double", variants());
        rt
    };
    let opts = LaunchOptions::new()
        .with_mode(ProfilingMode::HybridPartial)
        .with_orchestration(Orchestration::Sync);

    // Cold: profiles, saves its selection.
    let cold_sink = Arc::new(EventSink::new());
    let mut cold = runtime(&cold_sink);
    let mut args = fresh_args(N);
    let cold_report = cold.launch("double", &mut args, N, &opts).unwrap();
    assert!(cold_report.profiled());
    cold.save_state().unwrap();

    // Warm: a fresh process restores the selection and skips profiling.
    let warm_sink = Arc::new(EventSink::new());
    let mut warm = runtime(&warm_sink);
    let mut args = fresh_args(N);
    let warm_report = warm.launch("double", &mut args, N, &opts).unwrap();
    assert_eq!(warm_report.skipped, Some(SkipReason::CachedSelection));

    // The warm skip must report and emit the same prune accounting the
    // cold profiled launch did: same per-report count, same counter
    // increment, same Stage::Prune event shape.
    assert_eq!(cold_report.pruned_variants, 1);
    assert_eq!(warm_report.pruned_variants, cold_report.pruned_variants);
    let counter = |sink: &Arc<EventSink>| sink.metrics_snapshot().counter(names::PRUNED);
    assert_eq!(counter(&cold_sink), 1);
    assert_eq!(counter(&warm_sink), counter(&cold_sink));
    let prune_events = |sink: &Arc<EventSink>| {
        sink.events()
            .iter()
            .filter(|e| e.stage == Stage::Prune)
            .map(|e| (e.variant.clone(), e.detail.clone()))
            .collect::<Vec<_>>()
    };
    assert_eq!(prune_events(&warm_sink), prune_events(&cold_sink));

    std::fs::remove_dir_all(&dir).ok();
}
