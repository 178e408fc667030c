//! End-to-end tests of the DySel runtime on the CPU device model, using
//! synthetic variants with controlled (deterministic) cost.

use dysel_core::{InitialSelection, LaunchOptions, Runtime, RuntimeConfig, SkipReason};
use dysel_device::{CpuConfig, CpuDevice};
use dysel_kernel::{
    Args, Buffer, KernelIr, Orchestration, ProfilingMode, Space, Variant, VariantMeta,
};

const N: u64 = 4096;

/// out[i] = 2*in[i], with an artificial extra compute cost factor.
fn doubling_variant(name: &str, cost_factor: u64, wa: u32) -> Variant {
    Variant::from_fn(
        VariantMeta::new(name, KernelIr::regular(vec![0])).with_wa_factor(wa),
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
    for (i, &x) in out[..n as usize].iter().enumerate() {
        assert_eq!(x, 2.0 * i as f32, "output wrong at {i}");
    }
}

fn runtime_with(variants: Vec<Variant>) -> Runtime {
    let mut rt = Runtime::new(Box::new(CpuDevice::new(CpuConfig::noiseless())));
    rt.add_kernels("double", variants);
    rt
}

fn three_variants() -> Vec<Variant> {
    // Compute-dominated costs: profiling slices are tiny here, so memory
    // warming across launches must not be able to flip the ranking.
    vec![
        doubling_variant("slow", 40_000, 1),
        doubling_variant("fast", 200, 1),
        doubling_variant("medium", 10_000, 1),
    ]
}

#[test]
fn selects_the_fastest_variant_sync() {
    for mode in [
        ProfilingMode::FullyProductive,
        ProfilingMode::HybridPartial,
        ProfilingMode::SwapPartial,
    ] {
        let mut rt = runtime_with(three_variants());
        let mut args = fresh_args(N);
        let opts = LaunchOptions::new()
            .with_mode(mode)
            .with_orchestration(Orchestration::Sync);
        let report = rt.launch("double", &mut args, N, &opts).unwrap();
        assert_eq!(report.selected_name, "fast", "mode {mode}");
        assert!(report.profiled());
        assert_output_complete(&args, N);
    }
}

#[test]
fn selects_the_fastest_variant_async() {
    for mode in [ProfilingMode::FullyProductive, ProfilingMode::HybridPartial] {
        let mut rt = runtime_with(three_variants());
        let mut args = fresh_args(N);
        let opts = LaunchOptions::new().with_mode(mode);
        let report = rt.launch("double", &mut args, N, &opts).unwrap();
        assert_eq!(report.selected_name, "fast");
        assert_eq!(report.orchestration, Orchestration::Async);
        assert_output_complete(&args, N);
    }
}

#[test]
fn table1_space_accounting() {
    // fully: 0 extra bytes; hybrid: K-1 output copies; swap: K copies.
    let out_bytes = N * 4;
    let cases = [
        (ProfilingMode::FullyProductive, 0),
        (ProfilingMode::HybridPartial, 2 * out_bytes),
        (ProfilingMode::SwapPartial, 3 * out_bytes),
    ];
    for (mode, expected) in cases {
        let mut rt = runtime_with(three_variants());
        let mut args = fresh_args(N);
        let opts = LaunchOptions::new()
            .with_mode(mode)
            .with_orchestration(Orchestration::Sync);
        let report = rt.launch("double", &mut args, N, &opts).unwrap();
        assert_eq!(report.extra_space_bytes, expected, "mode {mode}");
    }
}

#[test]
fn table1_productive_units() {
    // Fully-productive: all K profiled slices contribute; partial: one.
    let mut rt = runtime_with(three_variants());
    let mut args = fresh_args(N);
    let opts = LaunchOptions::new()
        .with_mode(ProfilingMode::FullyProductive)
        .with_orchestration(Orchestration::Sync);
    let full = rt.launch("double", &mut args, N, &opts).unwrap();
    assert_eq!(full.wasted_units, 0);
    assert!(full.productive_units > 0);

    let mut rt = runtime_with(three_variants());
    let mut args = fresh_args(N);
    let opts = LaunchOptions::new()
        .with_mode(ProfilingMode::HybridPartial)
        .with_orchestration(Orchestration::Sync);
    let hybrid = rt.launch("double", &mut args, N, &opts).unwrap();
    assert_eq!(hybrid.productive_units * 2, hybrid.wasted_units);
}

#[test]
fn swap_mode_downgrades_async_to_sync() {
    let mut rt = runtime_with(three_variants());
    let mut args = fresh_args(N);
    let opts = LaunchOptions::new()
        .with_mode(ProfilingMode::SwapPartial)
        .with_orchestration(Orchestration::Async);
    let report = rt.launch("double", &mut args, N, &opts).unwrap();
    assert_eq!(report.orchestration, Orchestration::Sync);
    assert_eq!(report.eager_chunks, 0);
    assert_output_complete(&args, N);
}

#[test]
fn async_dispatches_eager_chunks_on_cpu() {
    // Execution jitter (default config) leaves a profiling drain tail;
    // cheap CPU queries let eager chunks fill it (Fig. 5). Heavy per-unit
    // cost makes the tail comfortably wider than the query latency.
    let mut rt = Runtime::new(Box::new(CpuDevice::new(CpuConfig::default())));
    rt.add_kernels(
        "double",
        vec![
            doubling_variant("slow", 20_000, 1),
            doubling_variant("fast", 2_000, 1),
        ],
    );
    let mut args = fresh_args(N);
    let report = rt
        .launch(
            "double",
            &mut args,
            N,
            &LaunchOptions::new().with_mode(ProfilingMode::FullyProductive),
        )
        .unwrap();
    assert!(
        report.eager_chunks > 0,
        "CPU queries are cheap; eager chunks expected: {report:?}"
    );
    assert_output_complete(&args, N);
}

#[test]
fn bad_initial_default_costs_more() {
    let run = |initial: usize| {
        let mut rt = runtime_with(three_variants());
        let mut args = fresh_args(N);
        let opts = LaunchOptions::new()
            .with_mode(ProfilingMode::FullyProductive)
            .with_initial(InitialSelection::Index(initial));
        rt.launch("double", &mut args, N, &opts).unwrap().total_time
    };
    let best_initial = run(1); // "fast"
    let worst_initial = run(0); // "slow"
    assert!(
        worst_initial >= best_initial,
        "worst {worst_initial} vs best {best_initial}"
    );
}

#[test]
fn small_workload_skips_profiling() {
    let mut rt = runtime_with(three_variants());
    let mut args = fresh_args(64);
    let report = rt
        .launch("double", &mut args, 64, &LaunchOptions::new())
        .unwrap();
    assert_eq!(report.skipped, Some(SkipReason::SmallWorkload));
    assert!(report.measurements.is_empty());
    assert_output_complete(&args, 64);
}

#[test]
fn single_variant_skips_profiling() {
    let mut rt = runtime_with(vec![doubling_variant("only", 1, 1)]);
    let mut args = fresh_args(N);
    let report = rt
        .launch("double", &mut args, N, &LaunchOptions::new())
        .unwrap();
    assert_eq!(report.skipped, Some(SkipReason::SingleVariant));
    assert_output_complete(&args, N);
}

#[test]
fn profiling_flag_reuses_cached_selection() {
    let mut rt = runtime_with(three_variants());
    let mut args = fresh_args(N);
    let first = rt
        .launch("double", &mut args, N, &LaunchOptions::new())
        .unwrap();
    assert_eq!(first.selected_name, "fast");
    // Iteration 2: profiling off; the cached winner is reused.
    let mut args2 = fresh_args(N);
    let second = rt
        .launch(
            "double",
            &mut args2,
            N,
            &LaunchOptions::new().without_profiling(),
        )
        .unwrap();
    assert_eq!(second.skipped, Some(SkipReason::CachedSelection));
    assert_eq!(second.selected, first.selected);
    assert_output_complete(&args2, N);
}

#[test]
fn profile_once_runtime_skips_reprofiling_the_same_signature() {
    let mut rt = Runtime::with_config(
        Box::new(CpuDevice::new(CpuConfig::noiseless())),
        RuntimeConfig {
            profile_once_per_signature: true,
            ..RuntimeConfig::default()
        },
    );
    rt.add_kernels("double", three_variants());
    let mut args = fresh_args(N);
    let first = rt
        .launch("double", &mut args, N, &LaunchOptions::new())
        .unwrap();
    assert!(first.profiled());
    assert_eq!(first.selected_name, "fast");

    // Iteration 2 with profiling STILL ENABLED: the profile-once runtime
    // reuses the cached winner and issues exactly one batch launch.
    let mut args2 = fresh_args(N);
    let second = rt
        .launch("double", &mut args2, N, &LaunchOptions::new())
        .unwrap();
    assert_eq!(second.skipped, Some(SkipReason::CachedSelection));
    assert_eq!(second.selected, first.selected);
    assert_eq!(second.launches, 1);
    assert!(second.measurements.is_empty());
    assert_output_complete(&args2, N);

    // A different signature still profiles.
    rt.add_kernels("double2", three_variants());
    let mut args3 = fresh_args(N);
    let third = rt
        .launch("double2", &mut args3, N, &LaunchOptions::new())
        .unwrap();
    assert!(third.profiled());

    // reset() drops the cache, so profiling runs again.
    rt.reset();
    let mut args4 = fresh_args(N);
    let fourth = rt
        .launch("double", &mut args4, N, &LaunchOptions::new())
        .unwrap();
    assert!(fourth.profiled());
}

#[test]
fn reprofiling_recycles_the_leased_sandboxes() {
    // Hybrid mode sandboxes variants 1..K; re-profiling the signature must
    // lease those private copies back out of the pool, not allocate anew.
    let mut rt = runtime_with(three_variants());
    let opts = LaunchOptions::new()
        .with_mode(ProfilingMode::HybridPartial)
        .with_orchestration(Orchestration::Sync);

    let mut args = fresh_args(N);
    let first = rt.launch("double", &mut args, N, &opts).unwrap();
    assert_eq!(rt.sandbox_stats(), (2, 0), "variants 1 and 2 sandboxed");

    let mut args2 = fresh_args(N);
    let second = rt.launch("double", &mut args2, N, &opts).unwrap();
    assert_eq!(rt.sandbox_stats(), (2, 2), "second profile reuses both");
    assert_eq!(second.selected, first.selected);
    assert_eq!(second.extra_space_bytes, first.extra_space_bytes);
    assert_output_complete(&args2, N);
}

#[test]
fn no_cache_and_no_profiling_runs_the_default() {
    let mut rt = runtime_with(three_variants());
    let mut args = fresh_args(N);
    let report = rt
        .launch(
            "double",
            &mut args,
            N,
            &LaunchOptions::new()
                .without_profiling()
                .with_initial(InitialSelection::Index(2)),
        )
        .unwrap();
    assert_eq!(report.skipped, Some(SkipReason::ProfilingDisabled));
    assert_eq!(report.selected_name, "medium");
}

#[test]
fn mixed_wa_factors_profile_fairly() {
    // A coarsened variant (wa 4) against a base variant: safe point
    // analysis must equalize profiled units, so the cheap one still wins.
    let mut rt = runtime_with(vec![
        doubling_variant("base-slow", 20_000, 1),
        doubling_variant("coarse-fast", 200, 4),
    ]);
    let mut args = fresh_args(N);
    let report = rt
        .launch(
            "double",
            &mut args,
            N,
            &LaunchOptions::new().with_orchestration(Orchestration::Sync),
        )
        .unwrap();
    assert_eq!(report.selected_name, "coarse-fast");
    assert_output_complete(&args, N);
}

#[test]
fn unknown_signature_is_an_error() {
    let mut rt = runtime_with(three_variants());
    let mut args = fresh_args(N);
    assert!(rt
        .launch("nope", &mut args, N, &LaunchOptions::new())
        .is_err());
}

#[test]
fn bad_initial_index_is_an_error() {
    let mut rt = runtime_with(three_variants());
    let mut args = fresh_args(N);
    let opts = LaunchOptions::new().with_initial(InitialSelection::Index(17));
    assert!(rt.launch("double", &mut args, N, &opts).is_err());
}

#[test]
fn dysel_overhead_is_small_vs_oracle() {
    // Oracle: run the best pure variant alone on a fresh device.
    let oracle = {
        let mut rt = runtime_with(vec![doubling_variant("fast", 200, 1)]);
        let mut args = fresh_args(N);
        rt.launch("double", &mut args, N, &LaunchOptions::new())
            .unwrap()
            .total_time
    };
    for orch in [Orchestration::Sync, Orchestration::Async] {
        let mut rt = runtime_with(three_variants());
        let mut args = fresh_args(N);
        let opts = LaunchOptions::new()
            .with_mode(ProfilingMode::FullyProductive)
            .with_orchestration(orch);
        let t = rt.launch("double", &mut args, N, &opts).unwrap().total_time;
        let overhead = t.as_f64() / oracle.as_f64();
        assert!(
            overhead < 1.6,
            "{orch} overhead {overhead:.3} (dysel {t}, oracle {oracle})"
        );
    }
}

#[test]
fn launch_stats_record_workgroup_counts() {
    let mut rt = runtime_with(three_variants());
    let mut args = fresh_args(N);
    rt.launch("double", &mut args, N, &LaunchOptions::new())
        .unwrap();
    assert_eq!(rt.stats().launches(), 1);
    assert_eq!(rt.stats().histogram(), vec![(4096, 1)]);
}

#[test]
fn reset_clears_cache_and_time() {
    let mut rt = runtime_with(three_variants());
    let mut args = fresh_args(N);
    rt.launch("double", &mut args, N, &LaunchOptions::new())
        .unwrap();
    assert!(rt.cached_selection("double").is_some());
    rt.reset();
    assert!(rt.cached_selection("double").is_none());
    assert_eq!(rt.device().busy_until(), dysel_device::Cycles::ZERO);
}

#[test]
fn profile_reps_multiply_measurement_launches() {
    let mut rt = runtime_with(three_variants());
    let mut args = fresh_args(N);
    let opts = LaunchOptions::new()
        .with_mode(ProfilingMode::HybridPartial)
        .with_orchestration(Orchestration::Sync)
        .with_profile_reps(3);
    let report = rt.launch("double", &mut args, N, &opts).unwrap();
    // 3 variants x 3 reps profiling + 1 batch.
    assert_eq!(report.launches, 10);
    assert_eq!(report.selected_name, "fast");
    assert_output_complete(&args, N);
}

// ---- static dominance pruning --------------------------------------------

/// A doubling variant whose IR carries an access shape the feature
/// extractor can rank: `stride` is the innermost coefficient of the input
/// walk (1 = coalesced, 16 = strided), everything else identical.
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

fn pruned_runtime(prune: dysel_core::PruneLevel, variants: Vec<Variant>) -> Runtime {
    let config = RuntimeConfig {
        prune,
        ..RuntimeConfig::default()
    };
    let mut rt = Runtime::with_config(Box::new(CpuDevice::new(CpuConfig::noiseless())), config);
    rt.add_kernels("double", variants);
    rt
}

#[test]
fn prune_on_excludes_dominated_variants_from_profiling() {
    use dysel_core::PruneLevel;
    // "coalesced" dominates "strided" statically AND is cheaper: pruning
    // is both safe and effective here.
    let variants = || {
        vec![
            shaped_variant("coalesced", 200, 1),
            shaped_variant("strided", 40_000, 16),
        ]
    };
    let opts = LaunchOptions::new()
        .with_mode(ProfilingMode::HybridPartial)
        .with_orchestration(Orchestration::Sync);

    // Unprofiled variants surface as `Cycles::MAX` sentinels in the
    // measurement vector (same convention as quarantined variants).
    let profiled = |r: &dysel_core::LaunchReport| {
        r.measurements
            .iter()
            .filter(|m| m.measured < dysel_device::Cycles::MAX)
            .count()
    };

    let mut off = pruned_runtime(PruneLevel::Off, variants());
    let mut args = fresh_args(N);
    let base = off.launch("double", &mut args, N, &opts).unwrap();
    assert_eq!(profiled(&base), 2);

    let mut on = pruned_runtime(PruneLevel::On, variants());
    let mut args = fresh_args(N);
    let report = on.launch("double", &mut args, N, &opts).unwrap();
    assert_eq!(report.selected_name, "coalesced");
    assert_eq!(
        profiled(&report),
        1,
        "dominated variant must not be micro-profiled under prune=On"
    );
    assert!(report.launches < base.launches);
    assert_output_complete(&args, N);
}

#[test]
fn prune_audit_profiles_everything_and_records_disagreement() {
    use dysel_core::PruneLevel;
    use dysel_verify::LintCode;
    // The statically dominated variant is actually *faster*: audit mode
    // must still profile it, let it win, and record the falsification.
    let variants = vec![
        shaped_variant("coalesced", 40_000, 1),
        shaped_variant("strided", 200, 16),
    ];
    let mut rt = pruned_runtime(PruneLevel::Audit, variants);
    let mut args = fresh_args(N);
    let opts = LaunchOptions::new()
        .with_mode(ProfilingMode::HybridPartial)
        .with_orchestration(Orchestration::Sync);
    let report = rt.launch("double", &mut args, N, &opts).unwrap();
    assert_eq!(
        report.measurements.len(),
        2,
        "audit mode profiles the full pool"
    );
    assert_eq!(report.selected_name, "strided");
    let diags = rt.diagnostics("double");
    assert!(
        diags
            .iter()
            .any(|d| d.code == LintCode::PruningDisagreement && d.variant == "strided"),
        "DV502 must be recorded when a would-be-pruned variant wins: {diags:?}"
    );
    assert_output_complete(&args, N);
}

#[test]
fn prune_audit_stays_silent_when_the_rule_holds() {
    use dysel_core::PruneLevel;
    let variants = vec![
        shaped_variant("coalesced", 200, 1),
        shaped_variant("strided", 40_000, 16),
    ];
    let mut rt = pruned_runtime(PruneLevel::Audit, variants);
    let mut args = fresh_args(N);
    let opts = LaunchOptions::new()
        .with_mode(ProfilingMode::HybridPartial)
        .with_orchestration(Orchestration::Sync);
    let report = rt.launch("double", &mut args, N, &opts).unwrap();
    assert_eq!(report.selected_name, "coalesced");
    assert!(rt.diagnostics("double").is_empty());
}

#[test]
fn prune_never_empties_the_pool() {
    use dysel_core::PruneLevel;
    // Identical shapes: nobody dominates anybody; all profiled. Costs are
    // widely separated so cache warming across the sequential profiling
    // launches cannot flip the ranking.
    let variants = vec![
        shaped_variant("a", 200, 1),
        shaped_variant("b", 10_000, 1),
        shaped_variant("c", 40_000, 1),
    ];
    let mut rt = pruned_runtime(PruneLevel::On, variants);
    let mut args = fresh_args(N);
    let opts = LaunchOptions::new()
        .with_mode(ProfilingMode::HybridPartial)
        .with_orchestration(Orchestration::Sync);
    let report = rt.launch("double", &mut args, N, &opts).unwrap();
    assert_eq!(report.measurements.len(), 3);
    assert_eq!(report.selected_name, "a");
}
