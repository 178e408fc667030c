//! Crash-safe selection persistence: warm restarts skip micro-profiling
//! and reselect the same winner; corrupt, truncated or version-skewed
//! state files cold-start with a typed error — never a panic — and leave
//! both in-memory state and user buffers untouched.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use dysel::core::{
    DyselError, LaunchOptions, LaunchReport, LaunchService, QuarantineReason, Runtime,
    RuntimeConfig, ServiceConfig, SkipReason, StateError, StreamKey, TenantId,
};
use dysel::device::{CpuConfig, CpuDevice, Device, FaultKind, FaultPlan, FaultRule};
use dysel::kernel::{
    Args, Buffer, KernelIr, Orchestration, ProfilingMode, Space, Variant, VariantId, VariantMeta,
};

const N: u64 = 4096;

/// `out[u] = 2*in[u] + 1`, priced at `cost` vector iterations per unit.
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

/// A per-test state-file path under the OS temp dir, cleared up front.
fn temp_path(tag: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!(
        "dysel-persistence-{}-{tag}.state",
        std::process::id()
    ));
    remove_state(&p);
    p
}

/// Removes a state file and the write-ahead journal beside it.
fn remove_state(path: &Path) {
    let _ = fs::remove_file(path);
    let _ = fs::remove_file(dysel::core::journal_path(path));
}

fn config(path: &Path) -> RuntimeConfig {
    RuntimeConfig {
        profile_threshold_groups: 16,
        state_path: Some(path.to_path_buf()),
        ..RuntimeConfig::default()
    }
}

fn runtime(plan: Option<FaultPlan>, config: RuntimeConfig) -> Runtime {
    let mut dev = CpuDevice::new(CpuConfig::noiseless());
    dev.set_fault_plan(plan);
    let mut rt = Runtime::with_config(Box::new(dev), config);
    rt.add_kernels(
        "triple",
        [
            writer("a-slow", 12),
            writer("b-mid", 8),
            writer("c-fast", 4),
        ],
    );
    rt
}

fn fp_sync(rt: &mut Runtime, args: &mut Args) -> LaunchReport {
    let opts = LaunchOptions::new()
        .with_mode(ProfilingMode::FullyProductive)
        .with_orchestration(Orchestration::Sync);
    rt.launch("triple", args, N, &opts).unwrap()
}

fn out_bits(args: &Args) -> Vec<u32> {
    args.f32(0).unwrap().iter().map(|y| y.to_bits()).collect()
}

/// Writes a valid one-launch state file and returns its bytes plus the
/// cold run's report and output bits.
fn seeded_state(path: &Path) -> (Vec<u8>, LaunchReport, Vec<u32>) {
    let mut rt = runtime(None, config(path));
    let mut args = fresh_args();
    let report = fp_sync(&mut rt, &mut args);
    assert!(report.profiled(), "the cold run must micro-profile");
    rt.save_state().unwrap();
    (fs::read(path).unwrap(), report, out_bits(&args))
}

#[test]
fn warm_restart_skips_profiling_and_reselects_the_same_winner() {
    let path = temp_path("warm");
    let (_, cold, cold_bits) = seeded_state(&path);
    let mut rt = runtime(None, config(&path));
    assert!(rt.state_load_error().is_none());
    let mut args = fresh_args();
    let warm = fp_sync(&mut rt, &mut args);
    assert!(!warm.profiled(), "warm restarts must not micro-profile");
    assert_eq!(warm.skipped, Some(SkipReason::CachedSelection));
    assert_eq!(warm.selected, cold.selected);
    assert_eq!(warm.selected_name, cold.selected_name);
    assert_eq!(out_bits(&args), cold_bits, "warm output diverged");
    remove_state(&path);
}

/// Only a micro-profiling winner is learned. Launches that skip
/// profiling (a small workload, profiling switched off) run a variant
/// nobody measured, so they leave no selection behind: a restart from
/// their state file stays cold, and a profile-once runtime still
/// profiles its first large launch.
#[test]
fn skipped_launches_are_never_persisted_as_the_selection() {
    let path = temp_path("skipped");
    let once = RuntimeConfig {
        profile_once_per_signature: true,
        ..config(&path)
    };
    let mut rt = runtime(None, once);
    let opts = LaunchOptions::new()
        .with_mode(ProfilingMode::FullyProductive)
        .with_orchestration(Orchestration::Sync);
    let mut args = fresh_args();
    let small = rt.launch("triple", &mut args, 8, &opts).unwrap();
    assert_eq!(small.skipped, Some(SkipReason::SmallWorkload));
    let off = LaunchOptions {
        profiling: false,
        ..opts.clone()
    };
    let unprofiled = rt.launch("triple", &mut args, N, &off).unwrap();
    assert_eq!(unprofiled.skipped, Some(SkipReason::ProfilingDisabled));
    assert_eq!(rt.cached_selection("triple"), None);
    rt.save_state().unwrap();

    let mut restarted = runtime(None, config(&path));
    assert!(restarted.state_load_error().is_none());
    let first = fp_sync(&mut restarted, &mut fresh_args());
    assert!(
        first.profiled(),
        "a skipped launch must not warm the restart"
    );

    let large = fp_sync(&mut rt, &mut fresh_args());
    assert!(large.profiled(), "profile-once must still profile once");
    assert_eq!(large.selected_name, "c-fast");
    assert_eq!(rt.cached_selection("triple"), Some(large.selected));
    remove_state(&path);
}

/// A warm restart whose persisted winner now fails quarantines it and
/// falls back to a survivor nobody profiled. Saving after that launch
/// must not hand the fallback to the next process as a warm selection.
#[test]
fn warm_fallback_is_not_persisted_as_the_selection() {
    let path = temp_path("fallback");
    let (_, cold, _) = seeded_state(&path);
    assert_eq!(cold.selected_name, "c-fast");
    let plan = FaultPlan::new(7).with(FaultRule::new("c-fast", FaultKind::LaunchError));
    let mut rt = runtime(Some(plan.clone()), config(&path));
    let fallback = fp_sync(&mut rt, &mut fresh_args());
    assert_eq!(fallback.skipped, Some(SkipReason::CachedSelection));
    assert_ne!(fallback.selected_name, "c-fast");
    rt.save_state().unwrap();

    let mut restarted = runtime(Some(plan), config(&path));
    let next = fp_sync(&mut restarted, &mut fresh_args());
    assert!(next.profiled(), "an unprofiled fallback must not warm-skip");
    assert_eq!(next.selected_name, "b-mid");
    remove_state(&path);
}

#[test]
fn round_trip_preserves_selections_and_quarantine_bit_for_bit() {
    let path = temp_path("roundtrip");
    // Quarantine b-mid via the budget/deadline rung, then persist.
    let plan = FaultPlan::new(3).with(FaultRule::new("b-mid", FaultKind::Hang(64)));
    let mut rt = runtime(
        Some(plan),
        RuntimeConfig {
            profile_deadline_factor: Some(8.0),
            ..config(&path)
        },
    );
    let cold = fp_sync(&mut rt, &mut fresh_args());
    assert!(cold.faults.preemptions >= 1, "the budget must have fired");
    assert_eq!(
        rt.quarantined("triple"),
        &[(VariantId(1), QuarantineReason::DeadlineExceeded)]
    );
    rt.save_state().unwrap();
    let bytes = fs::read(&path).unwrap();
    // A fresh runtime loads the identical selections and quarantine
    // reasons, and re-saving writes the identical bytes: the format is
    // canonical, so save -> load -> save is a fixed point.
    let mut rt2 = runtime(None, config(&path));
    assert!(rt2.state_load_error().is_none());
    assert_eq!(
        rt2.quarantined("triple"),
        &[(VariantId(1), QuarantineReason::DeadlineExceeded)]
    );
    let (_, state) = rt2.load_state().unwrap();
    let triple = StreamKey::new(TenantId(0), "triple");
    assert_eq!(state[&triple].selection, Some(cold.selected));
    rt2.save_state().unwrap();
    assert_eq!(fs::read(&path).unwrap(), bytes, "re-save diverged");
    let warm = fp_sync(&mut rt2, &mut fresh_args());
    assert_eq!(warm.selected, cold.selected);
    assert!(!warm.profiled());
    remove_state(&path);
}

/// Corrupting the file in `mutate` must cold-start the runtime with the
/// expected typed error, after which a launch profiles from scratch and
/// the user buffers come out exactly as healthy.
fn corrupt_and_cold_start(
    tag: &str,
    mutate: impl FnOnce(&mut Vec<u8>),
    expect: impl Fn(&StateError) -> bool,
) {
    let path = temp_path(tag);
    let (mut bytes, cold, cold_bits) = seeded_state(&path);
    mutate(&mut bytes);
    fs::write(&path, &bytes).unwrap();
    let mut rt = runtime(None, config(&path));
    let err = rt
        .state_load_error()
        .expect("a corrupted file must surface a typed error")
        .clone();
    assert!(expect(&err), "unexpected error class: {err:?}");
    let mut args = fresh_args();
    let report = fp_sync(&mut rt, &mut args);
    assert!(report.profiled(), "cold starts must micro-profile");
    assert_eq!(report.selected, cold.selected);
    assert_eq!(out_bits(&args), cold_bits, "cold-start output diverged");
    remove_state(&path);
}

#[test]
fn truncated_file_cold_starts_with_typed_error() {
    corrupt_and_cold_start(
        "truncated",
        |bytes| bytes.truncate(bytes.len() / 2),
        |e| matches!(e, StateError::Truncated { .. }),
    );
}

#[test]
fn flipped_payload_byte_is_a_checksum_mismatch() {
    corrupt_and_cold_start(
        "flipped",
        |bytes| *bytes.last_mut().unwrap() ^= 0xff,
        |e| matches!(e, StateError::ChecksumMismatch { .. }),
    );
}

#[test]
fn future_version_is_rejected_as_unsupported() {
    corrupt_and_cold_start(
        "version",
        |bytes| bytes[8..12].copy_from_slice(&99u32.to_le_bytes()),
        |e| matches!(e, StateError::UnsupportedVersion { found: 99, .. }),
    );
}

#[test]
fn garbage_magic_is_rejected_as_bad_magic() {
    corrupt_and_cold_start(
        "magic",
        |bytes| bytes[0] = b'X',
        |e| matches!(e, StateError::BadMagic { .. }),
    );
}

#[test]
fn explicit_load_failure_leaves_memory_untouched() {
    let path = temp_path("load-err");
    let mut rt = runtime(
        None,
        RuntimeConfig {
            profile_once_per_signature: true,
            ..config(&path)
        },
    );
    let cold = fp_sync(&mut rt, &mut fresh_args());
    rt.save_state().unwrap();
    // Corrupt the file *after* the runtime went warm: an explicit reload
    // must fail typed and change nothing in memory.
    let mut bytes = fs::read(&path).unwrap();
    bytes.truncate(10);
    fs::write(&path, &bytes).unwrap();
    match rt.load_state() {
        Err(DyselError::State(StateError::Truncated { .. })) => {}
        other => panic!("expected a typed truncation error, got {other:?}"),
    }
    let again = fp_sync(&mut rt, &mut fresh_args());
    assert_eq!(again.skipped, Some(SkipReason::CachedSelection));
    assert_eq!(again.selected, cold.selected);
    remove_state(&path);
}

#[test]
fn save_without_a_state_path_is_a_typed_error() {
    let rt = runtime(
        None,
        RuntimeConfig {
            profile_threshold_groups: 16,
            ..RuntimeConfig::default()
        },
    );
    match rt.save_state() {
        Err(DyselError::State(StateError::NoStatePath)) => {}
        other => panic!("expected NoStatePath, got {other:?}"),
    }
}

#[test]
fn missing_file_is_a_plain_cold_start() {
    let path = temp_path("missing");
    let rt = runtime(None, config(&path));
    assert!(rt.state_load_error().is_none());
    assert!(!path.exists());
}

fn storm_service(path: &Path) -> LaunchService {
    let service = LaunchService::with_factory(
        || Box::new(CpuDevice::new(CpuConfig::noiseless())),
        ServiceConfig {
            shards: 2,
            runtime: RuntimeConfig {
                profile_threshold_groups: 16,
                ..RuntimeConfig::default()
            },
            state_path: Some(path.to_path_buf()),
            ..ServiceConfig::default()
        },
    );
    service.register(
        "triple",
        [
            writer("a-slow", 12),
            writer("b-mid", 8),
            writer("c-fast", 4),
        ],
    );
    service
}

/// The save-during-storm regression: a shared handle used to race
/// `save_state` against in-flight launches. The service snapshots through
/// its shard locks and writes atomically, so every intermediate file —
/// sampled continuously while three tenants submit from three threads —
/// must decode cleanly, and the final file must hold every tenant's
/// learned selection.
#[test]
fn service_save_during_submission_storm_never_tears() {
    let path = temp_path("storm");
    let service = Arc::new(storm_service(&path));
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let saver = {
            let service = service.clone();
            let (stop, path) = (&stop, path.as_path());
            scope.spawn(move || {
                // A throwaway runtime is the decoder: `load_state` fails
                // typed on any torn or corrupt file.
                let mut rt = runtime(None, config(path));
                let mut decoded = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    service.save_state().expect("mid-storm save failed");
                    rt.load_state().expect("mid-storm state file is torn");
                    decoded += 1;
                }
                decoded
            })
        };
        for tenant in [0u32, 1, 2] {
            let service = service.clone();
            scope.spawn(move || {
                let opts = LaunchOptions::new();
                for _ in 0..8 {
                    let mut args = fresh_args();
                    let ticket = loop {
                        match service.submit(TenantId(tenant), "triple", args, N, &opts) {
                            Ok(t) => break t,
                            Err(e) => {
                                args = e.into_args();
                                std::thread::yield_now();
                            }
                        }
                    };
                    let (out, report) = ticket.wait();
                    let report = report.expect("storm launch failed");
                    assert_eq!(report.tenant, TenantId(tenant));
                    assert_eq!(out_bits(&out)[7], (2.0f32 * 7.0 + 1.0).to_bits());
                }
            });
        }
        // Let the clients finish first, then stop the saver; the scope
        // joins the rest.
        while service.launches() < 24 {
            std::thread::yield_now();
        }
        stop.store(true, Ordering::SeqCst);
        assert!(saver.join().unwrap() > 0, "the saver never ran");
    });
    // The final save reflects every tenant, and re-saving is a fixed
    // point (the encoding is canonical).
    service.save_state().unwrap();
    let bytes = fs::read(&path).unwrap();
    let mut rt = runtime(None, config(&path));
    let (_, state) = rt.load_state().unwrap();
    let winner = service
        .cache()
        .get(&StreamKey::new(TenantId(0), "triple"))
        .unwrap()
        .selection
        .unwrap();
    for tenant in [0u32, 1, 2] {
        assert_eq!(
            state[&StreamKey::new(TenantId(tenant), "triple")].selection,
            Some(winner),
            "tenant {tenant} selection missing from the saved state"
        );
    }
    service.save_state().unwrap();
    assert_eq!(fs::read(&path).unwrap(), bytes, "re-save diverged");
    remove_state(&path);
}

/// A fresh service warm-restores every tenant's stream from the v3 file:
/// no launch micro-profiles again, winners match, and tenant isolation
/// survives the round trip.
#[test]
fn service_state_round_trips_all_tenants_warm() {
    let path = temp_path("service-warm");
    let opts = LaunchOptions::new();
    {
        let service = storm_service(&path);
        for tenant in [0u32, 5] {
            let (_, report) = service
                .submit(TenantId(tenant), "triple", fresh_args(), N, &opts)
                .unwrap()
                .wait();
            assert!(report.unwrap().profiled(), "cold launches micro-profile");
        }
        service.save_state().unwrap();
    }
    let service = storm_service(&path);
    assert!(service.state_load_error().is_none());
    for tenant in [0u32, 5] {
        let (_, report) = service
            .submit(TenantId(tenant), "triple", fresh_args(), N, &opts)
            .unwrap()
            .wait();
        let report = report.unwrap();
        assert!(
            !report.profiled(),
            "tenant {tenant} must warm-restore, not re-profile"
        );
        assert_eq!(report.skipped, Some(SkipReason::CachedSelection));
    }
    // A tenant the file never saw still cold-starts and profiles.
    let (_, report) = service
        .submit(TenantId(9), "triple", fresh_args(), N, &opts)
        .unwrap()
        .wait();
    assert!(report.unwrap().profiled());
    remove_state(&path);
}

/// Pre-v4 state files (v1 selections-only through v3 multi-tenant) come
/// from builds without the write-ahead journal; this build refuses them
/// with a typed `UnsupportedVersion` — the runtime and the service
/// cold-start cleanly, never panic, and simply re-learn.
#[test]
fn v1_through_v3_state_files_cold_start_cleanly() {
    for old in [1u32, 2, 3, 4] {
        let path = temp_path(&format!("old-v{old}"));
        let (bytes, ..) = seeded_state(&path);
        let mut forged = bytes.clone();
        forged[8..12].copy_from_slice(&old.to_le_bytes());
        fs::write(&path, &forged).unwrap();
        // Plain runtime: typed error, memory untouched.
        let mut rt = runtime(None, config(&path));
        match rt.load_state() {
            Err(DyselError::State(StateError::UnsupportedVersion { found, .. })) => {
                assert_eq!(found, old)
            }
            other => panic!("v{old}: expected UnsupportedVersion, got {other:?}"),
        }
        // Service: records the typed error and still serves (cold)
        // launches.
        let service = storm_service(&path);
        assert!(
            matches!(
                service.state_load_error(),
                Some(StateError::UnsupportedVersion { found, .. }) if found == old
            ),
            "v{old}: service must surface the typed load error"
        );
        let (_, report) = service
            .submit(
                TenantId(0),
                "triple",
                fresh_args(),
                N,
                &LaunchOptions::new(),
            )
            .unwrap()
            .wait();
        assert!(
            report.unwrap().profiled(),
            "v{old}: a cold start micro-profiles again"
        );
        drop(service);
        remove_state(&path);
    }
}

/// `save_state` on a journaling service stamps the absorbed record count
/// into the v4 checkpoint and truncates the journal, so the next start
/// replays nothing — while an *unclean* stop before any save leaves the
/// selections recoverable from the journal alone.
#[test]
fn save_state_stamps_journal_seq_and_truncates_the_journal() {
    let path = temp_path("journal-seq");
    {
        let service = storm_service(&path);
        let opts = LaunchOptions::new();
        for tenant in [0u32, 1, 2] {
            let (_, report) = service
                .submit(TenantId(tenant), "triple", fresh_args(), N, &opts)
                .unwrap()
                .wait();
            report.expect("healthy launch");
        }
        service.save_state().unwrap();
    }
    let mut rt = runtime(None, config(&path));
    let (journal_seq, _) = rt.load_state().unwrap();
    assert_eq!(
        journal_seq, 3,
        "the checkpoint records the three absorbed journal appends"
    );
    // The journal was truncated with the save: a re-open replays nothing
    // and warm-restores from the checkpoint alone.
    let service = storm_service(&path);
    assert_eq!(
        service.recovery(),
        Some(dysel::core::RecoveryInfo {
            replayed: 0,
            torn: false
        })
    );
    assert!(service.state_load_error().is_none());
    drop(service);
    remove_state(&path);
}
