//! Seeded chaos conformance suite for the service's fault containment
//! (DESIGN.md §4.17).
//!
//! A deterministic [`ChaosPlan`] injects lane panics, worker kills and
//! journal kill-points into a multi-client [`LaunchService`] run, and the
//! suite pins the containment contract:
//!
//! * **no hung tickets** — every submission resolves (typed success or
//!   typed failure) within a generous bound, at 1, 2 and 8 clients;
//! * **blast-radius** — typed failures only ever name streams the plan
//!   actually touches; every *surviving* stream's selection digest is
//!   bit-identical to a serial replay on a plain single-owner `Runtime`
//!   (and therefore identical across client counts);
//! * **crash recovery** — a journal kill-point mid-run loses only the
//!   un-journaled suffix: reopening the state path recovers exactly the
//!   journaled prefix of the pre-crash cache snapshot, a torn journal
//!   tail is tolerated (typed, never a panic), and a corrupt journal
//!   header degrades to a typed cold start with the service still live.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use dysel::core::{
    CacheEntry, ChaosAction, ChaosPlan, ChaosRule, DyselError, LaunchOptions, LaunchService,
    Runtime, RuntimeConfig, ServiceConfig, StreamKey, SubmitError, TenantId,
};
use dysel::device::{CpuConfig, CpuDevice, Device};
use dysel::kernel::{Args, Buffer, KernelIr, Space, Variant, VariantMeta};
use dysel::obs::names;

const TENANTS: u32 = 2;
const ROUNDS: usize = 3;
const UNITS: u64 = 64;
/// Hung-ticket bound: generous enough for a loaded CI host, far below
/// "forever". Every wait in the suite goes through this.
const WAIT: Duration = Duration::from_secs(60);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fold(digest: &mut u64, bytes: &[u8]) {
    for b in bytes.iter().chain(&[0u8]) {
        *digest ^= u64::from(*b);
        *digest = digest.wrapping_mul(FNV_PRIME);
    }
}

fn device() -> Box<dyn Device> {
    Box::new(CpuDevice::new(CpuConfig::noiseless()))
}

fn writer(name: &str, cost: u64) -> Variant {
    Variant::from_fn(
        VariantMeta::new(name, KernelIr::regular(vec![0])),
        move |ctx, args| {
            for u in ctx.units().iter() {
                args.f32_mut(0).unwrap()[u as usize] = u as f32 + 1.0;
                ctx.vector_compute(cost, 8, 8, 1);
            }
        },
    )
}

fn fresh_args() -> Args {
    let mut args = Args::new();
    args.push(Buffer::f32("out", vec![0.0; UNITS as usize], Space::Global));
    args
}

/// Six two-variant streams; micro-profiling selects "fast" on each.
fn signatures() -> Vec<String> {
    (0..6).map(|i| format!("s{i}")).collect()
}

fn variants() -> Vec<Variant> {
    vec![writer("slow", 9), writer("fast", 3)]
}

/// The suite's canonical plan: the second launch of every tenant's `s1`
/// stream panics in-kernel; the first launch of every tenant's `s3`
/// stream kills its shard worker outright.
fn plan() -> ChaosPlan {
    ChaosPlan::new(11)
        .with(ChaosRule::new("s1", ChaosAction::Panic).window(1, 1))
        .with(ChaosRule::new("s3", ChaosAction::Kill).window(0, 1))
}

/// Serial ground truth: each stream replayed on a plain single-owner
/// runtime, digest folded exactly like the service's per-stream digest.
fn serial_baseline() -> BTreeMap<(u32, String), u64> {
    let opts = LaunchOptions::new();
    let mut out = BTreeMap::new();
    for tenant in 0..TENANTS {
        for sig in signatures() {
            let mut rt = Runtime::with_config(
                device(),
                RuntimeConfig {
                    tenant: TenantId(tenant),
                    private_addrs: true,
                    ..RuntimeConfig::default()
                },
            );
            rt.add_kernels(&sig, variants());
            let mut digest = FNV_OFFSET;
            for _ in 0..ROUNDS {
                let mut args = fresh_args();
                let report = rt.launch(&sig, &mut args, UNITS, &opts).expect("baseline");
                fold(&mut digest, report.signature.as_bytes());
                fold(&mut digest, report.selected_name.as_bytes());
            }
            out.insert((tenant, sig), digest);
        }
    }
    out
}

/// What one chaotic service run produced: per-stream digests for streams
/// that completed every round cleanly, plus every typed failure observed
/// (launch errors and fail-fast rejections), keyed by signature.
struct ChaosRun {
    digests: BTreeMap<(u32, String), u64>,
    failures: Vec<(u32, String, String)>,
    service: LaunchService,
}

fn chaos_run(clients: usize, chaos: Option<ChaosPlan>) -> ChaosRun {
    let service = Arc::new(LaunchService::new(
        Arc::new(device),
        ServiceConfig {
            shards: 2,
            queue_capacity: 4,
            observe: true,
            restart_backoff: Duration::from_millis(1),
            chaos,
            ..ServiceConfig::default()
        },
    ));
    let sigs = signatures();
    for sig in &sigs {
        service.register(sig, variants());
    }
    let streams: Vec<(TenantId, usize)> = (0..TENANTS)
        .flat_map(|t| (0..sigs.len()).map(move |si| (TenantId(t), si)))
        .collect();
    let failures: std::sync::Mutex<Vec<(u32, String, String)>> = std::sync::Mutex::new(Vec::new());
    let clean: std::sync::Mutex<BTreeMap<(u32, String), bool>> =
        std::sync::Mutex::new(BTreeMap::new());
    std::thread::scope(|scope| {
        for client in 0..clients {
            let service = service.clone();
            let (sigs, streams, failures, clean) = (&sigs, &streams, &failures, &clean);
            scope.spawn(move || {
                let opts = LaunchOptions::new();
                for (tenant, si) in streams
                    .iter()
                    .skip(client)
                    .step_by(clients)
                    .copied()
                    .collect::<Vec<_>>()
                {
                    let sig = &sigs[si];
                    let mut all_ok = true;
                    'rounds: for _round in 0..ROUNDS {
                        let mut args = fresh_args();
                        let outcome = loop {
                            match service.submit(tenant, sig, args, UNITS, &opts) {
                                Ok(ticket) => match ticket.wait_timeout(WAIT) {
                                    Ok(outcome) => break outcome,
                                    Err(_) => panic!("hung ticket on stream {tenant:?}/{sig}"),
                                },
                                Err(SubmitError::Busy { args: back, .. }) => {
                                    args = back;
                                    std::thread::yield_now();
                                }
                                Err(failed) => {
                                    // Fail-fast rejection: typed, buffers
                                    // back, the round is forfeit.
                                    failures.lock().unwrap().push((
                                        tenant.0,
                                        sig.clone(),
                                        failed.to_string(),
                                    ));
                                    drop(failed.into_args());
                                    all_ok = false;
                                    continue 'rounds;
                                }
                            }
                        };
                        let (out, result) = outcome;
                        match result {
                            Ok(_) => {
                                assert_eq!(out.f32(0).unwrap()[0], 1.0, "output survived intact");
                            }
                            Err(e) => {
                                assert!(
                                    matches!(
                                        e,
                                        DyselError::LanePanicked { .. }
                                            | DyselError::WorkerDied { .. }
                                            | DyselError::DeadlineExpired { .. }
                                            | DyselError::CircuitOpen { .. }
                                    ),
                                    "untyped failure: {e}"
                                );
                                failures.lock().unwrap().push((
                                    tenant.0,
                                    sig.clone(),
                                    e.to_string(),
                                ));
                                all_ok = false;
                            }
                        }
                    }
                    clean
                        .lock()
                        .unwrap()
                        .insert((tenant.0, sig.clone()), all_ok);
                }
            });
        }
    });
    let mut digests = BTreeMap::new();
    for ((tenant, sig), all_ok) in clean.into_inner().unwrap() {
        if all_ok {
            let digest = service
                .stream_digest(TenantId(tenant), &sig)
                .expect("clean stream launched");
            digests.insert((tenant, sig), digest);
        }
    }
    let service = Arc::into_inner(service).expect("clients joined");
    ChaosRun {
        digests,
        failures: failures.into_inner().unwrap(),
        service,
    }
}

#[test]
fn surviving_streams_are_bit_identical_to_serial_replay_at_all_client_counts() {
    let baseline = serial_baseline();
    let plan = plan();
    let touched: Vec<String> = plan
        .touched_signatures()
        .into_iter()
        .map(str::to_owned)
        .collect();
    for clients in [1, 2, 8] {
        let run = chaos_run(clients, Some(plan.clone()));
        // Blast radius: every typed failure names a stream the plan
        // touches — chaos never leaks across lanes.
        for (tenant, sig, detail) in &run.failures {
            assert!(
                touched.contains(sig),
                "{clients} clients: untouched stream ({tenant}, {sig}) failed: {detail}"
            );
        }
        assert!(
            !run.failures.is_empty(),
            "{clients} clients: the plan injected nothing"
        );
        // Survivors: bit-identical to serial replay, so also identical
        // across client counts.
        for ((tenant, sig), digest) in &run.digests {
            if touched.contains(sig) {
                continue;
            }
            assert_eq!(
                digest,
                &baseline[&(*tenant, sig.clone())],
                "{clients} clients: surviving stream ({tenant}, {sig}) diverged from serial replay"
            );
        }
        // Every untouched stream must in fact have survived.
        let survivors = run
            .digests
            .keys()
            .filter(|(_, sig)| !touched.contains(sig))
            .count();
        assert_eq!(
            survivors as u32,
            TENANTS * (signatures().len() as u32 - touched.len() as u32),
            "{clients} clients: an untouched stream failed to complete"
        );
        // Containment bookkeeping: one panic and one kill per tenant.
        let metrics = run.service.metrics();
        assert_eq!(
            metrics.counter(names::SERVICE_LANE_PANICS),
            u64::from(TENANTS),
            "{clients} clients: lane panic count"
        );
        assert!(
            metrics.counter(names::SERVICE_WORKER_RESTARTS) >= 1,
            "{clients} clients: the supervisor restarted no worker"
        );
        assert!(
            metrics.counter(names::SERVICE_BREAKER_OPENS) >= u64::from(TENANTS),
            "{clients} clients: panics did not trip breakers"
        );
    }
}

#[test]
fn queue_storm_under_probabilistic_chaos_never_hangs() {
    // One shard, capacity one, eight clients hammering six streams:
    // heavy Busy backpressure plus coin-flip panics. The invariant is
    // pure liveness — every ticket resolves, every failure is typed.
    let plan =
        ChaosPlan::new(3).with(ChaosRule::new("s0", ChaosAction::Panic).with_probability(0.4));
    let service = Arc::new(LaunchService::new(
        Arc::new(device),
        ServiceConfig {
            shards: 1,
            queue_capacity: 1,
            restart_backoff: Duration::from_millis(1),
            chaos: Some(plan),
            ..ServiceConfig::default()
        },
    ));
    let sigs = signatures();
    for sig in &sigs {
        service.register(sig, variants());
    }
    let busy = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|scope| {
        for client in 0..8usize {
            let service = service.clone();
            let (sigs, busy) = (&sigs, &busy);
            scope.spawn(move || {
                let opts = LaunchOptions::new();
                for round in 0..ROUNDS {
                    let sig = &sigs[(client + round) % sigs.len()];
                    let mut args = fresh_args();
                    loop {
                        match service.submit(TenantId(client as u32), sig, args, UNITS, &opts) {
                            Ok(ticket) => {
                                assert!(
                                    ticket.wait_timeout(WAIT).is_ok(),
                                    "hung ticket in queue storm"
                                );
                                break;
                            }
                            Err(SubmitError::Busy { args: back, .. }) => {
                                busy.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                args = back;
                                std::thread::yield_now();
                            }
                            Err(failed) => {
                                // Open breaker: typed fail-fast, done.
                                drop(failed.into_args());
                                break;
                            }
                        }
                    }
                }
            });
        }
    });
    assert!(
        busy.into_inner() > 0,
        "the storm never actually hit backpressure"
    );
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dysel-chaos-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

type Snapshot = BTreeMap<StreamKey, CacheEntry>;

/// Asserts that every selection in `recovered` is the pre-crash one —
/// "recovered == journaled prefix of the pre-crash snapshot".
fn assert_selection_prefix(recovered: &Snapshot, pre_crash: &Snapshot) {
    for (key, entry) in recovered {
        if let Some(variant) = entry.selection {
            assert_eq!(
                pre_crash.get(key).and_then(|e| e.selection),
                Some(variant),
                "recovered selection {key:?} diverged from the pre-crash snapshot"
            );
        }
    }
}

fn persistent_service(state: &std::path::Path, chaos: Option<ChaosPlan>) -> LaunchService {
    let service = LaunchService::with_factory(
        device,
        ServiceConfig {
            shards: 1,
            state_path: Some(state.to_path_buf()),
            chaos,
            ..ServiceConfig::default()
        },
    );
    for sig in signatures() {
        service.register(sig, variants());
    }
    service
}

fn launch_all(service: &LaunchService) {
    let opts = LaunchOptions::new();
    for tenant in 0..TENANTS {
        for sig in signatures() {
            let ticket = service
                .submit(TenantId(tenant), &sig, fresh_args(), UNITS, &opts)
                .expect("admitted");
            let (_, result) = ticket.wait_timeout(WAIT).expect("resolved");
            result.expect("healthy launch");
        }
    }
}

#[test]
fn journal_kill_point_recovers_exactly_the_journaled_prefix() {
    let dir = temp_dir("kill-point");
    let state = dir.join("state.bin");
    // Run 1: the journal dies after 4 appends; 12 streams select, so the
    // tail is lost. Unclean stop (no save_state).
    let pre_crash = {
        let service = persistent_service(&state, Some(ChaosPlan::new(1).with_journal_kill(4)));
        launch_all(&service);
        service.export_state()
    };
    assert!(
        !state.exists(),
        "no checkpoint must exist before the first save/compaction"
    );
    // Run 2: recovery replays exactly the 4 journaled records — a strict,
    // consistent prefix of the pre-crash snapshot.
    let recovered = {
        let service = persistent_service(&state, None);
        let info = service.recovery().expect("state path configured");
        assert!(!info.torn, "kill-point loss is silent, not torn");
        assert_eq!(info.replayed, 4, "exactly the journaled prefix");
        service.export_state()
    };
    let recovered_count = recovered.values().filter(|e| e.selection.is_some()).count();
    assert_eq!(recovered_count, 4, "one selection per journaled record");
    assert_selection_prefix(&recovered, &pre_crash);
    // Control: without the kill-point the full snapshot survives a crash.
    let state2 = dir.join("state2.bin");
    let pre_crash = {
        let service = persistent_service(&state2, None);
        launch_all(&service);
        service.export_state()
    };
    let service = persistent_service(&state2, None);
    assert_eq!(
        service.recovery(),
        Some(dysel::core::RecoveryInfo {
            replayed: u64::from(TENANTS) * signatures().len() as u64,
            torn: false,
        })
    );
    assert_eq!(service.export_state(), pre_crash, "lossless crash recovery");
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_journal_tail_is_tolerated_and_corrupt_header_is_typed_cold_start() {
    let dir = temp_dir("torn-tail");
    let state = dir.join("state.bin");
    let pre_crash = {
        let service = persistent_service(&state, None);
        launch_all(&service);
        service.export_state()
    };
    let journal = dysel::core::journal_path(&state);
    // Tear the last record mid-frame.
    let bytes = std::fs::read(&journal).expect("journal written");
    assert!(bytes.len() > 16, "journal must hold records to tear");
    std::fs::write(&journal, &bytes[..bytes.len() - 3]).expect("tear");
    {
        let service = persistent_service(&state, None);
        let info = service.recovery().expect("state path configured");
        assert!(info.torn, "the torn tail must be reported");
        assert!(info.replayed > 0, "the intact prefix must replay");
        assert!(
            service.state_load_error().is_none(),
            "a torn tail is tolerated, not an error"
        );
        assert_selection_prefix(&service.export_state(), &pre_crash);
    }
    // Corrupt journal header on a fresh state path: typed cold start,
    // service still serves launches.
    let corrupt_state = dir.join("corrupt.bin");
    std::fs::write(dysel::core::journal_path(&corrupt_state), b"garbage-header")
        .expect("corrupt journal");
    let service = persistent_service(&corrupt_state, None);
    assert!(
        service.state_load_error().is_some(),
        "a corrupt journal header is a typed load error"
    );
    launch_all(&service);
    assert!(service.launches() > 0, "cold-started service stays live");
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regression: a lane rebuilt after a panic reads the stream's learned
/// state from the service's store, so a variant quarantined before the
/// panic stays quarantined — and the rebuilt lane agrees with
/// `service.cache()` launch after launch.
#[test]
fn rebuilt_lane_keeps_the_quarantine_learned_before_the_panic() {
    use std::sync::atomic::{AtomicUsize, Ordering};

    use dysel::core::{BreakerConfig, QuarantineReason, StreamKey};
    use dysel::device::{Cycles, FaultKind, FaultPlan, FaultRule};
    use dysel::kernel::VariantId;

    const N: u64 = 1024;
    let built = Arc::new(AtomicUsize::new(0));
    let factory = {
        let built = built.clone();
        move || -> Box<dyn Device> {
            let mut dev = CpuDevice::new(CpuConfig::noiseless());
            // Only the stream's first lane sees `fast` fail.
            if built.fetch_add(1, Ordering::SeqCst) == 0 {
                dev.set_fault_plan(Some(
                    FaultPlan::new(1).with(FaultRule::new("fast", FaultKind::LaunchError)),
                ));
            }
            Box::new(dev)
        }
    };
    let service = LaunchService::with_factory(
        factory,
        ServiceConfig {
            shards: 1,
            breaker: BreakerConfig {
                cooldown: Duration::ZERO,
                ..BreakerConfig::default()
            },
            chaos: Some(
                ChaosPlan::new(5).with(ChaosRule::new("k", ChaosAction::Panic).window(1, 1)),
            ),
            ..ServiceConfig::default()
        },
    );
    service.register(
        "k",
        [writer("slow", 9), writer("mid", 5), writer("fast", 3)],
    );
    let key = StreamKey::new(TenantId(1), "k");
    let launch = || {
        let mut args = Args::new();
        args.push(Buffer::f32("out", vec![0.0; N as usize], Space::Global));
        let ticket = service
            .submit(TenantId(1), "k", args, N, &LaunchOptions::new())
            .expect("admitted");
        ticket.wait_timeout(WAIT).expect("resolved").1
    };
    let quarantined = vec![(VariantId(2), QuarantineReason::LaunchFailed)];

    // Launch 0 quarantines `fast` and selects `mid`; launch 1 panics.
    let first = launch().expect("launch 0");
    assert_eq!(first.selected_name, "mid");
    assert_eq!(service.cache().get(&key).unwrap().quarantine, quarantined);
    assert!(matches!(launch(), Err(DyselError::LanePanicked { .. })));

    // Launches 2 and 3 run on a rebuilt lane with a healthy device: `fast`
    // stays quarantined (never profiled), `mid` wins, and the store the
    // lane committed to says exactly that.
    for i in 2..4 {
        let report = launch().unwrap_or_else(|e| panic!("launch {i}: {e}"));
        assert_eq!(report.selected_name, "mid", "launch {i}");
        assert!(report.profiled(), "launch {i}");
        assert_eq!(report.measurements[2].measured, Cycles::MAX, "launch {i}");
        let entry = service.cache().get(&key).expect("stream entry");
        assert_eq!(entry.selection, Some(report.selected), "launch {i}");
        assert_eq!(entry.quarantine, quarantined, "launch {i}");
    }
    assert_eq!(built.load(Ordering::SeqCst), 2, "one rebuilt lane");
}

/// Submits one launch of the stream `k` (tenant 1) over `N` fresh units.
fn submit_k(service: &LaunchService) -> Result<dysel::core::Ticket, SubmitError> {
    const N: usize = 64;
    let mut args = Args::new();
    args.push(Buffer::f32("out", vec![0.0; N], Space::Global));
    service.submit(TenantId(1), "k", args, N as u64, &LaunchOptions::new())
}

/// With no restart budget, the first worker death retires the shard: the
/// stranded ticket resolves `WorkerDied`, and the next submission is
/// refused with `ShardFailed` instead of queueing on a dead worker.
#[test]
fn a_shard_past_its_restart_budget_refuses_with_shard_failed() {
    use dysel::core::RejectReason;

    let service = LaunchService::new(
        Arc::new(device),
        ServiceConfig {
            shards: 1,
            max_worker_restarts: 0,
            restart_backoff: Duration::from_millis(1),
            chaos: Some(
                ChaosPlan::new(3).with(ChaosRule::new("k", ChaosAction::Kill).window(0, 1)),
            ),
            ..ServiceConfig::default()
        },
    );
    service.register("k", variants());
    let killed = submit_k(&service).expect("admitted");
    let (_, result) = killed.wait_timeout(WAIT).expect("no hung ticket");
    assert!(
        matches!(result, Err(DyselError::WorkerDied { .. })),
        "{result:?}"
    );
    // The supervisor retires the shard asynchronously: until it does, a
    // submission still queues, and retiring drains it as `WorkerDied`.
    let start = std::time::Instant::now();
    let reason = loop {
        assert!(start.elapsed() < WAIT, "the shard was never retired");
        match submit_k(&service) {
            Ok(ticket) => {
                let (_, result) = ticket.wait_timeout(WAIT).expect("no hung ticket");
                assert!(
                    matches!(result, Err(DyselError::WorkerDied { .. })),
                    "{result:?}"
                );
            }
            Err(SubmitError::Rejected { reason, .. }) => break reason,
            Err(other) => panic!("untyped refusal: {other}"),
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    assert_eq!(reason, RejectReason::ShardFailed);
    assert_eq!(service.metrics().counter(names::SERVICE_WORKER_RESTARTS), 0);
}

/// A launch stalled on the wall clock past `stuck_after` is flagged once
/// and opens its stream's breaker, so a submission made while it is stuck
/// fails fast; the launch itself still completes.
#[test]
fn a_launch_stuck_past_stuck_after_is_flagged_once_and_opens_the_breaker() {
    use std::sync::atomic::{AtomicBool, Ordering};

    use dysel::core::BreakerConfig;

    let released = Arc::new(AtomicBool::new(false));
    let stall = {
        let released = released.clone();
        Variant::from_fn(
            VariantMeta::new("stall", KernelIr::regular(vec![0])),
            move |ctx, args| {
                let start = std::time::Instant::now();
                while !released.load(Ordering::SeqCst) && start.elapsed() < WAIT {
                    std::thread::sleep(Duration::from_millis(1));
                }
                for u in ctx.units().iter() {
                    args.f32_mut(0).unwrap()[u as usize] = 1.0;
                }
            },
        )
    };
    let service = LaunchService::new(
        Arc::new(device),
        ServiceConfig {
            shards: 1,
            stuck_after: Some(Duration::from_millis(5)),
            breaker: BreakerConfig {
                cooldown: WAIT,
                ..BreakerConfig::default()
            },
            ..ServiceConfig::default()
        },
    );
    service.register("k", [stall]);
    let stuck = submit_k(&service).expect("admitted");
    let start = std::time::Instant::now();
    // The watchdog counts the verdict, then opens the breaker.
    while service.metrics().counter(names::SERVICE_BREAKER_OPENS) == 0 {
        assert!(
            start.elapsed() < WAIT,
            "the watchdog never flagged the launch"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    // Flagged: the breaker is open while the launch is still stuck.
    assert_eq!(service.metrics().counter(names::SERVICE_LANE_STUCK), 1);
    match submit_k(&service) {
        Err(SubmitError::LaneFailed { key, .. }) => {
            assert_eq!(key, StreamKey::new(TenantId(1), "k"))
        }
        Err(other) => panic!("expected a breaker refusal, got {other}"),
        Ok(_) => panic!("a stuck stream admitted a submission"),
    }
    std::thread::sleep(Duration::from_millis(20)); // a later watchdog pass
    released.store(true, Ordering::SeqCst);
    let (out, result) = stuck.wait_timeout(WAIT).expect("no hung ticket");
    result.expect("the stuck launch completes");
    assert_eq!(out.f32(0).unwrap()[0], 1.0);
    let metrics = service.metrics();
    assert_eq!(metrics.counter(names::SERVICE_LANE_STUCK), 1, "one verdict");
    assert_eq!(metrics.counter(names::SERVICE_BREAKER_OPENS), 1);
}
