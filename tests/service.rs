//! Concurrency conformance suite for the multi-tenant [`LaunchService`].
//!
//! The service's contract (DESIGN.md §4.16) is that sharing changes
//! *throughput*, never *results*: every `(tenant, signature)` stream's
//! selection digest, `LaunchReport` sequence and exported trace bytes must
//! be bit-identical to the same submissions replayed serially on a plain
//! single-owner [`Runtime`]. This suite runs the full 18-workload scaled
//! suite for two tenants through the service at 1, 2 and 8 client
//! threads — healthy and under a deterministic fault-injection plan — and
//! diffs every stream against the serial baseline. It also pins the typed
//! admission-control behaviour: `Busy` on a full shard queue (with the
//! buffers handed back for retry) and `Rejected` for unknown signatures
//! and post-shutdown submissions.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use dysel::core::{
    DyselError, LaunchOptions, LaunchReport, LaunchService, RejectReason, Runtime, RuntimeConfig,
    ServiceConfig, SubmitError, TenantId,
};
use dysel::device::{CpuConfig, CpuDevice, Device, FaultKind, FaultPlan, FaultRule};
use dysel::kernel::{Args, Buffer, KernelIr, Space, Variant, VariantMeta};
use dysel::obs::{jsonl, EventSink};
use dysel::workloads::{
    cutcp, histogram, kmeans, particlefilter, sgemm, spmv_csr, spmv_ell, spmv_jds, stencil,
    CsrMatrix, JdsMatrix, Target, Workload,
};

const SEED: u64 = 7;
const TENANTS: u32 = 2;
const ROUNDS: usize = 2;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fold(digest: &mut u64, bytes: &[u8]) {
    for b in bytes.iter().chain(&[0u8]) {
        *digest ^= u64::from(*b);
        *digest = digest.wrapping_mul(FNV_PRIME);
    }
}

/// The full workload suite at differential-test scale, every family
/// represented (same inputs as `tests/pricing_diff.rs`).
fn suite() -> Vec<Workload> {
    let random = CsrMatrix::random(2048, 2048, 0.01, SEED);
    let diagonal = CsrMatrix::diagonal(4096);
    let jds = JdsMatrix::from_csr(&random);
    let shape = cutcp::Shape { n: 32, atoms: 1000 };
    vec![
        sgemm::schedules_workload(64, SEED),
        sgemm::mixed_workload(64, SEED),
        sgemm::vector_workload(64, SEED),
        spmv_csr::case4_workload("spmv-csr(random)", &random, SEED),
        spmv_csr::case4_workload("spmv-csr(diagonal)", &diagonal, SEED),
        spmv_csr::workload(
            "spmv-csr(sched-random)",
            &random,
            SEED,
            spmv_csr::cpu_schedule_variants(random.rows),
            spmv_csr::gpu_case4_variants(random.rows),
        ),
        spmv_csr::workload(
            "spmv-csr(sched-diagonal)",
            &diagonal,
            SEED,
            spmv_csr::cpu_schedule_variants(diagonal.rows),
            spmv_csr::gpu_case4_variants(diagonal.rows),
        ),
        spmv_csr::placement_workload("spmv-csr(placements)", &random, SEED),
        spmv_ell::workload("spmv-ell", &random, SEED),
        spmv_jds::workload(&jds, SEED),
        spmv_jds::vector_workload(&jds, SEED),
        stencil::workload(32, SEED),
        cutcp::workload(shape, SEED),
        cutcp::mixed_workload(shape, SEED),
        kmeans::workload(
            kmeans::Shape {
                n: 2048,
                d: 8,
                k: 4,
            },
            SEED,
        ),
        particlefilter::workload(
            particlefilter::Shape {
                particles: 2048,
                window: 16,
                frame: 1 << 14,
            },
            SEED,
        ),
        histogram::workload(
            64 * histogram::ELEMS_PER_UNIT,
            histogram::Distribution::Uniform,
            SEED,
        ),
        histogram::workload(
            64 * histogram::ELEMS_PER_UNIT,
            histogram::Distribution::Skewed,
            SEED,
        ),
    ]
}

/// Workload names collide across variant families (three "sgemm"s) and
/// the service registry is shared, so each workload registers under an
/// index-qualified signature — on the service *and* on the baseline, so
/// reports and digests stay comparable.
fn signatures(suite: &[Workload]) -> Vec<String> {
    suite
        .iter()
        .enumerate()
        .map(|(i, w)| format!("{}#{i}", w.signature))
        .collect()
}

/// A deterministic suite-wide fault plan: every third workload's second
/// CPU variant always fails to launch, driving the retry → quarantine
/// ladder on those streams (the remaining variants keep outputs exact).
fn fault_plan(suite: &[Workload]) -> FaultPlan {
    let mut plan = FaultPlan::new(5);
    for w in suite.iter().step_by(3) {
        let variants = w.variants(Target::Cpu);
        if variants.len() > 1 {
            plan = plan.with(FaultRule::new(variants[1].name(), FaultKind::LaunchError));
        }
    }
    plan
}

/// The device every lane and every baseline runtime gets, with the fault
/// plan.
fn factory(plan: Option<FaultPlan>) -> impl Fn() -> Box<dyn Device> + Send + Sync + Clone {
    move || {
        let mut dev = Box::new(CpuDevice::new(CpuConfig::default()));
        dev.set_fault_plan(plan.clone());
        dev as Box<dyn Device>
    }
}

/// What one stream produced, byte-comparable between service and serial.
#[derive(Debug, PartialEq)]
struct StreamArtifacts {
    reports: Vec<Result<LaunchReport, DyselError>>,
    digest: u64,
    trace: String,
}

type StreamMap = BTreeMap<(u32, String), StreamArtifacts>;
type ReportMap = BTreeMap<(u32, String), Vec<Result<LaunchReport, DyselError>>>;

/// Replays every stream serially on a plain single-owner [`Runtime`]:
/// fresh device, tenant-stamped config and sink — the ground truth the
/// service must reproduce bit for bit.
fn serial_baseline(suite: &[Workload], sigs: &[String], plan: Option<FaultPlan>) -> StreamMap {
    let opts = LaunchOptions::new();
    let mut out = StreamMap::new();
    for tenant in 0..TENANTS {
        for (wi, w) in suite.iter().enumerate() {
            let sink = Arc::new(EventSink::with_tenant(tenant));
            let mut rt = Runtime::with_config(
                factory(plan.clone())(),
                RuntimeConfig {
                    tenant: TenantId(tenant),
                    observe: Some(sink.clone()),
                    // Same per-lane config the service uses: addresses come
                    // from the runtime's private space, so the priced
                    // timeline is comparable bit for bit.
                    private_addrs: true,
                    ..RuntimeConfig::default()
                },
            );
            rt.add_kernels(&sigs[wi], w.variants(Target::Cpu).to_vec());
            let mut reports = Vec::new();
            let mut digest = FNV_OFFSET;
            for _ in 0..ROUNDS {
                let mut args = w.fresh_args();
                let result = rt.launch(&sigs[wi], &mut args, w.total_units, &opts);
                if let Ok(report) = &result {
                    fold(&mut digest, report.signature.as_bytes());
                    fold(&mut digest, report.selected_name.as_bytes());
                    w.verify(&args)
                        .unwrap_or_else(|e| panic!("baseline {} output wrong: {e}", w.name));
                }
                reports.push(result);
            }
            out.insert(
                (tenant, sigs[wi].clone()),
                StreamArtifacts {
                    reports,
                    digest,
                    trace: jsonl(&sink.events()),
                },
            );
        }
    }
    out
}

/// Pushes the same submissions through one shared service from `clients`
/// threads. Stream `i` is owned by client `i % clients`, so every
/// stream's submission order is well-defined; within a round each client
/// keeps all its streams in flight at once, then waits, so distinct
/// streams genuinely interleave across shards.
fn service_run(
    suite: &[Workload],
    sigs: &[String],
    plan: Option<FaultPlan>,
    clients: usize,
) -> StreamMap {
    let service = Arc::new(LaunchService::new(
        Arc::new(factory(plan)),
        ServiceConfig {
            shards: 4,
            queue_capacity: 16,
            observe: true,
            ..ServiceConfig::default()
        },
    ));
    for (sig, w) in sigs.iter().zip(suite) {
        service.register(sig, w.variants(Target::Cpu).to_vec());
    }
    let streams: Vec<(TenantId, usize)> = (0..TENANTS)
        .flat_map(|t| (0..suite.len()).map(move |wi| (TenantId(t), wi)))
        .collect();
    let recorded: Mutex<ReportMap> = Mutex::new(BTreeMap::new());
    std::thread::scope(|scope| {
        for client in 0..clients {
            let service = service.clone();
            let (recorded, streams) = (&recorded, &streams);
            scope.spawn(move || {
                let opts = LaunchOptions::new();
                let owned: Vec<(TenantId, usize)> = streams
                    .iter()
                    .skip(client)
                    .step_by(clients)
                    .copied()
                    .collect();
                for _round in 0..ROUNDS {
                    let mut tickets = Vec::new();
                    for &(tenant, wi) in &owned {
                        let w = &suite[wi];
                        let mut args = w.fresh_args();
                        let ticket = loop {
                            match service.submit(tenant, &sigs[wi], args, w.total_units, &opts) {
                                Ok(t) => break t,
                                Err(SubmitError::Busy { args: back, .. }) => {
                                    args = back;
                                    std::thread::yield_now();
                                }
                                Err(rejected) => panic!("rejected: {rejected}"),
                            }
                        };
                        tickets.push((tenant, wi, ticket));
                    }
                    for (tenant, wi, ticket) in tickets {
                        let (out_args, result) = ticket.wait();
                        if result.is_ok() {
                            suite[wi].verify(&out_args).unwrap_or_else(|e| {
                                panic!("service {} output wrong: {e}", suite[wi].name)
                            });
                        }
                        recorded
                            .lock()
                            .unwrap()
                            .entry((tenant.0, sigs[wi].clone()))
                            .or_default()
                            .push(result);
                    }
                }
            });
        }
    });
    let mut out = StreamMap::new();
    for ((tenant, sig), reports) in recorded.into_inner().unwrap() {
        let digest = service
            .stream_digest(TenantId(tenant), &sig)
            .expect("stream launched");
        let trace = jsonl(&service.stream_events(TenantId(tenant), &sig));
        out.insert(
            (tenant, sig),
            StreamArtifacts {
                reports,
                digest,
                trace,
            },
        );
    }
    out
}

/// Diffs every stream between the service run and the serial baseline,
/// with a message that names the first diverging stream.
fn assert_conformant(service: &StreamMap, baseline: &StreamMap, label: &str) {
    assert_eq!(
        service.keys().collect::<Vec<_>>(),
        baseline.keys().collect::<Vec<_>>(),
        "{label}: stream sets differ"
    );
    for (key, got) in service {
        let want = &baseline[key];
        assert_eq!(
            got.digest, want.digest,
            "{label}: selection digest diverged on stream {key:?}"
        );
        assert_eq!(
            got.reports, want.reports,
            "{label}: report sequence diverged on stream {key:?}"
        );
        assert_eq!(
            got.trace, want.trace,
            "{label}: exported trace bytes diverged on stream {key:?}"
        );
    }
}

#[test]
fn concurrent_submission_is_bit_identical_to_serial_replay() {
    let suite = suite();
    let sigs = signatures(&suite);
    let baseline = serial_baseline(&suite, &sigs, None);
    for clients in [1, 2, 8] {
        let got = service_run(&suite, &sigs, None, clients);
        assert_conformant(&got, &baseline, &format!("healthy, {clients} clients"));
    }
}

#[test]
fn concurrent_submission_under_faults_is_bit_identical_to_serial_replay() {
    let suite = suite();
    let sigs = signatures(&suite);
    let plan = fault_plan(&suite);
    let baseline = serial_baseline(&suite, &sigs, Some(plan.clone()));
    // The plan must actually bite, or this test silently degrades into
    // the healthy one.
    let degraded = baseline
        .values()
        .flat_map(|s| &s.reports)
        .filter(|r| r.as_ref().is_ok_and(|rep| !rep.faults.is_clean()))
        .count();
    assert!(degraded > 0, "fault plan injected nothing");
    for clients in [1, 2, 8] {
        let got = service_run(&suite, &sigs, Some(plan.clone()), clients);
        assert_conformant(&got, &baseline, &format!("faulted, {clients} clients"));
    }
}

/// A single-variant kernel that blocks until `gate` opens, flagging
/// `entered` when the shard worker actually starts executing it.
fn gated_variant(gate: Arc<AtomicBool>, entered: Arc<AtomicBool>) -> Variant {
    Variant::from_fn(
        VariantMeta::new("gated", KernelIr::regular(vec![0])),
        move |ctx, args| {
            entered.store(true, Ordering::SeqCst);
            while !gate.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            for u in ctx.units().iter() {
                args.f32_mut(0).unwrap()[u as usize] = u as f32;
            }
        },
    )
}

fn gated_args() -> Args {
    let mut args = Args::new();
    args.push(Buffer::f32("out", vec![0.0; 64], Space::Global));
    args
}

#[test]
fn full_queue_answers_busy_and_hands_buffers_back() {
    let gate = Arc::new(AtomicBool::new(false));
    let entered = Arc::new(AtomicBool::new(false));
    let service = LaunchService::with_factory(
        || Box::new(CpuDevice::new(CpuConfig::noiseless())),
        ServiceConfig {
            shards: 1,
            queue_capacity: 1,
            ..ServiceConfig::default()
        },
    );
    service.register("gated", [gated_variant(gate.clone(), entered.clone())]);
    let opts = LaunchOptions::new();
    let tenant = TenantId(1);
    // First launch: the worker picks it up and blocks on the gate.
    let first = service
        .submit(tenant, "gated", gated_args(), 64, &opts)
        .expect("first submission admitted");
    while !entered.load(Ordering::SeqCst) {
        std::thread::yield_now();
    }
    // Second fills the (capacity-1) queue; third must bounce as Busy.
    let second = service
        .submit(tenant, "gated", gated_args(), 64, &opts)
        .expect("second submission queued");
    let err = service
        .submit(tenant, "gated", gated_args(), 64, &opts)
        .expect_err("third submission must hit admission control");
    let args = match err {
        SubmitError::Busy {
            shard,
            capacity,
            args,
            ..
        } => {
            assert_eq!((shard, capacity), (0, 1));
            args
        }
        other => panic!("expected Busy, got {other}"),
    };
    assert_eq!(args.f32(0).unwrap().len(), 64, "buffers come back intact");
    // Open the gate: both admitted launches complete; the bounced one can
    // be resubmitted with the returned buffers.
    gate.store(true, Ordering::SeqCst);
    assert!(first.wait().1.is_ok());
    assert!(second.wait().1.is_ok());
    let mut args = args;
    let retried = loop {
        match service.submit(tenant, "gated", args, 64, &opts) {
            Ok(t) => break t,
            Err(SubmitError::Busy { args: back, .. }) => {
                args = back;
                std::thread::yield_now();
            }
            Err(rejected) => panic!("rejected: {rejected}"),
        }
    };
    let (out, result) = retried.wait();
    assert!(result.is_ok());
    assert_eq!(out.f32(0).unwrap()[63], 63.0);
}

#[test]
fn inadmissible_submissions_are_typed_rejections() {
    let service = LaunchService::with_factory(
        || Box::new(CpuDevice::new(CpuConfig::noiseless())),
        ServiceConfig::default(),
    );
    service.register(
        "known",
        [gated_variant(
            Arc::new(AtomicBool::new(true)),
            Arc::new(AtomicBool::new(false)),
        )],
    );
    let opts = LaunchOptions::new();
    // Unknown signature: deterministic, buffers handed back.
    let err = service
        .submit(TenantId(0), "unknown", gated_args(), 64, &opts)
        .expect_err("unknown signature must be rejected");
    match &err {
        SubmitError::Rejected { reason, .. } => {
            assert_eq!(*reason, RejectReason::UnknownSignature)
        }
        other => panic!("expected Rejected, got {other}"),
    }
    assert_eq!(err.into_args().f32(0).unwrap().len(), 64);
    // A registered signature still works...
    let (_, result) = service
        .submit(TenantId(0), "known", gated_args(), 64, &opts)
        .expect("known signature admitted")
        .wait();
    assert!(result.is_ok());
    // ...until shutdown, after which everything is ShuttingDown.
    service.shutdown();
    let err = service
        .submit(TenantId(0), "known", gated_args(), 64, &opts)
        .expect_err("post-shutdown submission must be rejected");
    assert!(matches!(
        err,
        SubmitError::Rejected {
            reason: RejectReason::ShuttingDown,
            ..
        }
    ));
}
