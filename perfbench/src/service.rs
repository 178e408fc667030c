//! `service-cpu`: one `LaunchService` with `SHARDS` shards, bounded queues
//! and a state path (so the journal is on). `CLIENTS` client threads each
//! submit for their own tenant, `LAUNCHES_PER_RUN` rounds per
//! (tenant, signature) stream per pass, waiting for each ticket before
//! submitting again (a closed loop). One op is one submission, timed from
//! `submit()` to the ticket resolving, plus the output check.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

use dysel_core::{
    journal_path, LaunchOptions, LaunchReport, LaunchService, ServiceConfig, StreamKey,
    SubmitError, TenantId,
};
use dysel_workloads::{
    kmeans, sgemm, spmv_csr, spmv_jds, stencil, CsrMatrix, JdsMatrix, Target, Workload,
};

use crate::trace::{self, rebuild, within, CPU};
use crate::{
    cpu, device, next_op, runtime_config, timed_op, Bench, Digest, PassCtx, PassResult, Tally,
};

const CLIENTS: usize = 2;
const SHARDS: usize = 2;
/// Queue slots per shard: one, so two clients on one shard meet `Busy`.
const QUEUE_CAPACITY: usize = 1;
/// Launches per stream per pass; the first micro-profiles.
const LAUNCHES_PER_RUN: usize = 3;

/// Signatures, each above the 128-base-work-group profiling threshold.
/// Their count is odd, so the median op sits inside one signature's
/// cluster of op costs rather than on the gap between two.
fn signatures(seed: u64) -> Vec<Workload> {
    let random = CsrMatrix::random(4352, 4352, 0.01, seed);
    vec![
        spmv_jds::workload(&JdsMatrix::from_csr(&random), seed),
        kmeans::workload(
            kmeans::Shape {
                n: 4352,
                d: 16,
                k: 8,
            },
            seed,
        ),
        spmv_csr::case4_workload("spmv-csr(random)", &random, seed),
        stencil::workload(40, seed),
        sgemm::mixed_workload(192, seed),
    ]
}

/// A running service and the directory holding its state and journal.
struct Instance {
    svc: Option<LaunchService>,
    /// Threads the service started (its shard workers among them).
    threads: Vec<u32>,
    dir: PathBuf,
    traced: bool,
}

fn config(dir: &Path) -> ServiceConfig {
    ServiceConfig {
        shards: SHARDS,
        queue_capacity: QUEUE_CAPACITY,
        runtime: runtime_config(),
        state_path: Some(dir.join("state")),
        ..ServiceConfig::default()
    }
}

fn open(dir: &Path, traced: bool) -> Result<LaunchService, String> {
    let svc = LaunchService::with_factory(
        move || device(Target::Cpu, traced.then_some(&CPU)),
        config(dir),
    );
    match svc.state_load_error() {
        Some(e) => Err(format!("service state: {e}")),
        None => Ok(svc),
    }
}

impl Instance {
    fn start(workloads: &[Workload], traced: bool) -> Result<Self, String> {
        static SERIAL: AtomicU64 = AtomicU64::new(0);
        let dir = crate::report::out_dir().join(format!(
            "service-{}-{}",
            std::process::id(),
            SERIAL.fetch_add(1, Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        // Built before the service opens, so a failed open still removes
        // the directory.
        let mut instance = Instance {
            svc: None,
            threads: Vec::new(),
            dir,
            traced,
        };
        let before: Vec<u32> = cpu::threads().into_iter().map(|(tid, _)| tid).collect();
        let svc = within(traced, "core.register", || {
            let svc = open(&instance.dir, traced)?;
            for w in workloads {
                let variants = if traced {
                    let all: Vec<usize> = (0..w.variants(Target::Cpu).len()).collect();
                    rebuild(w, Target::Cpu, &all, Some(&CPU))
                        .variants(Target::Cpu)
                        .to_vec()
                } else {
                    w.variants(Target::Cpu).to_vec()
                };
                svc.register(&w.signature, variants);
            }
            Ok::<_, String>(svc)
        })?;
        instance.svc = Some(svc);
        instance.threads = cpu::threads()
            .into_iter()
            .map(|(tid, _)| tid)
            .filter(|tid| !before.contains(tid))
            .collect();
        Ok(instance)
    }

    /// Thread id of each shard worker (0 if not found). A new thread names
    /// itself once it runs, so the lookup waits up to a second for that.
    fn shard_tids(&self) -> Vec<u32> {
        let mut tids = Vec::new();
        for _ in 0..1000 {
            let named = cpu::threads();
            tids = (0..SHARDS)
                .map(|i| {
                    let name = format!("dysel-shard-{i}");
                    named
                        .iter()
                        .find(|(tid, n)| *n == name && self.threads.contains(tid))
                        .map_or(0, |(tid, _)| *tid)
                })
                .collect();
            if !tids.contains(&0) {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        tids
    }
}

impl Drop for Instance {
    fn drop(&mut self) {
        drop(self.svc.take());
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

pub struct Service {
    workloads: Vec<Workload>,
    bare: Instance,
    timed: Option<Instance>,
    /// Total time of each stream's first profiling launch in the first
    /// pass, client-major.
    first: Vec<u64>,
}

impl Service {
    pub fn new(seed: u64, traced: bool) -> Result<Self, String> {
        let workloads = within(traced, "workloads.build", || signatures(seed));
        let bare = Instance::start(&workloads, false)?;
        let timed = if traced {
            Some(Instance::start(&workloads, true)?)
        } else {
            None
        };
        Ok(Service {
            workloads,
            bare,
            timed,
            first: Vec::new(),
        })
    }
}

/// What one client thread saw in one pass.
struct ClientRun {
    tally: Tally,
    digest: u64,
    cycles: u64,
    first: Vec<u64>,
}

fn submit_and_wait(
    svc: &LaunchService,
    tenant: TenantId,
    w: &Workload,
    opts: &LaunchOptions,
    traced: bool,
    tally: &mut Tally,
) -> Result<LaunchReport, String> {
    let ticket = within(traced, "core.service.submit", || {
        let mut args = w.fresh_args();
        loop {
            match svc.submit(tenant, &w.signature, args, w.total_units, opts) {
                Ok(ticket) => {
                    tally.accepted += u64::from(traced);
                    return Ok(ticket);
                }
                Err(SubmitError::Busy { args: back, .. }) => {
                    tally.busy += u64::from(traced);
                    args = back;
                    std::thread::yield_now();
                }
                Err(e) => return Err(format!("{} submit: {e}", w.name)),
            }
        }
    })?;
    let (args, outcome) = within(traced, "core.service.wait", || ticket.wait());
    let report = outcome.map_err(|e| format!("{} launch: {e}", w.name))?;
    within(traced, "workloads.verify", || w.verify(&args))
        .map_err(|e| format!("{} output: {e}", w.name))?;
    Ok(report)
}

/// One client's closed loop. An op's CPU time is this thread's plus that
/// of the shard worker running the stream: the op's own launch and any
/// launch queued ahead of it on that shard.
fn client(
    svc: &LaunchService,
    shard_tids: &[u32],
    workloads: &[Workload],
    c: usize,
    ctx: PassCtx,
) -> ClientRun {
    let tenant = TenantId(c as u32 + 1);
    let mut run = ClientRun {
        tally: Tally::default(),
        digest: 0,
        cycles: 0,
        first: Vec::new(),
    };
    let mut digest = Digest::default();
    for k in 0..LAUNCHES_PER_RUN {
        let opts = if k == 0 {
            LaunchOptions::new()
        } else {
            LaunchOptions::new().without_profiling()
        };
        for w in workloads {
            if ctx.traced {
                trace::set_op(next_op());
            }
            let shard = svc
                .cache()
                .shard_of(&StreamKey::new(tenant, w.signature.as_str()));
            let tid = shard_tids[shard];
            let (result, cost) = timed_op(
                || cpu::thread_s() + cpu::task_s(tid),
                || {
                    within(ctx.traced, "op", || {
                        submit_and_wait(svc, tenant, w, &opts, ctx.traced, &mut run.tally)
                    })
                },
            );
            trace::set_op(0);
            let report = match result {
                Ok(report) => report,
                Err(e) => {
                    run.tally.fail(e);
                    run.tally.op(cost, false, ctx.timed);
                    continue;
                }
            };
            if k == 0 {
                if !report.profiled() {
                    run.tally.fail(format!(
                        "{}: profiling launch skipped ({:?})",
                        w.name, report.skipped
                    ));
                }
                run.first.push(report.total_time.0);
            }
            if ctx.traced {
                run.tally.traced_launch(&report);
            }
            digest.fold(&tenant.0.to_le_bytes());
            digest.launch(&report);
            run.cycles += report.total_time.0;
            run.tally.op(cost, report.profiled(), ctx.timed);
        }
    }
    run.digest = digest.0;
    run
}

impl Bench for Service {
    fn ops_per_pass(&self) -> usize {
        self.workloads.len() * LAUNCHES_PER_RUN * CLIENTS
    }

    fn concurrent(&self) -> bool {
        true
    }

    fn pass(&mut self, ctx: PassCtx, tally: &mut Tally) -> PassResult {
        let instance = match (&self.timed, ctx.traced) {
            (Some(timed), true) => timed,
            _ => &self.bare,
        };
        let svc = instance.svc.as_ref().expect("service is open");
        let shard_tids = &instance.shard_tids();
        if shard_tids.contains(&0) {
            tally.fail("a shard worker thread was not found: op CPU time is incomplete".into());
        }
        let workloads = &self.workloads;
        let runs: Vec<ClientRun> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| s.spawn(move || client(svc, shard_tids, workloads, c, ctx)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let record_first = self.first.is_empty() && !ctx.traced;
        let mut digest = Digest::default();
        let mut cycles = 0;
        for run in runs {
            digest.fold(&run.digest.to_le_bytes());
            cycles += run.cycles;
            if record_first {
                self.first.extend(&run.first);
            }
            tally.absorb(run.tally);
        }
        PassResult {
            digest: digest.0,
            cycles,
        }
    }

    fn rel_oracle_geomean(&mut self, tally: &mut Tally) -> f64 {
        let mut oracle = Vec::new();
        for w in &self.workloads {
            match crate::cases::sweep(w, Target::Cpu, false) {
                Ok(times) => oracle.push(times.iter().copied().min().unwrap_or(1)),
                Err(e) => {
                    tally.fail(e);
                    return 0.0;
                }
            }
        }
        let rel: Vec<f64> = self
            .first
            .iter()
            .enumerate()
            .map(|(i, &dysel)| dysel as f64 / oracle[i % oracle.len()] as f64)
            .collect();
        crate::geomean(&rel)
    }

    fn finish_traced(&mut self, tally: &mut Tally) -> Vec<(&'static str, f64)> {
        let Some(mut timed) = self.timed.take() else {
            return Vec::new();
        };
        let state = timed.dir.join("state");
        let journal_bytes = std::fs::metadata(journal_path(&state)).map_or(0, |m| m.len());
        drop(timed.svc.take());
        let t = Instant::now();
        let reopened = within(true, "core.service.recover", || {
            open(&timed.dir, timed.traced)
        });
        let recover_s = t.elapsed().as_secs_f64();
        let svc = match reopened {
            Ok(svc) => svc,
            Err(e) => {
                tally.fail(e);
                return Vec::new();
            }
        };
        let replayed = svc.recovery().map_or(0, |r| r.replayed);
        let t = Instant::now();
        if let Err(e) = within(true, "core.service.save_state", || svc.save_state()) {
            tally.fail(format!("save_state: {e}"));
        }
        let save_s = t.elapsed().as_secs_f64();
        timed.svc = Some(svc);
        vec![
            ("core.journal.bytes", journal_bytes as f64),
            ("core.service.recover_s", recover_s),
            ("core.service.save_state_s", save_s),
            ("core.service.recovery_replayed", replayed as f64),
        ]
    }
}
