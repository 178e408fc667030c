//! Multi-client service stress driver (`experiments --clients N
//! --tenants M`).
//!
//! Spins up a [`LaunchService`], registers a scaled copy of the full
//! 18-workload suite, and hammers it from `N` client threads submitting
//! on behalf of `M` tenants. Every stream (one `(tenant, workload)` pair)
//! is owned by exactly one client thread, so its submission order is
//! well-defined; the service serializes each stream on its shard, so the
//! canonical selection digest the run prints is **independent of the
//! client count** — `scripts/verify.sh` compares `--clients 8` against
//! `--clients 1` byte for byte. Outputs are verified against the host
//! reference on every launch; [`SubmitError::Busy`] backpressure is
//! absorbed with a seeded-jitter [`Backoff`] retry loop (and counted).
//!
//! The driver runs under the [`Harness`] settings: `--fault-plan` injects
//! the same deterministic fault plan into every lane device and
//! `--state-file` persists the service's learned state. On top of that, [`StressOpts`]
//! (the `--chaos-plan` path through `experiments`) arms service-layer
//! chaos — injected lane panics, worker kills and journal kill-points;
//! under a chaos plan the driver counts typed per-stream failures instead
//! of treating them as fatal.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dysel_core::{ChaosPlan, LaunchOptions, LaunchService, ServiceConfig, SubmitError, TenantId};
use dysel_kernel::XorShiftRng;
use dysel_workloads::{
    cutcp, histogram, kmeans, particlefilter, sgemm, spmv_csr, spmv_ell, spmv_jds, stencil,
    CsrMatrix, JdsMatrix, Target, Workload,
};

use crate::harness::Harness;

/// Input seed of the stress suite (same as the pricing differential's).
pub const SEED: u64 = 7;

/// How often every stream is launched: round 1 micro-profiles, later
/// rounds exercise the cached-selection path.
pub const ROUNDS: usize = 2;

/// Deterministic seeded-jitter exponential backoff for
/// [`SubmitError::Busy`] retries.
///
/// Delay *n* (0-based) is drawn from the window `[e - e/2, e]` where
/// `e = min(base * 2^min(n, 10), cap)`: half the exponential window is
/// guaranteed spacing, the other half is jitter so competing clients
/// decorrelate instead of thundering back in lockstep. The jitter comes
/// from a private [`XorShiftRng`], so a fixed seed replays the exact same
/// delay sequence — pinned by a unit test below.
#[derive(Debug, Clone)]
pub struct Backoff {
    rng: XorShiftRng,
    base: Duration,
    cap: Duration,
    attempt: u32,
}

impl Backoff {
    /// Exponent ceiling: `base * 2^10` exceeds any practical cap, so the
    /// shift can never overflow a `u32` multiplier.
    const MAX_EXP: u32 = 10;

    /// A policy with the given jitter seed, first-delay base and delay
    /// cap.
    pub fn new(seed: u64, base: Duration, cap: Duration) -> Self {
        Self {
            rng: XorShiftRng::seed_from_u64(seed),
            base,
            cap,
            attempt: 0,
        }
    }

    /// The stress driver's tuning for one client thread: tens of
    /// microseconds at first (a Busy queue usually drains quickly),
    /// capped at 2 ms so a saturated shard never parks a client for
    /// long. Seeded per client so sibling threads jitter independently.
    pub fn for_client(client: usize) -> Self {
        let seed = SEED ^ (client as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Self::new(seed, Duration::from_micros(50), Duration::from_millis(2))
    }

    /// The next delay; advances both the attempt counter and the jitter
    /// stream.
    pub fn next_delay(&mut self) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32 << self.attempt.min(Self::MAX_EXP))
            .min(self.cap);
        self.attempt = self.attempt.saturating_add(1);
        let nanos = exp.as_nanos() as u64;
        let jitter = self.rng.gen_range_u64(0, nanos / 2 + 1);
        Duration::from_nanos(nanos - nanos / 2 + jitter)
    }

    /// Back to attempt zero (call after a successful submission). The
    /// RNG keeps rolling — a reset restores the *window*, not the jitter
    /// stream, so two resets at different points still decorrelate.
    pub fn reset(&mut self) {
        self.attempt = 0;
    }
}

/// Optional knobs for [`run_service_stress`]; the default arms nothing.
#[derive(Debug, Clone, Default)]
pub struct StressOpts {
    /// Service-layer chaos schedule (injected lane panics, worker kills,
    /// journal kill-points). When set, typed per-stream failures are
    /// *expected*: the driver counts them in `errors` instead of
    /// panicking, and fail-fast rejections — [`SubmitError::LaneFailed`]
    /// from an open breaker, a dead shard — end the stream's round
    /// instead of aborting the run. Streams the plan never touches still
    /// verify bit-identically.
    pub chaos: Option<ChaosPlan>,
}

/// The full workload suite at differential-test scale — every family
/// represented, sizes small enough that a multi-round multi-tenant sweep
/// stays in seconds.
pub fn scaled_suite() -> Vec<Workload> {
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

/// What one stress run did and selected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StressOutcome {
    /// Client threads used.
    pub clients: usize,
    /// Tenants exercised.
    pub tenants: u32,
    /// Streams launched (`tenants x workloads`).
    pub streams: usize,
    /// Launches completed.
    pub launches: u64,
    /// Launches that failed (non-zero only under aggressive fault plans).
    pub errors: u64,
    /// `Busy` backpressure responses absorbed by the retry loop.
    pub busy: u64,
    /// The service's canonical selection digest (per-stream digests folded
    /// in `(tenant, signature)` order) — equal across client counts.
    pub digest: u64,
}

impl StressOutcome {
    /// The one-line end-of-run rendering (digest last, like the run
    /// summary, so scripts can `grep -o 'digest=.*'`).
    pub fn line(&self) -> String {
        format!(
            "service summary: clients={} tenants={} streams={} launches={} \
             errors={} busy={} digest={:016x}",
            self.clients,
            self.tenants,
            self.streams,
            self.launches,
            self.errors,
            self.busy,
            self.digest,
        )
    }
}

/// Runs the stress matrix: `clients` threads submit `ROUNDS` launches for
/// each of `tenants x workloads` streams through one shared service, with
/// bounded queues (so Busy backpressure actually fires under load). Lane
/// devices come from the harness's CPU factory; with a harness state file
/// the service persists its selection/quarantine cache there (checkpoint
/// plus `<path>.journal` write-ahead log, replayed on the next run — the
/// crash-recovery smoke in `scripts/verify.sh` SIGKILLs a run mid-journal
/// and diffs the recovered digest). Panics on a wrong output —
/// bit-identity is the point of the exercise.
pub fn run_service_stress(
    h: &Harness,
    clients: usize,
    tenants: u32,
    opts: StressOpts,
) -> StressOutcome {
    let clients = clients.max(1);
    let tenants = tenants.max(1);
    let chaos = opts.chaos.as_ref().is_some_and(|p| !p.is_empty());
    let suite = scaled_suite();
    let service = Arc::new(LaunchService::new(
        Arc::new(h.factory(Target::Cpu)),
        ServiceConfig {
            shards: 4,
            queue_capacity: 8,
            state_path: h.state_file.clone(),
            chaos: opts.chaos,
            // Chaos kills workers on purpose; restart them briskly so a
            // killed shard's queue drains within the run.
            restart_backoff: Duration::from_millis(1),
            ..ServiceConfig::default()
        },
    ));
    // Workload names collide across variant families (three "sgemm"s), and
    // the service registry is shared — key each workload by index.
    let signatures: Vec<String> = suite
        .iter()
        .enumerate()
        .map(|(i, w)| format!("{}#{i}", w.signature))
        .collect();
    for (sig, w) in signatures.iter().zip(&suite) {
        service.register(sig, w.variants(Target::Cpu).to_vec());
    }
    // Stream i belongs to client i % clients: per-stream submission order
    // stays well-defined no matter how threads interleave.
    let streams: Vec<(TenantId, usize)> = (0..tenants)
        .flat_map(|t| (0..suite.len()).map(move |wi| (TenantId(t), wi)))
        .collect();
    let busy = AtomicU64::new(0);
    let errors = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for client in 0..clients {
            let service = service.clone();
            let (suite, signatures, streams) = (&suite, &signatures, &streams);
            let (busy, errors) = (&busy, &errors);
            scope.spawn(move || {
                let launch_opts = LaunchOptions::new();
                let mut backoff = Backoff::for_client(client);
                for (tenant, wi) in streams
                    .iter()
                    .skip(client)
                    .step_by(clients)
                    .copied()
                    .collect::<Vec<_>>()
                {
                    let w = &suite[wi];
                    'rounds: for _round in 0..ROUNDS {
                        let mut args = w.fresh_args();
                        let (out, result) = loop {
                            match service.submit(
                                tenant,
                                &signatures[wi],
                                args,
                                w.total_units,
                                &launch_opts,
                            ) {
                                Ok(ticket) => break ticket.wait(),
                                Err(SubmitError::Busy { args: returned, .. }) => {
                                    busy.fetch_add(1, Ordering::Relaxed);
                                    args = returned;
                                    std::thread::sleep(backoff.next_delay());
                                }
                                Err(failed) if chaos => {
                                    // Fail-fast rejection (open breaker,
                                    // dead shard): typed, buffers back,
                                    // the stream skips this round.
                                    drop(failed.into_args());
                                    errors.fetch_add(1, Ordering::Relaxed);
                                    backoff.reset();
                                    continue 'rounds;
                                }
                                Err(rejected) => panic!("submission rejected: {rejected}"),
                            }
                        };
                        backoff.reset();
                        match result {
                            Ok(_) => w.verify(&out).unwrap_or_else(|e| {
                                panic!("{} output wrong for {tenant}: {e}", w.name)
                            }),
                            Err(_) => {
                                errors.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                }
            });
        }
    });
    StressOutcome {
        clients,
        tenants,
        streams: streams.len(),
        launches: service.launches(),
        errors: errors.into_inner(),
        busy: busy.into_inner(),
        digest: service.digest(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_sequence_is_pinned_for_fixed_seed() {
        // The exact delay sequence for seed 42 — any change to the RNG,
        // the window shape or the exponent schedule shows up here.
        let mut b = Backoff::new(42, Duration::from_micros(50), Duration::from_millis(2));
        let got: Vec<u64> = (0..8).map(|_| b.next_delay().as_nanos() as u64).collect();
        let want: [u64; 8] = [
            29_852, 78_132, 148_611, 254_221, 721_467, 1_265_617, 1_302_037, 1_795_365,
        ];
        assert_eq!(got, want, "backoff sequence drifted for seed 42");
        // Same seed, fresh instance: byte-identical replay.
        let mut b2 = Backoff::new(42, Duration::from_micros(50), Duration::from_millis(2));
        let again: Vec<u64> = (0..8).map(|_| b2.next_delay().as_nanos() as u64).collect();
        assert_eq!(got, again);
    }

    #[test]
    fn backoff_windows_grow_then_cap_and_reset_restores_them() {
        let base = Duration::from_micros(50);
        let cap = Duration::from_millis(2);
        let mut b = Backoff::new(7, base, cap);
        for attempt in 0..12u32 {
            let exp = base
                .saturating_mul(1u32 << attempt.min(Backoff::MAX_EXP))
                .min(cap);
            let d = b.next_delay();
            assert!(
                d >= exp - exp / 2 && d <= exp,
                "attempt {attempt}: {d:?} outside [{:?}, {exp:?}]",
                exp - exp / 2,
            );
            assert!(d <= cap, "attempt {attempt}: {d:?} exceeds the cap");
        }
        b.reset();
        // Post-reset the window is back to the base, whatever the jitter.
        assert!(b.next_delay() <= base);
    }

    #[test]
    fn digest_is_client_count_invariant() {
        // The conformance suite covers the full matrix; this keeps the
        // driver itself honest at a reduced tenant count.
        let h = Harness::default();
        let serial = run_service_stress(&h, 1, 1, StressOpts::default());
        let parallel = run_service_stress(&h, 4, 1, StressOpts::default());
        assert_eq!(serial.digest, parallel.digest);
        assert_eq!(serial.launches, parallel.launches);
        assert_eq!(serial.errors, 0);
    }
}
