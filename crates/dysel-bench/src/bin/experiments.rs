//! Regenerates the paper's tables and figures.
//!
//! ```text
//! experiments                # run everything, in paper order
//! experiments fig8 fig9     # run specific experiments
//! experiments --list        # list experiment ids
//! ```
//!
//! `--fault-plan SPEC` installs a deterministic fault-injection plan on
//! every DySel device the experiments build (never on the oracle side:
//! the oracle is the best pure variant on a healthy machine), e.g.
//! `--fault-plan "seed=7;lc-xyzba@0+1=error;lc-ikj=hang*64?0.5" fig8`
//! (cutcp's `lc-xyzba` fails its first launch once, sgemm's `lc-ikj`
//! hangs 64x half the time), to watch the runtime's graceful-degradation
//! machinery (retries, quarantine, repair) under the full workload suite.
//! Rule names match variant names exactly. Off by default.
//!
//! `--chaos-plan SPEC` (service stress only; requires `--clients N`)
//! installs a deterministic *service-layer* chaos schedule, e.g.
//! `--chaos-plan "seed=1;sgemm#0@0+1=panic;journal@5=kill"`: injected
//! lane panics, worker kills and journal kill-points exercise lane
//! supervision, circuit breakers and crash recovery. Typed per-stream
//! failures are counted in `errors=` instead of aborting the run.
//!
//! `--state-file PATH` persists per-signature selections (and quarantine)
//! across invocations: the first run micro-profiles and writes PATH, a
//! re-run warm-starts from it and performs zero profiling launches. The
//! end-of-run summary line reports `profiled=` and a selections digest so
//! the two runs are easy to compare. A corrupt or version-skewed file is
//! ignored with a warning (cold start), never a crash.
//!
//! `--trace-out PATH` records every DySel launch's lifecycle events
//! (profile, eager chunk, retry, quarantine, selection, batch, ...) and
//! writes them as Chrome `trace_event` JSON — open the file at
//! `chrome://tracing` or <https://ui.perfetto.dev>. `--metrics-out PATH`
//! writes the end-of-run counter/histogram snapshot as plain text. Both
//! exports are deterministic: bit-identical on every run.
//! Without these flags nothing is observed and the runs are bit-identical
//! to builds without the observability layer.
//!
//! `--prune LEVEL` (`off` | `audit` | `on`) sets the runtime's static
//! dominance-pruning level for every launch (see `dysel_analysis`).
//! `audit` still profiles everything but flags would-be prunes and records
//! a `DV502` disagreement whenever a flagged variant wins; `on` actually
//! excludes dominated variants from micro-profiling. The summary line
//! reports `pruned=` / `prune-disagreements=` so `scripts/verify.sh` can
//! assert the digest is prune-invariant while profiled launches shrink.
//!
//! `--features-out PATH` writes the static feature vector of every suite
//! variant (both targets) as JSON Lines — one record per variant with the
//! raw `VariantFeatures` integers plus the canonical encoding in hex.
//! Given without experiment ids and without `--clients`, it writes the
//! file and exits without running anything. The file is written atomically
//! and durably (tmp sibling, fsync, rename, directory fsync), so a crashed
//! export never leaves a truncated corpus for the trainer to trip over.
//!
//! `--predict LEVEL` (`off` | `shadow` | `on`) sets the runtime's
//! trained-prediction level and `--predict-model PATH` loads the model the
//! `dysel-train` binary wrote. `shadow` ranks the candidates on every
//! launch and scores the verdict against the profiled selection
//! (`predict-hits=` / `predict-misses=` in the summary line) without
//! changing any decision — the selections digest is bit-identical to
//! `off`. `on` additionally skips micro-profiling when the model's
//! confidence margin clears the runtime's threshold, falling back to
//! drift-watched re-profiling when observed per-unit costs leave the band
//! (`drift-reprofiles=`).
//!
//! `--clients N [--tenants M]` runs the multi-tenant service stress
//! driver instead of the figures: `N` client threads submit the scaled
//! workload suite for `M` tenants (default 2) through one shared
//! `LaunchService` with bounded queues, verifying every output. The
//! printed `service summary:` line ends in a canonical selection digest
//! that is identical for every `N` — the concurrency smoke in
//! `scripts/verify.sh` diffs `--clients 8` against `--clients 1`.
//!
//! Every value flag takes `--flag V` or `--flag=V`; a missing or malformed
//! value exits with status 2. The flags build one `Harness` value that
//! every experiment and the stress driver read. An experiment whose DySel
//! launch fails or whose output is wrong prints the error and exits with
//! status 1.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use dysel_bench::{experiments, Harness, StressOpts};
use dysel_core::{ChaosPlan, FaultPlan, PredictLevel, PruneLevel};
use dysel_obs::EventSink;

/// Prints `msg` and exits with the usage status.
fn usage(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// Every flag that takes a value, with what a missing value needs.
const VALUE_FLAGS: [(&str, &str); 11] = [
    ("--clients", "a positive number"),
    ("--tenants", "a positive number"),
    ("--state-file", "a path"),
    ("--trace-out", "a path"),
    ("--metrics-out", "a path"),
    ("--prune", "a level (off|audit|on)"),
    ("--predict", "a level (off|shadow|on)"),
    ("--predict-model", "a path"),
    ("--features-out", "a path"),
    ("--fault-plan", "a plan spec"),
    ("--chaos-plan", "a plan spec"),
];

/// Splits `--flag V` / `--flag=V` for the value flags: `None` when `arg`
/// is not one, else the flag, what its value needs and the value (exit 2
/// if the value is missing).
fn value_flag(
    arg: &str,
    rest: &mut impl Iterator<Item = String>,
) -> Option<(&'static str, &'static str, String)> {
    let (name, inline) = match arg.split_once('=') {
        Some((name, v)) => (name, Some(v.to_owned())),
        None => (arg, None),
    };
    let &(flag, needs) = VALUE_FLAGS.iter().find(|(f, _)| *f == name)?;
    let value = inline
        .or_else(|| rest.next())
        .unwrap_or_else(|| usage(&format!("{flag} needs {needs}")));
    Some((flag, needs, value))
}

fn parse_prune(spec: &str) -> PruneLevel {
    match spec {
        "off" => PruneLevel::Off,
        "audit" => PruneLevel::Audit,
        "on" => PruneLevel::On,
        other => usage(&format!("--prune needs off|audit|on, got {other:?}")),
    }
}

fn parse_predict(spec: &str) -> PredictLevel {
    match spec {
        "off" => PredictLevel::Off,
        "shadow" => PredictLevel::Shadow,
        "on" => PredictLevel::On,
        other => usage(&format!("--predict needs off|shadow|on, got {other:?}")),
    }
}

fn main() {
    let mut h = Harness::default();
    let mut ids: Vec<String> = Vec::new();
    let mut list = false;
    let mut trace_out: Option<PathBuf> = None;
    let mut metrics_out: Option<PathBuf> = None;
    let mut features_out: Option<PathBuf> = None;
    let mut clients: Option<usize> = None;
    let mut tenants: u32 = 2;
    let mut chaos: Option<ChaosPlan> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--list" {
            list = true;
            continue;
        }
        let Some((flag, needs, v)) = value_flag(&a, &mut args) else {
            ids.push(a);
            continue;
        };
        let count = || {
            v.parse::<usize>()
                .unwrap_or_else(|_| usage(&format!("{flag} needs {needs}")))
        };
        match flag {
            "--clients" => clients = Some(count()),
            "--tenants" => tenants = count() as u32,
            "--state-file" => h.state_file = Some(PathBuf::from(v)),
            "--trace-out" => trace_out = Some(PathBuf::from(v)),
            "--metrics-out" => metrics_out = Some(PathBuf::from(v)),
            "--features-out" => features_out = Some(PathBuf::from(v)),
            "--prune" => h.prune = parse_prune(&v),
            "--predict" => h.predict = parse_predict(&v),
            "--predict-model" => match dysel_predict::load(std::path::Path::new(&v)) {
                Ok(model) => h.predict_model = Some(Arc::new(model)),
                Err(e) => usage(&format!("--predict-model could not load {v:?}: {e}")),
            },
            "--fault-plan" => match v.parse::<FaultPlan>() {
                Ok(plan) => h.fault_plan = Some(plan),
                Err(e) => usage(&format!(
                    "--fault-plan could not parse {v:?}: {e}\n\
                     expected: seed=N;NAME[@FROM[+COUNT]]=KIND[*FACTOR][?PROB];..."
                )),
            },
            "--chaos-plan" => match v.parse::<ChaosPlan>() {
                Ok(plan) => chaos = Some(plan),
                Err(e) => usage(&format!(
                    "--chaos-plan could not parse {v:?}: {e}\n\
                     expected: seed=N;SIG[@FROM[+COUNT]]=panic|kill[?PROB];journal@N=kill;..."
                )),
            },
            _ => unreachable!("{flag} is in VALUE_FLAGS"),
        }
    }
    if list {
        for (id, _) in experiments::all() {
            println!("{id}");
        }
        return;
    }
    if let Some(path) = &features_out {
        let mut buf = Vec::new();
        let records = dysel_bench::write_features_jsonl(&mut buf)
            .unwrap_or_else(|e| usage(&format!("--features-out failed to build records: {e}")));
        // A crash mid-write must never leave a truncated corpus behind —
        // the trainer treats torn records as hard errors, not noise.
        if let Err((_, e)) = dysel_kernel::write_atomic(path, &buf) {
            usage(&format!(
                "--features-out could not write {}: {e}",
                path.display()
            ));
        }
        println!("features: {} records -> {}", records, path.display());
        if ids.is_empty() && clients.is_none() {
            return;
        }
    }
    if let Some(clients) = clients {
        println!("DySel service stress (deterministic; seeds fixed)\n");
        if let Some(plan) = &chaos {
            println!("chaos: {plan}");
        }
        let t0 = Instant::now();
        let outcome = dysel_bench::run_service_stress(&h, clients, tenants, StressOpts { chaos });
        println!("{}", outcome.line());
        println!("total: {:.1}s", t0.elapsed().as_secs_f64());
        return;
    }
    if chaos.is_some() {
        usage("--chaos-plan targets the service stress driver; add --clients N");
    }
    let ids: Vec<String> = if ids.is_empty() || ids.iter().any(|a| a == "all") {
        experiments::all()
            .iter()
            .map(|(n, _)| (*n).to_owned())
            .collect()
    } else {
        ids
    };
    let sink = (trace_out.is_some() || metrics_out.is_some()).then(|| Arc::new(EventSink::new()));
    h.observer = sink.clone();
    println!("DySel experiment harness (deterministic; seeds fixed)\n");
    let t0 = Instant::now();
    for id in &ids {
        match experiments::by_id(id) {
            Some(f) => {
                let t = Instant::now();
                let fig = f(&h).unwrap_or_else(|e| {
                    eprintln!("{id} failed: {e}");
                    std::process::exit(1);
                });
                println!("{fig}   [{:.1}s]\n", t.elapsed().as_secs_f64());
            }
            None => eprintln!("unknown experiment {id:?}; try --list"),
        }
    }
    println!("{}", h.summary().line());
    if let Some(sink) = sink {
        if let Some(path) = trace_out {
            let events = sink.events();
            match std::fs::write(&path, dysel_obs::chrome_trace(&events)) {
                Ok(()) => println!("trace: {} events -> {}", events.len(), path.display()),
                Err(e) => eprintln!("warning: trace not written to {}: {e}", path.display()),
            }
        }
        if let Some(path) = metrics_out {
            match std::fs::write(&path, sink.metrics_snapshot().render()) {
                Ok(()) => println!("metrics -> {}", path.display()),
                Err(e) => eprintln!("warning: metrics not written to {}: {e}", path.display()),
            }
        }
    }
    println!("total: {:.1}s", t0.elapsed().as_secs_f64());
}
