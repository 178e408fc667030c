//! Metric assembly: end-to-end metrics from bare passes, per-layer metrics
//! from the spans and probes of traced passes, and the result line.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::path::PathBuf;

use crate::trace::{self, Probe, CPU, GPU, SWEEP};
use crate::{Cli, PassResult, Run, Tally, SETUPS};

/// Seed the pinned digests are recorded for.
pub const DEFAULT_SEED: u64 = 1;

/// Pinned pass digests, `"<workload>@<seed>": "<hex>"`.
const PINNED: &str = include_str!("../pinned.json");

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn m(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Directory for run outputs (span dumps, service state), inside the
/// benchmark's own directory.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn proc_kib(path: &str, key: &str) -> f64 {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix(key)
                    .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
            })
        })
        .unwrap_or(0.0)
}

pub fn mem_total_mib() -> f64 {
    proc_kib("/proc/meminfo", "MemTotal:") / 1024.0
}

fn peak_rss_mib() -> f64 {
    proc_kib("/proc/self/status", "VmHWM:") / 1024.0
}

/// Linear-interpolated percentile (`q` in 0..=100); 0 for no samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q / 100.0 * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Checks the first pass against the digest pinned for this workload and
/// seed; seeds without a pin pass.
pub fn check_pinned(cli: &Cli, first: PassResult) -> bool {
    let key = format!("\"{}@{}\": \"", cli.workload, cli.seed);
    let Some(at) = PINNED.find(&key) else {
        return true;
    };
    let rest = &PINNED[at + key.len()..];
    let pin = &rest[..rest.find('"').unwrap_or(rest.len())];
    let got = format!("{:016x}", first.digest);
    if pin != got {
        eprintln!(
            "perfbench: digest {got} differs from the pinned {pin} for {}@{}",
            cli.workload, cli.seed
        );
    }
    pin == got
}

pub fn end_to_end(run: &Run, tally: &Tally, rel_oracle: f64) -> Vec<Metric> {
    eprintln!(
        "perfbench: op samples={} (p90 has {} beyond it), profiled samples={}; wall: op_ms p50={:.3} p90={:.3}, pass_s median={:.4}",
        tally.op_cpu_ms.len(),
        tally.op_cpu_ms.len() / 10,
        tally.profiled_cpu_ms.len(),
        percentile(&tally.op_ms, 50.0),
        percentile(&tally.op_ms, 90.0),
        median(&run.bare_pass_s),
    );
    eprintln!(
        "perfbench: median op CPU ms by position in the pass {:?}",
        tally
            .slot_cpu_ms
            .iter()
            .map(|v| (median(v) * 10.0).round() / 10.0)
            .collect::<Vec<_>>()
    );
    // One main thread runs a pass's ops back to back, so a pass costs
    // the sum of its ops: sum each op's median over the passes, which a
    // slow phase of the host moves less than the pass median does.
    let pass_cpu_s = if run.concurrent {
        median(&run.bare_pass_cpu_s)
    } else {
        tally.slot_cpu_ms.iter().map(|v| median(v)).sum::<f64>() / 1e3
    };
    vec![
        m(
            "ops_per_cpu_s",
            run.ops_per_pass as f64 / pass_cpu_s,
            "ops/cpu-s",
        ),
        m("op_cpu_ms_p50", percentile(&tally.op_cpu_ms, 50.0), "ms"),
        m("op_cpu_ms_p90", percentile(&tally.op_cpu_ms, 90.0), "ms"),
        m(
            "profiled_op_cpu_ms_p50",
            median(&tally.profiled_cpu_ms),
            "ms",
        ),
        m("setup_s", median(&run.setup_s), "s"),
        m("peak_rss_mb", peak_rss_mib(), "MiB"),
        m("rel_oracle_geomean", rel_oracle, "ratio"),
        m("virtual_mcycles", run.first.cycles as f64 / 1e6, "Mcycles"),
    ]
}

/// Span totals of one name.
#[derive(Default, Clone, Copy)]
struct Agg {
    /// Closed before the measurement loop (set-up).
    setup_ns: u64,
    /// Duration and self time inside the loop.
    total_ns: u64,
    self_ns: u64,
    calls: u64,
}

pub fn per_layer(run: &Run, tally: &Tally, extra: &[(&'static str, f64)]) -> Vec<Metric> {
    let spans = trace::spans();
    let mut children: HashMap<u64, u64> = HashMap::new();
    for s in &spans {
        if s.parent != 0 {
            *children.entry(s.parent).or_default() += s.end_ns - s.start_ns;
        }
    }
    let mut by_name: BTreeMap<&str, Agg> = BTreeMap::new();
    let (mut op_wall, mut named_self) = (0u64, 0u64);
    for s in &spans {
        let dur = s.end_ns - s.start_ns;
        let own = dur.saturating_sub(children.get(&s.id).copied().unwrap_or(0));
        let agg = by_name.entry(s.name).or_default();
        if s.end_ns < run.loop_start_ns {
            agg.setup_ns += dur;
            continue;
        }
        agg.total_ns += dur;
        agg.self_ns += own;
        agg.calls += 1;
        if s.name == "op" {
            op_wall += dur;
        } else if s.op != 0 {
            named_self += own;
        }
    }
    let get = |name: &str| by_name.get(name).copied().unwrap_or_default();
    // Traced passes, the untimed warm-up included.
    let n = (run.traced_pass_s.len() + 1) as f64;
    let s = |ns: u64| ns as f64 * 1e-9 / n;
    let c = |count: u64| count as f64 / n;
    let per_setup = |ns: u64| ns as f64 * 1e-9 / SETUPS as f64;
    let extra = |name: &str| {
        extra
            .iter()
            .find(|(k, _)| *k == name)
            .map_or(0.0, |(_, v)| *v)
    };

    let sweep = get("baselines.sweep");
    let launch = get("core.launch");
    let register = get("core.register");
    let submit = get("core.service.submit");
    let is_service = submit.calls > 0;
    let lane_device = if is_service {
        get(CPU.span).total_ns
    } else {
        0
    };
    let service_op_wall = if is_service { op_wall } else { 0 };
    let submits = tally.busy + tally.accepted;

    let mut out = vec![
        m(
            "workloads.build_s",
            per_setup(get("workloads.build").setup_ns),
            "s",
        ),
        m(
            "workloads.verify_s",
            s(get("workloads.verify").self_ns),
            "s",
        ),
        m(
            "workloads.verify_calls",
            c(get("workloads.verify").calls),
            "count",
        ),
        m("baselines.sweep_s", s(sweep.total_ns), "s"),
        m("baselines.sweep_calls", c(sweep.calls), "count"),
        m(
            "baselines.pure_runs",
            c(Probe::get(&SWEEP.launches)),
            "count",
        ),
        m(
            "baselines.sweep_threads",
            if sweep.calls > 0 {
                crate::cases::SWEEP_THREADS as f64
            } else {
                0.0
            },
            "count",
        ),
        m(
            "baselines.sweep_device_thread_s",
            s(get(SWEEP.span).total_ns),
            "s",
        ),
        m(
            "baselines.sweep_functional_thread_s",
            s(Probe::get(&SWEEP.kernel_ns)),
            "s",
        ),
        m(
            "core.register_s",
            per_setup(register.setup_ns) + s(register.total_ns),
            "s",
        ),
        m("core.launch_s", s(launch.total_ns), "s"),
        m("core.launches", c(launch.calls), "count"),
        m("core.self_s", s(launch.self_ns), "s"),
        m("core.profiled_launches", c(tally.traced_profiled), "count"),
        m("core.profiled_variants", c(tally.traced_variants), "count"),
        m("core.warm_skips", c(tally.traced_warm_skips), "count"),
        m("core.pool.allocations", c(tally.pool.0), "count"),
        m("core.pool.reuses", c(tally.pool.1), "count"),
    ];
    for probe in [&CPU, &GPU] {
        let busy = get(probe.span).total_ns;
        let kernel = Probe::get(&probe.kernel_ns);
        let p = probe.span;
        out.extend([
            m(
                format!("{p}.launches"),
                c(Probe::get(&probe.launches)),
                "count",
            ),
            m(
                format!("{p}.batch_entries"),
                c(Probe::get(&probe.batch_entries)),
                "count",
            ),
            m(format!("{p}.busy_s"), s(busy), "s"),
            m(format!("{p}.functional_s"), s(kernel), "s"),
            m(format!("{p}.groups"), c(Probe::get(&probe.groups)), "count"),
            m(format!("{p}.self_s"), s(busy.saturating_sub(kernel)), "s"),
        ]);
    }
    out.extend([
        m("core.service.submit_s", s(submit.self_ns), "s"),
        m("core.service.busy", c(tally.busy), "count"),
        m(
            "core.service.busy_frac",
            if submits > 0 {
                tally.busy as f64 / submits as f64
            } else {
                0.0
            },
            "fraction",
        ),
        m(
            "core.service.wait_s",
            s(get("core.service.wait").total_ns),
            "s",
        ),
        m("core.service.lane_device_s", s(lane_device), "s"),
        m(
            "core.service.overhead_s",
            s(service_op_wall.saturating_sub(lane_device)),
            "s",
        ),
        m(
            "core.service.lanes",
            if is_service {
                Probe::get(&CPU.devices) as f64
            } else {
                0.0
            },
            "count",
        ),
        m("core.journal.bytes", extra("core.journal.bytes"), "bytes"),
        m(
            "core.service.save_state_s",
            extra("core.service.save_state_s"),
            "s",
        ),
        m(
            "core.service.recover_s",
            extra("core.service.recover_s"),
            "s",
        ),
        m(
            "core.service.recovery_replayed",
            extra("core.service.recovery_replayed"),
            "count",
        ),
        m(
            "trace.overhead",
            median(&run.traced_pass_s) / median(&run.bare_pass_s),
            "ratio",
        ),
        m(
            "trace.coverage",
            if op_wall > 0 {
                named_self as f64 / op_wall as f64
            } else {
                0.0
            },
            "fraction",
        ),
        m("trace.op_wall_s", s(op_wall), "s"),
    ]);
    out
}

/// Writes every recorded span as tab-separated
/// `id parent op name start_ns end_ns` lines.
pub fn write_spans(cli: &Cli) -> std::io::Result<()> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let mut text = String::from("id\tparent\top\tname\tstart_ns\tend_ns\n");
    for s in trace::spans() {
        let _ = writeln!(
            text,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
        );
    }
    std::fs::write(dir.join(format!("spans-{}.tsv", cli.workload)), text)
}

/// The single JSON result line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, metric) in metrics.iter().enumerate() {
        let value = if metric.value.is_finite() {
            metric.value
        } else {
            0.0
        };
        let _ = write!(
            out,
            "{}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            metric.name,
            metric.unit
        );
    }
    out.push_str("}}");
    out
}
