//! Extensions beyond the paper's evaluation:
//!
//! * [`ext_mixed`] — mixed-version execution (the paper's stated future
//!   work, §4.1): per-region selection beats every pure variant on a
//!   heterogeneous input.
//! * [`ext_swap`] — swap-based profiling exercised end-to-end through
//!   side-effect analysis on an atomics workload (§2.3's applicability
//!   column that the four case studies never reach).
//! * [`ext_portability`] — the same kernel pools re-selected on different
//!   GPU generations: performance portability without code changes.

use dysel_baselines::exhaustive_sweep;
use dysel_core::{LaunchOptions, Runtime};
use dysel_device::{Device, GpuConfig, GpuDevice, GpuGeneration};
use dysel_kernel::Orchestration;
use dysel_workloads::{histogram, spmv_csr, spmv_ell, CsrMatrix, Target};

use crate::harness::{suite, CaseError, Harness};
use crate::{Bar, Figure};

/// A matrix whose first `random_rows` rows follow the SHOC random pattern
/// (the vector kernel's home turf) and whose remaining `diag_rows` rows
/// are diagonal (the scalar kernel's): no pure spmv variant is good
/// everywhere.
fn heterogeneous_matrix(random_rows: usize, diag_rows: usize, seed: u64) -> CsrMatrix {
    let rows = random_rows + diag_rows;
    // ~160 non-zeros per random row regardless of the total width (the
    // SHOC default row weight).
    let top = CsrMatrix::random(random_rows, rows, 160.0 / rows as f64, seed);
    let mut row_ptr = top.row_ptr.clone();
    let mut col_idx = top.col_idx.clone();
    let mut vals = top.vals.clone();
    for r in 0..diag_rows {
        col_idx.push((random_rows + r) as u32);
        vals.push(1.0 + (r % 5) as f32 * 0.5);
        row_ptr.push(col_idx.len() as u32);
    }
    CsrMatrix {
        rows,
        cols: rows,
        row_ptr,
        col_idx,
        vals,
    }
}

/// Mixed-version execution on a heterogeneous matrix (GPU): per-region
/// DySel picks the vector kernel for the random half and the scalar kernel
/// for the diagonal half, beating both pure versions *and* whole-workload
/// DySel.
pub fn ext_mixed(h: &Harness) -> Result<Figure, CaseError> {
    let mut fig = Figure::new(
        "ext_mixed",
        "extension: mixed-version execution (paper's future work)",
        "relative execution time over the best PURE variant (lower is better; <1 beats the paper's oracle)",
    );
    // 256 units of random rows followed by 8192 units of diagonal rows;
    // the row-pointer profile reveals the material boundary, which the
    // caller passes as an explicit region cut.
    let m = heterogeneous_matrix(8192, 262_144, suite::SEED);
    let cut = (8192 / spmv_csr::ROW_BLOCK) as u64;
    let w = spmv_csr::case4_workload("spmv-csr(heterogeneous)", &m, suite::SEED);
    let sweep = h.sweep(&w, Target::Gpu);
    let best_pure = sweep.best().1;

    // Whole-workload DySel (one selection).
    let mut rt = Runtime::new(h.device(Target::Gpu));
    rt.add_kernels(&w.signature, w.variants(Target::Gpu).to_vec());
    let mut args = w.fresh_args();
    let single = rt
        .launch(
            &w.signature,
            &mut args,
            w.total_units,
            &LaunchOptions::new(),
        )
        .expect("launch");
    w.verify(&args).expect("single-selection output");

    // Mixed-version DySel: one selection per half.
    let mut rt = Runtime::new(h.device(Target::Gpu));
    rt.add_kernels(&w.signature, w.variants(Target::Gpu).to_vec());
    let mut args = w.fresh_args();
    let mixed = rt
        .launch_mixed_at(
            &w.signature,
            &mut args,
            w.total_units,
            &[cut],
            &LaunchOptions::new(),
        )
        .expect("mixed launch");
    w.verify(&args).expect("mixed output");

    let mut bars = vec![Bar::new("BestPure", 1.0)];
    for (id, t) in &sweep.times {
        bars.push(Bar::new(
            w.variants(Target::Gpu)[id.0].name(),
            t.ratio_over(best_pure),
        ));
    }
    bars.push(Bar::new("DySel", single.total_time.ratio_over(best_pure)));
    bars.push(Bar::new(
        "DySel-mixed",
        mixed.total_time.ratio_over(best_pure),
    ));
    let sel = mixed.selections();
    fig.push_row(
        format!(
            "{} (regions: {} x {}, {} x {})",
            w.name,
            sel.iter().filter(|s| **s == sel[0]).count(),
            sel[0],
            sel.iter().filter(|s| **s != sel[0]).count(),
            sel.iter().find(|s| **s != sel[0]).copied().unwrap_or("-"),
        ),
        bars,
    );
    fig.note("the paper (§4.1): 'a mixed version ... could potentially outperform the oracle. ... we consider it as the future work'");
    Ok(fig)
}

/// Swap-based profiling end to end: histogram with global atomics. Side
/// effect analysis forces swap mode (and downgrades async to sync); the
/// winner is input-dependent.
pub fn ext_swap(h: &Harness) -> Result<Figure, CaseError> {
    let mut fig = Figure::new(
        "ext_swap",
        "extension: swap-based profiling on an atomics workload",
        "relative execution time over oracle (lower is better)",
    );
    for dist in [
        histogram::Distribution::Uniform,
        histogram::Distribution::Skewed,
    ] {
        let w = histogram::workload(512 * histogram::ELEMS_PER_UNIT, dist, suite::SEED);
        let case = h.run_case(&w, Target::Gpu)?;
        let report = &case.dysel.sync_report;
        // The forced mode is observable only when profiling actually ran
        // (a trained-prediction skip runs the winner without profiling).
        if report.profiled() {
            assert_eq!(
                report.mode,
                Some(dysel_kernel::ProfilingMode::SwapPartial),
                "side effect analysis must force swap mode"
            );
        }
        let mut bars = vec![
            Bar::new("Oracle", 1.0),
            Bar::new("DySel(swap)", case.rel(case.dysel.sync)),
        ];
        for name in case.names.clone() {
            bars.push(Bar::new(name.clone(), case.rel_variant(&name)));
        }
        bars.push(Bar::new(
            "asyncOff",
            f64::from(u8::from(report.orchestration == Orchestration::Sync)),
        ));
        fig.push_row(format!("{} (pick: {})", w.name, report.selected_name), bars);
    }
    fig.note("swap mode keeps K private output copies and cannot run asynchronously (Table 1); correctness under overlapping atomic outputs is verified against the host reference");
    Ok(fig)
}

/// Re-selection across GPU generations: the same kernel pools, profiled on
/// Fermi/Kepler/Maxwell parameter sets, can pick different winners.
pub fn ext_portability(_: &Harness) -> Result<Figure, CaseError> {
    let mut fig = Figure::new(
        "ext_portability",
        "extension: selection portability across GPU generations",
        "DySel's pick and its relative time over that generation's oracle",
    );
    for generation in GpuGeneration::all() {
        let device = move |threads| {
            Box::new(GpuDevice::new(GpuConfig {
                threads,
                ..GpuConfig::for_generation(generation)
            })) as Box<dyn Device>
        };
        for w in [suite::spmv_jds_std(), suite::sgemm_mixed_gpu()] {
            // The sweep already runs variants in parallel: one worker each.
            let sweep = exhaustive_sweep(&w, Target::Gpu, || device(1));
            let mut rt = Runtime::new(device(0));
            rt.add_kernels(&w.signature, w.variants(Target::Gpu).to_vec());
            let mut args = w.fresh_args();
            let report = rt
                .launch(
                    &w.signature,
                    &mut args,
                    w.total_units,
                    &LaunchOptions::new(),
                )
                .expect("launch");
            w.verify(&args).expect("output");
            fig.push_row(
                format!("{generation}/{} (pick: {})", w.name, report.selected_name),
                vec![
                    Bar::new("DySel", report.total_time.ratio_over(sweep.best().1)),
                    Bar::new("Worst", sweep.spread()),
                ],
            );
        }
    }
    fig.note("no code changes: the same pools re-profile on each device (the paper's performance-portability motivation, §1)");
    Ok(fig)
}

/// Input-format selection (§2.3's "input format transformation" with
/// duplicated inputs): CSR-scalar vs CSR-vector vs ELL over the same
/// matrices. ELL's padding makes the winner input-dependent: great for
/// uniform row lengths, catastrophic when one long row pads everything.
pub fn ext_formats(h: &Harness) -> Result<Figure, CaseError> {
    let mut fig = Figure::new(
        "ext_formats",
        "extension: input-format selection (CSR vs ELL)",
        "relative execution time over oracle (lower is better)",
    );
    // A banded matrix: every row has exactly 8 non-zeros -> zero padding,
    // ELL's best case. The random matrix's max row pads ~1.5-2x. A skewed
    // matrix (one huge row) pads catastrophically.
    let banded = {
        let n = 16384usize;
        let mut row_ptr = vec![0u32];
        let mut col_idx = Vec::new();
        let mut vals = Vec::new();
        for r in 0..n {
            for k in 0..8 {
                col_idx.push(((r + k * 7) % n) as u32);
                vals.push(0.5 + (k as f32) * 0.1);
            }
            row_ptr.push(col_idx.len() as u32);
        }
        CsrMatrix {
            rows: n,
            cols: n,
            row_ptr,
            col_idx,
            vals,
        }
    };
    let skewed = {
        let mut m = CsrMatrix::random(16384, 16384, 0.002, suite::SEED);
        // One pathological dense row forces ELL to pad every row to 4096.
        let insert: Vec<u32> = (0..4096u32).collect();
        let mut row_ptr = vec![0u32];
        let mut col_idx = Vec::new();
        let mut vals = Vec::new();
        for r in 0..m.rows {
            if r == 0 {
                col_idx.extend(&insert);
                vals.extend(std::iter::repeat_n(0.01, insert.len()));
            } else {
                let (a, b) = (m.row_ptr[r] as usize, m.row_ptr[r + 1] as usize);
                col_idx.extend(&m.col_idx[a..b]);
                vals.extend(&m.vals[a..b]);
            }
            row_ptr.push(col_idx.len() as u32);
        }
        m.row_ptr = row_ptr;
        m.col_idx = col_idx;
        m.vals = vals;
        m
    };
    for (label, m) in [("banded (8/row)", banded), ("skewed (1 dense row)", skewed)] {
        let w = spmv_ell::workload("spmv-formats", &m, suite::SEED);
        let case = h.run_case(&w, Target::Gpu)?;
        let mut bars = vec![
            Bar::new("Oracle", 1.0),
            Bar::new("DySel", case.rel(case.dysel.sync)),
        ];
        for name in case.names.clone() {
            bars.push(Bar::new(name.clone(), case.rel_variant(&name)));
        }
        fig.push_row(
            format!("{label} (pick: {})", case.dysel.sync_report.selected_name),
            bars,
        );
    }
    fig.note("the ELL variant reads duplicated (format-transformed) inputs, the mechanism §2.3 describes for input format transformation");
    Ok(fig)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_selection_flips_with_the_input() {
        let fig = ext_formats(&Harness::default()).unwrap();
        assert!(
            fig.rows[0].workload.contains("pick: ell"),
            "{}",
            fig.rows[0].workload
        );
        assert!(
            !fig.rows[1].workload.contains("pick: ell"),
            "{}",
            fig.rows[1].workload
        );
    }

    #[test]
    fn heterogeneous_matrix_is_well_formed() {
        let m = heterogeneous_matrix(256, 256, 3);
        assert_eq!(m.rows, 512);
        assert_eq!(m.row_ptr.len(), 513);
        // Bottom half is diagonal.
        for r in 256..512 {
            assert_eq!(m.row_len(r), 1);
            assert_eq!(m.col_idx[m.row_ptr[r] as usize], r as u32);
        }
        let x = vec![1.0f32; 512];
        let y = m.spmv_ref(&x);
        assert!(y[300] > 0.0);
    }

    #[test]
    fn mixed_execution_beats_pure_on_heterogeneous_input() {
        let fig = ext_mixed(&Harness::default()).unwrap();
        let bars = &fig.rows[0].bars;
        let value = |label: &str| {
            bars.iter()
                .find(|b| b.label == label)
                .map(|b| b.value)
                .expect("bar")
        };
        assert!(
            value("DySel-mixed") < 0.95,
            "mixed should beat the best pure variant: {bars:?}"
        );
        assert!(value("DySel-mixed") < value("DySel"));
    }
}
