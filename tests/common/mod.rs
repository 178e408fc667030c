//! Fixtures shared by the differential test families (`pricing_diff`,
//! `live_pricing`): the scaled-down workload suite and the default devices.

use dysel::device::{CpuConfig, CpuDevice, Device, GpuConfig, GpuDevice};
use dysel::workloads::{
    cutcp, histogram, kmeans, particlefilter, sgemm, spmv_csr, spmv_ell, spmv_jds, stencil,
    CsrMatrix, JdsMatrix, Target, Workload,
};

const SEED: u64 = 7;

/// The full workload suite, every family represented: sgemm (schedules,
/// mixed, vector widths), spmv over CSR/ELL/JDS formats (Case I schedules,
/// the Case IV input-sensitive grid on random and diagonal inputs, Case II
/// placements, vector widths), stencil, cutcp (full schedule set and the
/// Case III pair), kmeans, particlefilter and histogram (uniform and
/// skewed). 18 workloads.
pub fn suite() -> Vec<Workload> {
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

/// A default device for `target` with `threads` functional workers.
pub fn device(target: Target, threads: usize) -> Box<dyn Device> {
    match target {
        Target::Cpu => Box::new(CpuDevice::new(CpuConfig {
            threads,
            ..CpuConfig::default()
        })),
        Target::Gpu => Box::new(GpuDevice::new(GpuConfig {
            threads,
            ..GpuConfig::kepler_k20c()
        })),
    }
}
