//! Exhaustive pure-variant sweeps: the oracle and worst baselines.
//!
//! The paper's "oracle" is "the single pure version that delivers the
//! shortest runtime" (§4.1); "worst" is its counterpart. Both require
//! running every variant over the whole workload on a fresh device.

use std::sync::atomic::{AtomicUsize, Ordering};

use dysel_device::{Cycles, Device, LaunchSpec, StreamId};
use dysel_kernel::{UnitRange, Variant, VariantId};
use dysel_workloads::{Target, Workload};

/// Result of an exhaustive sweep: the full time of each pure variant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepResult {
    /// `(variant, whole-workload time)`, in variant order.
    pub times: Vec<(VariantId, Cycles)>,
}

impl SweepResult {
    /// The oracle: fastest pure variant.
    pub fn best(&self) -> (VariantId, Cycles) {
        self.times
            .iter()
            .copied()
            .min_by_key(|&(_, t)| t)
            .expect("sweep over a non-empty variant set")
    }

    /// The worst pure variant.
    pub fn worst(&self) -> (VariantId, Cycles) {
        self.times
            .iter()
            .copied()
            .max_by_key(|&(_, t)| t)
            .expect("sweep over a non-empty variant set")
    }

    /// Time of a specific variant.
    pub fn time_of(&self, v: VariantId) -> Cycles {
        self.times[v.0].1
    }

    /// worst / best ratio (the performance spread the case studies report).
    pub fn spread(&self) -> f64 {
        self.worst().1.ratio_over(self.best().1)
    }
}

/// Runs one pure variant over the whole workload on a fresh device and
/// returns its completion time (verifying the output).
pub fn run_pure(w: &Workload, variant: &Variant, device: &mut dyn Device) -> Cycles {
    device.reset();
    let mut args = w.fresh_args();
    let rec = device.launch(LaunchSpec {
        kernel: variant.kernel.as_ref(),
        meta: &variant.meta,
        units: UnitRange::new(0, w.total_units),
        args: &mut args,
        stream: StreamId(0),
        not_before: Cycles::ZERO,
        measured: false,
        budget: None,
    });
    let rec = rec.unwrap_done();
    w.verify(&args)
        .unwrap_or_else(|e| panic!("pure run of {} is wrong: {e}", variant.name()));
    rec.end
}

/// Exhaustive sweep over a workload's variant set for a target. Every
/// variant runs on its own fresh device from `factory`, at most
/// [`std::thread::available_parallelism`] variants at a time on parallel
/// host threads — bounding the devices and buffers alive at once. Virtual
/// time is per-device, so neither the parallelism nor the width affects
/// the results.
pub fn exhaustive_sweep<F>(w: &Workload, target: Target, factory: F) -> SweepResult
where
    F: Fn() -> Box<dyn Device> + Sync,
{
    let variants = w.variants(target);
    let width = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(variants.len());
    let next = AtomicUsize::new(0);
    let mut times = vec![Cycles::ZERO; variants.len()];
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..width)
            .map(|_| {
                let (factory, next) = (&factory, &next);
                scope.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(v) = variants.get(i) else {
                            return done;
                        };
                        let mut device = factory();
                        done.push((i, run_pure(w, v, device.as_mut())));
                    }
                })
            })
            .collect();
        for worker in workers {
            for (i, t) in worker.join().expect("sweep thread panicked") {
                times[i] = t;
            }
        }
    });
    SweepResult {
        times: times
            .into_iter()
            .enumerate()
            .map(|(i, t)| (VariantId(i), t))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dysel_device::{CpuConfig, CpuDevice};
    use dysel_workloads::{spmv_csr, CsrMatrix};

    fn factory() -> Box<dyn Device> {
        Box::new(CpuDevice::new(CpuConfig::noiseless()))
    }

    #[test]
    fn sweep_times_every_variant_and_orders_them() {
        let m = CsrMatrix::random(512, 512, 0.05, 3);
        let w = spmv_csr::case4_workload("spmv", &m, 1);
        let r = exhaustive_sweep(&w, Target::Cpu, factory);
        assert_eq!(r.times.len(), 4);
        assert!(r.times.iter().all(|&(_, t)| t > Cycles::ZERO));
        assert!(r.spread() >= 1.0);
        assert!(r.best().1 <= r.worst().1);
    }

    #[test]
    fn rerun_on_one_device_equals_a_fresh_device() {
        // One noisy device runs every variant twice in turn; each run must
        // price exactly as that variant does on a device of its own, so
        // `run_pure`'s reset leaves nothing behind (caches included).
        let m = CsrMatrix::random(512, 512, 0.05, 3);
        let w = spmv_csr::case4_workload("spmv", &m, 1);
        let mut shared = CpuDevice::new(CpuConfig::default());
        for v in w.variants(Target::Cpu) {
            let fresh = run_pure(&w, v, &mut CpuDevice::new(CpuConfig::default()));
            assert_eq!(run_pure(&w, v, &mut shared), fresh, "{}", v.name());
            assert_eq!(run_pure(&w, v, &mut shared), fresh, "{}", v.name());
        }
    }

    #[test]
    fn sweep_is_deterministic() {
        let m = CsrMatrix::diagonal(512);
        let w = spmv_csr::case4_workload("spmv", &m, 1);
        let a = exhaustive_sweep(&w, Target::Cpu, factory);
        let b = exhaustive_sweep(&w, Target::Cpu, factory);
        assert_eq!(a, b);
    }
}
