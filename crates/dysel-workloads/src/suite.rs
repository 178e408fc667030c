//! The workload descriptor shared by examples, tests and the benchmark
//! harness.

use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};

use dysel_kernel::{Args, Buffer, Variant};

/// Which device family a variant set targets. Candidate sets differ per
/// device, exactly as in the paper (e.g. 4 `spmv-jds` variants on GPU but
/// 2 on CPU, §4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Target {
    /// CPU variant set.
    Cpu,
    /// GPU variant set.
    Gpu,
}

impl fmt::Display for Target {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Target::Cpu => "cpu",
            Target::Gpu => "gpu",
        })
    }
}

/// Verification callback: checks the output buffers against a host
/// reference, returning a description of the first mismatch.
pub type VerifyFn = Arc<dyn Fn(&Args) -> Result<(), String> + Send + Sync>;

/// One benchmark workload: seeded input data, per-target variant sets, and
/// a host-reference verifier.
#[derive(Clone)]
pub struct Workload {
    /// Workload name (e.g. `"sgemm"`, `"spmv-csr(diagonal)"`).
    pub name: String,
    /// Kernel signature the variants register under.
    pub signature: String,
    /// Total workload units (base work-groups).
    pub total_units: u64,
    /// Whether the application launches this kernel iteratively (profile
    /// only the first iteration, §3.1).
    pub iterative: bool,
    /// Pristine input/output buffers (copy-on-write; cloning is cheap).
    args: Args,
    variants_cpu: Vec<Variant>,
    variants_gpu: Vec<Variant>,
    verify: VerifyFn,
}

impl Workload {
    /// Assembles a workload description.
    pub fn new(
        name: impl Into<String>,
        args: Args,
        total_units: u64,
        variants_cpu: Vec<Variant>,
        variants_gpu: Vec<Variant>,
        verify: VerifyFn,
    ) -> Self {
        let name = name.into();
        Workload {
            signature: name.clone(),
            name,
            total_units,
            iterative: false,
            args,
            variants_cpu,
            variants_gpu,
            verify,
        }
    }

    /// Builder-style: mark the workload as iterative.
    pub fn iterative(mut self) -> Self {
        self.iterative = true;
        self
    }

    /// A fresh copy of the pristine argument set (copy-on-write: inputs are
    /// shared, outputs duplicate on first write).
    pub fn fresh_args(&self) -> Args {
        self.args.clone()
    }

    /// The candidate variants for a target device family.
    pub fn variants(&self, target: Target) -> &[Variant] {
        match target {
            Target::Cpu => &self.variants_cpu,
            Target::Gpu => &self.variants_gpu,
        }
    }

    /// Verifies output buffers against the host reference.
    ///
    /// Every workload in this crate computes its reference once per input
    /// payload and compares the outputs with it element by element on
    /// every call. The memo lives in the verifier, so clones of a
    /// workload share it. Its key is a clone of each input buffer the
    /// reference reads. A clone shares the buffer's payload, so while the
    /// key holds it:
    /// - the payload stays allocated, and its address cannot be reused
    ///   for another payload;
    /// - every write through a buffer that shares it copies the payload
    ///   first (copy-on-write).
    ///
    /// A call whose inputs all satisfy [`Buffer::shares_payload_with`]
    /// against the key therefore reads the very bytes the reference was
    /// computed from, and reuses it. Any other call, including one whose
    /// inputs were written since, recomputes the reference and replaces
    /// the key. The reference is built on the first call, not when the
    /// workload is assembled.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first mismatch.
    pub fn verify(&self, args: &Args) -> Result<(), String> {
        (self.verify)(args)
    }
}

impl fmt::Debug for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Workload")
            .field("name", &self.name)
            .field("total_units", &self.total_units)
            .field("iterative", &self.iterative)
            .field("cpu_variants", &self.variants_cpu.len())
            .field("gpu_variants", &self.variants_gpu.len())
            .finish()
    }
}

/// A verifier's host reference, computed once per input payload; the key
/// and why a hit is sound are documented on [`Workload::verify`].
///
/// Concurrent callers serialise on the build, so threads verifying the
/// same inputs compute it once.
pub(crate) struct RefMemo {
    inputs: Vec<usize>,
    slot: Mutex<Option<Memoised>>,
}

/// The key (clones of the input buffers) and the reference built from it.
type Memoised = (Vec<Buffer>, Arc<Vec<f32>>);

impl RefMemo {
    /// A memo keyed on the argument buffers at `inputs`.
    pub(crate) fn new(inputs: &[usize]) -> Self {
        RefMemo {
            inputs: inputs.to_vec(),
            slot: Mutex::new(None),
        }
    }

    /// The reference for `args`' inputs: the memoised one if every input
    /// shares its payload with the key, else `build()`'s.
    pub(crate) fn get(
        &self,
        args: &Args,
        build: impl FnOnce() -> Result<Vec<f32>, String>,
    ) -> Result<Arc<Vec<f32>>, String> {
        // A build that panicked left the slot as it was before it.
        let mut slot = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((key, want)) = slot.as_ref() {
            let hit = self
                .inputs
                .iter()
                .zip(key)
                .all(|(&i, k)| args.buffer(i).is_ok_and(|b| b.shares_payload_with(k)));
            if hit {
                return Ok(Arc::clone(want));
            }
        }
        let want = Arc::new(build()?);
        let key: Result<Vec<Buffer>, _> = self
            .inputs
            .iter()
            .map(|&i| args.buffer(i).cloned())
            .collect();
        *slot = key.ok().map(|key| (key, Arc::clone(&want)));
        Ok(want)
    }
}

/// Compares two `f32` slices with a relative-plus-absolute tolerance,
/// reporting the first offending index.
pub fn check_close(name: &str, got: &[f32], want: &[f32], tol: f32) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{name}: length mismatch ({} vs {})",
            got.len(),
            want.len()
        ));
    }
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let scale = 1.0f32.max(w.abs());
        if (g - w).abs() > tol * scale {
            return Err(format!("{name}[{i}]: got {g}, want {w}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dysel_kernel::Space;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A workload whose output must be twice its input, verified through
    /// a [`RefMemo`] that counts its reference builds.
    fn doubling(builds: &Arc<AtomicUsize>) -> Workload {
        let mut args = Args::new();
        args.push(Buffer::f32("out", vec![0.0; 64], Space::Global));
        args.push(Buffer::f32(
            "in",
            (0..64).map(|i| i as f32).collect(),
            Space::Global,
        ));
        let memo = RefMemo::new(&[1]);
        let builds = Arc::clone(builds);
        let verify: VerifyFn = Arc::new(move |args: &Args| {
            let want = memo.get(args, || {
                builds.fetch_add(1, Ordering::Relaxed);
                let x = args.f32(1).map_err(|e| e.to_string())?;
                Ok(x.iter().map(|v| 2.0 * v).collect())
            })?;
            check_close("out", args.f32(0).map_err(|e| e.to_string())?, &want, 0.0)
        });
        Workload::new("doubling", args, 1, vec![], vec![], verify)
    }

    /// Fresh arguments with the output the kernel would write.
    fn run(w: &Workload) -> Args {
        let mut args = w.fresh_args();
        let x = args.f32(1).unwrap().to_vec();
        for (o, v) in args.f32_mut(0).unwrap().iter_mut().zip(x) {
            *o = 2.0 * v;
        }
        args
    }

    #[test]
    fn a_memo_hit_still_rejects_a_tampered_output() {
        let builds = Arc::new(AtomicUsize::new(0));
        let w = doubling(&builds);
        assert_eq!(builds.load(Ordering::Relaxed), 0, "built lazily");
        w.verify(&run(&w)).unwrap();
        let mut tampered = run(&w);
        tampered.f32_mut(0).unwrap()[63] += 1.0;
        let err = w.verify(&tampered).unwrap_err();
        assert!(err.contains("out[63]"), "{err}");
        w.verify(&run(&w)).unwrap();
        assert_eq!(builds.load(Ordering::Relaxed), 1, "every later call hits");
    }

    #[test]
    fn writing_an_input_forces_a_recompute() {
        let builds = Arc::new(AtomicUsize::new(0));
        let w = doubling(&builds);
        let stale = run(&w);
        w.verify(&stale).unwrap();
        // Write the input of a fresh argument set: its payload is copied,
        // so it no longer matches the memo's key.
        let mut args = w.fresh_args();
        args.f32_mut(1).unwrap()[5] = 100.0;
        let mut fresh = args.clone();
        fresh.f32_mut(0).unwrap()[..].copy_from_slice(stale.f32(0).unwrap());
        fresh.f32_mut(0).unwrap()[5] = 200.0;
        w.verify(&fresh).unwrap();
        assert_eq!(builds.load(Ordering::Relaxed), 2);
        // The stale output against the written input: a hit on the new
        // key, and still a mismatch at the written element.
        let mut old_out = args;
        old_out
            .f32_mut(0)
            .unwrap()
            .copy_from_slice(stale.f32(0).unwrap());
        let err = w.verify(&old_out).unwrap_err();
        assert!(err.contains("out[5]"), "{err}");
        assert_eq!(builds.load(Ordering::Relaxed), 2);
        // Back to the pristine input: recomputed, and accepted.
        w.verify(&stale).unwrap();
        assert_eq!(builds.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn concurrent_verifies_agree() {
        let builds = Arc::new(AtomicUsize::new(0));
        let w = doubling(&builds);
        // Both threads start together, so the first calls race for the
        // build.
        let start = std::sync::Barrier::new(2);
        let verdicts: Vec<Vec<bool>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|t| {
                    let (w, start) = (&w, &start);
                    s.spawn(move || {
                        start.wait();
                        (0..200)
                            .map(|i| {
                                let mut args = run(w);
                                if (i + t) % 3 == 0 {
                                    args.f32_mut(0).unwrap()[i % 64] = -1.0;
                                }
                                w.verify(&args).is_ok()
                            })
                            .collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (t, got) in verdicts.iter().enumerate() {
            let want: Vec<bool> = (0..200).map(|i| (i + t) % 3 != 0).collect();
            assert_eq!(got, &want, "thread {t}");
        }
        assert_eq!(builds.load(Ordering::Relaxed), 1, "built once for both");
    }

    #[test]
    fn check_close_reports_index() {
        assert!(check_close("y", &[1.0, 2.0], &[1.0, 2.0], 1e-6).is_ok());
        let err = check_close("y", &[1.0, 9.0], &[1.0, 2.0], 1e-6).unwrap_err();
        assert!(err.contains("y[1]"), "{err}");
        assert!(check_close("y", &[1.0], &[1.0, 2.0], 1e-6).is_err());
    }

    #[test]
    fn fresh_args_are_isolated() {
        let mut args = Args::new();
        args.push(Buffer::f32("out", vec![0.0; 4], Space::Global));
        let w = Workload::new("w", args, 4, vec![], vec![], Arc::new(|_| Ok(())));
        let mut a1 = w.fresh_args();
        a1.f32_mut(0).unwrap()[0] = 5.0;
        let a2 = w.fresh_args();
        assert_eq!(a2.f32(0).unwrap()[0], 0.0);
    }
}
