//! The kernel pool: multiple implementations per kernel signature — and the
//! sandbox pool that recycles private profiling outputs across launches.
//!
//! # Locking policy
//!
//! This module deliberately holds **no** `Mutex`/`Condvar`/`RwLock`: both
//! pools are plain owned data, guarded by whoever embeds them (a pool
//! inside a [`crate::Runtime`] is single-owner; the service's shared
//! registry wraps its pool in the service's own lock). The uniform
//! poison-recovery policy for every lock in the crate lives in the
//! `service` module docs ("Locking policy").

use std::collections::HashMap;

use dysel_kernel::{AddrSpace, Args, KernelError, Variant, VariantId};
use dysel_obs::{names, EventSink};

use crate::DyselError;

/// The kernel pool deposited by the compiler / programmer (Fig. 4's
/// "Kernel Version Generator" output). Unlike a traditional runtime, DySel
/// accepts *multiple* implementations per kernel signature (§3.1).
///
/// # Example
///
/// ```
/// use dysel_core::KernelPool;
/// use dysel_kernel::{KernelIr, Variant, VariantMeta};
///
/// let mut pool = KernelPool::new();
/// let v = Variant::from_fn(
///     VariantMeta::new("naive", KernelIr::regular(vec![0])),
///     |_ctx, _args| {},
/// );
/// let id = pool.add_kernel("scale", v);
/// assert_eq!(id.0, 0);
/// assert_eq!(pool.variants("scale").unwrap().len(), 1);
/// ```
#[derive(Debug, Default)]
pub struct KernelPool {
    sets: HashMap<String, Vec<Variant>>,
}

impl KernelPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        KernelPool::default()
    }

    /// Registers one more implementation of `signature` — the paper's
    /// `DySelAddKernel(kernel_sig, implementation, wa_factor,
    /// sandbox_index)` (Fig. 6(a)). Returns the variant's id within the
    /// signature.
    pub fn add_kernel(&mut self, signature: impl Into<String>, variant: Variant) -> VariantId {
        let set = self.sets.entry(signature.into()).or_default();
        set.push(variant);
        VariantId(set.len() - 1)
    }

    /// Registers a whole candidate set at once.
    pub fn add_kernels(
        &mut self,
        signature: impl Into<String>,
        variants: impl IntoIterator<Item = Variant>,
    ) {
        let set = self.sets.entry(signature.into()).or_default();
        set.extend(variants);
    }

    /// The candidate variants for a signature.
    ///
    /// # Errors
    ///
    /// Fails if the signature is unknown or its pool is empty.
    pub fn variants(&self, signature: &str) -> Result<&[Variant], DyselError> {
        let set = self
            .sets
            .get(signature)
            .ok_or_else(|| DyselError::UnknownSignature(signature.to_owned()))?;
        if set.is_empty() {
            return Err(DyselError::EmptyPool(signature.to_owned()));
        }
        Ok(set)
    }

    /// Registered signatures (unordered).
    pub fn signatures(&self) -> impl Iterator<Item = &str> {
        self.sets.keys().map(String::as_str)
    }

    /// Whether a signature is registered with at least one variant — the
    /// [`crate::LaunchService`] admission check: submissions for unknown
    /// signatures are rejected at the door instead of failing on a shard.
    pub fn contains(&self, signature: &str) -> bool {
        self.sets.get(signature).is_some_and(|set| !set.is_empty())
    }

    /// Number of signatures.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// Whether no signatures are registered.
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }
}

/// A pool of reusable sandbox argument sets, keyed by `(signature,
/// variant)`.
///
/// Hybrid- and swap-based profiling give each candidate a private copy of
/// its output arguments. An iterative solver that re-profiles every
/// iteration would allocate those copies afresh each launch; instead the
/// runtime *leases* them from this pool and hands them back once profiling
/// completes. A leased set is refreshed ([`Args::refresh_from`]) so its
/// buffers re-share the live workload data copy-on-write — data-wise
/// indistinguishable from a fresh [`Args::sandbox_view`] — while keeping
/// their sandbox addresses (and backing allocations) stable across reuses.
#[derive(Debug, Default)]
pub(crate) struct SandboxPool {
    free: HashMap<(String, usize), Args>,
    allocations: u64,
    reuses: u64,
    /// With [`RuntimeConfig::private_addrs`] set, the runtime's private
    /// address space: incoming launch arguments are rebased through it and
    /// fresh sandbox copies allocate from it, so every address the device
    /// prices is a pure function of this runtime's own launch history.
    addrs: Option<AddrSpace>,
}

impl SandboxPool {
    /// A pool whose sandbox addresses come from a private address space
    /// (see [`crate::RuntimeConfig::private_addrs`]).
    pub(crate) fn with_private_addrs() -> Self {
        SandboxPool {
            addrs: Some(AddrSpace::new()),
            ..SandboxPool::default()
        }
    }

    /// Re-addresses `args` from the private address space; a no-op when
    /// the pool allocates from the calling thread's address region.
    pub(crate) fn rebase(&mut self, args: &mut Args) {
        if let Some(space) = &mut self.addrs {
            args.rebase_in(space);
        }
    }
    /// Leases a sandbox over `src`'s `sandbox_args` for variant `variant`
    /// of `signature`, reusing a previously returned set when possible.
    ///
    /// A pooled set is reused only when it matches `src` buffer-for-buffer
    /// — same arity, and the same element type and byte length per
    /// argument. Arity alone is not enough: relaunching a signature at a
    /// different problem size keeps the argument count but changes every
    /// buffer length, and refreshing a short sandbox from longer live data
    /// would hand the kernel stale bytes past the old length.
    ///
    /// # Errors
    ///
    /// Fails if an index in `sandbox_args` is out of range.
    pub(crate) fn lease(
        &mut self,
        signature: &str,
        variant: usize,
        src: &Args,
        sandbox_args: &[usize],
        obs: Option<&EventSink>,
    ) -> Result<Args, KernelError> {
        if let Some(mut sb) = self.free.remove(&(signature.to_owned(), variant)) {
            let compatible = sb.len() == src.len()
                && sb.iter().zip(src.iter()).all(|(a, b)| {
                    a.elem_type() == b.elem_type() && a.size_bytes() == b.size_bytes()
                });
            if compatible {
                let restored = restore_leased(&mut sb, src)?;
                self.reuses += 1;
                if let Some(sink) = obs {
                    sink.count(names::SANDBOX_HITS, 1);
                    sink.count(names::SANDBOX_RESTORE_BYTES, restored);
                }
                return Ok(sb);
            }
            // The signature came back with a different shape — changed
            // arity or resized/retyped buffers; drop the stale sandbox and
            // fall through to a fresh allocation.
        }
        self.allocations += 1;
        if let Some(sink) = obs {
            sink.count(names::SANDBOX_MISSES, 1);
        }
        match &mut self.addrs {
            Some(space) => src.sandbox_view_in(sandbox_args, space),
            None => src.sandbox_view(sandbox_args),
        }
    }

    /// Returns a leased sandbox for later reuse.
    pub(crate) fn give_back(&mut self, signature: &str, variant: usize, sandbox: Args) {
        self.free.insert((signature.to_owned(), variant), sandbox);
    }

    /// Fresh sandbox allocations performed so far.
    pub(crate) fn allocations(&self) -> u64 {
        self.allocations
    }

    /// Leases served by recycling a returned sandbox.
    pub(crate) fn reuses(&self) -> u64 {
        self.reuses
    }

    /// Drops all pooled sandboxes and zeroes the counters.
    pub(crate) fn clear(&mut self) {
        self.free.clear();
        self.allocations = 0;
        self.reuses = 0;
    }
}

/// Restores a recycled sandbox so it is data-wise indistinguishable from a
/// fresh [`Args::sandbox_view`] of `src`, copying as little as possible.
/// Returns the number of bytes copied in place.
///
/// Per buffer, one of two paths reaches bit-equality with `src`:
///
/// * The payload is exclusively ours (the previous lease's copy-on-write
///   left a private allocation): patch it **in place**, copying only the
///   dirty window where it differs from the live data. The window is
///   *derived* by comparing against `src` now — never replayed from ranges
///   recorded during the previous lease. The live buffer may have moved
///   under the pool between leases (iterative solvers update their outputs
///   every step), so lease-time ranges alone would leave stale bytes
///   everywhere the live data changed outside them; a derived window
///   cannot, by construction. The regression tests below pin this down.
/// * The payload is shared with somebody else (typically still re-pointed
///   at an older generation of the live data): re-share `src`'s payload
///   copy-on-write, which is free and trivially exact.
fn restore_leased(sb: &mut Args, src: &Args) -> Result<u64, KernelError> {
    let mut restored = 0u64;
    for i in 0..sb.len() {
        let s = src.buffer(i)?;
        let (shares, unique, same_shape) = {
            let d = sb.buffer(i)?;
            (
                d.shares_payload_with(s),
                !d.is_shared(),
                d.len() == s.len() && d.elem_type() == s.elem_type(),
            )
        };
        if shares {
            continue; // already the live payload, bit-for-bit
        }
        if unique && same_shape {
            if let Some(window) = sb.buffer(i)?.dirty_window(s)? {
                let copied = sb.buffer_mut(i)?.restore_window_from(s, window)?;
                restored += copied * s.elem_type().size_bytes();
            }
        } else {
            sb.buffer_mut(i)?.share_payload_from(s);
        }
    }
    Ok(restored)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dysel_kernel::{Buffer, KernelIr, Space, VariantMeta};

    fn dummy(name: &str) -> Variant {
        Variant::from_fn(
            VariantMeta::new(name, KernelIr::regular(vec![0])),
            |_, _| {},
        )
    }

    #[test]
    fn ids_are_dense_per_signature() {
        let mut p = KernelPool::new();
        assert_eq!(p.add_kernel("k", dummy("a")), VariantId(0));
        assert_eq!(p.add_kernel("k", dummy("b")), VariantId(1));
        assert_eq!(p.add_kernel("other", dummy("c")), VariantId(0));
        assert_eq!(p.variants("k").unwrap().len(), 2);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn unknown_signature_errors() {
        let p = KernelPool::new();
        assert!(matches!(
            p.variants("nope"),
            Err(DyselError::UnknownSignature(_))
        ));
    }

    #[test]
    fn bulk_registration() {
        let mut p = KernelPool::new();
        p.add_kernels("k", vec![dummy("a"), dummy("b"), dummy("c")]);
        assert_eq!(p.variants("k").unwrap().len(), 3);
        assert_eq!(p.variants("k").unwrap()[2].name(), "c");
    }

    fn src_args(v: f32) -> Args {
        let mut a = Args::new();
        a.push(Buffer::f32("in", vec![v; 8], Space::Global));
        a.push(Buffer::f32("out", vec![0.0; 8], Space::Global));
        a
    }

    #[test]
    fn sandbox_lease_isolates_and_reuse_recycles_the_allocation() {
        let mut pool = SandboxPool::default();
        let src = src_args(1.0);

        let mut sb = pool.lease("k", 0, &src, &[1], None).unwrap();
        assert_eq!((pool.allocations(), pool.reuses()), (1, 0));
        let sandbox_addr = sb.buffer(1).unwrap().addr();
        assert_ne!(sandbox_addr, src.buffer(1).unwrap().addr());
        // Writes through the lease never reach the live output.
        sb.f32_mut(1).unwrap()[3] = 9.0;
        assert_eq!(src.f32(1).unwrap()[3], 0.0);
        pool.give_back("k", 0, sb);

        // The second lease recycles the set: same sandbox address, and the
        // stale write has been refreshed away.
        let src2 = src_args(2.0);
        let sb2 = pool.lease("k", 0, &src2, &[1], None).unwrap();
        assert_eq!((pool.allocations(), pool.reuses()), (1, 1));
        assert_eq!(sb2.buffer(1).unwrap().addr(), sandbox_addr);
        assert_eq!(sb2.f32(1).unwrap()[3], 0.0);
        assert_eq!(sb2.f32(0).unwrap()[0], 2.0);
    }

    #[test]
    fn sandbox_leases_are_keyed_per_variant() {
        let mut pool = SandboxPool::default();
        let src = src_args(1.0);
        let a = pool.lease("k", 0, &src, &[1], None).unwrap();
        let b = pool.lease("k", 1, &src, &[1], None).unwrap();
        assert_ne!(a.buffer(1).unwrap().addr(), b.buffer(1).unwrap().addr());
        pool.give_back("k", 0, a);
        pool.give_back("k", 1, b);
        // Each key recycles its own set.
        pool.lease("k", 0, &src, &[1], None).unwrap();
        pool.lease("k", 1, &src, &[1], None).unwrap();
        assert_eq!((pool.allocations(), pool.reuses()), (2, 2));
    }

    #[test]
    fn arity_change_falls_back_to_a_fresh_allocation() {
        let mut pool = SandboxPool::default();
        let src = src_args(1.0);
        let sb = pool.lease("k", 0, &src, &[1], None).unwrap();
        pool.give_back("k", 0, sb);
        let mut bigger = src_args(1.0);
        bigger.push(Buffer::f32("extra", vec![0.0; 4], Space::Global));
        let sb2 = pool.lease("k", 0, &bigger, &[1], None).unwrap();
        assert_eq!(sb2.len(), 3);
        assert_eq!((pool.allocations(), pool.reuses()), (2, 0));
    }

    fn sized_args(n: usize, v: f32) -> Args {
        let mut a = Args::new();
        a.push(Buffer::f32("in", vec![v; n], Space::Global));
        a.push(Buffer::f32("out", vec![0.0; n], Space::Global));
        a
    }

    /// Regression: relaunching the same signature at a different problem
    /// size keeps the arity, so the old arity-only check happily refreshed
    /// a wrong-sized sandbox. Both directions must fall back to a fresh
    /// allocation sized like the live data.
    #[test]
    fn resized_buffers_invalidate_the_pooled_sandbox() {
        let mut pool = SandboxPool::default();

        let small = sized_args(8, 1.0);
        let sb = pool.lease("k", 0, &small, &[1], None).unwrap();
        pool.give_back("k", 0, sb);

        // Same signature, same arity, larger buffers: must reallocate.
        let large = sized_args(32, 2.0);
        let sb2 = pool.lease("k", 0, &large, &[1], None).unwrap();
        assert_eq!((pool.allocations(), pool.reuses()), (2, 0));
        assert_eq!(sb2.buffer(1).unwrap().len(), 32);
        assert_eq!(sb2.f32(0).unwrap(), vec![2.0; 32].as_slice());
        pool.give_back("k", 0, sb2);

        // And shrinking back: a 32-element sandbox must not serve an
        // 8-element launch either.
        let small2 = sized_args(8, 3.0);
        let sb3 = pool.lease("k", 0, &small2, &[1], None).unwrap();
        assert_eq!((pool.allocations(), pool.reuses()), (3, 0));
        assert_eq!(sb3.buffer(1).unwrap().len(), 8);
        pool.give_back("k", 0, sb3);

        // Matching shape still recycles.
        let small3 = sized_args(8, 4.0);
        pool.lease("k", 0, &small3, &[1], None).unwrap();
        assert_eq!((pool.allocations(), pool.reuses()), (3, 1));
    }

    /// Regression (dirty-range restore): a reused sandbox is patched in
    /// place from a *derived* diff window, so bytes the previous lease
    /// dirtied are healed even where the live data also moved between
    /// leases — and bytes where only the live data moved are healed too.
    /// Replaying the previous lease's write ranges alone would fail the
    /// second half of this test.
    #[test]
    fn reused_sandbox_restore_leaves_no_stale_bytes() {
        let mut pool = SandboxPool::default();
        let mut src = sized_args(16, 1.0);

        let mut sb = pool.lease("k", 0, &src, &[1], None).unwrap();
        let sandbox_addr = sb.buffer(1).unwrap().addr();
        // The lease dirties a couple of interleaved spans of the output.
        sb.f32_mut(1).unwrap()[2..5].fill(9.0);
        sb.f32_mut(1).unwrap()[10..12].fill(8.0);
        pool.give_back("k", 0, sb);

        // The live workload moves on: inside one dirtied span, and far
        // outside every dirtied span.
        src.f32_mut(1).unwrap()[3] = 0.5;
        src.f32_mut(1).unwrap()[15] = 0.25;
        src.f32_mut(0).unwrap()[0] = 2.0;

        let sb2 = pool.lease("k", 0, &src, &[1], None).unwrap();
        assert_eq!((pool.allocations(), pool.reuses()), (1, 1));
        assert_eq!(sb2.buffer(1).unwrap().addr(), sandbox_addr);
        // Byte-for-byte what a fresh sandbox_view would hold.
        let fresh = src.sandbox_view(&[1]).unwrap();
        for i in 0..src.len() {
            assert_eq!(
                sb2.f32(i).unwrap(),
                fresh.f32(i).unwrap(),
                "buffer {i} differs from a fresh sandbox view"
            );
        }
    }

    /// Regression: a pooled sandbox whose *input* still points at an older
    /// generation of the live data (the solver COW-updated it between
    /// leases) must come back re-pointed at the current payload.
    #[test]
    fn reused_sandbox_sees_current_input_generation() {
        let mut pool = SandboxPool::default();
        let mut src = sized_args(8, 1.0);
        let sb = pool.lease("k", 0, &src, &[1], None).unwrap();
        assert!(sb
            .buffer(0)
            .unwrap()
            .shares_payload_with(src.buffer(0).unwrap()));
        pool.give_back("k", 0, sb);

        src.f32_mut(0).unwrap().fill(7.0); // new input generation
        let sb2 = pool.lease("k", 0, &src, &[1], None).unwrap();
        assert_eq!(sb2.f32(0).unwrap(), vec![7.0; 8].as_slice());
    }

    /// Property: N random lease cycles with random interleaved sandbox
    /// writes and random live-data movement always restore to exactly a
    /// fresh sandbox view (the full-snapshot reference).
    #[cfg(feature = "proptest")]
    #[test]
    fn random_lease_cycles_restore_like_fresh_views() {
        use dysel_kernel::XorShiftRng;
        let mut rng = XorShiftRng::seed_from_u64(0x5A9D_B0C5);
        for round in 0..100 {
            let mut pool = SandboxPool::default();
            let n = 1 + rng.gen_range_u32(0, 64) as usize;
            let mut src = sized_args(n, 1.0);
            let mut sb = pool.lease("k", 0, &src, &[1], None).unwrap();
            for _ in 0..8 {
                // Interleave sandbox-output writes (possibly overlapping,
                // possibly empty) with live-data movement.
                let a = rng.gen_range_u32(0, n as u32) as usize;
                let b = (a + rng.gen_range_u32(0, 8) as usize).min(n);
                sb.f32_mut(1).unwrap()[a..b].fill(rng.next_f64() as f32);
                let arg = rng.gen_range_u32(0, 2) as usize;
                let i = rng.gen_range_u32(0, n as u32) as usize;
                src.f32_mut(arg).unwrap()[i] = rng.next_f64() as f32;
            }
            pool.give_back("k", 0, sb);
            let sb2 = pool.lease("k", 0, &src, &[1], None).unwrap();
            let fresh = src.sandbox_view(&[1]).unwrap();
            for i in 0..src.len() {
                assert_eq!(
                    sb2.f32(i).unwrap(),
                    fresh.f32(i).unwrap(),
                    "round {round}: buffer {i} differs from the full-snapshot reference"
                );
            }
        }
    }

    #[test]
    fn lease_reports_pool_hits_and_misses() {
        let sink = EventSink::new();
        let mut pool = SandboxPool::default();
        let src = src_args(1.0);
        let sb = pool.lease("k", 0, &src, &[1], Some(&sink)).unwrap();
        pool.give_back("k", 0, sb);
        pool.lease("k", 0, &src, &[1], Some(&sink)).unwrap();
        let m = sink.metrics_snapshot();
        assert_eq!(m.counter(names::SANDBOX_MISSES), 1);
        assert_eq!(m.counter(names::SANDBOX_HITS), 1);
    }
}
