//! Randomized property tests for the programming-model substrate.
//!
//! Gated behind the dep-less `proptest` cargo feature and driven by the
//! in-tree [`XorShiftRng`], so the default build stays offline-green:
//! `cargo test -p dysel-kernel --features proptest`.
#![cfg(feature = "proptest")]

use dysel_kernel::{
    Args, Buffer, CountingSink, GroupCtx, MemOp, Space, TraceSink, UnitRange, XorShiftRng,
};

const CASES: u64 = 64;

fn rng_for(test: u64, case: u64) -> XorShiftRng {
    XorShiftRng::seed_from_u64(0xD75E_1000 + test * 1_000_003 + case)
}

fn arb_f32(rng: &mut XorShiftRng) -> f32 {
    f32::from_bits(rng.next_u64() as u32)
}

/// `UnitRange::groups` partitions the range exactly: every unit is covered
/// once, groups are in order, and only the last may be short.
#[test]
fn groups_partition_exactly() {
    for case in 0..CASES {
        let mut rng = rng_for(1, case);
        let start = rng.gen_range_u64(0, 10_000);
        let len = rng.gen_range_u64(0, 10_000);
        let per = rng.gen_range_u64(1, 512);
        let r = UnitRange::new(start, start + len);
        let parts: Vec<_> = r.groups(per).collect();
        let mut expect = start;
        for (i, (g, p)) in parts.iter().enumerate() {
            assert_eq!(*g, i as u64);
            assert_eq!(p.start, expect);
            assert!(p.len() <= per);
            if i + 1 < parts.len() {
                assert_eq!(p.len(), per);
            }
            expect = p.end;
        }
        assert_eq!(expect, r.end);
        assert_eq!(parts.len() as u64, len.div_ceil(per));
    }
}

/// Intersection is commutative, contained in both, and idempotent.
#[test]
fn intersect_properties() {
    for case in 0..CASES {
        let mut rng = rng_for(2, case);
        let a0 = rng.gen_range_u64(0, 1000);
        let al = rng.gen_range_u64(0, 1000);
        let b0 = rng.gen_range_u64(0, 1000);
        let bl = rng.gen_range_u64(0, 1000);
        let a = UnitRange::new(a0, a0 + al);
        let b = UnitRange::new(b0, b0 + bl);
        let i1 = a.intersect(b);
        let i2 = b.intersect(a);
        assert_eq!(i1.len(), i2.len());
        assert!(i1.len() <= a.len() && i1.len() <= b.len());
        assert_eq!(i1.intersect(a).len(), i1.len());
        for u in i1.iter() {
            assert!(a.contains(u) && b.contains(u));
        }
    }
}

/// Copy-on-write isolation: writes through one clone never reach another,
/// regardless of the write pattern.
#[test]
fn cow_isolation() {
    for case in 0..CASES {
        let mut rng = rng_for(3, case);
        let n = rng.gen_range_usize(1, 64);
        let values: Vec<f32> = (0..n).map(|_| arb_f32(&mut rng)).collect();
        let writes: Vec<(usize, f32)> = (0..rng.gen_range_usize(0, 32))
            .map(|_| (rng.gen_range_usize(0, 64), arb_f32(&mut rng)))
            .collect();
        let mut a = Args::new();
        a.push(Buffer::f32("b", values.clone(), Space::Global));
        let snapshot = a.clone();
        for (i, v) in writes {
            let idx = i % values.len();
            a.f32_mut(0).unwrap()[idx] = v;
        }
        // The snapshot still sees the original data bit-for-bit.
        for (orig, snap) in values.iter().zip(snapshot.f32(0).unwrap()) {
            assert_eq!(orig.to_bits(), snap.to_bits());
        }
    }
}

/// Sandbox views isolate exactly the listed arguments and share the rest
/// (addresses prove sharing).
#[test]
fn sandbox_isolates_only_outputs() {
    for case in 0..CASES {
        let mut rng = rng_for(4, case);
        let n_args = rng.gen_range_usize(1, 6);
        let outputs: Vec<usize> = (0..rng.gen_range_usize(0, 6))
            .map(|_| rng.gen_range_usize(0, 6))
            .filter(|&i| i < n_args)
            .collect();
        let mut a = Args::new();
        for i in 0..n_args {
            a.push(Buffer::f32(format!("b{i}"), vec![0.0; 8], Space::Global));
        }
        let sb = a.sandbox_view(&outputs).unwrap();
        for i in 0..n_args {
            let same_addr = sb.buffer(i).unwrap().addr() == a.buffer(i).unwrap().addr();
            assert_eq!(same_addr, !outputs.contains(&i), "arg {i}");
        }
    }
}

/// The counting sink's byte accounting matches the descriptor contents for
/// any mix of operations.
#[test]
fn counting_sink_accounting() {
    for case in 0..CASES {
        let mut rng = rng_for(5, case);
        let lanes = rng.gen_range_u32(1, 64);
        let count = rng.gen_range_u64(1, 512);
        let stride = rng.gen_range_u64(0, 128) as i64 - 64;
        let mut s = CountingSink::default();
        s.mem(&MemOp::Warp {
            space: Space::Global,
            base: 4096,
            stride: 4,
            lanes,
            elem: 4,
            store: false,
        });
        s.mem(&MemOp::Stream {
            space: Space::Global,
            base: 0,
            count,
            stride,
            elem: 4,
            store: true,
        });
        assert_eq!(s.accesses, u64::from(lanes) + count);
        assert_eq!(s.bytes, u64::from(lanes) * 4 + count * 4);
        assert_eq!(s.stores, 1);
        assert_eq!(s.mem_ops, 2);
    }
}

/// Swap round-trips: adopting outputs twice restores the original payloads.
#[test]
fn adopt_outputs_is_an_involution() {
    for case in 0..CASES {
        let mut rng = rng_for(6, case);
        let na = rng.gen_range_usize(4, 16);
        let nb = rng.gen_range_usize(4, 16);
        let a_vals: Vec<f32> = (0..na).map(|_| arb_f32(&mut rng)).collect();
        let b_vals: Vec<f32> = (0..nb).map(|_| arb_f32(&mut rng)).collect();
        let size = a_vals.len().min(b_vals.len());
        let mut a = Args::new();
        a.push(Buffer::f32("out", a_vals[..size].to_vec(), Space::Global));
        let mut b = Args::new();
        b.push(Buffer::f32("out", b_vals[..size].to_vec(), Space::Global));
        let orig_a: Vec<u32> = a.f32(0).unwrap().iter().map(|v| v.to_bits()).collect();
        a.adopt_outputs(&mut b, &[0]).unwrap();
        a.adopt_outputs(&mut b, &[0]).unwrap();
        let back: Vec<u32> = a.f32(0).unwrap().iter().map(|v| v.to_bits()).collect();
        assert_eq!(orig_a, back);
    }
}

/// Merging span snapshots reproduces direct writes: overwrite semantics
/// for disjoint writers, additive semantics for overlapping accumulators,
/// for any write pattern.
#[test]
fn merge_outputs_matches_direct_execution() {
    for case in 0..CASES {
        let mut rng = rng_for(7, case);
        let n = rng.gen_range_usize(4, 64);
        let base: Vec<u32> = (0..n).map(|_| rng.gen_range_u32(0, 100)).collect();
        let mut target = Args::new();
        target.push(Buffer::u32("h", base.clone(), Space::Global));
        let pristine = target.clone();
        // Two launches each increment a random subset (overlaps allowed).
        let mut expect = base.clone();
        let mut spans = Vec::new();
        for _ in 0..2 {
            let mut span = pristine.clone();
            for _ in 0..rng.gen_range_usize(0, n) {
                let i = rng.gen_range_usize(0, n);
                let d = rng.gen_range_u32(1, 5);
                span.u32_mut(0).unwrap()[i] = span.u32(0).unwrap()[i].wrapping_add(d);
                expect[i] = expect[i].wrapping_add(d);
            }
            spans.push(span);
        }
        for span in &spans {
            target.merge_outputs(span, &pristine, &[0], true).unwrap();
        }
        assert_eq!(target.u32(0).unwrap(), &expect[..]);
    }
}

/// Address translation in `GroupCtx` is linear in the element index.
#[test]
fn ctx_translation_is_linear() {
    struct Probe(Vec<u64>);
    impl TraceSink for Probe {
        fn mem(&mut self, op: &MemOp) {
            if let MemOp::Gather { addrs, .. } = op {
                self.0.extend(addrs);
            }
        }
        fn compute(&mut self, _: u64) {}
    }
    let mut a = Args::new();
    a.push(Buffer::f32("x", vec![0.0; 128], Space::Global));
    let base = a.buffer(0).unwrap().addr();
    let mut probe = Probe(Vec::new());
    let mut ctx = GroupCtx::new(0, UnitRange::new(0, 1), 32, &a, &[], &mut probe);
    ctx.gather(0, &[0, 1, 2, 50, 127]);
    assert_eq!(
        probe.0,
        vec![base, base + 4, base + 8, base + 200, base + 508]
    );
}
