//! Randomized property tests for the device models.
//!
//! Gated behind the dep-less `proptest` cargo feature and driven by the
//! in-tree [`XorShiftRng`]: `cargo test -p dysel-device --features proptest`.
#![cfg(feature = "proptest")]

use std::collections::VecDeque;

use dysel_device::cycles::lanes::gather_distinct_segments;
use dysel_device::gpu::{coalesced_segments, gather_segments, smem_conflict_degree};
use dysel_device::{
    CacheConfig, CacheHierarchy, Cycles, GpuConfig, NoiseModel, SetAssocCache, UnitPool,
};
use dysel_kernel::XorShiftRng;

const CASES: u64 = 128;

fn rng_for(test: u64, case: u64) -> XorShiftRng {
    XorShiftRng::seed_from_u64(0xDE71_CE00 + test * 1_000_003 + case)
}

/// Coalescing bounds: a warp touches at least 1 and at most `2 * lanes`
/// segments (the factor for element straddle).
#[test]
fn coalescing_bounds() {
    for case in 0..CASES {
        let mut rng = rng_for(1, case);
        let base = rng.gen_range_u64(0, 1_000_000) + 100_000;
        let stride = rng.gen_range_u64(0, 1024) as i64 - 512;
        let lanes = rng.gen_range_u32(1, 64);
        let segs = coalesced_segments(base, stride, lanes, 4, 128);
        assert!(segs >= 1);
        assert!(segs <= 2 * lanes, "{segs} vs {lanes}");
    }
}

/// Tighter bound for unit-stride warps: ceil(bytes/seg) + 1.
#[test]
fn unit_stride_coalesces() {
    for case in 0..CASES {
        let mut rng = rng_for(2, case);
        let base = rng.gen_range_u64(0, 1_000_000);
        let lanes = rng.gen_range_u32(1, 64);
        let segs = coalesced_segments(base, 4, lanes, 4, 128);
        let tight = (u64::from(lanes) * 4).div_ceil(128) as u32 + 1;
        assert!(segs <= tight);
    }
}

/// Gather segments never exceed the address count and dedup exact
/// duplicates.
#[test]
fn gather_segment_bounds() {
    for case in 0..CASES {
        let mut rng = rng_for(3, case);
        let addrs: Vec<u64> = (0..rng.gen_range_usize(1, 64))
            .map(|_| rng.gen_range_u64(0, 1_000_000))
            .collect();
        let segs = gather_segments(&addrs, 4, 128);
        assert!(segs >= 1);
        assert!(segs <= 2 * addrs.len() as u32);
        let dup: Vec<u64> = addrs.iter().flat_map(|&a| [a, a]).collect();
        assert_eq!(gather_segments(&dup, 4, 128), segs);
    }
}

/// Bank conflicts are between 1 and `lanes`, and odd strides are
/// conflict-free for a full warp.
#[test]
fn bank_conflict_bounds() {
    for case in 0..CASES {
        let mut rng = rng_for(4, case);
        let stride = rng.gen_range_u64(0, 256) as i64 - 128;
        let lanes = rng.gen_range_u32(1, 33);
        let c = smem_conflict_degree(stride, lanes);
        assert!(c >= 1 && c <= lanes);
        if stride % 2 != 0 && lanes == 32 {
            assert_eq!(c, 1, "odd strides are conflict-free");
        }
    }
}

/// Cache hit rate is in [0, 1]; re-walking the same small footprint is all
/// hits; stats add up.
#[test]
fn cache_sanity() {
    for case in 0..CASES {
        let mut rng = rng_for(5, case);
        let lines: Vec<u64> = (0..rng.gen_range_usize(1, 256))
            .map(|_| rng.gen_range_u64(0, 128))
            .collect();
        let mut c = SetAssocCache::new(CacheConfig::l1d());
        for &l in &lines {
            c.access_line(l);
        }
        let (h1, m1) = c.stats();
        assert_eq!(h1 + m1, lines.len() as u64);
        // 128 distinct lines = 8 KiB: fits 32 KiB, so a re-walk all hits.
        for &l in &lines {
            assert!(c.access_line(l));
        }
        let rate = c.hit_rate();
        assert!((0.0..=1.0).contains(&rate));
    }
}

/// Hierarchy latencies are monotone: every access costs at least an L1 hit
/// and at most a memory access.
#[test]
fn hierarchy_latency_bounds() {
    for case in 0..CASES {
        let mut rng = rng_for(6, case);
        let addrs: Vec<u64> = (0..rng.gen_range_usize(1, 200))
            .map(|_| rng.gen_range_u64(0, 1 << 24))
            .collect();
        let mut h = CacheHierarchy::default();
        for &a in &addrs {
            let lat = h.access(a);
            assert!(lat >= h.l1_lat && lat <= h.mem_lat);
        }
    }
}

/// UnitPool scheduling: work is conserved (sum of spans = sum of costs)
/// and the makespan is within the list-scheduling bound.
#[test]
fn pool_schedules_conservatively() {
    for case in 0..CASES {
        let mut rng = rng_for(7, case);
        let costs: Vec<u64> = (0..rng.gen_range_usize(1, 64))
            .map(|_| rng.gen_range_u64(1, 10_000))
            .collect();
        let units = rng.gen_range_usize(1, 16);
        let mut p = UnitPool::new(units);
        let mut spans = 0u64;
        for &c in &costs {
            let pl = p.assign(Cycles(c), Cycles::ZERO);
            assert_eq!(pl.end - pl.start, Cycles(c));
            spans += c;
        }
        let total: u64 = costs.iter().sum();
        assert_eq!(spans, total);
        let makespan = p.busy_until().0;
        let max_c = *costs.iter().max().unwrap();
        // Greedy list scheduling: makespan <= total/units + max job.
        assert!(makespan <= total / units as u64 + max_c);
        assert!(makespan >= total / units as u64);
        assert!(makespan >= max_c);
    }
}

/// Noise is deterministic under reset and across equal seeds.
#[test]
fn noise_deterministic() {
    for case in 0..CASES {
        let mut rng = rng_for(8, case);
        let sigma = rng.gen_range_f64(0.0, 0.2);
        let seed = rng.next_u64();
        let mut n1 = NoiseModel::new(sigma, seed);
        let mut n2 = NoiseModel::new(sigma, seed);
        for _ in 0..20 {
            assert_eq!(n1.perturb(Cycles(1_000_000)), n2.perturb(Cycles(1_000_000)));
        }
        n1.reset();
        let mut n3 = NoiseModel::new(sigma, seed);
        assert_eq!(n1.perturb(Cycles(123_456)), n3.perturb(Cycles(123_456)));
    }
}

/// A naive LRU reference: one `VecDeque` per set, most recent at the front,
/// sets indexed like the model (the low line bits, `line & (sets - 1)`).
struct RefLru {
    sets: Vec<VecDeque<u64>>,
    ways: usize,
    line_shift: u32,
    hits: u64,
    misses: u64,
}

impl RefLru {
    fn new(cfg: CacheConfig) -> Self {
        RefLru {
            sets: vec![VecDeque::new(); cfg.sets() as usize],
            ways: cfg.ways as usize,
            line_shift: cfg.line.trailing_zeros(),
            hits: 0,
            misses: 0,
        }
    }

    fn access(&mut self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        let mask = self.sets.len() as u64 - 1;
        let set = &mut self.sets[(line & mask) as usize];
        let hit = if let Some(pos) = set.iter().position(|&t| t == line) {
            set.remove(pos);
            true
        } else {
            set.truncate(self.ways - 1);
            false
        };
        set.push_front(line);
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit
    }

    fn reset(&mut self) {
        self.sets.iter_mut().for_each(VecDeque::clear);
        self.hits = 0;
        self.misses = 0;
    }
}

/// The flat-tag `SetAssocCache` agrees with the naive reference on every
/// access, for every cache preset in the tree plus a 1-set, 2-way toy:
/// random line streams with reuse and same-set conflicts, reset mid-stream.
#[test]
fn cache_matches_reference_lru() {
    let configs = [
        CacheConfig::l1d(),
        CacheConfig::l2(),
        CacheConfig::llc_share(),
        GpuConfig::kepler_k20c().tex_cache,
        GpuConfig::fermi().tex_cache,
        GpuConfig::maxwell().tex_cache,
        CacheConfig {
            capacity: 128,
            ways: 2,
            line: 64,
        },
    ];
    for (ci, cfg) in configs.into_iter().enumerate() {
        let line = u64::from(cfg.line);
        let capacity_lines = cfg.capacity / line;
        let set_span = cfg.sets().next_power_of_two();
        for case in 0..CASES / 8 {
            let mut rng = rng_for(10 + ci as u64, case);
            let mut cache = SetAssocCache::new(cfg);
            let mut reference = RefLru::new(cfg);
            let len = rng.gen_range_usize(1, 4000);
            let reset_at = rng.gen_range_usize(0, len);
            let mut recent: Vec<u64> = Vec::new();
            for i in 0..len {
                if i == reset_at {
                    cache.reset();
                    reference.reset();
                    assert_eq!(cache.stats(), (0, 0));
                }
                let addr = match rng.gen_range_u32(0, 4) {
                    // Reuse a recently touched address (any byte of its line).
                    0 | 1 if !recent.is_empty() => {
                        let a = recent[rng.gen_range_usize(0, recent.len())];
                        a - a % line + rng.gen_range_u64(0, line)
                    }
                    // Pile lines onto one set to force LRU evictions.
                    2 => (rng.gen_range_u64(0, 3 * u64::from(cfg.ways)) * set_span + 5) * line,
                    _ => rng.gen_range_u64(0, 2 * capacity_lines * line),
                };
                assert_eq!(
                    cache.access(addr),
                    reference.access(addr),
                    "config {ci} case {case} access {i} addr {addr}"
                );
                recent.push(addr);
                if recent.len() > 64 {
                    recent.remove(0);
                }
            }
            assert_eq!(cache.stats(), (reference.hits, reference.misses));
        }
    }
}

/// One of the address-set shapes a gather can present to the GPU model.
#[derive(Debug, Clone, Copy)]
enum GatherShape {
    /// Segment ids within a few dozen of each other.
    Narrow,
    /// Segment ids spanning `1_021 + k` values, around the 1,024-id edge
    /// between the bitmap and the hashed count.
    Edge(u64),
    /// Ids scattered over 2^40 bytes.
    Wide,
    /// A narrow set walked from the top down.
    Descending,
    /// A narrow set where every lane after the first reuses an earlier one.
    Duplicates,
    /// Addresses one to `elem - 1` bytes below a segment boundary, so
    /// multi-byte accesses straddle two segments.
    Straddle,
    /// Addresses in the top 4 KiB of the address space, where the scalar
    /// `a + elem - 1` wraps past zero.
    NearMax,
}

fn gather_addrs(rng: &mut XorShiftRng, shape: GatherShape, n: usize, seg: u64) -> Vec<u64> {
    let base = rng.gen_range_u64(0, 1 << 40) / seg * seg;
    let narrow = |rng: &mut XorShiftRng| base + rng.gen_range_u64(0, 48 * seg);
    let mut addrs: Vec<u64> = match shape {
        GatherShape::Narrow | GatherShape::Descending | GatherShape::Duplicates => {
            (0..n).map(|_| narrow(rng)).collect()
        }
        GatherShape::Edge(extra) => {
            let span = 1_021 + extra;
            let mut v: Vec<u64> = (0..n)
                .map(|_| base + rng.gen_range_u64(0, span) * seg + rng.gen_range_u64(0, seg))
                .collect();
            // Pin both ends of the id range, in lanes that are not first.
            v.push(base);
            v.push(base + (span - 1) * seg);
            v
        }
        GatherShape::Wide => (0..n).map(|_| rng.gen_range_u64(0, 1 << 40)).collect(),
        GatherShape::Straddle => (0..n)
            .map(|_| base + rng.gen_range_u64(1, 64) * seg - rng.gen_range_u64(1, 16))
            .collect(),
        GatherShape::NearMax => (0..n)
            .map(|_| u64::MAX - rng.gen_range_u64(0, 4096))
            .collect(),
    };
    match shape {
        GatherShape::Descending => addrs.sort_unstable_by(|a, b| b.cmp(a)),
        GatherShape::Duplicates => {
            for i in 1..addrs.len() {
                addrs[i] = addrs[rng.gen_range_usize(0, i)];
            }
        }
        _ => {
            // Shuffle, so the batched count leaves its ordered fast path.
            for i in (1..addrs.len()).rev() {
                addrs.swap(i, rng.gen_range_usize(0, i + 1));
            }
        }
    }
    addrs
}

/// The batched gather count equals the scalar `gather_segments` for
/// 1-, 4-, 8- and 16-byte elements over narrow, edge-of-bitmap, wide,
/// descending, duplicate-heavy, straddling and wrapping address sets, at
/// the GPU model's segment sizes and at the one-byte segments of
/// constant-memory word counts.
#[test]
fn gather_distinct_segments_matches_scalar() {
    let shapes = [
        GatherShape::Narrow,
        GatherShape::Edge(0),
        GatherShape::Edge(1),
        GatherShape::Edge(2),
        GatherShape::Edge(3),
        GatherShape::Edge(4),
        GatherShape::Wide,
        GatherShape::Descending,
        GatherShape::Duplicates,
        GatherShape::Straddle,
        GatherShape::NearMax,
    ];
    let mut scratch = Vec::new();
    for case in 0..CASES {
        let mut rng = rng_for(6, case);
        for shape in shapes {
            for seg in [1u32, 32, 128] {
                let n = [1, 2, 31, 32, 33, 600][rng.gen_range_usize(0, 6)];
                let addrs = gather_addrs(&mut rng, shape, n, u64::from(seg));
                for elem in [1u32, 4, 8, 16] {
                    assert_eq!(
                        gather_distinct_segments(&addrs, elem, seg.trailing_zeros(), &mut scratch),
                        gather_segments(&addrs, elem, seg),
                        "case {case} {shape:?} seg {seg} elem {elem} addrs {addrs:?}"
                    );
                }
            }
        }
    }
}
