//! Set-associative cache simulation for the CPU model.

use dysel_kernel::ADDR_REGION_BITS;

/// Configuration of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity: u64,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Line size in bytes (power of two).
    pub line: u32,
}

impl CacheConfig {
    /// Number of sets.
    pub fn sets(&self) -> u64 {
        (self.capacity / u64::from(self.line) / u64::from(self.ways)).max(1)
    }

    /// 32 KiB / 8-way / 64 B — an L1d like the i7-3820's.
    pub fn l1d() -> Self {
        CacheConfig {
            capacity: 32 << 10,
            ways: 8,
            line: 64,
        }
    }

    /// 256 KiB / 8-way / 64 B — a per-core L2.
    pub fn l2() -> Self {
        CacheConfig {
            capacity: 256 << 10,
            ways: 8,
            line: 64,
        }
    }

    /// 2.5 MiB / 16-way / 64 B — one core's share of a 10 MiB LLC.
    pub fn llc_share() -> Self {
        CacheConfig {
            capacity: 2560 << 10,
            ways: 16,
            line: 64,
        }
    }
}

/// An LRU set-associative cache over line tags.
///
/// Storage is one flat tag array of `sets × ways` slots; within a set the
/// slots run from most to least recently used. A slot holds `line + 1`, so
/// 0 marks an empty way and no separate occupancy count is needed: empty
/// slots sit at the LRU end and can never match a lookup. The pricing hot
/// loop therefore walks one contiguous, fixed-length slice per access.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    cfg: CacheConfig,
    line_shift: u32,
    set_mask: u64,
    /// `ways`-strided tag slots (`line + 1`, 0 = empty), MRU first.
    tags: Vec<u64>,
    hits: u64,
    misses: u64,
}

impl SetAssocCache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// If the line size is not a power of two, or if the set index reads
    /// an address bit at or above [`ADDR_REGION_BITS`]: then a buffer's
    /// hit pattern would depend on which thread's address region holds
    /// it, not only on its offset there.
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.line.is_power_of_two(), "line size must be a power of 2");
        let sets = cfg.sets();
        let set_mask = sets - 1;
        let line_shift = cfg.line.trailing_zeros();
        let index_bits = u64::BITS - set_mask.leading_zeros() + line_shift;
        assert!(
            index_bits <= ADDR_REGION_BITS,
            "set index reads {index_bits} address bits, more than an address region's {ADDR_REGION_BITS}"
        );
        SetAssocCache {
            cfg,
            line_shift,
            set_mask,
            tags: vec![0; (sets * u64::from(cfg.ways)) as usize],
            hits: 0,
            misses: 0,
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// `log2` of the line size: `line_of(addr) == addr >> line_shift()`.
    pub fn line_shift(&self) -> u32 {
        self.line_shift
    }

    /// Line index of a byte address.
    pub fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    /// Accesses the line containing `addr`; returns `true` on hit.
    pub fn access(&mut self, addr: u64) -> bool {
        self.access_line(self.line_of(addr))
    }

    /// Accesses a pre-computed line index; returns `true` on hit.
    #[inline(always)]
    pub fn access_line(&mut self, line: u64) -> bool {
        // Sets are indexed by the low line bits — not perfectly uniform for
        // power-of-two strides, which is exactly the conflict-miss
        // behaviour we want to model.
        let set = (line & self.set_mask) as usize;
        let ways = self.cfg.ways as usize;
        let tag = line + 1;
        let slots = &mut self.tags[set * ways..set * ways + ways];
        // Walk the set from the MRU end, carrying each tag one way down,
        // until the line turns up (a hit: it lands at the front) or the
        // LRU slot falls off the end (a miss: the new tag is at the front).
        let mut carried = tag;
        for slot in slots.iter_mut() {
            let t = std::mem::replace(slot, carried);
            if t == tag {
                self.hits += 1;
                return true;
            }
            carried = t;
        }
        self.misses += 1;
        false
    }

    /// (hits, misses) so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Hit rate in `[0, 1]` (1.0 for an untouched cache).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Drops all contents and statistics. Free on a cache untouched since
    /// it was built or last reset: every access counts a hit or a miss, so
    /// with neither counted every tag is still 0.
    pub fn reset(&mut self) {
        if self.hits == 0 && self.misses == 0 {
            return;
        }
        self.tags.fill(0);
        self.hits = 0;
        self.misses = 0;
    }
}

/// A three-level private hierarchy (L1 → L2 → LLC share → memory) with
/// per-level access latencies in cycles.
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    l1: SetAssocCache,
    l2: SetAssocCache,
    l3: SetAssocCache,
    /// L1 hit latency.
    pub l1_lat: u64,
    /// L2 hit latency.
    pub l2_lat: u64,
    /// LLC hit latency.
    pub l3_lat: u64,
    /// DRAM latency.
    pub mem_lat: u64,
}

impl CacheHierarchy {
    /// Builds the default i7-like hierarchy.
    ///
    /// # Panics
    ///
    /// If the levels differ in line size: one line id indexes every level.
    pub fn new(l1: CacheConfig, l2: CacheConfig, l3: CacheConfig) -> Self {
        assert!(
            l1.line == l2.line && l2.line == l3.line,
            "every cache level must share one line size (got {}, {}, {} B)",
            l1.line,
            l2.line,
            l3.line
        );
        CacheHierarchy {
            l1: SetAssocCache::new(l1),
            l2: SetAssocCache::new(l2),
            l3: SetAssocCache::new(l3),
            l1_lat: 4,
            l2_lat: 14,
            l3_lat: 42,
            mem_lat: 220,
        }
    }

    /// Line size (all levels share it).
    pub fn line(&self) -> u32 {
        self.l1.config().line
    }

    /// `log2` of the shared line size.
    pub fn line_shift(&self) -> u32 {
        self.l1.line_shift()
    }

    /// Accesses `addr`, returning the latency in cycles.
    #[inline]
    pub fn access(&mut self, addr: u64) -> u64 {
        self.access_line(self.l1.line_of(addr))
    }

    /// Accesses a pre-computed line index, returning the latency in cycles.
    #[inline(always)]
    pub fn access_line(&mut self, line: u64) -> u64 {
        if self.l1.access_line(line) {
            self.l1_lat
        } else if self.l2.access_line(line) {
            self.l2_lat
        } else if self.l3.access_line(line) {
            self.l3_lat
        } else {
            self.mem_lat
        }
    }

    /// Per-level (hits, misses) so far, L1 first.
    #[cfg(test)]
    pub(crate) fn stats(&self) -> [(u64, u64); 3] {
        [self.l1.stats(), self.l2.stats(), self.l3.stats()]
    }

    /// Clears all levels.
    pub fn reset(&mut self) {
        self.l1.reset();
        self.l2.reset();
        self.l3.reset();
    }
}

impl Default for CacheHierarchy {
    fn default() -> Self {
        CacheHierarchy::new(
            CacheConfig::l1d(),
            CacheConfig::l2(),
            CacheConfig::llc_share(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu::GpuConfig;
    use dysel_kernel::{fnv1a_step, XorShiftRng, FNV_OFFSET};

    /// One step of [`probe_trace`]: a line access or a reset.
    #[derive(Clone, Copy)]
    enum Probe {
        Line(u64),
        Reset,
    }

    /// A seeded line trace mixing the shapes the sinks issue: strided
    /// streams walked twice (unit, sub-line and set-aliasing strides),
    /// random lines from a hot set and from a footprint larger than the LLC
    /// share, random draws from 4–40 lines piled onto one set (more than
    /// any level has ways), and one `reset` halfway.
    fn probe_trace(seed: u64) -> Vec<Probe> {
        let mut rng = XorShiftRng::seed_from_u64(seed);
        let mut trace = Vec::new();
        for round in 0..8 {
            if round == 4 {
                trace.push(Probe::Reset);
            }
            let base = rng.gen_range_u64(0, 1 << 16);
            let stride = [1, 2, 7, 64, 512, 4096][rng.gen_range_usize(0, 6)];
            let len = rng.gen_range_u64(64, 4096);
            for _ in 0..2 {
                trace.extend((0..len).map(|i| Probe::Line(base + i * stride)));
            }
            let hot = rng.gen_range_u64(0, 1 << 16);
            for _ in 0..2048 {
                let line = if rng.next_u64() & 1 == 0 {
                    hot + rng.gen_range_u64(0, 256)
                } else {
                    rng.gen_range_u64(0, 1 << 16)
                };
                trace.push(Probe::Line(line));
            }
            // Lines 4096 apart share a set at every level and preset.
            let set = rng.gen_range_u64(0, 4096);
            let piled = rng.gen_range_u64(4, 41);
            for _ in 0..256 {
                trace.push(Probe::Line(set + (rng.gen_range_u64(0, piled) << 12)));
            }
        }
        trace
    }

    /// Pins the cache model: every latency of the default hierarchy and
    /// every hit of the three GPU texture-cache presets over
    /// [`probe_trace`], plus each level's `(hits, misses)` before the reset
    /// and at the end, fold into one digest.
    #[test]
    fn probe_trace_matches_the_golden_digest() {
        let fold_stats = |d: u64, stats: &[(u64, u64)]| {
            stats
                .iter()
                .fold(d, |d, &(h, m)| fnv1a_step(fnv1a_step(d, h), m))
        };
        let trace = probe_trace(0xCAC4E);
        let mut d = FNV_OFFSET;
        let mut h = CacheHierarchy::default();
        for &p in &trace {
            match p {
                Probe::Line(line) => d = fnv1a_step(d, h.access_line(line)),
                Probe::Reset => {
                    d = fold_stats(d, &h.stats());
                    h.reset();
                }
            }
        }
        d = fold_stats(d, &h.stats());
        for gpu in [
            GpuConfig::kepler_k20c(),
            GpuConfig::fermi(),
            GpuConfig::maxwell(),
        ] {
            let mut c = SetAssocCache::new(gpu.tex_cache);
            for &p in &trace {
                match p {
                    Probe::Line(line) => d = fnv1a_step(d, u64::from(c.access_line(line))),
                    Probe::Reset => {
                        d = fold_stats(d, &[c.stats()]);
                        c.reset();
                    }
                }
            }
            d = fold_stats(d, &[c.stats()]);
        }
        assert_eq!(
            d, 0x990a_c91d_7ff8_8957,
            "cache model digest moved: {d:#018x}"
        );
    }

    #[test]
    fn sequential_reuse_hits() {
        let mut c = SetAssocCache::new(CacheConfig::l1d());
        assert!(!c.access(0));
        assert!(c.access(4)); // same 64B line
        assert!(c.access(63));
        assert!(!c.access(64)); // next line
        assert_eq!(c.stats(), (2, 2));
    }

    #[test]
    fn capacity_eviction() {
        // Touch 2x the capacity in distinct lines, then re-touch the first:
        // it must have been evicted.
        let cfg = CacheConfig {
            capacity: 1 << 10,
            ways: 2,
            line: 64,
        };
        let mut c = SetAssocCache::new(cfg);
        let lines = (cfg.capacity / u64::from(cfg.line)) * 2;
        for i in 0..lines {
            c.access(i * 64);
        }
        assert!(!c.access(0), "line 0 must have been evicted");
    }

    #[test]
    fn lru_order_within_set() {
        // 2-way, 1 set: A B A C -> B evicted, A kept.
        let cfg = CacheConfig {
            capacity: 128,
            ways: 2,
            line: 64,
        };
        let mut c = SetAssocCache::new(cfg);
        assert_eq!(cfg.sets(), 1);
        c.access(0); // A miss
        c.access(64); // B miss
        assert!(c.access(0)); // A hit, now MRU
        c.access(128); // C miss, evicts B
        assert!(c.access(0)); // A still resident
        assert!(!c.access(64)); // B gone
    }

    #[test]
    #[should_panic(expected = "set index reads 41 address bits")]
    fn set_index_above_the_address_region_is_refused() {
        // 2 GiB lines x 1024 sets: the index reads address bits 31..41.
        SetAssocCache::new(CacheConfig {
            capacity: 1 << 41,
            ways: 1,
            line: 1 << 31,
        });
    }

    #[test]
    fn hierarchy_latencies_escalate() {
        let mut h = CacheHierarchy::default();
        let cold = h.access(0);
        assert_eq!(cold, h.mem_lat);
        let warm = h.access(0);
        assert_eq!(warm, h.l1_lat);
    }

    #[test]
    fn l1_miss_can_hit_l2() {
        let mut h = CacheHierarchy::default();
        // Fill L1 well past capacity with a strided walk, then revisit the
        // first line: it should be an L2 (or L3) hit, not memory.
        for i in 0..2048u64 {
            h.access(i * 64);
        }
        let lat = h.access(0);
        assert!(lat < h.mem_lat, "revisit latency {lat} should beat DRAM");
        assert!(lat > h.l1_lat, "revisit should not be an L1 hit");
    }

    #[test]
    #[should_panic(expected = "one line size")]
    fn hierarchy_rejects_mixed_line_sizes() {
        let l2 = CacheConfig {
            line: 128,
            ..CacheConfig::l2()
        };
        CacheHierarchy::new(CacheConfig::l1d(), l2, CacheConfig::llc_share());
    }

    #[test]
    fn reset_clears_contents() {
        // One access is enough for `reset` to clear: the next one is cold.
        let mut h = CacheHierarchy::default();
        h.access(0);
        h.reset();
        assert_eq!(h.access(0), h.mem_lat);
        assert_eq!(h.stats(), [(0, 1); 3]);
    }

    #[test]
    fn untouched_reset_leaves_a_fresh_cache() {
        let fresh = SetAssocCache::new(CacheConfig::l2());
        let state = |c: &SetAssocCache| (c.tags.clone(), c.stats());
        let mut c = fresh.clone();
        c.reset();
        assert_eq!(state(&c), state(&fresh));
        // Filled, reset, then reset again untouched: still fresh.
        for line in 0..10_000 {
            c.access_line(line * 7);
        }
        c.reset();
        c.reset();
        assert_eq!(state(&c), state(&fresh));
    }
}
