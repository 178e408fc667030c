//! Randomized tests of the [`ShardedCache`] invariants against a
//! single-map sequential model.
//!
//! The cache is the learned-state store every runtime commits to — for a
//! service, shared by every lane and updated concurrently from every
//! shard worker. These tests drive random
//! operation sequences — sequentially against a plain-`BTreeMap` model,
//! and as random multi-threaded interleavings — and check the invariants
//! the service relies on: no entry is ever lost, a quarantined variant is
//! never resurrected, and per-key results agree with the model whenever
//! an order is defined.
//!
//! Gated behind the dep-less `proptest` cargo feature and driven by the
//! in-tree [`XorShiftRng`]: `cargo test -p dysel-core --features proptest`.
#![cfg(feature = "proptest")]

use std::collections::BTreeMap;
use std::sync::Arc;

use dysel_core::{
    journal_path, CacheEntry, LaunchService, QuarantineReason, ServiceConfig, ShardedCache,
    StreamKey, TenantId,
};
use dysel_device::{CpuConfig, CpuDevice};
use dysel_kernel::{VariantId, XorShiftRng};

const REASONS: [QuarantineReason; 4] = [
    QuarantineReason::LaunchFailed,
    QuarantineReason::DeadlineExceeded,
    QuarantineReason::WrongOutput,
    QuarantineReason::MetadataMismatch,
];

#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    Insert(VariantId, u32),
    Quarantine(VariantId, QuarantineReason),
    WarmRestore(VariantId, u32),
    Invalidate,
    /// A launch's end-of-launch write: selection, variant count, one
    /// quarantine it learned (if any) and its warm marker.
    Commit {
        selection: Option<VariantId>,
        variants: u32,
        quarantine: Option<(VariantId, QuarantineReason)>,
        warm: bool,
    },
}

fn random_op(rng: &mut XorShiftRng) -> Op {
    let id = VariantId(rng.gen_range_usize(0, 4));
    match rng.gen_range_usize(0, 8) {
        0..=2 => Op::Insert(id, rng.gen_range_u64(1, 8) as u32),
        3..=4 => Op::Quarantine(id, REASONS[rng.gen_range_usize(0, REASONS.len())]),
        5..=6 => Op::WarmRestore(id, rng.gen_range_u64(1, 8) as u32),
        _ => Op::Invalidate,
    }
}

fn random_key(rng: &mut XorShiftRng) -> StreamKey {
    StreamKey::new(
        TenantId(rng.gen_range_u64(0, 3) as u32),
        format!("sig-{}", rng.gen_range_usize(0, 5)),
    )
}

fn apply_cache(cache: &ShardedCache, key: &StreamKey, op: Op) {
    match op {
        Op::Insert(id, n) => {
            cache.insert(key, id, n);
        }
        Op::Quarantine(id, reason) => {
            cache.quarantine(key, id, reason);
        }
        Op::WarmRestore(id, n) => {
            cache.warm_restore(key, id, n);
        }
        Op::Invalidate => cache.invalidate(key),
        Op::Commit {
            selection,
            variants,
            quarantine,
            warm,
        } => {
            let entry = CacheEntry {
                selection,
                variants,
                quarantine: quarantine.into_iter().collect(),
            };
            cache.commit(key, &entry, warm);
        }
    }
}

/// The sequential model: one plain map, the documented semantics applied
/// literally.
fn apply_model(model: &mut BTreeMap<StreamKey, CacheEntry>, key: &StreamKey, op: Op) {
    let e = model.entry(key.clone()).or_default();
    match op {
        Op::Insert(id, n) => {
            if !e.quarantine.iter().any(|(q, _)| *q == id) {
                e.selection = Some(id);
                e.variants = n;
            }
        }
        Op::Quarantine(id, reason) => {
            if !e.quarantine.iter().any(|(q, _)| *q == id) {
                e.quarantine.push((id, reason));
            }
            if e.selection == Some(id) {
                e.selection = None;
                e.variants = 0;
            }
        }
        Op::WarmRestore(id, n) => {
            if !e.quarantine.iter().any(|(q, _)| *q == id) {
                e.selection = Some(id);
                e.variants = n;
            }
        }
        Op::Invalidate => {
            e.selection = None;
            e.variants = 0;
        }
        Op::Commit {
            selection,
            variants,
            quarantine,
            ..
        } => {
            if let Some((id, reason)) = quarantine {
                if !e.quarantine.iter().any(|(q, _)| *q == id) {
                    e.quarantine.push((id, reason));
                }
            }
            e.selection = selection.filter(|s| !e.quarantine.iter().any(|(q, _)| q == s));
            e.variants = if e.selection.is_some() { variants } else { 0 };
        }
    }
}

/// Any op, commits included.
fn random_store_op(rng: &mut XorShiftRng) -> Op {
    if rng.gen_range_usize(0, 3) > 0 {
        return random_op(rng);
    }
    let id = |rng: &mut XorShiftRng| VariantId(rng.gen_range_usize(0, 4));
    Op::Commit {
        selection: (rng.gen_range_usize(0, 4) > 0).then(|| id(rng)),
        variants: rng.gen_range_u64(1, 8) as u32,
        quarantine: (rng.gen_range_usize(0, 3) == 0)
            .then(|| (id(rng), REASONS[rng.gen_range_usize(0, REASONS.len())])),
        warm: rng.gen_range_usize(0, 2) == 0,
    }
}

/// The warm-marker model next to [`apply_model`]: the warm winner of
/// each stream, if it has one. A restore makes its variant the warm
/// winner, a commit replaces it, an invalidation or the winner's
/// quarantine drops it; an insert records a launch without touching it.
fn apply_warm_model(
    model: &mut BTreeMap<StreamKey, CacheEntry>,
    warm: &mut BTreeMap<StreamKey, Option<VariantId>>,
    key: &StreamKey,
    op: Op,
) {
    apply_model(model, key, op);
    let quarantined = |id: VariantId| model[key].quarantine.iter().any(|(q, _)| *q == id);
    let was = warm.get(key).copied().flatten();
    let now = match op {
        Op::Insert(..) => was,
        Op::WarmRestore(id, _) if !quarantined(id) => Some(id),
        Op::WarmRestore(..) => was,
        Op::Invalidate => None,
        Op::Quarantine(id, _) => was.filter(|&w| w != id),
        Op::Commit {
            selection, warm, ..
        } => selection.filter(|&s| warm && !quarantined(s)),
    };
    warm.insert(key.clone(), now);
}

/// For ANY sequential operation sequence over random keys spanning every
/// shard: the cache agrees exactly with the single-map model.
#[test]
fn sequential_operations_agree_with_the_model() {
    for case in 0..32 {
        let mut rng = XorShiftRng::seed_from_u64(0x5A4D_0000 + case);
        let cache = ShardedCache::new(rng.gen_range_usize(1, 6));
        let mut model: BTreeMap<StreamKey, CacheEntry> = BTreeMap::new();
        for _ in 0..rng.gen_range_usize(20, 200) {
            let key = random_key(&mut rng);
            let op = random_op(&mut rng);
            apply_cache(&cache, &key, op);
            apply_model(&mut model, &key, op);
        }
        assert_eq!(cache.snapshot(), model, "case {case}");
        assert_eq!(cache.len(), model.len(), "case {case}");
    }
}

/// For ANY random multi-threaded interleaving of operations: no entry is
/// ever lost, no quarantined variant is ever resurrected, quarantine sets
/// are exactly the union of what was requested, and per-key state matches
/// a sequential replay wherever only one thread touched the key.
#[test]
fn concurrent_interleavings_preserve_invariants() {
    for case in 0..12 {
        let mut rng = XorShiftRng::seed_from_u64(0xC0_4CACE + case);
        let threads = rng.gen_range_usize(2, 5);
        let cache = Arc::new(ShardedCache::new(rng.gen_range_usize(1, 5)));
        // Pre-generate each thread's private schedule so the run itself
        // does no locking beyond the cache's own.
        let schedules: Vec<Vec<(StreamKey, Op)>> = (0..threads)
            .map(|_| {
                (0..rng.gen_range_usize(30, 120))
                    .map(|_| (random_key(&mut rng), random_op(&mut rng)))
                    .collect()
            })
            .collect();
        std::thread::scope(|scope| {
            for schedule in &schedules {
                let cache = cache.clone();
                scope.spawn(move || {
                    for (key, op) in schedule {
                        apply_cache(&cache, key, *op);
                    }
                });
            }
        });
        let snapshot = cache.snapshot();

        // Invariant: no lost entries — every key any thread touched is
        // present in the final snapshot.
        let mut touched: BTreeMap<StreamKey, Vec<Op>> = BTreeMap::new();
        for (key, op) in schedules.iter().flatten() {
            touched.entry(key.clone()).or_default().push(*op);
        }
        for key in touched.keys() {
            assert!(snapshot.contains_key(key), "case {case}: lost {key:?}");
        }
        assert_eq!(snapshot.len(), touched.len(), "case {case}");

        for (key, ops) in &touched {
            let entry = &snapshot[key];
            // Invariant: quarantine is exactly the requested set (first
            // reason per variant wins under *some* order), and a
            // quarantined variant is never the selection.
            let mut requested: Vec<VariantId> = ops
                .iter()
                .filter_map(|op| match op {
                    Op::Quarantine(id, _) => Some(*id),
                    _ => None,
                })
                .collect();
            requested.sort();
            requested.dedup();
            let mut got: Vec<VariantId> = entry.quarantine.iter().map(|(id, _)| *id).collect();
            got.sort();
            assert_eq!(got, requested, "case {case}: quarantine set on {key:?}");
            if let Some(sel) = entry.selection {
                assert!(
                    !requested.contains(&sel),
                    "case {case}: quarantined {sel} resurrected as selection on {key:?}"
                );
                // The selection must be one some op actually proposed.
                assert!(
                    ops.iter().any(|op| matches!(op,
                        Op::Insert(id, _) | Op::WarmRestore(id, _) if *id == sel)),
                    "case {case}: phantom selection {sel} on {key:?}"
                );
            }
            // Single-writer keys have a defined order: replay them on the
            // model and demand exact agreement.
            let writers = schedules
                .iter()
                .filter(|s| s.iter().any(|(k, _)| k == key))
                .count();
            if writers == 1 {
                let mut model = BTreeMap::new();
                for op in ops {
                    apply_model(&mut model, key, *op);
                }
                assert_eq!(entry, &model[key], "case {case}: single-writer {key:?}");
            }
        }
    }
}

/// Quarantine is permanent under ANY later operation mix: once a variant
/// is quarantined for a key, no insert-free sequence (warm restores and
/// invalidates, from any number of threads) ever re-selects it.
#[test]
fn quarantine_survives_restore_storms() {
    for case in 0..8 {
        let mut rng = XorShiftRng::seed_from_u64(0xBAD_CAFE + case);
        let cache = Arc::new(ShardedCache::new(rng.gen_range_usize(1, 4)));
        let key = StreamKey::new(TenantId(1), "victim");
        let banned = VariantId(rng.gen_range_usize(0, 3));
        cache.quarantine(&key, banned, QuarantineReason::WrongOutput);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let cache = cache.clone();
                let key = key.clone();
                scope.spawn(move || {
                    let mut rng = XorShiftRng::seed_from_u64((case << 8) | t);
                    for _ in 0..200 {
                        if rng.gen_range_usize(0, 4) == 0 {
                            cache.invalidate(&key);
                        } else {
                            cache.warm_restore(&key, banned, 3);
                        }
                    }
                });
            }
        });
        let entry = cache.get(&key).expect("entry present");
        assert_ne!(entry.selection, Some(banned), "case {case}");
        assert_eq!(
            entry.quarantine,
            vec![(banned, QuarantineReason::WrongOutput)],
            "case {case}"
        );
    }
}

/// For ANY sequential sequence mixing the launch-side ops (commits) with
/// the rest: entries agree with the single-map model and every warm
/// marker agrees with the warm model.
#[test]
fn commits_and_warm_markers_agree_with_the_model() {
    for case in 0..32 {
        let mut rng = XorShiftRng::seed_from_u64(0xC0_4417 + case);
        let cache = ShardedCache::new(rng.gen_range_usize(1, 6));
        let mut model: BTreeMap<StreamKey, CacheEntry> = BTreeMap::new();
        let mut warm: BTreeMap<StreamKey, Option<VariantId>> = BTreeMap::new();
        for _ in 0..rng.gen_range_usize(20, 200) {
            let key = random_key(&mut rng);
            let op = random_store_op(&mut rng);
            apply_cache(&cache, &key, op);
            apply_warm_model(&mut model, &mut warm, &key, op);
        }
        assert_eq!(cache.snapshot(), model, "case {case}");
        for key in model.keys() {
            assert_eq!(
                cache.is_warm(key),
                warm[key].is_some(),
                "case {case}: {key:?}"
            );
        }
    }
}

/// Persistence round trip through the state file: a store saved as a
/// checkpoint and loaded back (replayed into a fresh service's store)
/// has exactly the saved snapshot, empty entries included, every
/// restored selection is warm, and re-saving writes the same bytes.
#[test]
fn save_load_is_a_fixed_point() {
    let path = std::env::temp_dir().join(format!("dysel-shard-prop-{}.state", std::process::id()));
    let service = |shards: usize| {
        LaunchService::with_factory(
            || Box::new(CpuDevice::new(CpuConfig::noiseless())),
            ServiceConfig {
                shards,
                state_path: Some(path.clone()),
                ..ServiceConfig::default()
            },
        )
    };
    for case in 0..16 {
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(journal_path(&path));
        let mut rng = XorShiftRng::seed_from_u64(0xE4_9041 + case);
        let saved = service(rng.gen_range_usize(1, 6));
        let cache = saved.cache();
        for _ in 0..rng.gen_range_usize(20, 200) {
            let key = random_key(&mut rng);
            apply_cache(cache, &key, random_store_op(&mut rng));
        }
        let state = cache.snapshot();
        saved.save_state().unwrap();
        drop(saved);
        let bytes = std::fs::read(&path).unwrap();
        let loaded = service(rng.gen_range_usize(1, 6));
        let restored = loaded.cache();
        assert_eq!(restored.snapshot(), state, "case {case}");
        for (key, entry) in restored.snapshot() {
            assert_eq!(
                restored.is_warm(&key),
                entry.selection.is_some(),
                "case {case}"
            );
        }
        loaded.save_state().unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "case {case}");
    }
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(journal_path(&path));
}
