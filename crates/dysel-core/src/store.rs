//! The learned-state store: the one owner of what selection learns.
//!
//! DySel caches each signature's winner so iterative applications stop
//! re-profiling (§3.1). Every [`crate::Runtime`] reads and commits that
//! state through a [`ShardedCache`]: a plain runtime owns a private one, a
//! [`crate::LaunchService`] shares one across all its lanes. Per
//! `(tenant, signature)` stream the store keeps the winner launches
//! reuse, the recorded selection and the variant count it was made
//! against, the warm marker and the quarantine list — and it owns their
//! persistence: loading is [`ShardedCache::replay`] of journal records, a
//! checkpoint is the records that rebuild every entry, and (for the
//! service) a write-ahead journal holds every change it commits.
//! DESIGN.md §4.16 states the contract.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use dysel_kernel::{fnv1a, VariantId, FNV_OFFSET};
use dysel_obs::{names, Event, EventSink, Stage};

use crate::fault::QuarantineReason;
use crate::journal::{Journal, JournalRecord};
use crate::options::TenantId;
use crate::persist::{self, StateError};

/// Folds `bytes` and a terminating zero into an FNV-1a `digest`.
pub(crate) fn fnv_fold(digest: &mut u64, bytes: &[u8]) {
    *digest = fnv1a(fnv1a(*digest, bytes), &[0]);
}

/// Ignores mutex poisoning: a panicking worker must not cascade into every
/// thread that later touches shared state (same policy as `EventSink`).
/// See the "Locking policy" section of the service module for why this
/// is sound.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Identifies one launch stream: a `(tenant, signature)` pair. All
/// launches of a stream are serialized in submission order; distinct
/// streams are independent.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamKey {
    /// Owning tenant.
    pub tenant: TenantId,
    /// Kernel signature.
    pub signature: String,
}

impl StreamKey {
    /// A stream key.
    pub fn new(tenant: TenantId, signature: impl Into<String>) -> Self {
        StreamKey {
            tenant,
            signature: signature.into(),
        }
    }

    /// The stable hash both the service and the store shard by.
    fn hash64(&self) -> u64 {
        let mut h = FNV_OFFSET;
        fnv_fold(&mut h, &self.tenant.0.to_le_bytes());
        fnv_fold(&mut h, self.signature.as_bytes());
        h
    }
}

/// One stream's entry in the [`ShardedCache`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheEntry {
    /// The recorded selection: the stream's micro-profiling winner or warm
    /// restore — for a service, the variant its last successful launch
    /// ran.
    pub selection: Option<VariantId>,
    /// Variant-pool size the selection was made against (zero if unknown,
    /// and always zero without a selection).
    pub variants: u32,
    /// Quarantined variants, in quarantine order. Quarantine survives
    /// [`ShardedCache::invalidate`] and is never undone by
    /// [`ShardedCache::warm_restore`].
    pub quarantine: Vec<(VariantId, QuarantineReason)>,
}

impl CacheEntry {
    /// Whether `id` is quarantined for the stream.
    pub(crate) fn is_quarantined(&self, id: VariantId) -> bool {
        self.quarantine.iter().any(|(q, _)| *q == id)
    }

    /// Selects `id`, unless it is quarantined — quarantine always wins.
    /// Returns whether the entry changed.
    pub(crate) fn select(&mut self, id: VariantId, variants: u32) -> bool {
        if self.is_quarantined(id) {
            return false;
        }
        let changed = self.selection != Some(id) || self.variants != variants;
        self.selection = Some(id);
        self.variants = variants;
        changed
    }

    /// Quarantines `id` (the first reason sticks) and drops a selection
    /// naming it, as [`CacheEntry::invalidate`] would. Returns whether `id`
    /// was newly quarantined.
    pub(crate) fn quarantine(&mut self, id: VariantId, reason: QuarantineReason) -> bool {
        let fresh = !self.is_quarantined(id);
        if fresh {
            self.quarantine.push((id, reason));
        }
        if self.selection == Some(id) {
            self.invalidate();
        }
        fresh
    }

    /// Drops the selection and its variant count; quarantine is kept.
    pub(crate) fn invalidate(&mut self) {
        self.selection = None;
        self.variants = 0;
    }

    /// The journal records that turn `self` into `new` on replay: the
    /// selection change first (a new selection is never quarantined), then
    /// the new quarantines (each drops a selection naming it). From
    /// [`CacheEntry::default`] they rebuild `new`: a checkpoint's records.
    fn changes(&self, key: &StreamKey, new: &CacheEntry) -> Vec<JournalRecord> {
        let (tenant, signature) = (key.tenant.0, &key.signature);
        let mut records = Vec::new();
        match new.selection {
            Some(variant) if (self.selection, self.variants) != (new.selection, new.variants) => {
                records.push(JournalRecord::Select {
                    tenant,
                    signature: signature.clone(),
                    variant,
                    variants: new.variants,
                });
            }
            // A quarantine record drops the selection it names.
            None if self.selection.is_some_and(|s| !new.is_quarantined(s)) => {
                records.push(JournalRecord::Invalidate {
                    tenant,
                    signature: signature.clone(),
                });
            }
            _ => {}
        }
        let fresh = new
            .quarantine
            .iter()
            .filter(|(id, _)| !self.is_quarantined(*id));
        records.extend(fresh.map(|&(variant, reason)| JournalRecord::Quarantine {
            tenant,
            signature: signature.clone(),
            variant,
            reason,
        }));
        records
    }
}

/// One stream's learned state as a launch reads and commits it: the
/// shared [`CacheEntry`], the winner launches reuse and its warm marker.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Slot {
    /// The recorded state: what [`ShardedCache::get`] returns and what is
    /// exported and journaled. Its selection is the winner, except that a
    /// service also records there the variant each skipped launch ran
    /// ([`ShardedCache::insert`]).
    pub(crate) entry: CacheEntry,
    /// The selection a launch may reuse instead of micro-profiling: the
    /// last profiling winner or a warm restore. A skipped launch ran a
    /// variant nobody measured, so it never becomes the winner. A winner
    /// quarantined since is never run again: a launch reusing it falls
    /// back to the first surviving variant.
    pub(crate) winner: Option<VariantId>,
    /// The winner was restored from a checkpoint and no launch in this
    /// process has made its own decision since: it skips micro-profiling
    /// once the warm audit passes. Never set without a winner, and never
    /// on a quarantined one.
    pub(crate) warm: bool,
}

impl Slot {
    /// Makes `id` the winner and the recorded selection, unless it is
    /// quarantined. Returns whether it did.
    pub(crate) fn select(&mut self, id: VariantId, variants: u32) -> bool {
        let alive = !self.entry.is_quarantined(id);
        if alive {
            self.entry.select(id, variants);
            self.winner = Some(id);
        }
        alive
    }

    /// [`CacheEntry::quarantine`]. A warm winner naming `id` is dropped
    /// with its marker: the stream goes back to live profiling.
    pub(crate) fn quarantine(&mut self, id: VariantId, reason: QuarantineReason) -> bool {
        let fresh = self.entry.quarantine(id, reason);
        if self.warm && self.winner == Some(id) {
            self.winner = None;
            self.warm = false;
        }
        fresh
    }

    /// Drops the winner, its warm marker and the recorded selection;
    /// quarantine is kept.
    pub(crate) fn invalidate(&mut self) {
        self.entry.invalidate();
        self.winner = None;
        self.warm = false;
    }
}

/// The write-ahead journal of a journaling store.
#[derive(Debug, Default)]
struct Wal {
    /// `None` without journaling, or once an error disabled it.
    journal: Option<Journal>,
    /// Counts appends and compactions (the owning service's sink).
    sink: Option<Arc<EventSink>>,
    /// Chaos kill point: appends this process may make before the
    /// journal goes silent.
    kill_after: Option<u64>,
    /// Appends made in this process.
    appends: u64,
    /// Why journaling was disabled, if it was.
    error: Option<StateError>,
}

/// The learned-state store: a sharded map of per-stream [`CacheEntry`]s
/// plus warm markers, with per-shard locks and no global `&mut`, safe to
/// hit from any number of threads.
///
/// Invariants (property-tested against a single-map model in
/// `crates/dysel-core/tests/shard_prop.rs`):
///
/// * entries are never lost — every key ever touched stays present;
/// * a quarantined variant is never resurrected — [`Self::warm_restore`]
///   and [`Self::commit`] refuse to select it and [`Self::quarantine`]
///   drops a selection that names it;
/// * a warm marker never outlives its winner, nor survives the winner's
///   quarantine;
/// * every operation is atomic under its shard lock, so a
///   [`Self::snapshot`] never observes a half-applied update.
///
/// Mutating operations report whether they changed the entry. A store
/// with a journal attached (a [`crate::LaunchService`] with a state path)
/// appends each change as it commits it, so replaying the journal over
/// the last checkpoint reconstructs the store.
#[derive(Debug)]
pub struct ShardedCache {
    shards: Box<[Mutex<HashMap<StreamKey, Slot>>]>,
    /// Held across a checkpoint's export, save and truncation, so no
    /// append can land between the snapshot and the truncation.
    wal: Mutex<Wal>,
}

impl ShardedCache {
    /// A cache with `shards` independent lock domains (min 1).
    pub fn new(shards: usize) -> Self {
        let n = shards.max(1);
        ShardedCache {
            shards: (0..n).map(|_| Mutex::new(HashMap::new())).collect(),
            wal: Mutex::new(Wal::default()),
        }
    }

    /// Which shard a key lives on.
    pub fn shard_of(&self, key: &StreamKey) -> usize {
        (key.hash64() % self.shards.len() as u64) as usize
    }

    /// Applies `f` to the key's slot under its shard lock and journals
    /// the entry change, if any.
    fn update<R>(&self, key: &StreamKey, f: impl FnOnce(&mut Slot) -> R) -> R {
        let (old, new, r) = {
            let mut shard = lock(&self.shards[self.shard_of(key)]);
            let slot = shard.entry(key.clone()).or_default();
            let old = slot.entry.clone();
            let r = f(slot);
            (old, slot.entry.clone(), r)
        };
        // Appended outside the shard lock: a checkpoint holds the journal
        // lock while it snapshots the shards.
        if old != new {
            self.journal(key, &old, &new);
        }
        r
    }

    /// Records the variant a completed launch ran as the stream's
    /// selection. Launches keep reusing the stream's winner (its last
    /// micro-profiling winner or warm restore); this changes only the
    /// recorded entry. A selection naming a variant already quarantined
    /// for the stream is ignored — quarantine always wins, whatever the
    /// operation order. Returns whether the entry changed.
    pub fn insert(&self, key: &StreamKey, selected: VariantId, variants: u32) -> bool {
        self.update(key, |s| s.entry.select(selected, variants))
    }

    /// Quarantines a variant for the stream. Idempotent per variant (the
    /// first reason wins); a selection naming the variant is dropped —
    /// quarantine always beats selection. Returns whether the variant was
    /// newly quarantined.
    pub fn quarantine(&self, key: &StreamKey, id: VariantId, reason: QuarantineReason) -> bool {
        self.update(key, |s| s.quarantine(id, reason))
    }

    /// Restores a persisted selection as the stream's warm winner,
    /// unless the variant is quarantined for this stream — a quarantined
    /// variant is never resurrected. Returns whether the restore was
    /// applied.
    pub fn warm_restore(&self, key: &StreamKey, selected: VariantId, variants: u32) -> bool {
        self.update(key, |s| {
            let applied = s.select(selected, variants);
            s.warm |= applied;
            applied
        })
    }

    /// Drops the stream's selection and winner (stale) and the warm
    /// marker. Quarantine entries are kept — staleness never
    /// rehabilitates a faulty variant.
    pub fn invalidate(&self, key: &StreamKey) {
        self.update(key, Slot::invalidate);
    }

    /// Commits a launch's view of the stream, with `entry.selection` as
    /// its winner: its selection, variant count and warm marker replace
    /// the stored ones, and every quarantine is applied over them, so
    /// quarantine still wins. Returns whether the entry changed.
    pub fn commit(&self, key: &StreamKey, entry: &CacheEntry, warm: bool) -> bool {
        let slot = Slot {
            entry: entry.clone(),
            winner: entry.selection,
            warm,
        };
        self.write(key, &slot)
    }

    /// Writes back a launch's slot: its selection, winner, variant count
    /// and warm marker replace the stored ones, and every quarantine —
    /// stored ones first, then the launch's — is applied over them, so
    /// quarantine still wins. A variant count without a selection is
    /// dropped. Returns whether the entry changed.
    pub(crate) fn write(&self, key: &StreamKey, slot: &Slot) -> bool {
        self.update(key, |s| {
            let mut fresh = slot.clone();
            fresh.entry.quarantine.clear();
            if fresh.entry.selection.is_none() {
                fresh.entry.variants = 0;
            }
            let old = std::mem::replace(s, fresh);
            for &(id, reason) in old.entry.quarantine.iter().chain(&slot.entry.quarantine) {
                s.quarantine(id, reason);
            }
            s.warm &= s.winner.is_some();
            s.entry != old.entry
        })
    }

    /// The stream's entry and warm marker, for a launch to work on.
    pub(crate) fn read(&self, key: &StreamKey) -> Slot {
        lock(&self.shards[self.shard_of(key)])
            .get(key)
            .cloned()
            .unwrap_or_default()
    }

    /// The stream's entry, if any operation ever touched it.
    pub fn get(&self, key: &StreamKey) -> Option<CacheEntry> {
        lock(&self.shards[self.shard_of(key)])
            .get(key)
            .map(|s| s.entry.clone())
    }

    /// Whether the stream's winner is a warm restore no launch has
    /// replaced yet. Read-only inspection: launches read the marker with
    /// the entry, and the property tests check it through this.
    pub fn is_warm(&self, key: &StreamKey) -> bool {
        self.read(key).warm
    }

    /// Total entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).len()).sum()
    }

    /// Whether no entry exists.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry (a runtime reset).
    pub(crate) fn clear(&self) {
        for shard in self.shards.iter() {
            lock(shard).clear();
        }
    }

    /// A canonical point-in-time copy: shards are locked one at a time (an
    /// entry is updated atomically under its shard lock, so no torn entry
    /// can be observed), results are key-ordered.
    pub fn snapshot(&self) -> BTreeMap<StreamKey, CacheEntry> {
        let mut out = BTreeMap::new();
        for shard in self.shards.iter() {
            for (k, v) in lock(shard).iter() {
                out.insert(k.clone(), v.entry.clone());
            }
        }
        out
    }

    /// Applies loaded journal records with the store's own rules, as a
    /// checkpoint load and journal recovery both do: a selection becomes a
    /// warm restore, a quarantine and an invalidation apply as themselves.
    pub(crate) fn replay(&self, records: &[JournalRecord]) {
        for record in records {
            let (JournalRecord::Select {
                tenant, signature, ..
            }
            | JournalRecord::Quarantine {
                tenant, signature, ..
            }
            | JournalRecord::Invalidate { tenant, signature }) = record;
            let key = StreamKey::new(TenantId(*tenant), signature.clone());
            match *record {
                JournalRecord::Select {
                    variant, variants, ..
                } => {
                    self.warm_restore(&key, variant, variants);
                }
                JournalRecord::Quarantine {
                    variant, reason, ..
                } => {
                    self.quarantine(&key, variant, reason);
                }
                JournalRecord::Invalidate { .. } => self.invalidate(&key),
            }
        }
    }

    /// Attaches a write-ahead journal: every later change is appended to
    /// it, and appends and compactions are counted into `sink`. With
    /// `kill_after` (chaos), appends past that many go silent, as if the
    /// process had died.
    pub(crate) fn attach_journal(
        &self,
        journal: Journal,
        kill_after: Option<u64>,
        sink: Arc<EventSink>,
    ) {
        let mut wal = lock(&self.wal);
        wal.journal = Some(journal);
        wal.kill_after = kill_after;
        wal.sink = Some(sink);
    }

    /// Why journaling was disabled, if a journal write failed.
    pub(crate) fn journal_error(&self) -> Option<StateError> {
        lock(&self.wal).error.clone()
    }

    /// Appends the records turning `old` into `new` (a no-op without a
    /// journal). A failed append disables journaling; the store itself is
    /// unaffected.
    fn journal(&self, key: &StreamKey, old: &CacheEntry, new: &CacheEntry) {
        let mut wal = lock(&self.wal);
        let wal = &mut *wal;
        let Some(journal) = wal.journal.as_mut() else {
            return;
        };
        for record in old.changes(key, new) {
            if wal.kill_after.is_some_and(|k| wal.appends >= k) {
                journal.kill();
            }
            match journal.append(&record) {
                Ok(true) => {
                    wal.appends += 1;
                    if let Some(sink) = &wal.sink {
                        sink.count(names::SERVICE_JOURNAL_APPENDS, 1);
                    }
                }
                Ok(false) => {}
                Err(e) => {
                    wal.error = Some(e);
                    break;
                }
            }
        }
        if wal.error.is_some() {
            wal.journal = None;
        }
    }

    /// Writes a checkpoint of the whole store to `path`, stamped with the
    /// journal sequence, and truncates the journal it absorbs — a
    /// compaction, counted and announced in the journal's sink.
    pub(crate) fn checkpoint(&self, path: &Path) -> Result<(), StateError> {
        self.compact(&mut lock(&self.wal), path)
    }

    /// The automatic checkpoint: runs only once the journal holds `every`
    /// records, and a failure disables journaling instead of being
    /// returned.
    pub(crate) fn maybe_checkpoint(&self, path: &Path, every: u64) {
        let mut wal = lock(&self.wal);
        let due = wal.journal.as_ref();
        if !due.is_some_and(|j| j.is_alive() && j.appended() >= every.max(1)) {
            return;
        }
        if let Err(e) = self.compact(&mut wal, path) {
            wal.error = Some(e);
            wal.journal = None;
        }
    }

    /// [`Self::checkpoint`] under the journal lock the caller holds.
    fn compact(&self, wal: &mut Wal, path: &Path) -> Result<(), StateError> {
        self.write_checkpoint(path, wal.journal.as_ref().map_or(0, Journal::seq))?;
        let Some(journal) = wal.journal.as_mut() else {
            return Ok(());
        };
        journal.compacted()?;
        if let Some(sink) = &wal.sink {
            let seq = journal.seq();
            sink.count(names::SERVICE_JOURNAL_COMPACTIONS, 1);
            sink.emit(Event::new(Stage::JournalCompact).detail(format!("seq {seq}")));
        }
        Ok(())
    }

    /// Atomically writes the store to `path` as a checkpoint stamped with
    /// journal sequence `seq`: every entry's rebuilding records, in key
    /// order, so saving the same store twice writes the same bytes and
    /// loading it rebuilds [`Self::snapshot`] exactly. An empty entry (a
    /// stream touched but holding nothing) is kept too, as the
    /// invalidation that recreates it.
    pub(crate) fn write_checkpoint(&self, path: &Path, seq: u64) -> Result<(), StateError> {
        let records: Vec<JournalRecord> = self
            .snapshot()
            .iter()
            .flat_map(|(key, entry)| {
                let mut records = CacheEntry::default().changes(key, entry);
                if records.is_empty() {
                    records.push(JournalRecord::Invalidate {
                        tenant: key.tenant.0,
                        signature: key.signature.clone(),
                    });
                }
                records
            })
            .collect();
        persist::save(seq, &records, path)
    }
}
