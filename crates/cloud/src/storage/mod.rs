//! The cloud storage engine: WAL, compacted snapshots, LRU residency.
//!
//! Every [`UserStore`] access in the cloud flows through this subsystem
//! (enforced by `make lint-storage`). Off — the default — it is the old
//! sharded in-RAM map behind one atomic load, byte-identical to the
//! pre-engine behavior. Enabled via [`StorageConfig`] (one-way: an
//! enabled engine stays on for the instance's lifetime) it adds, in
//! composable pieces:
//!
//! * **Residency cap** (`resident_cap`): at most K stores live in RAM.
//!   Acquiring a non-resident user hydrates it (from snapshot + WAL
//!   suffix); exceeding the cap evicts the deterministic sim-time-LRU
//!   victim (oldest access stamp, user-id tie-break) to a compacted
//!   snapshot. Pins held by in-flight [`StoreGuard`]s shield a store from
//!   eviction, so the cap is soft under extreme concurrent pinning.
//! * **Durability** (`store_dir`): every successful mutating request is
//!   appended to a per-shard JSONL WAL before the response is returned to
//!   the transport, snapshots park on disk instead of RAM, and
//!   [`StorageEngine::load_dir`] plus the logged registrations and token
//!   grants rebuild the exact instance after a crash
//!   ([`crate::instance::CloudInstance::recover`]).
//! * **Compaction** (`snapshot_every_days`): on a sim-day cadence the
//!   engine refreshes every resident user's snapshot, drops WAL records
//!   the snapshots cover (registrations and token grants are exempt — they
//!   rebuild the auth registry, which snapshots do not capture), and
//!   rewrites the shard files.
//!
//! Lock order, engine-wide: residency mutex → shard `RwLock` → store
//! mutex → WAL mutex → snapshot-store mutex. [`StoreGuard::drop`]
//! takes the residency mutex, which is safe because the store mutex a
//! guard hands out is always released before the guard itself drops
//! (later bindings and later temporaries drop first).
//!
//! Determinism: with the engine disabled, behavior is byte-identical to
//! the pre-engine cloud. Enabled, the *final* state is schedule-
//! independent (hydration restores exactly what eviction parked), while
//! eviction/hydration *counter values* are deterministic under
//! single-threaded driving — the same caveat as the shared-queue latency
//! mode.

pub(crate) mod apply;
pub(crate) mod residency;
pub(crate) mod snapshot;
pub(crate) mod wal;

use std::collections::HashMap;
use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard, RwLock};
use pmware_algorithms::gca::GcaConfig;
use pmware_obs::{Counter, FieldValue, Gauge, Obs, SpanSink};
use pmware_world::SimTime;

use crate::api::Request;
use crate::auth::{AuthToken, UserId};
use crate::state::{UserStore, SHARD_COUNT};

use residency::{ResidencyState, Shard};
use snapshot::{SnapshotStore, UserSnapshot};
use wal::{WalLog, WalOp, WalRecord};

pub(crate) use snapshot::fnv64;

/// The identity key of a user the WAL never saw register (tests and
/// benches that talk to stores directly).
fn fallback_key(user: UserId) -> String {
    format!("uid:{:08}", user.0)
}

/// Storage engine configuration. All pieces are optional and composable;
/// `StorageConfig::default()` (no cap, no directory) enables the engine
/// bookkeeping without changing retention.
#[derive(Debug, Clone)]
pub struct StorageConfig {
    /// Maximum stores resident in RAM; `None` = unbounded (no eviction).
    pub resident_cap: Option<usize>,
    /// Durability directory for the WAL and parked snapshots; `None`
    /// keeps everything in memory (a crash loses state, as before).
    pub store_dir: Option<PathBuf>,
    /// Sim-day cadence of the snapshot+compaction sweep in durable mode;
    /// `0` disables periodic compaction (eviction still compacts).
    pub snapshot_every_days: u64,
}

impl Default for StorageConfig {
    fn default() -> StorageConfig {
        StorageConfig {
            resident_cap: None,
            store_dir: None,
            snapshot_every_days: 7,
        }
    }
}

/// Residency metrics and the span sink, bound at enable time (the lazy
/// pattern the latency model uses: disabled, the engine adds zero metric
/// keys).
#[derive(Debug)]
struct StorageMetrics {
    evictions: Counter,
    hydrations: Counter,
    resident: Gauge,
    spans: Option<Arc<SpanSink>>,
}

impl Default for StorageMetrics {
    fn default() -> StorageMetrics {
        StorageMetrics {
            evictions: Counter::noop(),
            hydrations: Counter::noop(),
            resident: Gauge::noop(),
            spans: None,
        }
    }
}

/// The durable half of the WAL: the in-memory log plus lazily opened
/// per-shard JSONL appenders.
#[derive(Debug, Default)]
struct WalState {
    log: WalLog,
    dir: Option<PathBuf>,
    files: Vec<Option<fs::File>>,
}

impl WalState {
    /// The shard file index a key's records land in: a hash of the
    /// identity key, so a key's file never depends on which users exist.
    fn file_index(key: &str) -> usize {
        (fnv64(key) % SHARD_COUNT as u64) as usize
    }

    /// Appends one record to its shard file (durable mode only).
    fn persist(&mut self, record: &WalRecord) {
        let Some(dir) = &self.dir else {
            return;
        };
        let idx = Self::file_index(&record.key);
        if self.files[idx].is_none() {
            self.files[idx] = fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(dir.join(format!("wal-{idx:02}.jsonl")))
                .ok();
        }
        if let Some(file) = &mut self.files[idx] {
            let line = serde_json::to_string(&record.to_json()).expect("wal record serializes");
            let _ = writeln!(file, "{line}");
            let _ = file.flush();
        }
    }

    /// Rewrites every shard file from the (compacted) in-memory log,
    /// atomically per file (write-then-rename).
    fn rewrite_files(&mut self) {
        let Some(dir) = self.dir.clone() else {
            return;
        };
        let mut lines: Vec<String> = vec![String::new(); SHARD_COUNT];
        for record in self.log.all_records() {
            let line = serde_json::to_string(&record.to_json()).expect("wal record serializes");
            let slot = &mut lines[Self::file_index(&record.key)];
            slot.push_str(&line);
            slot.push('\n');
        }
        for (idx, content) in lines.iter().enumerate() {
            let path = dir.join(format!("wal-{idx:02}.jsonl"));
            let tmp = dir.join(format!("wal-{idx:02}.jsonl.tmp"));
            // Drop the open appender before replacing the file under it.
            self.files[idx] = None;
            if fs::write(&tmp, content).is_ok() {
                let _ = fs::rename(&tmp, &path);
            }
        }
    }
}

/// Everything the engine owns, shared between the core and outstanding
/// [`StoreGuard`] pins.
#[derive(Debug)]
pub(crate) struct EngineInner {
    enabled: AtomicBool,
    /// Per-user lock shards — the resident population.
    shards: Vec<Shard>,
    config: RwLock<StorageConfig>,
    wal: Mutex<WalState>,
    snapshots: SnapshotStore,
    residency: Mutex<ResidencyState>,
    /// User → identity key, bound at registration success (the id is a
    /// hash of the key, so the reverse needs no map).
    keys: RwLock<HashMap<UserId, String>>,
    /// Last simulated instant seen by `handle` (seconds): the LRU stamp
    /// for accessor-path acquisitions that carry no clock of their own.
    clock: AtomicU64,
    /// Sim-day of the last compaction sweep.
    compact_day: AtomicU64,
    /// Monotonic hydration-span sequence (trace-id input).
    hydration_seq: AtomicU64,
    metrics: RwLock<StorageMetrics>,
}

/// A pinned handle to one user's store. While any guard for a user is
/// alive, the residency manager will not evict that user; the pin is
/// released on drop. `lock()` hands out the store mutex exactly like the
/// bare `Arc<Mutex<UserStore>>` the cloud used to pass around.
#[derive(Debug)]
pub(crate) struct StoreGuard {
    store: Arc<Mutex<UserStore>>,
    pin: Option<(Arc<EngineInner>, UserId)>,
}

impl StoreGuard {
    /// Locks the underlying store.
    pub(crate) fn lock(&self) -> MutexGuard<'_, UserStore> {
        self.store.lock()
    }
}

impl Drop for StoreGuard {
    fn drop(&mut self) {
        if let Some((inner, user)) = self.pin.take() {
            inner.residency.lock().unpin(user);
        }
    }
}

/// The storage engine — see the module docs.
#[derive(Debug)]
pub(crate) struct StorageEngine {
    inner: Arc<EngineInner>,
}

impl StorageEngine {
    /// An engine that is off, over empty shards (the default
    /// construction).
    pub(crate) fn new() -> StorageEngine {
        StorageEngine {
            inner: Arc::new(EngineInner {
                enabled: AtomicBool::new(false),
                shards: (0..SHARD_COUNT).map(|_| Shard::default()).collect(),
                config: RwLock::new(StorageConfig::default()),
                wal: Mutex::new(WalState {
                    files: (0..SHARD_COUNT).map(|_| None).collect(),
                    ..WalState::default()
                }),
                snapshots: SnapshotStore::default(),
                residency: Mutex::new(ResidencyState::default()),
                keys: RwLock::new(HashMap::new()),
                clock: AtomicU64::new(0),
                compact_day: AtomicU64::new(0),
                hydration_seq: AtomicU64::new(0),
                metrics: RwLock::new(StorageMetrics::default()),
            }),
        }
    }

    /// Whether the engine is enabled.
    pub(crate) fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::SeqCst)
    }

    /// The last simulated instant `tick` saw (the accessor-path LRU
    /// stamp).
    pub(crate) fn clock_now(&self) -> SimTime {
        SimTime::from_seconds(self.inner.clock.load(Ordering::SeqCst))
    }

    /// Whether durable mode (a store directory) is active.
    pub(crate) fn is_durable(&self) -> bool {
        self.is_enabled() && self.inner.wal.lock().dir.is_some()
    }

    /// The shard a user's resident store lives in.
    fn shard(&self, user: UserId) -> &Shard {
        &self.inner.shards[user.shard()]
    }

    /// The identity key a user's durable state files under.
    fn key_of(&self, user: UserId) -> String {
        self.inner
            .keys
            .read()
            .get(&user)
            .cloned()
            .unwrap_or_else(|| fallback_key(user))
    }

    /// Binds `user` to the identity key its durable state files under
    /// (registration success, crash recovery).
    pub(crate) fn bind_key(&self, user: UserId, key: &str) {
        self.inner.keys.write().insert(user, key.to_owned());
    }

    /// Enables the engine with `config`, for good, and binds the
    /// residency metrics to `obs` — call after `with_obs` so they land in
    /// the shared registry. Stores already resident join the LRU.
    pub(crate) fn enable(&self, config: StorageConfig, obs: &Obs) {
        {
            let mut wal = self.inner.wal.lock();
            if let Some(dir) = &config.store_dir {
                let _ = fs::create_dir_all(dir);
                wal.dir = Some(dir.clone());
            } else {
                wal.dir = None;
            }
            wal.files = (0..SHARD_COUNT).map(|_| None).collect();
        }
        self.inner.snapshots.set_dir(config.store_dir.as_deref());
        *self.inner.metrics.write() = StorageMetrics {
            evictions: obs.counter("cloud_store_evictions_total", &[]),
            hydrations: obs.counter("cloud_store_hydrations_total", &[]),
            resident: obs.gauge("cloud_store_resident_users", &[]),
            spans: obs.spans().cloned(),
        };
        *self.inner.config.write() = config;
        let now_s = self.inner.clock.load(Ordering::SeqCst);
        self.inner
            .compact_day
            .store(SimTime::from_seconds(now_s).day(), Ordering::SeqCst);
        self.inner.enabled.store(true, Ordering::SeqCst);
        // Register everything already resident with the LRU, then bring
        // the population under the cap.
        let mut res = self.inner.residency.lock();
        for shard in &self.inner.shards {
            for user in shard.users.read().keys() {
                if !res.contains(*user) {
                    res.touch(*user, now_s);
                }
            }
        }
        self.inner.metrics.read().resident.set(res.len() as i64);
        self.enforce_cap(&mut res);
    }

    /// Clock tick + periodic compaction hook, called once per handled
    /// request. Disabled: one atomic store and one atomic load.
    pub(crate) fn tick(&self, now: SimTime) {
        self.inner.clock.store(now.as_seconds(), Ordering::SeqCst);
        if !self.inner.enabled.load(Ordering::SeqCst) {
            return;
        }
        self.maybe_compact(now);
    }

    /// Day-cadence snapshot + compaction sweep (durable mode).
    fn maybe_compact(&self, now: SimTime) {
        let every = self.inner.config.read().snapshot_every_days;
        if every == 0 || !self.is_durable() {
            return;
        }
        let day = now.day();
        let last = self.inner.compact_day.load(Ordering::SeqCst);
        if day < last.saturating_add(every) {
            return;
        }
        if self
            .inner
            .compact_day
            .compare_exchange(last, day, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            return;
        }
        // Refresh every resident user's snapshot so the whole log prefix
        // becomes compactable.
        let users = self.inner.residency.lock().users();
        for user in users {
            let key = self.key_of(user);
            let store = self.shard(user).users.read().get(&user).cloned();
            let Some(store) = store else {
                continue;
            };
            let json = {
                let store = store.lock();
                serde_json::to_string(&UserSnapshot::from_store(&store))
                    .expect("snapshot serializes")
            };
            let wal_seq = self.inner.wal.lock().log.last_seq(&key);
            self.inner.snapshots.put(&key, wal_seq, json);
        }
        let watermarks = self.inner.snapshots.watermarks();
        let mut wal = self.inner.wal.lock();
        for (key, upto) in &watermarks {
            wal.log.compact(key, *upto);
        }
        wal.rewrite_files();
    }

    /// Acquires `user`'s store, hydrating or creating it as needed and
    /// stamping the LRU with `now`. The returned guard pins the user
    /// against eviction until dropped.
    pub(crate) fn acquire(&self, user: UserId, now: SimTime, gca_config: &GcaConfig) -> StoreGuard {
        if !self.inner.enabled.load(Ordering::SeqCst) {
            return StoreGuard {
                store: self.store_fast(user),
                pin: None,
            };
        }
        let now_s = now.as_seconds();
        // Fast path: already resident.
        {
            let mut res = self.inner.residency.lock();
            if res.contains(user) {
                if let Some(store) = self.shard(user).users.read().get(&user) {
                    res.touch(user, now_s);
                    res.pin(user);
                    return StoreGuard {
                        store: store.clone(),
                        pin: Some((Arc::clone(&self.inner), user)),
                    };
                }
                // Inconsistent bookkeeping (store vanished): fall through
                // and rebuild.
                res.remove(user);
            }
        }
        // Slow path: hydrate or create.
        let key = self.key_of(user);
        let (store, hydrated, replayed) = self.hydrate_build(&key, gca_config);
        let mut res = self.inner.residency.lock();
        if res.contains(user) {
            // Lost the insert race: use the winner's store.
            let store = self
                .shard(user)
                .users
                .read()
                .get(&user)
                .cloned()
                .expect("resident user has a store");
            res.touch(user, now_s);
            res.pin(user);
            return StoreGuard {
                store,
                pin: Some((Arc::clone(&self.inner), user)),
            };
        }
        let store = Arc::new(Mutex::new(store));
        self.shard(user).users.write().insert(user, store.clone());
        res.touch(user, now_s);
        res.pin(user);
        {
            let metrics = self.inner.metrics.read();
            metrics.resident.add(1);
            if hydrated {
                metrics.hydrations.inc();
                if let Some(sink) = &metrics.spans {
                    let seq = self.inner.hydration_seq.fetch_add(1, Ordering::SeqCst) + 1;
                    let trace = SpanSink::trace_id(&key, seq);
                    let id = sink.alloc(trace);
                    let at_us = now_s.saturating_mul(1_000_000);
                    sink.record(
                        trace,
                        id,
                        0,
                        "hydrate",
                        at_us,
                        at_us,
                        &[
                            ("key", FieldValue::Str(key.clone())),
                            ("wal_replayed", FieldValue::U64(replayed)),
                        ],
                    );
                }
            }
        }
        self.enforce_cap(&mut res);
        StoreGuard {
            store,
            pin: Some((Arc::clone(&self.inner), user)),
        }
    }

    /// The disabled-mode store lookup: byte-identical to the historical
    /// `store_of` (shard read fast path, write lock on first touch).
    fn store_fast(&self, user: UserId) -> Arc<Mutex<UserStore>> {
        let shard = self.shard(user);
        if let Some(store) = shard.users.read().get(&user) {
            return store.clone();
        }
        shard
            .users
            .write()
            .entry(user)
            .or_insert_with(|| Arc::new(Mutex::new(UserStore::default())))
            .clone()
    }

    /// Rebuilds a user's store from its parked snapshot plus the WAL
    /// suffix past the snapshot watermark. Returns `(store, hydrated,
    /// wal records replayed)`; `hydrated` is false for a brand-new user.
    fn hydrate_build(&self, key: &str, config: &GcaConfig) -> (UserStore, bool, u64) {
        let (mut store, watermark, had_snapshot) = match self.inner.snapshots.get(key) {
            Some((wal_seq, json)) => match serde_json::from_str::<UserSnapshot>(&json) {
                Ok(snapshot) => (snapshot.into_store(), wal_seq, true),
                Err(_) => (UserStore::default(), 0, false),
            },
            None => (UserStore::default(), 0, false),
        };
        let suffix: Vec<WalRecord> = self.inner.wal.lock().log.suffix(key, watermark);
        let mut replayed = 0;
        for record in &suffix {
            if record.is_registration() {
                continue;
            }
            if let WalOp::Request(request) = &record.op {
                apply::apply_request(&mut store, config, request);
                replayed += 1;
            }
        }
        (store, had_snapshot || replayed > 0, replayed)
    }

    /// Evicts LRU victims until the resident population fits the cap.
    /// Called with the residency lock held. Pinned users are skipped, so
    /// the cap is soft while many guards are outstanding.
    fn enforce_cap(&self, res: &mut ResidencyState) {
        let Some(cap) = self.inner.config.read().resident_cap else {
            return;
        };
        while res.len() > cap {
            let Some(victim) = res.victim() else {
                break;
            };
            self.evict_locked(res, victim);
        }
    }

    /// Parks one user to a snapshot and drops the resident store. Called
    /// with the residency lock held; `victim` must be unpinned, so no
    /// handler can hold its store mutex (mutex holders hold pins).
    fn evict_locked(&self, res: &mut ResidencyState, victim: UserId) {
        let key = self.key_of(victim);
        let store = self.shard(victim).users.read().get(&victim).cloned();
        if let Some(store) = store {
            let json = {
                let store = store.lock();
                serde_json::to_string(&UserSnapshot::from_store(&store))
                    .expect("snapshot serializes")
            };
            let wal_seq = self.inner.wal.lock().log.last_seq(&key);
            self.inner.snapshots.put(&key, wal_seq, json);
            // Drop the in-memory records the snapshot now covers — this
            // prune is what keeps capped RSS flat as history accumulates.
            self.inner.wal.lock().log.compact(&key, wal_seq);
            self.shard(victim).users.write().remove(&victim);
        }
        res.remove(victim);
        let metrics = self.inner.metrics.read();
        metrics.evictions.inc();
        metrics.resident.add(-1);
    }

    /// WAL hook for a successful registration: binds the user's identity
    /// key and, in durable mode, logs the request.
    pub(crate) fn record_registration(&self, user: UserId, key: &str, request: &Request) {
        if self.is_enabled() {
            self.bind_key(user, key);
            self.append_durable(key, WalOp::request(request.clone()));
        }
    }

    /// WAL hook for a token grant (durable mode): `user` was issued
    /// `grant`, replacing generation `revokes` if a refresh issued it.
    pub(crate) fn record_grant(&self, user: UserId, grant: &AuthToken, revokes: Option<u64>) {
        if self.is_enabled() {
            let op = WalOp::TokenGrant {
                generation: grant.generation,
                expires_at: grant.expires_at,
                revokes,
            };
            self.append_durable(&self.key_of(user), op);
        }
    }

    /// WAL hook for a successful `Ingest`-class request (durable mode),
    /// called by the dispatcher after the handler: a logged record is
    /// always a request that actually shaped state.
    pub(crate) fn record_ingest(&self, request: &Request, user: UserId) {
        if self.is_enabled() {
            self.append_durable(&self.key_of(user), WalOp::request(request.clone()));
        }
    }

    /// Appends one operation to the durable log (no-op without a store
    /// directory — cap-only mode needs no log, eviction snapshots are
    /// complete).
    fn append_durable(&self, key: &str, op: WalOp) {
        let mut wal = self.inner.wal.lock();
        if wal.dir.is_none() {
            return;
        }
        let record = wal.log.append(key, op.compacted());
        wal.persist(&record);
    }

    // ---- recovery (driven by `CloudInstance::recover`) -------------------

    /// Loads the WAL shard files and parked snapshots from the configured
    /// store directory (crash recovery; call on a freshly enabled,
    /// still-empty engine).
    pub(crate) fn load_dir(&self) {
        let dir = {
            let mut wal = self.inner.wal.lock();
            let Some(dir) = wal.dir.clone() else {
                return;
            };
            for idx in 0..SHARD_COUNT {
                let Ok(text) = fs::read_to_string(dir.join(format!("wal-{idx:02}.jsonl"))) else {
                    continue;
                };
                for line in text.lines().filter(|l| !l.trim().is_empty()) {
                    let Ok(value) = serde_json::from_str::<serde_json::Value>(line) else {
                        continue;
                    };
                    if let Ok(record) = WalRecord::from_json(&value) {
                        wal.log.insert_loaded(record);
                    }
                }
            }
            wal.log.sort();
            dir
        };
        self.inner.snapshots.load(&dir);
    }

    /// Every WAL record, in (key, sequence) order — the deterministic
    /// recovery sweep.
    pub(crate) fn logged_records(&self) -> Vec<WalRecord> {
        self.inner.wal.lock().log.all_records().cloned().collect()
    }

    // ---- views -----------------------------------------------------------

    /// Stores currently resident in RAM.
    pub(crate) fn resident_users(&self) -> usize {
        if self.is_enabled() {
            self.inner.residency.lock().len()
        } else {
            self.inner.shards.iter().map(|s| s.users.read().len()).sum()
        }
    }

    /// Whether `user`'s store is resident (always true for a touched user
    /// while the engine is off).
    pub(crate) fn is_resident(&self, user: UserId) -> bool {
        if self.is_enabled() {
            self.inner.residency.lock().contains(user)
        } else {
            self.shard(user).users.read().contains_key(&user)
        }
    }

    /// Users evicted so far (0 while off).
    pub(crate) fn eviction_count(&self) -> u64 {
        self.inner.metrics.read().evictions.get()
    }

    /// Hydrations performed so far (0 while off).
    pub(crate) fn hydration_count(&self) -> u64 {
        self.inner.metrics.read().hydrations.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> StorageEngine {
        StorageEngine::new()
    }

    #[test]
    fn disabled_engine_matches_legacy_store_of() {
        let engine = engine();
        let gca = GcaConfig::default();
        let guard = engine.acquire(UserId(3), SimTime::EPOCH, &gca);
        guard.lock().places_seq = 9;
        drop(guard);
        let guard = engine.acquire(UserId(3), SimTime::EPOCH, &gca);
        assert_eq!(guard.lock().places_seq, 9);
        assert_eq!(engine.resident_users(), 1);
        assert!(engine.is_resident(UserId(3)));
        assert_eq!(engine.eviction_count(), 0);
    }

    #[test]
    fn cap_evicts_lru_and_hydrates_back() {
        let engine = engine();
        let gca = GcaConfig::default();
        engine.enable(
            StorageConfig {
                resident_cap: Some(2),
                ..StorageConfig::default()
            },
            &Obs::new(),
        );
        for (i, at) in [(1u64, 10u64), (2, 20), (3, 30)] {
            let guard = engine.acquire(UserId(i), SimTime::from_seconds(at), &gca);
            guard.lock().places_seq = i * 100;
        }
        // User 1 (oldest stamp) was evicted to a snapshot.
        assert_eq!(engine.resident_users(), 2);
        assert!(!engine.is_resident(UserId(1)));
        assert_eq!(engine.eviction_count(), 1);
        // Touching it again hydrates the parked state byte-for-byte.
        let guard = engine.acquire(UserId(1), SimTime::from_seconds(40), &gca);
        assert_eq!(guard.lock().places_seq, 100);
        assert_eq!(engine.hydration_count(), 1);
        // And pushed out user 2, now the LRU.
        assert!(!engine.is_resident(UserId(2)));
    }

    #[test]
    fn pinned_guards_shield_from_eviction() {
        let engine = engine();
        let gca = GcaConfig::default();
        engine.enable(
            StorageConfig {
                resident_cap: Some(1),
                ..StorageConfig::default()
            },
            &Obs::new(),
        );
        let pinned = engine.acquire(UserId(1), SimTime::from_seconds(1), &gca);
        let _other = engine.acquire(UserId(2), SimTime::from_seconds(2), &gca);
        // User 1 is older but pinned; user 2 is pinned too, so the cap is
        // soft until a guard drops.
        assert!(engine.is_resident(UserId(1)));
        drop(pinned);
        let _third = engine.acquire(UserId(3), SimTime::from_seconds(3), &gca);
        assert!(!engine.is_resident(UserId(1)), "unpinned LRU evicted");
    }
}
