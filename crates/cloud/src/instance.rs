//! The cloud instance: a middleware stack over shared state.
//!
//! §2.3 of the paper: the cloud instance *"is responsible for storing and
//! managing long-term human mobility patterns, helping mobile service in
//! place/route discovery process, as well as performing advanced analytics
//! and prediction operations"*. The authors ran it as a Django/Apache
//! service on Windows Azure; here it is an in-process server speaking the
//! same REST/JSON shape.
//!
//! [`CloudInstance`] no longer contains any endpoint logic. It is:
//!
//! * **state** — an `Arc<`[`CloudCore`]`>` (token store, user shards, cell
//!   database, GCA config, admission controller, metrics), shared with
//!   every layer;
//! * **the stack** — outage → request metrics → latency queue →
//!   admission control → auth → relocation → shard accounting
//!   ([`crate::layer`]), bottoming out in the route-table dispatcher
//!   ([`crate::router`]);
//! * **construction and accessors** — builders (`with_obs`,
//!   `with_admission`) plus the snapshot views tests and benches read.
//!
//! Concurrency model (unchanged from the pre-stack revisions): per-user
//! state lives in [`SHARD_COUNT`] lock shards keyed by `UserId`, the
//! token registry is behind a read-write lock (validation — the hot path
//! — takes the read side), the cell database is immutable, and the outage
//! flag is an atomic. User ids and tokens derive from device identity
//! (see [`crate::auth`]), so no request's outcome depends on the order
//! concurrent requests ran in. All methods take `&self`; [`SharedCloud`]
//! is the cheap cloneable handle clients hold.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use pmware_algorithms::gca::GcaConfig;
use pmware_algorithms::signature::DiscoveredPlace;
use pmware_obs::Obs;
use pmware_world::{SimDuration, SimTime};

use crate::admission::AdmissionConfig;
use crate::api::{Request, Response};
use crate::auth::{DeviceIdentity, TokenStore, UserId};
use crate::geolocate::CellDatabase;
use crate::latency::LatencyProfile;
use crate::layer::{
    AdmissionLayer, AuthLayer, Layer, Next, OutageLayer, QueueLayer, RelocationLayer,
    RequestMetricsLayer, RouterService, ShardAccountingLayer,
};
use crate::profile::{ContactEntry, MobilityProfile};
use crate::state::{CloudCore, CloudMetrics};
use crate::storage::wal::WalOp;
use crate::storage::{StorageConfig, StorageEngine};

pub use crate::state::SHARD_COUNT;

/// The PMWare cloud instance (PCI).
///
/// All methods take `&self`: the instance synchronizes internally (see the
/// module docs) and can be driven from many threads at once through
/// [`SharedCloud`].
///
/// # Examples
///
/// ```
/// use pmware_cloud::{CellDatabase, CloudInstance, Request};
/// use pmware_world::SimTime;
/// use serde_json::json;
///
/// let cloud = CloudInstance::new(CellDatabase::new(), 1);
/// let req = Request::post(
///     "/api/v1/registration",
///     json!({"imei": "350123", "email": "a@example.com"}),
/// );
/// let resp = cloud.handle(&req, SimTime::EPOCH);
/// assert!(resp.is_success());
/// assert!(resp.json()["token"].is_string());
/// ```
#[derive(Debug)]
pub struct CloudInstance {
    core: Arc<CloudCore>,
    layers: Vec<Arc<dyn Layer>>,
    service: RouterService,
}

/// Cloneable, thread-safe handle to a [`CloudInstance`].
///
/// Derefs to the instance, so every `CloudInstance` method is available on
/// the handle directly:
///
/// ```
/// use pmware_cloud::{CellDatabase, CloudInstance, SharedCloud};
///
/// let cloud = SharedCloud::new(CloudInstance::new(CellDatabase::new(), 7));
/// let for_thread = cloud.clone(); // same instance, cheap to clone
/// assert_eq!(cloud.user_count(), 0);
/// assert_eq!(for_thread.user_count(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct SharedCloud(Arc<CloudInstance>);

impl SharedCloud {
    /// Wraps an instance into a shareable handle.
    pub fn new(instance: CloudInstance) -> Self {
        SharedCloud(Arc::new(instance))
    }
}

impl From<CloudInstance> for SharedCloud {
    fn from(instance: CloudInstance) -> Self {
        SharedCloud::new(instance)
    }
}

impl std::ops::Deref for SharedCloud {
    type Target = CloudInstance;

    fn deref(&self) -> &CloudInstance {
        &self.0
    }
}

impl CloudInstance {
    /// Creates an instance with a 24-hour token TTL; `seed` keys its token
    /// strings.
    pub fn new(cells: CellDatabase, seed: u64) -> Self {
        Self::assemble(CloudCore {
            tokens: RwLock::new(TokenStore::new(SimDuration::from_hours(24), seed)),
            storage: StorageEngine::new(),
            cells,
            gca_config: RwLock::new(GcaConfig::default()),
            outage: AtomicBool::new(false),
            admission: Default::default(),
            latency: Default::default(),
            metrics: CloudMetrics::new(),
            relocated: RwLock::new(HashSet::new()),
        })
    }

    /// Builds the layer stack over a core. Order is load-bearing — see
    /// DESIGN.md §5f: outage answers before anything is counted (byte
    /// compatibility with the pre-stack monolith), request metrics sit
    /// above admission so shed 429s stay visible per endpoint, admission
    /// sheds before auth spends effort, and shard accounting attributes
    /// only requests that passed auth.
    fn assemble(core: CloudCore) -> CloudInstance {
        let core = Arc::new(core);
        let layers: Vec<Arc<dyn Layer>> = vec![
            Arc::new(OutageLayer {
                core: Arc::clone(&core),
            }),
            Arc::new(RequestMetricsLayer {
                core: Arc::clone(&core),
            }),
            Arc::new(QueueLayer {
                core: Arc::clone(&core),
            }),
            Arc::new(AdmissionLayer {
                core: Arc::clone(&core),
            }),
            Arc::new(AuthLayer {
                core: Arc::clone(&core),
            }),
            Arc::new(RelocationLayer {
                core: Arc::clone(&core),
            }),
            Arc::new(ShardAccountingLayer {
                core: Arc::clone(&core),
            }),
        ];
        let service = RouterService {
            core: Arc::clone(&core),
        };
        CloudInstance {
            core,
            layers,
            service,
        }
    }

    /// Binds the instance's counters (per-shard and per-endpoint requests,
    /// replay counts, analytics cache hits, admission denials) to `obs`,
    /// carrying anything already recorded. A builder, meant to run before
    /// the instance is wrapped in a [`SharedCloud`]:
    ///
    /// ```
    /// use pmware_cloud::{CellDatabase, CloudInstance, SharedCloud};
    /// use pmware_obs::Obs;
    ///
    /// let obs = Obs::new();
    /// let cloud = SharedCloud::new(CloudInstance::new(CellDatabase::new(), 1).with_obs(&obs));
    /// ```
    pub fn with_obs(self, obs: &Obs) -> CloudInstance {
        let CloudInstance {
            core,
            layers,
            service,
        } = self;
        // The stack holds the only other `Arc`s to the core; drop it so
        // the core can be unwrapped and its metrics rebound.
        drop(layers);
        drop(service);
        let mut core = Arc::try_unwrap(core)
            .expect("with_obs is a builder: call it before sharing the instance");
        let obs = obs.clone().metrics_or(&core.metrics.obs);
        let previous = std::mem::replace(&mut core.metrics, CloudMetrics::resolve(obs));
        for (new, old) in core.metrics.counters().zip(previous.counters()) {
            let v = old.get();
            if v > 0 {
                new.set(v);
            }
        }
        Self::assemble(core)
    }

    /// Enables the deterministic admission controller with `config`, as a
    /// builder. Off by default; see [`CloudInstance::set_admission`].
    pub fn with_admission(self, config: AdmissionConfig) -> CloudInstance {
        self.set_admission(Some(config));
        self
    }

    /// Enables the sim-time latency model with `profile`, as a builder.
    /// Off by default; see [`CloudInstance::set_latency`].
    pub fn with_latency(self, profile: LatencyProfile) -> CloudInstance {
        self.set_latency(Some(profile));
        self
    }

    /// Enables the storage engine with `config`, as a builder. Off by
    /// default; see [`CloudInstance::set_storage`].
    pub fn with_storage(self, config: StorageConfig) -> CloudInstance {
        self.set_storage(Some(config));
        self
    }

    /// Enables (`Some`) or disables (`None`) the storage engine at
    /// runtime: LRU residency under `resident_cap`, the durable WAL and
    /// on-disk snapshots under `store_dir`, and the day-cadence
    /// snapshot+compaction sweep. Enabling binds the
    /// `cloud_store_resident_users` gauge and the eviction/hydration
    /// counters to the instance's registry — call after
    /// [`CloudInstance::with_obs`] so they land in the shared one.
    /// Disabling re-hydrates every parked snapshot back into RAM.
    /// Disabled (the default) the engine is byte-identical to the
    /// historical in-RAM store path.
    pub fn set_storage(&self, config: Option<StorageConfig>) {
        let gca = self.core.gca_config.read().clone();
        self.core
            .storage
            .configure(config, &self.core.metrics.obs, &gca);
    }

    /// Rebuilds an instance from a durable store directory after a crash.
    ///
    /// `config.store_dir` must point at the directory a previous
    /// durable-mode instance wrote. The WAL shard files and parked
    /// snapshots are loaded, every logged registration re-enrolls its
    /// device, and every logged token grant restores its generation with
    /// its original expiry — so exactly the tokens that were live at the
    /// crash validate again, and a token a refresh had rotated away stays
    /// dead. User *stores* are not rebuilt eagerly: each hydrates on first
    /// touch from its snapshot plus the WAL suffix — recovery cost is
    /// O(logged auth records), not O(history). The engine clock starts at
    /// `now`.
    pub fn recover(
        cells: CellDatabase,
        seed: u64,
        config: StorageConfig,
        now: SimTime,
    ) -> CloudInstance {
        let instance = CloudInstance::new(cells, seed);
        instance.set_storage(Some(config));
        let storage = &instance.core.storage;
        storage.load_dir();
        {
            let mut tokens = instance.core.tokens.write();
            // Records come in (key, sequence) order, and a key's
            // registration precedes its grants.
            let mut registered: Option<(String, DeviceIdentity)> = None;
            for record in storage.logged_records() {
                match (&record.op, &registered) {
                    (WalOp::Request(request), _) => {
                        if let Some(identity) = DeviceIdentity::registering(request) {
                            registered = Some((record.key, identity));
                        }
                    }
                    (
                        WalOp::TokenGrant {
                            generation,
                            expires_at,
                            revokes,
                        },
                        Some((key, identity)),
                    ) if *key == record.key => {
                        let restored =
                            tokens.restore(identity.clone(), *generation, *expires_at, *revokes);
                        if let Ok(user) = restored {
                            storage.bind_key(user, key);
                        }
                    }
                    _ => {}
                }
            }
        }
        storage.tick(now);
        instance
    }

    /// Stores currently resident in RAM (all touched users while the
    /// storage engine is disabled).
    pub fn resident_users(&self) -> usize {
        self.core.storage.resident_users()
    }

    /// Whether `user`'s store is resident in RAM (as opposed to parked in
    /// a snapshot). Always true for a touched user while the storage
    /// engine is disabled.
    pub fn is_resident(&self, user: UserId) -> bool {
        self.core.storage.is_resident(user)
    }

    /// Users evicted to snapshots so far.
    pub fn eviction_count(&self) -> u64 {
        self.core.storage.eviction_count()
    }

    /// Stores hydrated from snapshots/WAL so far.
    pub fn hydration_count(&self) -> u64 {
        self.core.storage.hydration_count()
    }

    /// Enables (`Some`) or disables (`None`) the sim-time latency model
    /// at runtime. Enabling resets all queues and binds the
    /// `cloud_request_latency_us{endpoint,class}` histograms and the
    /// `cloud_queue_shed_total` counter to the instance's registry — call
    /// after [`CloudInstance::with_obs`] so they land in the shared one.
    /// Disabled (the default) the model adds zero metric keys and zero
    /// cost beyond one atomic load per request.
    pub fn set_latency(&self, profile: Option<LatencyProfile>) {
        match profile {
            Some(profile) => self.core.latency.enable(profile, &self.core.metrics.obs),
            None => self.core.latency.disable(),
        }
    }

    /// The instance's current queue depth (admitted, unfinished requests)
    /// at simulated instant `now`; 0 while the latency model is disabled.
    pub fn queue_depth(&self, now: SimTime) -> u64 {
        self.core.latency.health_stats(now).0
    }

    /// p99 request latency observed so far, in microseconds (bucket
    /// bound); 0 while the latency model is disabled.
    pub fn latency_p99_us(&self) -> u64 {
        // Depth needs a clock; p99 does not — pass the epoch and take
        // only the quantile half of the pair.
        self.core.latency.health_stats(SimTime::EPOCH).1
    }

    /// Requests shed by the queue layer so far.
    pub fn queue_shed_count(&self) -> u64 {
        self.core.latency.shed_count()
    }

    /// Enables (`Some`) or disables (`None`) admission control at
    /// runtime. Enabling resets all token buckets; requests over budget
    /// are answered 429 with a `retry_after_s` hint.
    pub fn set_admission(&self, config: Option<AdmissionConfig>) {
        match config {
            Some(config) => self.core.admission.enable(config),
            None => self.core.admission.disable(),
        }
    }

    /// Fault injection for tests and resilience experiments: while an
    /// outage is active every request fails with 503, as if the Azure
    /// instance were unreachable. The phone must keep working (§2.3.1's
    /// offload has a local fallback).
    pub fn set_outage(&self, outage: bool) {
        self.core.outage.store(outage, Ordering::SeqCst);
    }

    /// Whether an outage is currently injected.
    pub fn outage(&self) -> bool {
        self.core.outage()
    }

    /// Overrides the GCA configuration used by the discovery offload.
    ///
    /// Per-user incremental engines were built under the old parameters,
    /// so they are dropped; each user's next offload starts a fresh
    /// engine (intended as a deployment-setup call, not a hot reconfig).
    pub fn set_gca_config(&self, config: GcaConfig) {
        *self.core.gca_config.write() = config;
        // The config write lock is released before any user lock is taken
        // (same lock-order rule as the discover endpoint). The engine
        // invalidates resident *and* parked (snapshotted) engines.
        self.core.storage.invalidate_gca();
    }

    /// Number of registered users.
    pub fn user_count(&self) -> usize {
        self.core.tokens.read().user_count()
    }

    /// Number of per-user lock shards.
    pub fn shard_count(&self) -> usize {
        SHARD_COUNT
    }

    /// Authenticated requests handled so far, broken down by shard — a
    /// snapshot view over the metrics registry.
    ///
    /// Unauthenticated `/api/v1/registration` requests never reach a
    /// shard and are **not** counted here; since they still cost the
    /// server work, they are counted in the metrics registry under
    /// `cloud_requests_total{endpoint="register"}`.
    pub fn shard_request_counts(&self) -> Vec<u64> {
        self.core
            .metrics
            .shard_requests
            .iter()
            .map(|c| c.get())
            .collect()
    }

    /// Total authenticated requests handled so far. Registrations are
    /// excluded — see [`CloudInstance::shard_request_counts`].
    pub fn total_requests(&self) -> u64 {
        self.shard_request_counts().iter().sum()
    }

    /// Admission-control denials so far, summed over rate classes.
    pub fn admission_denials(&self) -> u64 {
        self.core
            .metrics
            .admission_denied
            .iter()
            .map(|c| c.get())
            .sum()
    }

    /// Observations held by `user`'s discovery engine. The chaos suite's
    /// duplicate-absorb invariant: this never exceeds the client's own
    /// GSM log length, no matter how often offloads are retried,
    /// duplicated, or reordered.
    pub fn observation_count(&self, user: UserId) -> usize {
        let store = self.core.store_of(user);
        let store = store.lock();
        store
            .gca
            .as_ref()
            .map_or(0, |engine| engine.observation_count())
    }

    /// Social encounters stored for `user` — the dual invariant for
    /// contacts (each encounter is absorbed exactly once).
    pub fn contact_count(&self, user: UserId) -> usize {
        self.core.store_of(user).lock().contacts.len()
    }

    /// Snapshot of `user`'s stored contacts.
    pub fn contacts_of(&self, user: UserId) -> Vec<ContactEntry> {
        self.core.store_of(user).lock().contacts.clone()
    }

    /// Snapshot of `user`'s stored places.
    pub fn places_of(&self, user: UserId) -> Vec<DiscoveredPlace> {
        self.core.store_of(user).lock().places.clone()
    }

    /// Snapshot of `user`'s stored day profiles, ordered by day.
    pub fn profiles_of(&self, user: UserId) -> Vec<MobilityProfile> {
        let store = self.core.store_of(user);
        let store = store.lock();
        store.history.iter().cloned().collect()
    }

    /// Marks `user`'s state as migrated away: the relocation layer will
    /// answer their authenticated requests with
    /// [`crate::STATUS_MISDIRECTED`] until (if ever) the user is adopted
    /// back. Driven by the federation [`crate::topology::TopologyRouter`]
    /// at failover/drain time.
    pub fn mark_relocated(&self, user: UserId) {
        self.core.relocated.write().insert(user);
    }

    /// Transplants a live client session onto this instance after a
    /// migration replay: grafts the client's current `token` onto the
    /// user a replayed registration enrolled as `identity`, and clears any
    /// relocation mark (fail-back). Returns that user — the same id the
    /// identity has on every instance — or `None` if no replay registered
    /// the identity here.
    pub fn adopt_session(
        &self,
        identity: &DeviceIdentity,
        token: &str,
        expires_at: SimTime,
    ) -> Option<UserId> {
        let user = self
            .core
            .tokens
            .write()
            .adopt(identity, token, expires_at)?;
        self.core.relocated.write().remove(&user);
        Some(user)
    }

    /// Handles one request at simulated instant `now` — the single entry
    /// point, exactly like an HTTP dispatcher: the request runs down the
    /// middleware stack into the route-table dispatcher.
    pub fn handle(&self, request: &Request, now: SimTime) -> Response {
        // Storage-engine clock tick (accessor-path LRU stamps) and the
        // day-cadence compaction hook; an atomic store + load when the
        // engine is disabled.
        self.core.storage.tick(now);
        Next::new(&self.layers, &self.service).run(request, now)
    }
}

// The once-empty ProfileHistory fallback of earlier revisions is gone:
// `store_of` creates a (default) store on first touch, so analytics
// endpoints always have a history to read.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CloudInstance>();
    assert_send_sync::<SharedCloud>();
};
