//! Shared server state: per-user stores, lock shards, registry-backed
//! metrics, and the [`CloudCore`] bundle every middleware layer and
//! handler operates on.
//!
//! Splitting this out of `instance.rs` is what lets the service be a
//! *stack*: layers and the router terminal each hold an `Arc<CloudCore>`
//! and touch exactly the state they need, instead of one monolith owning
//! both the state and every behavior.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};

use parking_lot::RwLock;
use pmware_algorithms::gca::{GcaConfig, IncrementalGca};
use pmware_algorithms::route::RouteStore;
use pmware_algorithms::signature::DiscoveredPlace;
use pmware_obs::{Counter, Obs};
use pmware_world::SimTime;

use crate::admission::AdmissionControl;
use crate::analytics::ProfileHistory;
use crate::auth::{TokenStore, UserId};
use crate::geolocate::CellDatabase;
use crate::latency::LatencyControl;
use crate::predict::MarkovPredictor;
use crate::profile::ContactEntry;
use crate::router::{ENDPOINT_COUNT, ENDPOINT_LABELS};
use crate::storage::{StorageEngine, StoreGuard};

/// Number of per-user lock shards.
pub const SHARD_COUNT: usize = 16;

/// Per-user server-side state.
#[derive(Debug)]
pub(crate) struct UserStore {
    pub(crate) places: Vec<DiscoveredPlace>,
    pub(crate) routes: RouteStore,
    pub(crate) history: ProfileHistory,
    pub(crate) contacts: Vec<ContactEntry>,
    /// Persistent incremental discovery engine: each offload folds its
    /// suffix in instead of re-clustering (and forgetting) from scratch.
    /// Created lazily on first offload with the instance's GCA config.
    pub(crate) gca: Option<IncrementalGca>,
    /// Memoized Markov model, tagged with the [`ProfileHistory`]
    /// generation it was trained at; a profile upsert bumps the
    /// generation, which invalidates this entry on the next query.
    pub(crate) next_place: Option<(u64, MarkovPredictor)>,
    /// Observations absorbed through the sequenced discover path: a
    /// duplicated or re-sent offload whose `start` falls behind this
    /// watermark has its already-seen prefix skipped instead of being
    /// double-absorbed.
    pub(crate) absorbed_upto: u64,
    /// Contacts absorbed through the sequenced social sync; the dual of
    /// `absorbed_upto` for encounters.
    pub(crate) contacts_absorbed: u64,
    /// Highest sync sequence accepted per profile day: a stale (reordered
    /// or duplicated) upsert is ignored rather than re-applied.
    pub(crate) profile_seq: HashMap<u64, u64>,
    /// Highest sequence accepted for the places full-replacement sync.
    pub(crate) places_seq: u64,
    /// Highest sequence accepted for the routes full-replacement sync.
    pub(crate) routes_seq: u64,
}

impl Default for UserStore {
    fn default() -> Self {
        UserStore {
            places: Vec::new(),
            routes: RouteStore::new(0.5),
            history: ProfileHistory::new(),
            contacts: Vec::new(),
            gca: None,
            next_place: None,
            absorbed_upto: 0,
            contacts_absorbed: 0,
            profile_seq: HashMap::new(),
            places_seq: 0,
            routes_seq: 0,
        }
    }
}

/// Registry-backed cloud counters, all bound to one registry: the
/// instance's own until `CloudInstance::with_obs` rebinds them to a
/// study-wide one. Every value is order-independent — user ids, and so
/// the user → shard mapping, derive from device identity — so a shared
/// snapshot is byte-identical at any thread count.
#[derive(Debug)]
pub(crate) struct CloudMetrics {
    /// The registry the counters bind to. Kept so late enablers — the
    /// latency model resolves its histograms at `set_latency` time, not
    /// construction time — bind to the same registry. Lazy resolution is
    /// what keeps a disabled model from adding metric keys.
    pub(crate) obs: Obs,
    pub(crate) shard_requests: Vec<Counter>,
    /// Indexed by [`crate::router::endpoint_index`].
    pub(crate) endpoint_requests: Vec<Counter>,
    pub(crate) replay_discover: Counter,
    pub(crate) replay_places_sync: Counter,
    pub(crate) replay_routes_sync: Counter,
    pub(crate) replay_profiles_sync: Counter,
    pub(crate) replay_social_sync: Counter,
    pub(crate) cache_hits: Counter,
    pub(crate) cache_misses: Counter,
    /// Admission-control denials, per rate class.
    pub(crate) admission_denied: Vec<Counter>,
    /// Wall-clock latency per endpoint, bench builds only.
    #[cfg(feature = "wallclock")]
    pub(crate) endpoint_nanos: Vec<pmware_obs::Histogram>,
}

impl CloudMetrics {
    pub(crate) fn new() -> CloudMetrics {
        Self::resolve(Obs::new().for_actor("cloud"))
    }

    pub(crate) fn resolve(obs: Obs) -> CloudMetrics {
        let shard_requests = (0..SHARD_COUNT)
            .map(|i| {
                let shard = format!("{i:02}");
                obs.counter("cloud_shard_requests_total", &[("shard", &shard)])
            })
            .collect();
        let endpoint_requests: Vec<Counter> = ENDPOINT_LABELS
            .iter()
            .map(|label| obs.counter("cloud_requests_total", &[("endpoint", label)]))
            .collect();
        debug_assert_eq!(endpoint_requests.len(), ENDPOINT_COUNT);
        let admission_denied = crate::router::ALL_RATE_CLASSES
            .iter()
            .map(|class| obs.counter("cloud_admission_denied_total", &[("class", class.label())]))
            .collect();
        #[cfg(feature = "wallclock")]
        let endpoint_nanos = ENDPOINT_LABELS
            .iter()
            .map(|label| {
                obs.histogram(
                    "cloud_endpoint_nanos",
                    &[("endpoint", label)],
                    &pmware_obs::profiling::NANO_BOUNDS,
                )
            })
            .collect();
        CloudMetrics {
            shard_requests,
            endpoint_requests,
            replay_discover: obs.counter("cloud_replays_total", &[("endpoint", "places_discover")]),
            replay_places_sync: obs.counter("cloud_replays_total", &[("endpoint", "places_sync")]),
            replay_routes_sync: obs.counter("cloud_replays_total", &[("endpoint", "routes_sync")]),
            replay_profiles_sync: obs
                .counter("cloud_replays_total", &[("endpoint", "profiles_sync")]),
            replay_social_sync: obs.counter("cloud_replays_total", &[("endpoint", "social_sync")]),
            cache_hits: obs.counter("cloud_analytics_cache_total", &[("result", "hit")]),
            cache_misses: obs.counter("cloud_analytics_cache_total", &[("result", "miss")]),
            admission_denied,
            #[cfg(feature = "wallclock")]
            endpoint_nanos,
            obs,
        }
    }

    /// Every counter, in a fixed order (rebinding carries values across).
    pub(crate) fn counters(&self) -> impl Iterator<Item = &Counter> {
        self.shard_requests
            .iter()
            .chain(&self.endpoint_requests)
            .chain(&self.admission_denied)
            .chain([
                &self.replay_discover,
                &self.replay_places_sync,
                &self.replay_routes_sync,
                &self.replay_profiles_sync,
                &self.replay_social_sync,
                &self.cache_hits,
                &self.cache_misses,
            ])
    }

    /// The admission-denial counter for a rate class.
    pub(crate) fn admission_denied(&self, class: crate::router::RateClass) -> &Counter {
        let slot = crate::router::ALL_RATE_CLASSES
            .iter()
            .position(|c| *c == class)
            .expect("known class");
        &self.admission_denied[slot]
    }
}

/// Everything the middleware stack and the handlers operate on. The
/// layers each hold an `Arc<CloudCore>`; `CloudInstance` is construction,
/// public accessors, and the stack itself.
#[derive(Debug)]
pub(crate) struct CloudCore {
    pub(crate) tokens: RwLock<TokenStore>,
    /// The storage engine every `UserStore` access flows through: the
    /// sharded resident maps plus (when enabled) the WAL, snapshots, and
    /// the LRU residency manager. See [`crate::storage`].
    pub(crate) storage: StorageEngine,
    pub(crate) cells: CellDatabase,
    pub(crate) gca_config: RwLock<GcaConfig>,
    pub(crate) outage: AtomicBool,
    pub(crate) admission: AdmissionControl,
    /// The sim-time latency model: per-endpoint service draws, queueing,
    /// and load shedding (see [`crate::latency`]). Disabled by default.
    pub(crate) latency: LatencyControl,
    pub(crate) metrics: CloudMetrics,
    /// Users whose state has been migrated to another instance during a
    /// federation failover or drain. The relocation layer answers their
    /// authenticated requests with 421 so the federated endpoint refreshes
    /// its topology instead of mutating abandoned state. A user re-adopted
    /// by this instance (fail-back) is removed from the set.
    pub(crate) relocated: RwLock<HashSet<UserId>>,
}

impl CloudCore {
    /// Whether an outage is currently injected.
    pub(crate) fn outage(&self) -> bool {
        self.outage.load(Ordering::SeqCst)
    }

    /// The per-user store at simulated instant `now`, created (or
    /// hydrated from its parked snapshot) if not resident. The guard pins
    /// the user against eviction while held.
    pub(crate) fn store_at(&self, user: UserId, now: SimTime) -> StoreGuard {
        self.storage.acquire(user, now, &self.gca_config)
    }

    /// [`CloudCore::store_at`] stamped with the engine's last-seen
    /// clock — the accessor-path spelling for callers that carry no
    /// simulated instant of their own.
    pub(crate) fn store_of(&self, user: UserId) -> StoreGuard {
        self.store_at(user, self.storage.clock_now())
    }
}
