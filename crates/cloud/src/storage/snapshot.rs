//! Compacted per-user snapshots: the serialized form an evicted
//! [`UserStore`] parks in, and the store that holds them.
//!
//! A snapshot captures everything hydration needs to rebuild the exact
//! store: the client-visible state, the idempotency watermarks, and the
//! discovery engine as `(config, observation log)` — the engine itself is
//! rebuilt by a single `absorb` of the full log, which PR 2's
//! split-invariance property pins bit-identical to the incremental
//! original. The memoized next-place model is kept only when it was
//! current at snapshot time, and re-tagged to the *post-deserialize*
//! history generation (deserializing rebuilds the history via upserts, so
//! the generation counter restarts).
//!
//! Residency-cap-only mode parks snapshots in memory (bounding the
//! expensive live state — engines, graphs, indexes — not total RSS).
//! With a store directory configured, snapshot bytes go to disk under
//! `<store_dir>/snapshots/` and only the per-key WAL watermark stays
//! resident, which is what keeps capped RSS flat as the population grows.

use std::collections::{BTreeMap, HashMap};
use std::fs;
use std::path::{Path, PathBuf};

use parking_lot::Mutex;
use pmware_algorithms::gca::{GcaConfig, IncrementalGca};
use pmware_algorithms::route::RouteStore;
use pmware_algorithms::signature::DiscoveredPlace;
use pmware_world::GsmObservation;
use serde::{Deserialize, Serialize};

use crate::analytics::ProfileHistory;
use crate::predict::MarkovPredictor;
use crate::profile::ContactEntry;
use crate::state::UserStore;

/// The discovery engine's durable form: its config plus the full absorbed
/// log. Rebuilt on hydration by one batch absorb.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct GcaSnapshot {
    config: GcaConfig,
    log: Vec<GsmObservation>,
}

/// Serialized form of one [`UserStore`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct UserSnapshot {
    places: Vec<DiscoveredPlace>,
    routes: RouteStore,
    history: ProfileHistory,
    contacts: Vec<ContactEntry>,
    gca: Option<GcaSnapshot>,
    /// Present only when the memo was current at snapshot time.
    next_place: Option<MarkovPredictor>,
    absorbed_upto: u64,
    contacts_absorbed: u64,
    /// Sorted map for byte-stable serialization (the live store uses a
    /// `HashMap`).
    profile_seq: BTreeMap<u64, u64>,
    places_seq: u64,
    routes_seq: u64,
}

impl UserSnapshot {
    /// Captures a store. The store is not consumed: eviction serializes
    /// under the store mutex, then drops the live entry.
    pub(crate) fn from_store(store: &UserStore) -> UserSnapshot {
        let gca = store.gca.as_ref().map(|engine| GcaSnapshot {
            config: engine.config().clone(),
            log: engine.observations().to_vec(),
        });
        // Persist the memoized predictor only if it is current — a stale
        // memo would be dropped on the next query anyway.
        let next_place = store
            .next_place
            .as_ref()
            .filter(|(generation, _)| *generation == store.history.generation())
            .map(|(_, model)| model.clone());
        UserSnapshot {
            places: store.places.clone(),
            routes: store.routes.clone(),
            history: store.history.clone(),
            contacts: store.contacts.clone(),
            gca,
            next_place,
            absorbed_upto: store.absorbed_upto,
            contacts_absorbed: store.contacts_absorbed,
            profile_seq: store.profile_seq.iter().map(|(k, v)| (*k, *v)).collect(),
            places_seq: store.places_seq,
            routes_seq: store.routes_seq,
        }
    }

    /// Rebuilds the live store.
    pub(crate) fn into_store(self) -> UserStore {
        let gca = self.gca.map(|snapshot| {
            let mut engine = IncrementalGca::new(snapshot.config);
            engine.absorb(&snapshot.log);
            engine
        });
        let history = self.history;
        // Re-tag the memo with the rebuilt history's generation: custom
        // deserialization replays upserts, so the counter restarts at the
        // profile count rather than the original run's value.
        let next_place = self.next_place.map(|model| (history.generation(), model));
        UserStore {
            places: self.places,
            routes: self.routes,
            history,
            contacts: self.contacts,
            gca,
            next_place,
            absorbed_upto: self.absorbed_upto,
            contacts_absorbed: self.contacts_absorbed,
            profile_seq: self.profile_seq.into_iter().collect(),
            places_seq: self.places_seq,
            routes_seq: self.routes_seq,
        }
    }
}

/// One parked snapshot. `json` is `None` when the bytes live on disk
/// (durable mode): only the watermark stays resident.
#[derive(Debug, Clone)]
struct StoredSnapshot {
    /// Highest WAL sequence folded into the snapshot.
    wal_seq: u64,
    /// The serialized [`UserSnapshot`] — in-memory mode only.
    json: Option<String>,
}

#[derive(Debug, Default)]
struct SnapState {
    by_key: BTreeMap<String, StoredSnapshot>,
    dir: Option<PathBuf>,
}

/// The snapshot store: per-key parked stores, in memory or on disk.
#[derive(Debug, Default)]
pub(crate) struct SnapshotStore {
    inner: Mutex<SnapState>,
}

/// FNV-1a over the key: the disambiguating suffix of snapshot filenames
/// and the WAL shard-file hash.
pub(crate) fn fnv64(key: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in key.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A filesystem-safe spelling of an identity key: alphanumerics survive,
/// everything else becomes `_`, and an FNV suffix keeps collided
/// sanitizations apart.
fn file_name_of(key: &str) -> String {
    let safe: String = key
        .chars()
        .take(48)
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    format!("{safe}-{:016x}.json", fnv64(key))
}

impl SnapshotStore {
    /// Points the store at a durability directory (creating
    /// `snapshots/`). Snapshots already parked in memory are flushed to
    /// disk and their bytes released.
    pub(crate) fn set_dir(&self, dir: Option<&Path>) {
        let mut state = self.inner.lock();
        state.dir = dir.map(|d| d.join("snapshots"));
        if let Some(dir) = state.dir.clone() {
            let _ = fs::create_dir_all(&dir);
            for (key, snapshot) in state.by_key.iter_mut() {
                if let Some(json) = snapshot.json.take() {
                    let record = envelope(key, snapshot.wal_seq, &json);
                    let _ = fs::write(dir.join(file_name_of(key)), record);
                }
            }
        }
    }

    /// Parks (or refreshes) `key`'s snapshot.
    pub(crate) fn put(&self, key: &str, wal_seq: u64, json: String) {
        let mut state = self.inner.lock();
        let stored = if let Some(dir) = &state.dir {
            let _ = fs::write(dir.join(file_name_of(key)), envelope(key, wal_seq, &json));
            StoredSnapshot {
                wal_seq,
                json: None,
            }
        } else {
            StoredSnapshot {
                wal_seq,
                json: Some(json),
            }
        };
        state.by_key.insert(key.to_owned(), stored);
    }

    /// The parked snapshot for `key` as `(wal watermark, store JSON)`,
    /// reading disk in durable mode.
    pub(crate) fn get(&self, key: &str) -> Option<(u64, String)> {
        let state = self.inner.lock();
        let snapshot = state.by_key.get(key)?;
        if let Some(json) = &snapshot.json {
            return Some((snapshot.wal_seq, json.clone()));
        }
        let dir = state.dir.as_ref()?;
        let text = fs::read_to_string(dir.join(file_name_of(key))).ok()?;
        let value: serde_json::Value = serde_json::from_str(&text).ok()?;
        let json = value["store"].as_str()?.to_owned();
        Some((snapshot.wal_seq, json))
    }

    /// Whether `key` has a parked snapshot.
    #[cfg(test)]
    pub(crate) fn contains(&self, key: &str) -> bool {
        self.inner.lock().by_key.contains_key(key)
    }

    /// Per-key WAL watermarks — what compaction may drop.
    pub(crate) fn watermarks(&self) -> HashMap<String, u64> {
        self.inner
            .lock()
            .by_key
            .iter()
            .map(|(k, s)| (k.clone(), s.wal_seq))
            .collect()
    }

    /// Loads every snapshot found under `dir/snapshots/` (crash
    /// recovery). Bytes stay on disk; only watermarks come resident.
    /// Unparseable files are skipped.
    pub(crate) fn load(&self, dir: &Path) {
        let mut state = self.inner.lock();
        let snap_dir = dir.join("snapshots");
        state.dir = Some(snap_dir.clone());
        let Ok(entries) = fs::read_dir(&snap_dir) else {
            let _ = fs::create_dir_all(&snap_dir);
            return;
        };
        let mut names: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
        names.sort();
        for path in names {
            let Ok(text) = fs::read_to_string(&path) else {
                continue;
            };
            let Ok(value) = serde_json::from_str::<serde_json::Value>(&text) else {
                continue;
            };
            let (Some(key), Some(wal_seq)) = (value["key"].as_str(), value["wal_seq"].as_u64())
            else {
                continue;
            };
            state.by_key.insert(
                key.to_owned(),
                StoredSnapshot {
                    wal_seq,
                    json: None,
                },
            );
        }
    }
}

/// The on-disk envelope: the key (files are content-addressed, the key
/// inside is authoritative), the WAL watermark, and the store JSON.
fn envelope(key: &str, wal_seq: u64, json: &str) -> String {
    let mut map = BTreeMap::new();
    map.insert("key".to_owned(), serde_json::Value::String(key.to_owned()));
    map.insert(
        "wal_seq".to_owned(),
        serde_json::Value::Number(serde_json::Number::PosInt(wal_seq)),
    );
    map.insert(
        "store".to_owned(),
        serde_json::Value::String(json.to_owned()),
    );
    serde_json::to_string(&serde_json::Value::Object(map)).expect("envelope serializes")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_round_trips_an_empty_store() {
        let store = UserStore::default();
        let json = serde_json::to_string(&UserSnapshot::from_store(&store)).unwrap();
        let back: UserSnapshot = serde_json::from_str(&json).unwrap();
        let rebuilt = back.into_store();
        assert!(rebuilt.places.is_empty());
        assert!(rebuilt.gca.is_none());
        assert_eq!(rebuilt.absorbed_upto, 0);
    }

    #[test]
    fn file_names_are_safe_and_distinct() {
        let a = file_name_of("350-1|u1@example.com");
        let b = file_name_of("350-1|u2@example.com");
        assert_ne!(a, b);
        assert!(a
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-' || c == '.'));
    }

    #[test]
    fn memory_store_put_get() {
        let store = SnapshotStore::default();
        assert!(store.get("k").is_none());
        store.put("k", 7, "{}".to_owned());
        assert!(store.contains("k"));
        assert_eq!(store.get("k").unwrap(), (7, "{}".to_owned()));
        assert_eq!(store.watermarks().get("k"), Some(&7));
    }
}
