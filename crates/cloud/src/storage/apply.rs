//! Pure state-mutation functions for the `Ingest`-class endpoints.
//!
//! Each function is the store-mutating core of one mutating handler,
//! extracted so two callers share one body of logic: the handlers (which
//! add metrics and build wire responses from the returned outcome) and
//! WAL hydration (which re-applies logged requests *directly* to a store
//! being rebuilt — going through `handle` from inside a store acquisition
//! would recurse back into the residency manager).
//!
//! Everything here is deterministic and idempotent by the stores' own
//! sequence watermarks: re-applying an already-absorbed request is a
//! no-op, which is what makes WAL replay safe regardless of how the
//! snapshot watermark and the log tail overlap.

use pmware_algorithms::gca::{GcaConfig, IncrementalGca};
use pmware_algorithms::route::{RouteObservation, RouteStore};
use pmware_algorithms::signature::DiscoveredPlaceId;
use pmware_world::GsmObservation;

use crate::api::Request;
use crate::payload::{
    DiscoverBody, LabelBody, RequestBody, SyncContactsBody, SyncPlacesBody, SyncProfileBody,
    SyncRoutesBody,
};
use crate::state::UserStore;

/// Outcome of a discover offload.
pub(crate) struct DiscoverOutcome {
    /// Whether an already-absorbed prefix was skipped (idempotent replay).
    pub(crate) replayed: bool,
}

/// Outcome of a full-replacement sync (places or routes).
pub(crate) struct SyncOutcome {
    /// Entries stored after the sync.
    pub(crate) stored: usize,
    /// Whether the request was stale (sequence at or below the watermark).
    pub(crate) stale: bool,
}

/// Outcome of a per-day profile upsert.
pub(crate) struct ProfileOutcome {
    /// The day synced.
    pub(crate) day: u64,
    /// Whether the upsert was stale for that day.
    pub(crate) stale: bool,
}

/// Outcome of a social-contact append.
pub(crate) struct ContactsOutcome {
    /// Contacts stored after the append.
    pub(crate) stored: usize,
    /// The acknowledged stream watermark.
    pub(crate) acked_upto: u64,
    /// Whether a re-sent prefix was skipped.
    pub(crate) replayed: bool,
}

/// Folds a GSM observation batch into the store's incremental engine
/// (the `POST /api/v1/places/discover` core). `Err` is the 400 message
/// for an invalid compressed batch or an out-of-order unseen tail.
pub(crate) fn apply_discover(
    store: &mut UserStore,
    config: &GcaConfig,
    body: &DiscoverBody,
) -> Result<DiscoverOutcome, String> {
    // A batched body decodes to the exact observation sequence the client
    // encoded, so both spellings feed the same absorb path and reach the
    // same engine state. The plain-array path borrows the typed body
    // directly — no copy.
    let decoded;
    let observations: &[GsmObservation] = match &body.batch {
        Some(batch) => match batch.decode() {
            Ok(observations) => {
                decoded = observations;
                &decoded
            }
            Err(e) => return Err(format!("invalid batch: {e}")),
        },
        None => &body.observations,
    };
    // `start` is the batch's offset in the client's observation stream;
    // an unsequenced body continues at the watermark. A duplicated or
    // retried delivery re-sends a prefix the engine already absorbed —
    // skip it; only the unseen tail is folded in. A start past the
    // watermark means the server lost its engine: restart from this
    // batch, which is authoritative.
    let start = body.start.unwrap_or(store.absorbed_upto);
    let restart = start > store.absorbed_upto || store.gca.is_none();
    let skip = if restart {
        0
    } else {
        (store.absorbed_upto - start) as usize
    };
    let tail = observations.get(skip..).unwrap_or_default();
    // The engine absorbs only time-ordered suffixes that continue its
    // log; anything else is refused before the store is touched.
    let last = match &store.gca {
        Some(engine) if !restart => engine.last_time(),
        _ => None,
    };
    let continues = match (last, tail.first()) {
        (Some(last), Some(first)) => last <= first.time,
        _ => true,
    };
    if !continues || !tail.windows(2).all(|w| w[0].time <= w[1].time) {
        return Err("invalid batch: observations out of order".to_owned());
    }
    if restart {
        store.gca = Some(IncrementalGca::new(config.clone()));
        store.absorbed_upto = start;
    }
    if !tail.is_empty() {
        store.absorbed_upto = start + observations.len() as u64;
        let engine = store.gca.as_mut().expect("engine ensured above");
        engine.absorb(tail);
        store.places = engine.places().places;
    }
    Ok(DiscoverOutcome { replayed: skip > 0 })
}

/// Full replacement of the stored places, sequence-guarded (the
/// `POST /api/v1/places/sync` core).
pub(crate) fn apply_places_sync(store: &mut UserStore, body: &SyncPlacesBody) -> SyncOutcome {
    // A full replacement that was reordered behind a newer one (or
    // delivered twice) must not clobber it.
    let stale = body.seq.is_some_and(|seq| seq <= store.places_seq);
    if !stale {
        store.places = body.places.clone();
        if let Some(seq) = body.seq {
            store.places_seq = seq;
        }
    }
    SyncOutcome {
        stored: store.places.len(),
        stale,
    }
}

/// Attaches a user label to a place (the `POST /api/v1/places/label`
/// core). `None` means the place does not exist.
pub(crate) fn apply_label(store: &mut UserStore, body: &LabelBody) -> Option<DiscoveredPlaceId> {
    let place = store.places.iter_mut().find(|p| p.id == body.place)?;
    place.label = Some(body.label.clone());
    Some(place.id)
}

/// Full replacement of the stored routes, sequence-guarded; the canonical
/// set is rebuilt from the traversals (the `POST /api/v1/routes/sync`
/// core).
pub(crate) fn apply_routes_sync(store: &mut UserStore, body: &SyncRoutesBody) -> SyncOutcome {
    if body.seq.is_some_and(|seq| seq <= store.routes_seq) {
        return SyncOutcome {
            stored: store.routes.routes().len(),
            stale: true,
        };
    }
    let mut fresh = RouteStore::new(0.5);
    for route in &body.routes {
        for start in &route.traversals {
            let _ = fresh.record(RouteObservation {
                from: route.from,
                to: route.to,
                start: *start,
                end: *start,
                geometry: route.geometry.clone(),
            });
        }
    }
    let stored = fresh.routes().len();
    store.routes = fresh;
    if let Some(seq) = body.seq {
        store.routes_seq = seq;
    }
    SyncOutcome {
        stored,
        stale: false,
    }
}

/// Per-day profile upsert with per-day sequence staleness (the
/// `POST /api/v1/profiles/sync` core).
pub(crate) fn apply_profiles_sync(store: &mut UserStore, body: &SyncProfileBody) -> ProfileOutcome {
    let day = body.profile.day;
    // Per-day upsert sequencing: a duplicate delivery or a stale version
    // reordered behind a newer one is acknowledged without re-applying,
    // so the history (and its generation) only moves for new data.
    let stale = body
        .seq
        .is_some_and(|seq| store.profile_seq.get(&day).is_some_and(|&s| seq <= s));
    if !stale {
        store.history.upsert(body.profile.clone());
        if let Some(seq) = body.seq {
            store.profile_seq.insert(day, seq);
        }
    }
    ProfileOutcome { day, stale }
}

/// Appends encounters, deduplicating re-sent prefixes through the stream
/// watermark (the `POST /api/v1/social/sync` core).
pub(crate) fn apply_social_sync(store: &mut UserStore, body: &SyncContactsBody) -> ContactsOutcome {
    // Skip the prefix already absorbed (a retried buffer re-sends from
    // its unacknowledged base), append only unseen entries, and
    // acknowledge the new watermark so the client can drain its buffer.
    // An unsequenced body continues at the watermark; a base past it
    // means the server lost state — absorb everything and resync.
    let first_seq = body.first_seq.unwrap_or(store.contacts_absorbed);
    let len = body.contacts.len() as u64;
    if first_seq > store.contacts_absorbed {
        store.contacts_absorbed = first_seq;
    }
    let skip = (store.contacts_absorbed - first_seq) as usize;
    if (skip as u64) < len {
        store
            .contacts
            .extend(body.contacts.iter().skip(skip).cloned());
        store.contacts_absorbed = first_seq + len;
    }
    ContactsOutcome {
        stored: store.contacts.len(),
        acked_upto: store.contacts_absorbed,
        replayed: skip > 0,
    }
}

/// Re-applies one logged mutating request directly to a store under
/// hydration. Only the `Ingest`-class paths are dispatched — the WAL
/// logs nothing else under a non-registration record — and parse
/// failures are ignored: every logged request already succeeded once.
pub(crate) fn apply_request(store: &mut UserStore, config: &GcaConfig, request: &Request) {
    fn with<B: RequestBody>(request: &Request, f: impl FnOnce(&B)) {
        if let Some(body) = B::from_payload(&request.body) {
            f(body);
        } else if let Ok(body) = request.body.parse::<B>() {
            f(&body);
        }
    }
    match request.path.as_str() {
        "/api/v1/places/discover" => with::<DiscoverBody>(request, |body| {
            let _ = apply_discover(store, config, body);
        }),
        "/api/v1/places/sync" => with::<SyncPlacesBody>(request, |body| {
            apply_places_sync(store, body);
        }),
        "/api/v1/places/label" => with::<LabelBody>(request, |body| {
            apply_label(store, body);
        }),
        "/api/v1/routes/sync" => with::<SyncRoutesBody>(request, |body| {
            apply_routes_sync(store, body);
        }),
        "/api/v1/profiles/sync" => with::<SyncProfileBody>(request, |body| {
            apply_profiles_sync(store, body);
        }),
        "/api/v1/social/sync" => with::<SyncContactsBody>(request, |body| {
            apply_social_sync(store, body);
        }),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::ContactEntry;
    use pmware_world::SimTime;

    fn contact(name: &str, at_s: u64) -> ContactEntry {
        ContactEntry {
            contact: name.to_owned(),
            start: SimTime::from_seconds(at_s),
            end: SimTime::from_seconds(at_s + 60),
            place: None,
        }
    }

    #[test]
    fn replaying_a_sync_is_idempotent() {
        let mut store = UserStore::default();
        let body = SyncContactsBody {
            contacts: vec![contact("p1", 10), contact("p2", 20)],
            first_seq: Some(0),
        };
        let first = apply_social_sync(&mut store, &body);
        assert_eq!(
            (first.stored, first.acked_upto, first.replayed),
            (2, 2, false)
        );
        let again = apply_social_sync(&mut store, &body);
        assert_eq!(
            (again.stored, again.acked_upto, again.replayed),
            (2, 2, true)
        );
    }

    #[test]
    fn apply_request_routes_by_path() {
        let mut store = UserStore::default();
        let config = GcaConfig::default();
        let body = SyncContactsBody {
            contacts: vec![contact("p1", 5)],
            first_seq: Some(0),
        };
        let request = Request::post("/api/v1/social/sync", body);
        apply_request(&mut store, &config, &request);
        assert_eq!(store.contacts.len(), 1);
        assert_eq!(store.contacts_absorbed, 1);
    }
}
