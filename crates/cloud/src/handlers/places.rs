//! Place discovery offload, sync, listing and labelling (§2.3.1/§2.3.3).
//!
//! The store-mutating cores live in [`crate::storage::apply`] — shared
//! with WAL hydration — so a replayed request reproduces exactly what the
//! original handler did. The handlers here add metrics and build the wire
//! responses.

use super::{with_body, Ctx};
use crate::api::{Request, Response};
use crate::payload::{DiscoverBody, LabelBody, Payload, SyncPlacesBody};
use crate::storage::apply;

/// `POST /api/v1/places/discover` — the GCA offload: fold a GSM
/// observation batch into the caller's persistent incremental engine.
pub(crate) fn discover(ctx: &Ctx<'_>, request: &Request) -> Response {
    with_body::<DiscoverBody>(request, |body| {
        // Absorbing under the user lock only serializes this user's own
        // requests — other users live behind other mutexes.
        let store = ctx.store();
        let mut store = store.lock();
        match apply::apply_discover(&mut store, &ctx.core.gca_config, body) {
            Ok(outcome) => {
                if outcome.replayed {
                    ctx.core.metrics.replay_discover.inc();
                }
                Response::ok(Payload::Discovered {
                    places: store.places.clone(),
                    absorbed_upto: store.absorbed_upto,
                })
            }
            Err(message) => Response::bad_request(message),
        }
    })
}

/// `POST /api/v1/places/sync` — full replacement of the stored places,
/// sequence-guarded against reordered/duplicated deliveries.
pub(crate) fn sync(ctx: &Ctx<'_>, request: &Request) -> Response {
    with_body::<SyncPlacesBody>(request, |body| {
        let store = ctx.store();
        let mut store = store.lock();
        let outcome = apply::apply_places_sync(&mut store, body);
        if outcome.stale {
            ctx.core.metrics.replay_places_sync.inc();
        }
        Response::ok(Payload::SyncAck {
            stored: outcome.stored,
            stale: outcome.stale,
        })
    })
}

/// `GET /api/v1/places` — the caller's stored places.
pub(crate) fn list(ctx: &Ctx<'_>, _request: &Request) -> Response {
    let store = ctx.store();
    let places = store.lock().places.clone();
    Response::ok(Payload::Places { places })
}

/// `POST /api/v1/places/label` — attaches a user label to a place.
pub(crate) fn label(ctx: &Ctx<'_>, request: &Request) -> Response {
    with_body::<LabelBody>(request, |body| {
        let store = ctx.store();
        let mut store = store.lock();
        match apply::apply_label(&mut store, body) {
            Some(labelled) => Response::ok(Payload::Labelled { labelled }),
            None => Response::not_found("unknown place"),
        }
    })
}
