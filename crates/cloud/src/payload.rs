//! Typed wire payloads: the zero-copy body carried by [`Request`] and
//! [`Response`].
//!
//! Historically both carried a raw `serde_json::Value`, which taxed every
//! in-process request three times: the client built a JSON tree
//! (`json!`), the handler cloned and re-parsed it (`from_value`), and a
//! retry re-encoded the whole thing. [`Payload`] replaces that with one
//! enum variant per route-table entry (plus the response shapes the
//! handlers produce), so the common in-process path moves typed Rust
//! values end-to-end with **zero serde work**.
//!
//! JSON still exists, in exactly three places:
//!
//! * **the fault boundary** — `FaultyCloud` spells every request and
//!   response as wire bytes ([`Payload::to_json`]) and re-parses them
//!   ([`Payload::from_json`]), exercising the full marshalling path the
//!   Django service saw;
//! * **the escape hatch** — [`Payload::Json`] carries any body a typed
//!   variant does not model (arbitrary test requests, `CloudClient::call`
//!   callers), preserving old behaviour byte for byte;
//! * **exports and goldens** — traces, metric dumps, and golden tests
//!   render bodies via [`Response::json`](crate::Response::json).
//!
//! **Byte-identity contract**: `to_json` produces the exact `Value` the
//! old `json!` spellings produced (object keys are `BTreeMap`-sorted, so
//! build order is irrelevant), and `from_json` only commits to a typed
//! variant when re-rendering it reproduces the original value — anything
//! else stays [`Payload::Json`]. Wire bytes therefore never change, which
//! is what keeps the chaos matrix, obs-golden, and checkpoint suites
//! passing unmodified.

use std::collections::BTreeMap;

use pmware_algorithms::route::CanonicalRoute;
use pmware_algorithms::signature::{DiscoveredPlace, DiscoveredPlaceId};
use pmware_world::{CellGlobalId, GsmObservation, SimTime};
use serde::{Deserialize, Serialize};
use serde_json::Value;

use crate::api::Method;
use crate::auth::UserId;
use crate::profile::{ContactEntry, MobilityProfile};
use crate::router::{resolve, RateClass, Resolution};
use crate::wire::ObservationBatch;

/// `POST /api/v1/registration` body.
#[derive(Debug, Clone, Deserialize)]
pub struct RegistrationBody {
    /// Device IMEI (identity key, with `email`).
    pub imei: String,
    /// Account email (identity key, with `imei`).
    pub email: String,
}

/// `POST /api/v1/topology/handshake` body — the one control-plane
/// request of the federation layer. Served by the `TopologyRouter`
/// itself, never by an instance, so the path is **not** a route-table
/// row (see [`TOPOLOGY_HANDSHAKE_PATH`]).
#[derive(Debug, Clone, Deserialize)]
pub struct HandshakeBody {
    /// Device IMEI (identity key, with `email`).
    pub imei: String,
    /// Account email (identity key, with `imei`).
    pub email: String,
}

/// Path of the topology-handshake control-plane endpoint. Deliberately
/// absent from the instance route table: an instance answering it would
/// put the router back on the hot path.
pub const TOPOLOGY_HANDSHAKE_PATH: &str = "/api/v1/topology/handshake";

/// Path of the one public instance route. The federation layer treats a
/// successful POST here as the start of a user's migration log.
pub const REGISTRATION_PATH: &str = "/api/v1/registration";

/// `POST /api/v1/places/discover` body.
#[derive(Debug, Clone, Deserialize)]
pub struct DiscoverBody {
    /// Plain observation array (legacy and low-volume clients).
    #[serde(default)]
    pub observations: Vec<GsmObservation>,
    /// Delta-compressed, dictionary-coded alternative to `observations`
    /// (the batched offload protocol). When present it wins — both here
    /// and on the wire, where a batched body never spells the plain
    /// array.
    #[serde(default)]
    pub batch: Option<ObservationBatch>,
    /// Stream offset of the first observation in the client's full GSM
    /// log: already-absorbed prefixes are skipped, so the endpoint is
    /// idempotent. Absent, the batch continues at the server's watermark.
    #[serde(default)]
    pub start: Option<u64>,
}

/// `POST /api/v1/places/sync` body.
#[derive(Debug, Clone, Deserialize)]
pub struct SyncPlacesBody {
    /// Full replacement place list.
    pub places: Vec<DiscoveredPlace>,
    /// Monotonic client sync sequence; a stale full replacement
    /// (reordered behind a newer one) is ignored.
    #[serde(default)]
    pub seq: Option<u64>,
}

/// `POST /api/v1/places/label` body.
#[derive(Debug, Clone, Deserialize)]
pub struct LabelBody {
    /// The place to label.
    pub place: DiscoveredPlaceId,
    /// The user's label.
    pub label: String,
}

/// `POST /api/v1/routes/sync` body.
#[derive(Debug, Clone, Deserialize)]
pub struct SyncRoutesBody {
    /// Full replacement canonical route list.
    pub routes: Vec<CanonicalRoute>,
    /// Monotonic client sync sequence (stale full replacements are
    /// ignored, mirroring the places sync).
    #[serde(default)]
    pub seq: Option<u64>,
}

/// `POST /api/v1/routes/query` body.
#[derive(Debug, Clone, Deserialize)]
pub struct RouteQueryBody {
    /// Origin place.
    pub from: DiscoveredPlaceId,
    /// Destination place.
    pub to: DiscoveredPlaceId,
}

/// `POST /api/v1/profiles/sync` body.
#[derive(Debug, Clone, Deserialize)]
pub struct SyncProfileBody {
    /// The day profile to upsert.
    pub profile: MobilityProfile,
    /// Monotonic client sync sequence; an older version of the same day
    /// arriving late (reorder) or twice (duplicate) is ignored.
    #[serde(default)]
    pub seq: Option<u64>,
}

/// `POST /api/v1/social/sync` body.
#[derive(Debug, Clone, Deserialize)]
pub struct SyncContactsBody {
    /// Encounter entries to append.
    pub contacts: Vec<ContactEntry>,
    /// Stream offset of `contacts[0]` in the client's encounter stream:
    /// the endpoint deduplicates re-sent prefixes, and the response
    /// carries `acked_upto` so the client can drain its buffer. Absent,
    /// the entries continue at the server's watermark.
    #[serde(default)]
    pub first_seq: Option<u64>,
}

/// `POST /api/v1/social/query` body.
#[derive(Debug, Clone, Deserialize)]
pub struct SocialQueryBody {
    /// Restrict to encounters at this place; `None` returns everything.
    /// The key is always spelled on the wire (`"place": null`), matching
    /// the historical senders.
    pub place: Option<DiscoveredPlaceId>,
}

/// `POST /api/v1/misc/geolocate` body.
#[derive(Debug, Clone, Deserialize)]
pub struct GeolocateBody {
    /// Mobile country code.
    pub mcc: u16,
    /// Mobile network code.
    pub mnc: u16,
    /// Location area code.
    pub lac: u16,
    /// Cell id.
    pub cid: u32,
}

/// `POST /api/v1/misc/geolocate_signature` body.
#[derive(Debug, Clone, Deserialize)]
pub struct GeolocateSignatureBody {
    /// The place signature's cell set.
    pub cells: Vec<CellGlobalId>,
}

/// `POST /api/v1/analytics/arrival` body.
#[derive(Debug, Clone, Deserialize)]
pub struct ArrivalBody {
    /// The place queried.
    pub place: DiscoveredPlaceId,
    /// Hour window `(from, to)`; defaults to the whole day.
    pub window: Option<(u64, u64)>,
}

/// `POST /api/v1/analytics/next_visit` body.
#[derive(Debug, Clone, Deserialize)]
pub struct NextVisitBody {
    /// The place queried.
    pub place: DiscoveredPlaceId,
    /// Predictions are strictly after this instant.
    pub now: SimTime,
}

/// Body of the analytics queries that take only a place
/// (`frequency`, `next_place`).
#[derive(Debug, Clone, Deserialize)]
pub struct PlaceOnlyBody {
    /// The place queried.
    pub place: DiscoveredPlaceId,
}

/// A typed request or response body.
///
/// One variant per route-table request shape, one per handler response
/// shape, plus the infrastructure variants ([`Payload::Empty`],
/// [`Payload::Json`], [`Payload::Error`], [`Payload::MethodNotAllowed`],
/// [`Payload::RateLimited`]). See the module docs for the byte-identity
/// contract tying every variant to its JSON wire spelling.
#[derive(Debug, Clone)]
pub enum Payload {
    // ---- infrastructure --------------------------------------------------
    /// No body (`null` on the wire): GET requests, the token refresh.
    Empty,
    /// The untyped escape hatch: any JSON body a typed variant does not
    /// model. Semantically identical to the pre-typed `Value` body.
    Json(Value),
    /// An error body: `{"error": message}`.
    Error {
        /// Human-readable error message.
        message: String,
    },
    /// The 405 body: `{"allow": [...], "error": "method not allowed"}`.
    MethodNotAllowed {
        /// Methods the path does accept (the HTTP `Allow` header,
        /// carried in the body here).
        allow: Vec<Method>,
    },
    /// The 429 admission-control body:
    /// `{"class": ..., "error": "rate limited", "retry_after_s": ...}`.
    RateLimited {
        /// The admission class whose bucket ran dry.
        class: RateClass,
        /// Seconds until the bucket refills — the client's retry hint.
        retry_after_s: u64,
    },

    // ---- request bodies (one per POST route) -----------------------------
    /// `POST /api/v1/registration`.
    Register(RegistrationBody),
    /// `POST /api/v1/places/discover`.
    Discover(DiscoverBody),
    /// `POST /api/v1/places/sync`.
    SyncPlaces(SyncPlacesBody),
    /// `POST /api/v1/places/label`.
    LabelPlace(LabelBody),
    /// `POST /api/v1/routes/sync`.
    SyncRoutes(SyncRoutesBody),
    /// `POST /api/v1/routes/query`.
    RouteQuery(RouteQueryBody),
    /// `POST /api/v1/profiles/sync`.
    SyncProfile(SyncProfileBody),
    /// `POST /api/v1/social/sync`.
    SyncContacts(SyncContactsBody),
    /// `POST /api/v1/social/query`.
    SocialQuery(SocialQueryBody),
    /// `POST /api/v1/misc/geolocate`.
    Geolocate(GeolocateBody),
    /// `POST /api/v1/misc/geolocate_signature`.
    GeolocateSignature(GeolocateSignatureBody),
    /// `POST /api/v1/analytics/arrival`.
    Arrival(ArrivalBody),
    /// `POST /api/v1/analytics/next_visit`.
    NextVisit(NextVisitBody),
    /// `POST /api/v1/analytics/{frequency,next_place}`.
    PlaceOnly(PlaceOnlyBody),
    /// `POST /api/v1/topology/handshake` (the federation control plane).
    Handshake(HandshakeBody),

    // ---- response bodies (one per handler success shape) -----------------
    /// Registration reply.
    Registered {
        /// The registered (or re-registered) user.
        user: UserId,
        /// Fresh bearer token.
        token: String,
        /// Token expiry instant.
        expires_at: SimTime,
    },
    /// Token refresh reply.
    TokenRefreshed {
        /// Rotated bearer token.
        token: String,
        /// New expiry instant.
        expires_at: SimTime,
    },
    /// Discover-offload reply.
    Discovered {
        /// The caller's places after absorbing the offload.
        places: Vec<DiscoveredPlace>,
        /// Server-side observation-stream watermark.
        absorbed_upto: u64,
    },
    /// Place-list reply.
    Places {
        /// The caller's stored places.
        places: Vec<DiscoveredPlace>,
    },
    /// Sync acknowledgement (places and routes).
    SyncAck {
        /// Entries stored after the sync.
        stored: usize,
        /// Whether the delivery was stale (duplicate/reordered) and
        /// therefore not applied.
        stale: bool,
    },
    /// Label reply.
    Labelled {
        /// The place that was labelled.
        labelled: DiscoveredPlaceId,
    },
    /// Route-list / route-query reply.
    Routes {
        /// Canonical routes.
        routes: Vec<CanonicalRoute>,
    },
    /// Profile-sync acknowledgement.
    ProfileSynced {
        /// The day that was upserted.
        synced_day: u64,
        /// Whether the delivery was stale and therefore not applied.
        stale: bool,
    },
    /// By-day profile fetch reply.
    ProfileDay {
        /// The stored profile.
        profile: MobilityProfile,
    },
    /// Contacts-sync acknowledgement.
    ContactsAck {
        /// Encounters stored after the sync.
        stored: usize,
        /// Acknowledged encounter-stream watermark.
        acked_upto: u64,
    },
    /// Social-query reply.
    Contacts {
        /// Matching encounters.
        contacts: Vec<ContactEntry>,
    },
    /// Geolocation reply.
    Position {
        /// Latitude in degrees.
        latitude: f64,
        /// Longitude in degrees.
        longitude: f64,
    },
    /// Arrival-analytics reply.
    ArrivalAt {
        /// Typical arrival second-of-day.
        second_of_day: u64,
    },
    /// Next-visit prediction reply.
    VisitAt {
        /// Predicted visit instant.
        time: SimTime,
    },
    /// Frequency-analytics reply.
    Frequency {
        /// Mean visits per week.
        visits_per_week: f64,
        /// Total visit count.
        visit_count: usize,
    },
    /// Activity-analytics reply.
    Activity {
        /// Mean daily minutes in motion.
        mean_daily_moving_minutes: f64,
    },
    /// Next-place prediction reply.
    Predictions {
        /// `(place, probability)` pairs, most likely first.
        predictions: Vec<(DiscoveredPlaceId, f64)>,
    },
    /// Health-probe reply (`GET /api/v1/health`): liveness plus the
    /// instance's load view — `{"p99_us": .., "queue_depth": ..,
    /// "resident_users": .., "status": "ok"}`. Queue depth and p99 are 0
    /// while the latency model is disabled, keeping the historical body
    /// shape's information content; `resident_users` counts in-memory
    /// user stores (equal to total users unless a residency cap is set).
    Health {
        /// Admitted, unfinished requests queued on the instance.
        queue_depth: u64,
        /// p99 request latency so far, microseconds (bucket bound).
        p99_us: u64,
        /// User stores currently resident in memory.
        resident_users: u64,
    },
    /// Topology-handshake reply: the versioned placement snapshot a
    /// client caches at session start.
    Topology {
        /// Snapshot version; bumped on every placement or health change.
        version: u64,
        /// The instance assigned to the caller.
        assigned: u32,
        /// `(instance id, healthy)` for every registered instance.
        instances: Vec<(u32, bool)>,
    },
}

/// Sorted-key JSON object builder (the `json!` spelling, minus the
/// macro): `BTreeMap` keeps keys sorted, so insertion order is free.
struct Obj(BTreeMap<String, Value>);

impl Obj {
    fn new() -> Obj {
        Obj(BTreeMap::new())
    }

    fn put(mut self, key: &str, value: &impl Serialize) -> Obj {
        self.0.insert(key.to_owned(), value.to_json_value());
        self
    }

    /// Inserts only when `Some` — the historical spelling omits optional
    /// idempotency keys rather than writing `null`.
    fn put_opt(mut self, key: &str, value: &Option<impl Serialize>) -> Obj {
        if let Some(value) = value {
            self.0.insert(key.to_owned(), value.to_json_value());
        }
        self
    }

    fn put_value(mut self, key: &str, value: Value) -> Obj {
        self.0.insert(key.to_owned(), value);
        self
    }

    fn build(self) -> Value {
        Value::Object(self.0)
    }
}

impl Payload {
    /// Renders the payload to its JSON wire spelling — byte-identical to
    /// the `json!` trees the pre-typed code built (see module docs).
    pub fn to_json(&self) -> Value {
        match self {
            Payload::Empty => Value::Null,
            Payload::Json(value) => value.clone(),
            Payload::Error { message } => Obj::new().put("error", message).build(),
            Payload::MethodNotAllowed { allow } => Obj::new()
                .put_value(
                    "allow",
                    Value::Array(
                        allow
                            .iter()
                            .map(|m| Value::String(m.as_str().to_owned()))
                            .collect(),
                    ),
                )
                .put_value("error", Value::String("method not allowed".to_owned()))
                .build(),
            Payload::RateLimited {
                class,
                retry_after_s,
            } => Obj::new()
                .put_value("class", Value::String(class.label().to_owned()))
                .put_value("error", Value::String("rate limited".to_owned()))
                .put("retry_after_s", retry_after_s)
                .build(),

            Payload::Register(b) => Obj::new()
                .put("email", &b.email)
                .put("imei", &b.imei)
                .build(),
            Payload::Discover(b) => {
                // A batched offload never also spells the plain array —
                // the batch is the observation sequence.
                let obj = match &b.batch {
                    Some(batch) => Obj::new().put("batch", batch),
                    None => Obj::new().put("observations", &b.observations),
                };
                obj.put_opt("start", &b.start).build()
            }
            Payload::SyncPlaces(b) => Obj::new()
                .put("places", &b.places)
                .put_opt("seq", &b.seq)
                .build(),
            Payload::LabelPlace(b) => Obj::new()
                .put("label", &b.label)
                .put("place", &b.place)
                .build(),
            Payload::SyncRoutes(b) => Obj::new()
                .put("routes", &b.routes)
                .put_opt("seq", &b.seq)
                .build(),
            Payload::RouteQuery(b) => Obj::new().put("from", &b.from).put("to", &b.to).build(),
            Payload::SyncProfile(b) => Obj::new()
                .put("profile", &b.profile)
                .put_opt("seq", &b.seq)
                .build(),
            Payload::SyncContacts(b) => Obj::new()
                .put("contacts", &b.contacts)
                .put_opt("first_seq", &b.first_seq)
                .build(),
            Payload::SocialQuery(b) => Obj::new().put("place", &b.place).build(),
            Payload::Geolocate(b) => Obj::new()
                .put("cid", &b.cid)
                .put("lac", &b.lac)
                .put("mcc", &b.mcc)
                .put("mnc", &b.mnc)
                .build(),
            Payload::GeolocateSignature(b) => Obj::new().put("cells", &b.cells).build(),
            Payload::Arrival(b) => Obj::new()
                .put("place", &b.place)
                .put_opt("window", &b.window)
                .build(),
            Payload::NextVisit(b) => Obj::new().put("now", &b.now).put("place", &b.place).build(),
            Payload::PlaceOnly(b) => Obj::new().put("place", &b.place).build(),
            Payload::Handshake(b) => Obj::new()
                .put("email", &b.email)
                .put("imei", &b.imei)
                .build(),

            Payload::Registered {
                user,
                token,
                expires_at,
            } => Obj::new()
                .put("expires_at", expires_at)
                .put("token", token)
                .put("user", user)
                .build(),
            Payload::TokenRefreshed { token, expires_at } => Obj::new()
                .put("expires_at", expires_at)
                .put("token", token)
                .build(),
            Payload::Discovered {
                places,
                absorbed_upto,
            } => Obj::new()
                .put("absorbed_upto", absorbed_upto)
                .put("places", places)
                .build(),
            Payload::Places { places } => Obj::new().put("places", places).build(),
            Payload::SyncAck { stored, stale } => {
                Obj::new().put("stale", stale).put("stored", stored).build()
            }
            Payload::Labelled { labelled } => Obj::new().put("labelled", labelled).build(),
            Payload::Routes { routes } => Obj::new().put("routes", routes).build(),
            Payload::ProfileSynced { synced_day, stale } => Obj::new()
                .put("stale", stale)
                .put("synced_day", synced_day)
                .build(),
            Payload::ProfileDay { profile } => Obj::new().put("profile", profile).build(),
            Payload::ContactsAck { stored, acked_upto } => Obj::new()
                .put("acked_upto", acked_upto)
                .put("stored", stored)
                .build(),
            Payload::Contacts { contacts } => Obj::new().put("contacts", contacts).build(),
            Payload::Position {
                latitude,
                longitude,
            } => Obj::new()
                .put("latitude", latitude)
                .put("longitude", longitude)
                .build(),
            Payload::ArrivalAt { second_of_day } => {
                Obj::new().put("second_of_day", second_of_day).build()
            }
            Payload::VisitAt { time } => Obj::new().put("time", time).build(),
            Payload::Frequency {
                visits_per_week,
                visit_count,
            } => Obj::new()
                .put("visit_count", visit_count)
                .put("visits_per_week", visits_per_week)
                .build(),
            Payload::Activity {
                mean_daily_moving_minutes,
            } => Obj::new()
                .put("mean_daily_moving_minutes", mean_daily_moving_minutes)
                .build(),
            Payload::Predictions { predictions } => {
                Obj::new().put("predictions", predictions).build()
            }
            Payload::Health {
                queue_depth,
                p99_us,
                resident_users,
            } => Obj::new()
                .put("p99_us", p99_us)
                .put("queue_depth", queue_depth)
                .put("resident_users", resident_users)
                .put_value("status", Value::String("ok".to_owned()))
                .build(),
            Payload::Topology {
                version,
                assigned,
                instances,
            } => Obj::new()
                .put("assigned", assigned)
                .put("instances", instances)
                .put("version", version)
                .build(),
        }
    }

    /// Like [`Payload::to_json`] but consumes the payload, so the
    /// untyped escape hatch hands its `Value` back without a clone.
    pub fn into_json(self) -> Value {
        match self {
            Payload::Json(value) => value,
            other => other.to_json(),
        }
    }

    /// Reconstructs the typed payload for a JSON body arriving at the
    /// wire boundary, resolving `(method, path)` against the route table.
    ///
    /// Commits to a typed variant **only** when re-rendering it
    /// reproduces `body` exactly (the byte-identity guard); any
    /// mismatch — unknown path, extra keys, `null`-spelled options —
    /// stays [`Payload::Json`], preserving old behaviour bit for bit.
    pub fn from_json(method: Method, path: &str, body: &Value) -> Payload {
        if body.is_null() {
            return Payload::Empty;
        }
        // The topology handshake is the one request shape served outside
        // the route table (the router's control plane), so it gets its
        // own decode attempt — under the same byte-identity guard.
        if method == Method::Post && path == TOPOLOGY_HANDSHAKE_PATH {
            if let Some(typed) = decode::<HandshakeBody>(body) {
                if typed.to_json() == *body {
                    return typed;
                }
            }
        }
        if let Resolution::Matched { route, .. } = resolve(method, path) {
            if let Some(typed) = (route.decode)(body) {
                if typed.to_json() == *body {
                    return typed;
                }
            }
        }
        Payload::Json(body.clone())
    }

    /// Deserialises the payload into a typed value.
    ///
    /// The untyped escape hatch parses **by reference** (no body clone —
    /// the old `from_value(body.clone())` tax is gone); typed variants
    /// render to JSON first, a cost only paid when a caller asks a typed
    /// body for a shape it is not (the wire boundary's job, not the hot
    /// path's).
    ///
    /// # Errors
    ///
    /// Returns a `serde_json::Error` when the body does not match `T`.
    pub fn parse<T: serde::de::DeserializeOwned>(&self) -> Result<T, serde_json::Error> {
        let rendered;
        let value = match self {
            Payload::Json(value) => value,
            other => {
                rendered = other.to_json();
                &rendered
            }
        };
        T::from_json_value(value).map_err(serde_json::Error::from)
    }

    /// The error message of an error-shaped body, if any.
    pub fn error_message(&self) -> Option<&str> {
        match self {
            Payload::Error { message } => Some(message),
            Payload::MethodNotAllowed { .. } => Some("method not allowed"),
            Payload::RateLimited { .. } => Some("rate limited"),
            Payload::Json(value) => value.get("error").and_then(Value::as_str),
            _ => None,
        }
    }

    /// The admission controller's `retry_after_s` hint, if present.
    pub fn retry_after_s(&self) -> Option<u64> {
        match self {
            Payload::RateLimited { retry_after_s, .. } => Some(*retry_after_s),
            Payload::Json(value) => value.get("retry_after_s").and_then(Value::as_u64),
            _ => None,
        }
    }
}

/// Payload equality is **wire equality**: a typed variant equals the
/// `Json` spelling of the same body, because both serialize to the same
/// bytes. Object keys are sorted, so the comparison is canonical.
impl PartialEq for Payload {
    fn eq(&self, other: &Payload) -> bool {
        match (self, other) {
            (Payload::Empty, Payload::Empty) => true,
            (Payload::Json(a), Payload::Json(b)) => a == b,
            (a, b) => a.to_json() == b.to_json(),
        }
    }
}

impl From<Value> for Payload {
    fn from(value: Value) -> Payload {
        if value.is_null() {
            Payload::Empty
        } else {
            Payload::Json(value)
        }
    }
}

/// A typed request body: extractable by reference from the payload the
/// router hands a handler (the zero-copy path), and parseable from the
/// JSON escape hatch (the boundary path).
pub(crate) trait RequestBody: serde::de::DeserializeOwned {
    /// Borrows the body when the payload already carries this type.
    fn from_payload(payload: &Payload) -> Option<&Self>;
}

macro_rules! request_bodies {
    ($($body:ident => $variant:ident,)*) => {$(
        impl From<$body> for Payload {
            fn from(body: $body) -> Payload {
                Payload::$variant(body)
            }
        }

        impl RequestBody for $body {
            fn from_payload(payload: &Payload) -> Option<&$body> {
                match payload {
                    Payload::$variant(body) => Some(body),
                    _ => None,
                }
            }
        }
    )*};
}

request_bodies! {
    RegistrationBody => Register,
    DiscoverBody => Discover,
    SyncPlacesBody => SyncPlaces,
    LabelBody => LabelPlace,
    SyncRoutesBody => SyncRoutes,
    RouteQueryBody => RouteQuery,
    SyncProfileBody => SyncProfile,
    SyncContactsBody => SyncContacts,
    SocialQueryBody => SocialQuery,
    GeolocateBody => Geolocate,
    GeolocateSignatureBody => GeolocateSignature,
    ArrivalBody => Arrival,
    NextVisitBody => NextVisit,
    PlaceOnlyBody => PlaceOnly,
    HandshakeBody => Handshake,
}

/// A route's body decoder: tries the route's typed request shape.
/// Stored in the route table so dispatch stays single-source-of-truth.
pub(crate) type BodyDecoder = fn(&Value) -> Option<Payload>;

/// Decodes `value` as `B` (the route's typed body). The byte-identity
/// guard in [`Payload::from_json`] decides whether the result sticks.
pub(crate) fn decode<B: RequestBody + Into<Payload>>(value: &Value) -> Option<Payload> {
    B::from_json_value(value).ok().map(Into::into)
}

/// Decoder for routes without a typed request body (GETs, the token
/// refresh): any non-null body stays on the JSON escape hatch.
pub(crate) fn decode_none(_value: &Value) -> Option<Payload> {
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn option_keys_are_omitted_not_null() {
        let with = Payload::SyncPlaces(SyncPlacesBody {
            places: vec![],
            seq: Some(7),
        });
        assert_eq!(with.to_json(), json!({ "places": [], "seq": 7 }));
        let without = Payload::SyncPlaces(SyncPlacesBody {
            places: vec![],
            seq: None,
        });
        assert_eq!(without.to_json(), json!({ "places": [] }));
    }

    #[test]
    fn social_query_place_key_is_always_present() {
        let none = Payload::SocialQuery(SocialQueryBody { place: None });
        assert_eq!(none.to_json(), json!({ "place": null }));
    }

    #[test]
    fn from_json_reconstructs_route_bodies() {
        let body = json!({ "places": [], "seq": 3 });
        let payload = Payload::from_json(Method::Post, "/api/v1/places/sync", &body);
        match &payload {
            Payload::SyncPlaces(b) => {
                assert!(b.places.is_empty());
                assert_eq!(b.seq, Some(3));
            }
            other => panic!("expected typed reconstruction, got {other:?}"),
        }
        assert_eq!(payload.to_json(), body, "round-trip is byte-identical");
    }

    #[test]
    fn from_json_falls_back_on_unknown_paths_and_extra_keys() {
        let body = json!({ "places": [], "seq": 3, "junk": true });
        let payload = Payload::from_json(Method::Post, "/api/v1/places/sync", &body);
        assert!(
            matches!(payload, Payload::Json(_)),
            "extra keys must not survive a typed round-trip"
        );
        assert_eq!(payload.to_json(), body);

        let body = json!({ "anything": 1 });
        let payload = Payload::from_json(Method::Post, "/api/v1/nope", &body);
        assert!(matches!(payload, Payload::Json(_)));
    }

    #[test]
    fn null_spelled_options_stay_on_the_escape_hatch() {
        // `{"seq": null}` parses to `seq: None`, which re-renders with
        // the key omitted — not byte-identical, so the guard rejects it.
        let body = json!({ "places": [], "seq": null });
        let payload = Payload::from_json(Method::Post, "/api/v1/places/sync", &body);
        assert!(matches!(payload, Payload::Json(_)));
        assert_eq!(payload.to_json(), body);
    }

    #[test]
    fn typed_and_json_spellings_are_equal() {
        let typed = Payload::PlaceOnly(PlaceOnlyBody {
            place: DiscoveredPlaceId(4),
        });
        let json = Payload::Json(json!({ "place": 4 }));
        assert_eq!(typed, json);
        assert_eq!(json, typed);
        assert_ne!(typed, Payload::Empty);
    }

    #[test]
    fn error_shapes_match_the_historical_spelling() {
        let e = Payload::Error {
            message: "token expired".to_owned(),
        };
        assert_eq!(e.to_json(), json!({ "error": "token expired" }));
        assert_eq!(e.error_message(), Some("token expired"));

        let m = Payload::MethodNotAllowed {
            allow: vec![Method::Get, Method::Post],
        };
        assert_eq!(
            m.to_json(),
            json!({ "error": "method not allowed", "allow": ["GET", "POST"] })
        );

        let r = Payload::RateLimited {
            class: RateClass::Ingest,
            retry_after_s: 12,
        };
        assert_eq!(
            r.to_json(),
            json!({ "error": "rate limited", "class": "ingest", "retry_after_s": 12 })
        );
        assert_eq!(r.retry_after_s(), Some(12));
    }

    #[test]
    fn topology_payloads_pin_their_wire_spelling() {
        let handshake = Payload::Handshake(HandshakeBody {
            imei: "350".to_owned(),
            email: "a@x".to_owned(),
        });
        let wire = json!({ "email": "a@x", "imei": "350" });
        assert_eq!(handshake.to_json(), wire);
        // The handshake path is off the route table yet still
        // reconstructs typed at the wire boundary.
        let back = Payload::from_json(Method::Post, TOPOLOGY_HANDSHAKE_PATH, &wire);
        assert!(matches!(back, Payload::Handshake(_)), "{back:?}");
        assert_eq!(back.to_json(), wire);

        let health = Payload::Health {
            queue_depth: 4,
            p99_us: 2_500,
            resident_users: 7,
        };
        assert_eq!(
            health.to_json(),
            json!({ "p99_us": 2500, "queue_depth": 4, "resident_users": 7, "status": "ok" })
        );
        let topo = Payload::Topology {
            version: 3,
            assigned: 1,
            instances: vec![(0, true), (1, false)],
        };
        assert_eq!(
            topo.to_json(),
            json!({ "assigned": 1, "instances": [[0, true], [1, false]], "version": 3 })
        );
    }

    #[test]
    fn parse_is_by_reference_for_json_and_renders_for_typed() {
        #[derive(Deserialize)]
        struct P {
            place: u32,
        }
        let json = Payload::Json(json!({ "place": 9 }));
        assert_eq!(json.parse::<P>().unwrap().place, 9);
        let typed = Payload::PlaceOnly(PlaceOnlyBody {
            place: DiscoveredPlaceId(9),
        });
        assert_eq!(typed.parse::<P>().unwrap().place, 9);
        assert!(Payload::Empty.parse::<P>().is_err());
    }
}
