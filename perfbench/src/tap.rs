//! Wrappers around the two seams the benchmark observes the phone through:
//! the cloud transport ([`CloudTransport`]) and the device's position
//! source ([`PositionProvider`]). Both pass every call through unchanged.

use std::cell::{Cell, RefCell};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use pmware_cloud::router::{resolve, Resolution, ENDPOINT_LABELS};
use pmware_cloud::{CloudTransport, Payload, Request, Response, SharedCloud};
use pmware_device::PositionProvider;
use pmware_geo::GeoPoint;
use pmware_mobility::Itinerary;
use pmware_world::{MotionState, SimTime};

use crate::trace;

/// Route-table row of a request, or `None` when no route matches.
pub fn endpoint_of(request: &Request) -> Option<usize> {
    match resolve(request.method, &request.path) {
        Resolution::Matched { index, .. } => Some(index),
        _ => None,
    }
}

/// Span name `cloud.<route label>` for a route row (`cloud.other` when
/// unrouted). Built once; the names live for the whole process.
pub fn endpoint_span(index: Option<usize>) -> &'static str {
    static NAMES: OnceLock<Vec<&'static str>> = OnceLock::new();
    let names = NAMES.get_or_init(|| {
        ENDPOINT_LABELS
            .iter()
            .map(|label| &*Box::leak(format!("cloud.{label}").into_boxed_str()))
            .collect()
    });
    names[index.unwrap_or(ENDPOINT_LABELS.len() - 1)]
}

/// GSM observations carried by a discover request (0 for other bodies).
pub fn observations_in(request: &Request) -> usize {
    match &request.body {
        Payload::Discover(body) => body
            .batch
            .as_ref()
            .map_or(body.observations.len(), |b| b.dt.len()),
        _ => 0,
    }
}

/// One request/response pair as the cloud saw it.
#[derive(Debug, Clone)]
pub struct Exchange {
    /// Participant (= cloud user, in registration order) that sent it.
    pub user: u32,
    /// Simulated instant of delivery.
    pub at: SimTime,
    /// The request.
    pub request: Request,
    /// The answer.
    pub response: Response,
}

/// Client-side totals of one participant's traffic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrafficStats {
    /// Requests put on the wire (retries included).
    pub requests: u64,
    /// Wire bytes of those requests (counted only while tracing).
    pub wire_bytes: u64,
    /// Responses outside 2xx.
    pub non_ok: u64,
    /// GSM observations offloaded for discovery (counted only while
    /// tracing).
    pub observations: u64,
    /// Host nanoseconds of each request, in send order.
    pub latencies_ns: Vec<u64>,
}

/// A [`CloudTransport`] that forwards to a [`SharedCloud`], timing each
/// request as a `cloud.<endpoint>` span while tracing, counting traffic,
/// and optionally recording every exchange.
#[derive(Debug)]
pub struct CloudTap {
    cloud: SharedCloud,
    user: u32,
    stats: Arc<Mutex<TrafficStats>>,
    record: Option<Arc<Mutex<Vec<Exchange>>>>,
}

impl CloudTap {
    /// A tap for `user`'s traffic.
    pub fn new(cloud: SharedCloud, user: u32, record: Option<Arc<Mutex<Vec<Exchange>>>>) -> Self {
        CloudTap {
            cloud,
            user,
            stats: Arc::default(),
            record,
        }
    }

    /// A handle on the traffic totals that outlives the tap's move into
    /// a [`pmware_cloud::CloudEndpoint`].
    pub fn stats(&self) -> Arc<Mutex<TrafficStats>> {
        Arc::clone(&self.stats)
    }
}

impl CloudTransport for CloudTap {
    fn send(&self, request: &Request, now: SimTime) -> Response {
        let (wire_bytes, observations) = if trace::enabled() {
            trace::span("bench.wire_bytes", self.user, || {
                (
                    request.wire_bytes().len() as u64,
                    observations_in(request) as u64,
                )
            })
        } else {
            (0, 0)
        };
        let name = endpoint_span(endpoint_of(request));
        let start = Instant::now();
        let response = trace::span(name, self.user, || self.cloud.handle(request, now));
        let ns = start.elapsed().as_nanos() as u64;
        {
            let mut stats = self.stats.lock().expect("tap stats poisoned");
            stats.requests += 1;
            stats.wire_bytes += wire_bytes;
            stats.observations += observations;
            stats.latencies_ns.push(ns);
            stats.non_ok += u64::from(!response.is_success());
        }
        if let Some(record) = &self.record {
            record.lock().expect("recorder poisoned").push(Exchange {
                user: self.user,
                at: now,
                request: request.clone(),
                response: response.clone(),
            });
        }
        response
    }
}

/// Positions kept per participant for the radio probe: every
/// `PROBE_EVERY`-th call, at most `PROBE_CAP`.
const PROBE_EVERY: u64 = 16;
const PROBE_CAP: usize = 2_000;

/// A [`PositionProvider`] over an itinerary that counts calls, times them
/// while tracing, and, when probing, keeps a sample of the queried
/// positions for the radio probe.
#[derive(Debug)]
pub struct PositionTap<'a> {
    itinerary: &'a Itinerary,
    calls: Cell<u64>,
    probe: bool,
    samples: RefCell<Vec<(GeoPoint, SimTime)>>,
}

impl<'a> PositionTap<'a> {
    /// Wraps `itinerary`.
    pub fn new(itinerary: &'a Itinerary, probe: bool) -> Self {
        PositionTap {
            itinerary,
            calls: Cell::new(0),
            probe,
            samples: RefCell::new(Vec::new()),
        }
    }

    /// The wrapped itinerary.
    pub fn itinerary(&self) -> &'a Itinerary {
        self.itinerary
    }

    /// `position_at` calls so far.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    /// The kept positions.
    pub fn take_samples(&self) -> Vec<(GeoPoint, SimTime)> {
        std::mem::take(&mut *self.samples.borrow_mut())
    }
}

impl PositionProvider for PositionTap<'_> {
    fn position_at(&self, t: SimTime) -> GeoPoint {
        let n = self.calls.get();
        self.calls.set(n + 1);
        let p = trace::leaf("mobility.position", || self.itinerary.position_at(t));
        if self.probe && n.is_multiple_of(PROBE_EVERY) {
            let mut samples = self.samples.borrow_mut();
            if samples.len() < PROBE_CAP {
                samples.push((p, t));
            }
        }
        p
    }

    fn motion_at(&self, t: SimTime) -> MotionState {
        self.itinerary.motion_at(t)
    }
}
