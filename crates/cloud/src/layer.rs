//! The middleware seam: a sim-time, synchronous, tower-shaped [`Layer`]
//! trait and the [`Next`] continuation that threads a request through a
//! stack of them down to a terminal [`CloudTransport`].
//!
//! One abstraction, two sides of the wire. Server-side, `CloudInstance`
//! is a stack of layers — outage injection, request metrics, admission
//! control, auth, shard accounting — over the route-table dispatcher.
//! Client-side, the fault-injecting `FaultyCloud` decorator is *the same
//! trait* over whatever transport it wraps. Cross-cutting behavior
//! composes by stacking instead of accreting inside one `handle()` body.
//!
//! Everything is synchronous and driven by [`SimTime`]: a layer that
//! wants to "wait" answers with a retryable status (503/429/599) and a
//! hint, and the *client's* sim-time retry loop supplies the passage of
//! time. That keeps the whole stack deterministic and replayable — no
//! executor, no wall clock.

use std::fmt;
use std::sync::Arc;

use pmware_world::SimTime;

use crate::admission::{Admission, AdmissionControl};
use crate::api::{Request, Response};
use crate::router::{self, Resolution, RouteAuth};
use crate::state::CloudCore;
use crate::transport::CloudTransport;

/// One middleware layer. Implementations either answer the request
/// themselves (short-circuit) or delegate to `next`, optionally doing
/// work before and after the inner call — the classic onion.
pub trait Layer: Send + Sync + fmt::Debug {
    /// Processes `request` at simulated instant `now`; `next` is the rest
    /// of the stack.
    fn call(&self, request: &Request, now: SimTime, next: Next<'_>) -> Response;
}

/// The remainder of a middleware stack: zero or more layers and the
/// terminal transport. Calling [`Next::run`] peels one layer (or invokes
/// the terminal when none remain).
#[derive(Clone, Copy)]
pub struct Next<'a> {
    layers: &'a [Arc<dyn Layer>],
    terminal: &'a dyn CloudTransport,
}

impl fmt::Debug for Next<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Next")
            .field("remaining_layers", &self.layers.len())
            .finish()
    }
}

impl<'a> Next<'a> {
    /// A stack over `layers`, bottoming out at `terminal`.
    pub fn new(layers: &'a [Arc<dyn Layer>], terminal: &'a dyn CloudTransport) -> Next<'a> {
        Next { layers, terminal }
    }

    /// Runs the remainder of the stack on `request`.
    pub fn run(self, request: &Request, now: SimTime) -> Response {
        match self.layers.split_first() {
            Some((layer, rest)) => layer.call(
                request,
                now,
                Next {
                    layers: rest,
                    terminal: self.terminal,
                },
            ),
            None => self.terminal.send(request, now),
        }
    }
}

/// Terminal service of the server stack: route-table dispatch over the
/// shared core (see [`crate::router::dispatch`]).
#[derive(Debug)]
pub(crate) struct RouterService {
    pub(crate) core: Arc<CloudCore>,
}

impl CloudTransport for RouterService {
    fn send(&self, request: &Request, now: SimTime) -> Response {
        router::dispatch(&self.core, request, now)
    }
}

/// Injected-outage gate: while the outage flag is up every request fails
/// with 503 before any accounting, as if the Azure instance were
/// unreachable (the phone's local fallbacks must carry on).
#[derive(Debug)]
pub(crate) struct OutageLayer {
    pub(crate) core: Arc<CloudCore>,
}

impl Layer for OutageLayer {
    fn call(&self, request: &Request, now: SimTime, next: Next<'_>) -> Response {
        if self.core.outage() {
            return Response::error(503, "service unavailable");
        }
        next.run(request, now)
    }
}

/// Per-endpoint request counting. Sits above admission and auth so that
/// shed and rejected requests are still visible in
/// `cloud_requests_total` — they cost the server work too.
#[derive(Debug)]
pub(crate) struct RequestMetricsLayer {
    pub(crate) core: Arc<CloudCore>,
}

impl Layer for RequestMetricsLayer {
    fn call(&self, request: &Request, now: SimTime, next: Next<'_>) -> Response {
        let endpoint = router::endpoint_index(request.method, &request.path);
        self.core.metrics.endpoint_requests[endpoint].inc();
        next.run(request, now)
    }
}

/// The sim-time latency model (see [`crate::latency`]): draws a
/// service time for every request, queues validated users' requests
/// behind their lane (or the shared instance FIFO), and sheds arrivals
/// over the configured depth with a 429 whose `retry_after_s` is the
/// queue's actual drain time. Sits between request metrics (a shed
/// request was still offered load) and admission control (a queue-shed
/// request must not also consume an admission token — it was never
/// served). Timed responses carry a `(queue µs, service µs)` annotation
/// for the client's span collector. Disabled (the default) this is one
/// atomic load.
#[derive(Debug)]
pub(crate) struct QueueLayer {
    pub(crate) core: Arc<CloudCore>,
}

impl Layer for QueueLayer {
    fn call(&self, request: &Request, now: SimTime, next: Next<'_>) -> Response {
        if !self.core.latency.is_enabled() {
            return next.run(request, now);
        }
        let endpoint = router::endpoint_index(request.method, &request.path);
        let class = match router::resolve(request.method, &request.path) {
            Resolution::Matched { route, .. } => route.rate_class,
            _ => router::RateClass::Query,
        };
        // Queue on the *validated* caller only — an invalid token must
        // not open a lane, and the public registration route stays
        // unqueued so a shedding instance never locks users out entirely.
        let user = request
            .token
            .as_deref()
            .and_then(|t| self.core.tokens.read().validate(t, now));
        match self.core.latency.process(endpoint, user, now) {
            crate::latency::QueueOutcome::Pass => next.run(request, now),
            crate::latency::QueueOutcome::Shed { retry_after } => {
                AdmissionControl::deny_response(class, retry_after)
            }
            crate::latency::QueueOutcome::Timed {
                queue_us,
                service_us,
            } => next.run(request, now).with_latency(queue_us, service_us),
        }
    }
}

/// Deterministic admission control (see [`crate::admission`]). Sits
/// *before* auth on purpose: shedding load must be cheaper than serving
/// it, and answering an over-budget client 429 instead of 401 keeps an
/// expired token from triggering a re-registration storm exactly when
/// the server is trying to shed. The bucket key is the *validated*
/// caller identity — an unauthenticated or invalid-token request passes
/// through for the auth layer to reject (and registration itself, the
/// one public route, is exempt so a throttled user can always get back
/// in the door).
#[derive(Debug)]
pub(crate) struct AdmissionLayer {
    pub(crate) core: Arc<CloudCore>,
}

impl Layer for AdmissionLayer {
    fn call(&self, request: &Request, now: SimTime, next: Next<'_>) -> Response {
        if self.core.admission.is_enabled() {
            if let Resolution::Matched { route, .. } =
                router::resolve(request.method, &request.path)
            {
                if route.auth == RouteAuth::Bearer {
                    let user = request
                        .token
                        .as_deref()
                        .and_then(|t| self.core.tokens.read().validate(t, now));
                    if let Some(user) = user {
                        if let Admission::Deny { retry_after } =
                            self.core.admission.admit(user, route.rate_class, now)
                        {
                            self.core.metrics.admission_denied(route.rate_class).inc();
                            return AdmissionControl::deny_response(route.rate_class, retry_after);
                        }
                    }
                }
            }
        }
        next.run(request, now)
    }
}

/// Bearer-token enforcement. Every request except the public
/// registration route needs a valid, unexpired token — including
/// unrouted paths, so an unauthenticated probe learns nothing about
/// which paths exist (401 before 404/405, same as the historical
/// monolith).
#[derive(Debug)]
pub(crate) struct AuthLayer {
    pub(crate) core: Arc<CloudCore>,
}

fn is_public(request: &Request) -> bool {
    matches!(
        router::resolve(request.method, &request.path),
        Resolution::Matched { route, .. } if route.auth == RouteAuth::Public
    )
}

impl Layer for AuthLayer {
    fn call(&self, request: &Request, now: SimTime, next: Next<'_>) -> Response {
        if !is_public(request) {
            let Some(token) = request.token.as_deref() else {
                return Response::unauthorized("missing bearer token");
            };
            if self.core.tokens.read().validate(token, now).is_none() {
                return Response::unauthorized("invalid or expired token");
            }
        }
        next.run(request, now)
    }
}

/// Relocation gate for federated deployments. After a failover migrates a
/// user's state to another instance, any authenticated request from that
/// user reaching *this* instance would mutate abandoned state — so it is
/// answered with [`crate::STATUS_MISDIRECTED`] (421) instead, which the
/// federated endpoint turns into a topology refresh and a resend. Sits
/// below auth: only a caller who proved their identity can learn they
/// were moved, and expired tokens still get the ordinary 401.
#[derive(Debug)]
pub(crate) struct RelocationLayer {
    pub(crate) core: Arc<CloudCore>,
}

impl Layer for RelocationLayer {
    fn call(&self, request: &Request, now: SimTime, next: Next<'_>) -> Response {
        if !is_public(request) {
            let user = request
                .token
                .as_deref()
                .and_then(|t| self.core.tokens.read().validate(t, now));
            if let Some(user) = user {
                if self.core.relocated.read().contains(&user) {
                    return Response::error(
                        crate::transport::STATUS_MISDIRECTED,
                        "user relocated to another instance",
                    );
                }
            }
        }
        next.run(request, now)
    }
}

/// Per-shard request attribution for every authenticated request (the
/// legacy `total_requests`/`shard_request_counts` views). Below auth, so
/// only requests that actually carried a valid token count; public
/// registration never reaches a shard and stays out, as documented on
/// `CloudInstance::shard_request_counts`.
#[derive(Debug)]
pub(crate) struct ShardAccountingLayer {
    pub(crate) core: Arc<CloudCore>,
}

impl Layer for ShardAccountingLayer {
    fn call(&self, request: &Request, now: SimTime, next: Next<'_>) -> Response {
        if !is_public(request) {
            let user = request
                .token
                .as_deref()
                .and_then(|t| self.core.tokens.read().validate(t, now));
            if let Some(user) = user {
                self.core.metrics.shard_requests[user.shard()].inc();
            }
        }
        next.run(request, now)
    }
}
