//! Registration and token lifecycle (§2.3.3 registration module).

use super::{with_body, Ctx};
use crate::api::{Request, Response};
use crate::auth::{identity_key, DeviceIdentity};
use crate::payload::{Payload, RegistrationBody};

/// `POST /api/v1/registration` — the one public route. Registers (or
/// re-registers, idempotently per identity) a device and issues a token.
/// A device whose identity hashes to an id another identity already holds
/// is refused with 409.
pub(crate) fn register(ctx: &Ctx<'_>, request: &Request) -> Response {
    with_body::<RegistrationBody>(request, |body| {
        if body.imei.is_empty() || body.email.is_empty() {
            return Response::bad_request("imei and email are required");
        }
        let identity = DeviceIdentity {
            imei: body.imei.clone(),
            email: body.email.clone(),
        };
        let registered = ctx.core.tokens.write().register(identity, ctx.now);
        let Ok((user, token)) = registered else {
            return Response::error(409, "device identity collides with a registered device");
        };
        let storage = &ctx.core.storage;
        storage.record_registration(user, &identity_key(&body.imei, &body.email), request);
        storage.record_grant(user, &token, None);
        // Materialize the store so first touch happens under registration,
        // not on the hot request path. A re-registration of an evicted
        // identity hydrates the parked store here.
        let _ = ctx.core.store_at(user, ctx.now);
        Response::ok(Payload::Registered {
            user,
            token: token.token,
            expires_at: token.expires_at,
        })
    })
}

/// `POST /api/v1/token/refresh` — rotates the caller's bearer token.
pub(crate) fn token_refresh(ctx: &Ctx<'_>, _request: &Request) -> Response {
    let token = ctx.token.expect("bearer route always carries a token");
    let user = ctx.user.expect("bearer route always carries a user");
    let refreshed = ctx.core.tokens.write().refresh(token, ctx.now);
    match refreshed {
        Some((revoked, t)) => {
            ctx.core.storage.record_grant(user, &t, revoked);
            Response::ok(Payload::TokenRefreshed {
                token: t.token,
                expires_at: t.expires_at,
            })
        }
        None => Response::unauthorized("token not refreshable"),
    }
}
