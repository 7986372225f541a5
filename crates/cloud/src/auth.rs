//! Registration and token authentication (§2.2.1 / §2.3.3).
//!
//! *"The device is uniquely identified jointly by its IMEI number and phone
//! email account. It sends a one time registration request to the cloud
//! instance to retrieve an authentication token, which is used for further
//! communication. The authentication token is refreshed periodically based
//! on its expiry time."*
//!
//! Sessions derive from device identity, never from shared state: a
//! [`UserId`] hashes the identity alone (the same on every instance, in
//! any arrival order), and a token hashes (instance seed, user,
//! generation), the generation counting the tokens issued to that user.

use std::collections::hash_map::{Entry, HashMap};

use pmware_world::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use crate::api::Request;
use crate::payload::{RegistrationBody, REGISTRATION_PATH};
use crate::state::SHARD_COUNT;
use crate::storage::fnv64;

/// A registered user/device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct UserId(pub u64);

impl UserId {
    /// The id `identity` registers under on every instance: a 64-bit hash
    /// of its identity key.
    pub fn of(identity: &DeviceIdentity) -> UserId {
        UserId::of_key(&identity_key(&identity.imei, &identity.email))
    }

    /// [`UserId::of`] for an identity key.
    pub(crate) fn of_key(key: &str) -> UserId {
        UserId(mix(fnv64(key)))
    }

    /// The lock (and request-counter) shard this user lives in.
    pub(crate) fn shard(self) -> usize {
        (self.0 % SHARD_COUNT as u64) as usize
    }
}

impl std::fmt::Display for UserId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "user:{}", self.0)
    }
}

/// The device identity key user state is hashed, logged, snapshotted and
/// placed under.
pub(crate) fn identity_key(imei: &str, email: &str) -> String {
    format!("{imei}|{email}")
}

/// The splitmix64 finalizer: every input bit reaches the low bits that
/// pick a shard.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The token of `user`'s `generation`-th grant on the instance seeded
/// with `seed` (a keyed hash for reproducibility, not a MAC).
fn token_string(seed: u64, user: UserId, generation: u64) -> String {
    let hi = mix(seed ^ mix(user.0 ^ mix(generation)));
    let lo = mix(hi ^ seed.rotate_left(32) ^ generation);
    format!("tok-{hi:016x}{lo:016x}")
}

/// The joint device identity used at registration.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DeviceIdentity {
    /// Phone IMEI.
    pub imei: String,
    /// Account email.
    pub email: String,
}

impl DeviceIdentity {
    /// The identity a registration request registers (typed or raw JSON
    /// body); `None` for any other request.
    pub(crate) fn registering(request: &Request) -> Option<DeviceIdentity> {
        if request.path != REGISTRATION_PATH {
            return None;
        }
        let body = request.body.parse::<RegistrationBody>().ok()?;
        Some(DeviceIdentity {
            imei: body.imei,
            email: body.email,
        })
    }
}

/// An issued bearer token.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AuthToken {
    /// The opaque token string.
    pub token: String,
    /// Expiry instant.
    pub expires_at: SimTime,
    /// Which of the user's tokens on this instance it is (1-based).
    pub generation: u64,
}

/// Registration refused: another identity already holds the id this one
/// hashes to. The first holder keeps it; the two are never merged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdCollision;

/// Server-side token registry.
#[derive(Debug, Clone)]
pub struct TokenStore {
    seed: u64,
    ttl: SimDuration,
    /// Per user: the registered identity and the last issued generation.
    accounts: HashMap<UserId, (DeviceIdentity, u64)>,
    /// Unrevoked tokens: user, generation (`None` if adopted), expiry.
    tokens: HashMap<String, (UserId, Option<u64>, SimTime)>,
}

impl TokenStore {
    /// Creates a store with the given token time-to-live; `seed` keys this
    /// instance's token strings.
    pub fn new(ttl: SimDuration, seed: u64) -> Self {
        TokenStore {
            seed,
            ttl,
            accounts: HashMap::new(),
            tokens: HashMap::new(),
        }
    }

    /// Number of registered users.
    pub fn user_count(&self) -> usize {
        self.accounts.len()
    }

    /// Registers a device (idempotent per identity) and issues its next
    /// token, valid for the TTL.
    ///
    /// # Errors
    ///
    /// [`IdCollision`] when another identity already holds the id.
    pub fn register(
        &mut self,
        identity: DeviceIdentity,
        now: SimTime,
    ) -> Result<(UserId, AuthToken), IdCollision> {
        let user = UserId::of(&identity);
        self.enroll(user, identity)?;
        Ok((user, self.issue(user, now)))
    }

    /// The last issued generation of `user`'s account for `identity`,
    /// opening the account on first sight.
    fn enroll(&mut self, user: UserId, identity: DeviceIdentity) -> Result<&mut u64, IdCollision> {
        match self.accounts.entry(user) {
            Entry::Occupied(entry) if entry.get().0 != identity => Err(IdCollision),
            Entry::Occupied(entry) => Ok(&mut entry.into_mut().1),
            Entry::Vacant(entry) => Ok(&mut entry.insert((identity, 0)).1),
        }
    }

    /// Issues the next token generation of an enrolled user.
    fn issue(&mut self, user: UserId, now: SimTime) -> AuthToken {
        let (_, last) = self
            .accounts
            .get_mut(&user)
            .expect("issued to an enrolled user");
        *last += 1;
        let generation = *last;
        let expires_at = now + self.ttl;
        let token = self.grant(user, generation, expires_at);
        AuthToken {
            token,
            expires_at,
            generation,
        }
    }

    /// Sets the expiry of `user`'s token of `generation`; returns it.
    fn grant(&mut self, user: UserId, generation: u64, expires_at: SimTime) -> String {
        let token = token_string(self.seed, user, generation);
        self.tokens
            .insert(token.clone(), (user, Some(generation), expires_at));
        token
    }

    /// Validates a bearer token at `now`, returning the user it belongs to.
    /// Expired and unknown tokens are rejected.
    pub fn validate(&self, token: &str, now: SimTime) -> Option<UserId> {
        let &(user, _, expires_at) = self.tokens.get(token)?;
        (now < expires_at).then_some(user)
    }

    /// Exchanges a still-valid token for the user's next generation (the
    /// periodic refresh of §2.2.1). Returns the old token's generation
    /// (`None` if it was adopted) and the new token, or `None` if the old
    /// token is invalid or expired.
    pub fn refresh(&mut self, token: &str, now: SimTime) -> Option<(Option<u64>, AuthToken)> {
        let (user, generation, _) = *self.tokens.get(token).filter(|t| now < t.2)?;
        self.tokens.remove(token);
        Some((generation, self.issue(user, now)))
    }

    /// Re-applies a grant logged before a crash: `identity`'s token of
    /// `generation` expires at `expires_at`, and the token of `revokes`
    /// (the one a refresh replaced) is dead.
    pub(crate) fn restore(
        &mut self,
        identity: DeviceIdentity,
        generation: u64,
        expires_at: SimTime,
        revokes: Option<u64>,
    ) -> Result<UserId, IdCollision> {
        let user = UserId::of(&identity);
        let last = self.enroll(user, identity)?;
        *last = (*last).max(generation);
        self.grant(user, generation, expires_at);
        if let Some(revoked) = revokes {
            self.tokens.remove(&token_string(self.seed, user, revoked));
        }
        Ok(user)
    }

    /// Grafts an externally-issued token string onto the user registered
    /// as `identity`. Federation session adoption: after a failover
    /// migrates a user's state here, the token the client is *already
    /// holding* must keep validating on this instance — the client never
    /// learns its instance changed. `None` if `identity` is not registered
    /// here.
    pub fn adopt(
        &mut self,
        identity: &DeviceIdentity,
        token: &str,
        expires_at: SimTime,
    ) -> Option<UserId> {
        let user = UserId::of(identity);
        (self.accounts.get(&user)?.0 == *identity).then(|| {
            self.tokens
                .insert(token.to_owned(), (user, None, expires_at));
            user
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> TokenStore {
        TokenStore::new(SimDuration::from_hours(24), 1)
    }

    fn identity(n: u32) -> DeviceIdentity {
        DeviceIdentity {
            imei: format!("imei-{n}"),
            email: format!("u{n}@example.com"),
        }
    }

    #[test]
    fn register_issues_valid_token() {
        let mut s = store();
        let now = SimTime::EPOCH;
        let (user, token) = s.register(identity(0), now).unwrap();
        assert_eq!(s.validate(&token.token, now), Some(user));
        assert_eq!(s.user_count(), 1);
        assert_eq!(token.token.len(), "tok-".len() + 32);
    }

    #[test]
    fn registration_is_idempotent_per_identity() {
        let mut s = store();
        let now = SimTime::EPOCH;
        let (u1, _) = s.register(identity(0), now).unwrap();
        let (u2, _) = s.register(identity(0), now).unwrap();
        assert_eq!(u1, u2);
        assert_eq!(s.user_count(), 1);
        let (u3, _) = s.register(identity(1), now).unwrap();
        assert_ne!(u1, u3);
    }

    #[test]
    fn ids_and_tokens_ignore_arrival_order() {
        let now = SimTime::EPOCH;
        let mut forward = store();
        let mut reverse = store();
        let a: Vec<_> = (0..8)
            .map(|n| forward.register(identity(n), now).unwrap())
            .collect();
        let mut b: Vec<_> = (0..8)
            .rev()
            .map(|n| reverse.register(identity(n), now).unwrap())
            .collect();
        b.reverse();
        assert_eq!(a, b);
        // The id is the same on an instance with another seed; the token
        // is not.
        let (user, token) = TokenStore::new(SimDuration::from_hours(24), 2)
            .register(identity(0), now)
            .unwrap();
        assert_eq!(user, a[0].0);
        assert_ne!(token.token, a[0].1.token);
    }

    #[test]
    fn a_colliding_identity_is_refused_and_the_holder_keeps_its_id() {
        // `register` is `enroll` under the identity hash plus `issue`;
        // injecting one id for two identities forces the collision.
        let mut s = store();
        let now = SimTime::EPOCH;
        let id = UserId(7);
        s.enroll(id, identity(0)).unwrap();
        let first = s.issue(id, now);
        assert_eq!(s.enroll(id, identity(1)).err(), Some(IdCollision));
        assert_eq!(s.validate(&first.token, now), Some(id));
        assert_eq!(s.user_count(), 1);
        // The holder itself still re-enrolls.
        assert!(s.enroll(id, identity(0)).is_ok());
    }

    #[test]
    fn token_expires() {
        let mut s = store();
        let now = SimTime::EPOCH;
        let (user, token) = s.register(identity(0), now).unwrap();
        let before = now + SimDuration::from_hours(23);
        let after = now + SimDuration::from_hours(25);
        assert_eq!(s.validate(&token.token, before), Some(user));
        assert_eq!(s.validate(&token.token, after), None);
    }

    #[test]
    fn unknown_token_rejected() {
        assert_eq!(store().validate("tok-bogus", SimTime::EPOCH), None);
    }

    #[test]
    fn refresh_rotates_token() {
        let mut s = store();
        let now = SimTime::EPOCH;
        let (user, old) = s.register(identity(0), now).unwrap();
        let later = now + SimDuration::from_hours(20);
        let (revoked, new) = s.refresh(&old.token, later).expect("still valid");
        assert_eq!(revoked, Some(old.generation));
        assert_eq!(new.generation, old.generation + 1);
        assert_ne!(new.token, old.token);
        // Old token is dead, new one is valid past the old expiry.
        assert_eq!(s.validate(&old.token, later), None);
        let past_old_expiry = now + SimDuration::from_hours(30);
        assert_eq!(s.validate(&new.token, past_old_expiry), Some(user));
    }

    #[test]
    fn refresh_of_expired_token_fails() {
        let mut s = store();
        let now = SimTime::EPOCH;
        let (_, old) = s.register(identity(0), now).unwrap();
        let after = now + SimDuration::from_hours(25);
        assert!(s.refresh(&old.token, after).is_none());
    }

    #[test]
    fn restored_grants_reproduce_the_live_tokens() {
        let mut live = store();
        let now = SimTime::EPOCH;
        let (_, first) = live.register(identity(0), now).unwrap();
        let later = now + SimDuration::from_hours(1);
        let (_, second) = live.refresh(&first.token, later).unwrap();

        // The log: the registration's grant, then the refresh's grant,
        // which names the generation it replaced.
        let mut restored = store();
        restored
            .restore(identity(0), first.generation, first.expires_at, None)
            .unwrap();
        let revokes = Some(first.generation);
        restored
            .restore(identity(0), second.generation, second.expires_at, revokes)
            .unwrap();
        let at = later + SimDuration::from_hours(1);
        assert_eq!(restored.validate(&first.token, at), None);
        assert_eq!(
            restored.validate(&second.token, at),
            live.validate(&second.token, at)
        );
        // Issuing continues after the restored generation.
        let (_, third) = restored.refresh(&second.token, at).unwrap();
        assert_eq!(third.generation, second.generation + 1);
    }

    #[test]
    fn tokens_are_unique() {
        let mut s = store();
        let mut seen = std::collections::HashSet::new();
        let (user, _) = s.register(identity(0), SimTime::EPOCH).unwrap();
        for _ in 0..100 {
            let t = s.issue(user, SimTime::EPOCH);
            assert!(seen.insert(t.token));
        }
    }
}
