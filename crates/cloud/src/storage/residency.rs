//! The LRU residency manager and the lock shards it governs.
//!
//! Residency is a deterministic sim-time LRU: every store acquisition
//! stamps the user with the acquiring request's simulated instant, and
//! when the resident population exceeds the cap the victim is the
//! *unpinned* user with the oldest stamp — ties broken by the smaller
//! user id, so a single-threaded drive always evicts in the same order.
//! Pins are held by [`super::StoreGuard`]s: a handler that is mid-request
//! on a store can never watch it evaporate underneath it.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::auth::UserId;
use crate::state::UserStore;

/// One lock shard: the resident users whose id hashes here. Direct map
/// access is confined to `storage/` (enforced by `make lint-storage`);
/// everything else goes through the engine.
#[derive(Debug, Default)]
pub(crate) struct Shard {
    pub(crate) users: RwLock<HashMap<UserId, Arc<Mutex<UserStore>>>>,
}

/// The LRU bookkeeping: access stamps, eviction order, and pin counts.
#[derive(Debug, Default)]
pub(crate) struct ResidencyState {
    /// `(last_access_seconds, user)` — `BTreeSet` iteration order *is*
    /// eviction order (oldest stamp first, user-id tie-break).
    order: BTreeSet<(u64, u64)>,
    /// Current stamp per resident user (to relocate the `order` entry).
    stamp: HashMap<u64, u64>,
    /// Outstanding [`super::StoreGuard`] pins per user.
    pins: HashMap<u64, u32>,
}

impl ResidencyState {
    /// Stamps `user` as accessed at `now_s`, registering it if new.
    pub(crate) fn touch(&mut self, user: UserId, now_s: u64) {
        if let Some(old) = self.stamp.insert(user.0, now_s) {
            self.order.remove(&(old, user.0));
        }
        self.order.insert((now_s, user.0));
    }

    /// Whether `user` is registered as resident.
    pub(crate) fn contains(&self, user: UserId) -> bool {
        self.stamp.contains_key(&user.0)
    }

    /// Resident users tracked.
    pub(crate) fn len(&self) -> usize {
        self.stamp.len()
    }

    /// Takes a pin on `user`.
    pub(crate) fn pin(&mut self, user: UserId) {
        *self.pins.entry(user.0).or_default() += 1;
    }

    /// Releases one pin on `user`.
    pub(crate) fn unpin(&mut self, user: UserId) {
        match self.pins.get_mut(&user.0) {
            Some(count) if *count > 1 => *count -= 1,
            Some(_) => {
                self.pins.remove(&user.0);
            }
            None => debug_assert!(false, "unpin without a pin"),
        }
    }

    /// The eviction victim: the oldest-stamped unpinned resident, if any.
    pub(crate) fn victim(&self) -> Option<UserId> {
        self.order
            .iter()
            .find(|(_, user)| !self.pins.contains_key(user))
            .map(|&(_, user)| UserId(user))
    }

    /// Deregisters `user` (evicted).
    pub(crate) fn remove(&mut self, user: UserId) {
        if let Some(stamp) = self.stamp.remove(&user.0) {
            self.order.remove(&(stamp, user.0));
        }
    }

    /// Resident users in user-id order (deterministic sweeps).
    pub(crate) fn users(&self) -> Vec<UserId> {
        let mut users: Vec<UserId> = self.stamp.keys().map(|&u| UserId(u)).collect();
        users.sort();
        users
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn victim_is_oldest_stamp_with_user_id_tie_break() {
        let mut state = ResidencyState::default();
        state.touch(UserId(5), 10);
        state.touch(UserId(2), 10);
        state.touch(UserId(9), 3);
        assert_eq!(state.victim(), Some(UserId(9)), "oldest stamp first");
        state.remove(UserId(9));
        assert_eq!(state.victim(), Some(UserId(2)), "tie broken by user id");
    }

    #[test]
    fn touch_moves_a_user_to_the_back() {
        let mut state = ResidencyState::default();
        state.touch(UserId(1), 1);
        state.touch(UserId(2), 2);
        state.touch(UserId(1), 3);
        assert_eq!(state.victim(), Some(UserId(2)));
        assert_eq!(state.len(), 2);
    }

    #[test]
    fn pins_shield_from_eviction() {
        let mut state = ResidencyState::default();
        state.touch(UserId(1), 1);
        state.touch(UserId(2), 2);
        state.pin(UserId(1));
        assert_eq!(state.victim(), Some(UserId(2)));
        state.pin(UserId(2));
        assert_eq!(state.victim(), None, "everything pinned");
        state.unpin(UserId(1));
        assert_eq!(state.victim(), Some(UserId(1)));
    }
}
