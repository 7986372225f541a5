//! The per-user migration write-ahead log.
//!
//! The federated endpoint appends every *successful mutating* request —
//! registration plus the `Ingest`-class offloads and syncs — keyed by the
//! device identity. A failover replays the log, in order, into the user's
//! new instance through [`crate::storage::wal::replay_session`], over the
//! [`WalRecord`] type the durable storage engine logs. The server-side
//! sequence watermarks (`absorbed_upto`, per-day profile sequences,
//! places/routes sync sequences) make the replay idempotent, so the
//! rebuilt state is byte-identical to what the dead instance held.
//! Queries and token refreshes are never logged: they do not shape user
//! state, and the live token is transplanted separately at adoption time.

use parking_lot::Mutex;

use crate::api::Request;
use crate::storage::wal::{WalLog, WalOp, WalRecord};

/// Append-only per-user request log, keyed by identity key. A thin
/// thread-safe façade over the shared [`WalLog`] record store.
#[derive(Debug, Default)]
pub(super) struct MigrationWal {
    log: Mutex<WalLog>,
}

impl MigrationWal {
    /// Appends one replayable request under `key`.
    pub(super) fn append(&self, key: &str, request: Request) {
        self.log
            .lock()
            .append(key, WalOp::request(request).compacted());
    }

    /// A clone of `key`'s records, in sequence order.
    pub(super) fn replay_of(&self, key: &str) -> Vec<WalRecord> {
        self.log.lock().suffix(key, 0)
    }

    /// Number of logged records for `key`.
    pub(super) fn len_of(&self, key: &str) -> usize {
        self.log.lock().len_of(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn append_preserves_order_per_key() {
        let wal = MigrationWal::default();
        wal.append(
            "a",
            Request::post("/api/v1/registration", json!({"imei": "1"})),
        );
        wal.append(
            "a",
            Request::post("/api/v1/places/sync", json!({"places": []})),
        );
        wal.append(
            "b",
            Request::post("/api/v1/registration", json!({"imei": "2"})),
        );
        let a = wal.replay_of("a");
        assert_eq!(a.len(), 2);
        assert_eq!((a[0].seq, a[1].seq), (1, 2));
        assert!(matches!(&a[0].op, WalOp::Request(r) if r.path == "/api/v1/registration"));
        assert!(matches!(&a[1].op, WalOp::Request(r) if r.path == "/api/v1/places/sync"));
        assert_eq!(wal.len_of("b"), 1);
        assert_eq!(wal.len_of("missing"), 0);
    }
}
