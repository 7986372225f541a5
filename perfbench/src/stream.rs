//! The recorded cloud-request stream of a cohort, the input of the two
//! cloud workloads.
//!
//! A lockstep loop runs every participant's phone on one thread, all of
//! them advancing one sim-day at a time, so the cloud sees traffic
//! interleaved across users the way a real cloud instance does (a
//! user-by-user stream keeps one user hot and hides eviction and
//! hydration costs). After each sim-day the benchmark adds read queries per
//! user: `GET /places`, `GET /routes` and `analytics/next_place`. The same
//! reads, sent after a part of the stream to an all-resident instance fed
//! that part, give the expected answers for recovery probes.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use pmware_bench::deployment::StudyResults;
use pmware_cloud::{
    CellDatabase, CloudEndpoint, CloudInstance, Payload, PlaceOnlyBody, Request, SharedCloud,
    ENDPOINT_LABELS,
};
use pmware_world::{SimDuration, SimTime};

use crate::cohort::{Inputs, Phone};
use crate::tap::{endpoint_of, CloudTap, Exchange, PositionTap};

/// A recorded stream and everything needed to replay it.
#[derive(Debug)]
pub struct Stream {
    /// The recorded cohort's study results.
    pub study: StudyResults,
    /// Every exchange in delivery order: phone traffic and added reads.
    pub exchanges: Vec<Exchange>,
    /// `exchanges.len()` at the end of each sim-day's reads.
    pub day_ends: Vec<usize>,
    /// Users (= participants).
    pub users: u32,
    /// Cell database the recording instance was built with.
    pub cells: CellDatabase,
    /// Seed the recording instance was built with.
    pub cloud_seed: u64,
}

/// Sends the three read queries for one user at one instant through
/// `cloud`. `next_place` asks about the first place the list returned, so
/// it is left out while the user has none.
fn send_reads(cloud: &CloudEndpoint, token: &str, at: SimTime) {
    let listed = cloud.send(&Request::get("/api/v1/places").with_token(token), at);
    cloud.send(&Request::get("/api/v1/routes").with_token(token), at);
    if let Payload::Places { places } = &listed.body {
        if let Some(place) = places.first() {
            let body = PlaceOnlyBody { place: place.id };
            cloud.send(
                &Request::post("/api/v1/analytics/next_place", body).with_token(token),
                at,
            );
        }
    }
}

/// Records the stream of the cohort `inputs` describe (built for `seed`),
/// over `days` days.
pub fn record(inputs: &Inputs, seed: u64, days: u64) -> Stream {
    let world = &inputs.world;
    let cells = CellDatabase::from_world(world);
    let cloud_seed = seed + 1;
    let cloud = SharedCloud::new(CloudInstance::new(cells.clone(), cloud_seed));
    let log = Arc::new(Mutex::new(Vec::new()));
    let tap = |user: u32| CloudTap::new(cloud.clone(), user, Some(Arc::clone(&log)));

    let positions: Vec<PositionTap<'_>> = inputs
        .itineraries
        .iter()
        .map(|itinerary| PositionTap::new(itinerary, false))
        .collect();
    let mut phones: Vec<(Phone<'_>, CloudEndpoint)> = inputs
        .population
        .agents()
        .iter()
        .zip(&positions)
        .map(|(agent, positions)| {
            let user = agent.id().0;
            let phone = Phone::new(world, agent, seed, positions, tap(user));
            (phone, CloudEndpoint::new(tap(user)))
        })
        .collect();
    let mut day_ends = Vec::new();
    for day in 1..=days {
        for (phone, _) in &mut phones {
            phone.step(day);
        }
        let at = SimTime::from_day_time(day, 0, 0, 0);
        for (phone, reads) in &mut phones {
            send_reads(reads, &phone.token(), at);
        }
        day_ends.push(log.lock().expect("recorder poisoned").len());
    }
    let participants = phones
        .into_iter()
        .map(|(phone, _)| phone.finish(days).0)
        .collect();
    let exchanges = std::mem::take(&mut *log.lock().expect("recorder poisoned"));
    Stream {
        study: StudyResults {
            participants,
            cloud_requests: cloud.total_requests(),
        },
        exchanges,
        day_ends,
        users: inputs.itineraries.len() as u32,
        cells,
        cloud_seed,
    }
}

impl Stream {
    /// The exchanges of the first `days` sim-days (phone traffic and
    /// reads; the end-of-study syncs come after the last day).
    pub fn first_days(&self, days: u64) -> &[Exchange] {
        let end = match days {
            0 => 0,
            d => self.day_ends[(d as usize).min(self.day_ends.len()) - 1],
        };
        &self.exchanges[..end]
    }

    /// When the probes after `exchanges` run: an hour past the last one.
    pub fn probe_at(exchanges: &[Exchange]) -> SimTime {
        let last = exchanges
            .iter()
            .map(|ex| ex.at)
            .max()
            .unwrap_or(SimTime::EPOCH);
        last + SimDuration::from_hours(1)
    }

    /// Read probes after `exchanges`, one set per user with the newest
    /// token the exchanges issued it, answered by an all-resident instance
    /// fed the same exchanges. Returns the probes and how many of the
    /// instance's answers to `exchanges` differed from the recorded ones.
    pub fn probes(&self, exchanges: &[Exchange]) -> (Vec<Exchange>, u64) {
        let cloud = SharedCloud::new(CloudInstance::new(self.cells.clone(), self.cloud_seed));
        let mismatches = crate::cloud::replay(&cloud, exchanges).mismatches;
        let mut tokens: BTreeMap<u32, String> = BTreeMap::new();
        for ex in exchanges {
            if let Payload::Registered { token, .. } | Payload::TokenRefreshed { token, .. } =
                &ex.response.body
            {
                tokens.insert(ex.user, token.clone());
            }
        }
        let log = Arc::new(Mutex::new(Vec::new()));
        let at = Self::probe_at(exchanges);
        for (&user, token) in &tokens {
            let tap = CloudTap::new(cloud.clone(), user, Some(Arc::clone(&log)));
            send_reads(&CloudEndpoint::new(tap), token, at);
        }
        let probes = std::mem::take(&mut *log.lock().expect("recorder poisoned"));
        (probes, mismatches)
    }
}

/// Per-endpoint request counts, total request wire bytes and a hash of
/// every exchange: the identity of a workload. A change to phone traffic
/// shows here as a different workload, not as a speed-up.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    /// Requests per route label.
    pub per_endpoint: BTreeMap<&'static str, u64>,
    /// Requests.
    pub requests: u64,
    /// Σ `Request::wire_bytes` length.
    pub wire_bytes: u64,
    /// FNV-1a 64 over user, instant, request bytes and response bytes.
    pub hash: u64,
}

fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

impl Fingerprint {
    /// Fingerprint of a list of exchanges.
    pub fn of(exchanges: &[Exchange]) -> Fingerprint {
        let mut per_endpoint = BTreeMap::new();
        let mut wire_bytes = 0;
        let mut hash = 0xcbf2_9ce4_8422_2325;
        for ex in exchanges {
            let label = endpoint_of(&ex.request).map_or("other", |i| ENDPOINT_LABELS[i]);
            *per_endpoint.entry(label).or_insert(0) += 1;
            let request = ex.request.wire_bytes();
            wire_bytes += request.len() as u64;
            fnv(&mut hash, &ex.user.to_le_bytes());
            fnv(&mut hash, &ex.at.as_seconds().to_le_bytes());
            fnv(&mut hash, request);
            fnv(&mut hash, &ex.response.to_bytes());
        }
        Fingerprint {
            per_endpoint,
            requests: exchanges.len() as u64,
            wire_bytes,
            hash,
        }
    }

    /// JSON form.
    pub fn to_json(&self) -> serde_json::Value {
        serde_json::json!({
            "requests": self.requests,
            "wire_bytes": self.wire_bytes,
            "hash": format!("{:016x}", self.hash),
            "per_endpoint": self.per_endpoint,
        })
    }
}
