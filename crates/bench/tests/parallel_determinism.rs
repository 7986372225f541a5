//! The core guarantee of the parallel cohort engine: fanning participants
//! out over worker threads changes wall-clock time and *nothing else*.
//!
//! Every per-participant quantity is derived from per-participant seeds
//! before the fan-out, and the shared cloud derives user ids and tokens
//! from device identity rather than arrival order. These tests pin that
//! down: a 4-thread run must equal a sequential run field by field,
//! including the floating-point energy totals, and the cloud's user ids,
//! live tokens and per-shard counters must not depend on the thread
//! count.

use std::collections::BTreeMap;

use pmware_bench::deployment::{run_study, run_study_with_admission, StudyConfig};
use pmware_bench::parallel::parallel_map;
use pmware_cloud::{
    AdmissionConfig, CellDatabase, CloudInstance, RateBudget, Request, SharedCloud, UserId,
};
use pmware_core::CloudClient;
use pmware_world::builder::RegionProfile;
use pmware_world::tower::NetworkLayer;
use pmware_world::{CellGlobalId, CellId, GsmObservation, Lac, Plmn, SimDuration, SimTime};

fn config(threads: usize) -> StudyConfig {
    StudyConfig {
        participants: 6,
        days: 3,
        seed: 7001,
        region: RegionProfile::urban_india(),
        threads,
        obs: pmware_obs::Obs::disabled(),
        offload_batch_days: 0,
        storage: None,
    }
}

#[test]
fn parallel_study_is_bit_identical_to_sequential() {
    let sequential = run_study(&config(1));
    let parallel = run_study(&config(4));

    assert_eq!(sequential.participants.len(), parallel.participants.len());
    for (i, (s, p)) in sequential
        .participants
        .iter()
        .zip(&parallel.participants)
        .enumerate()
    {
        // Exact comparison on purpose: energy_joules is an f64 and must
        // match to the last bit, not approximately.
        assert_eq!(s, p, "participant {i} diverged between 1 and 4 threads");
        assert_eq!(
            s.energy_joules.to_bits(),
            p.energy_joules.to_bits(),
            "participant {i} energy not bit-identical"
        );
    }
    assert_eq!(sequential, parallel);
}

#[test]
fn oversubscribed_pool_is_still_identical() {
    // More workers than participants: some threads exit without ever
    // pulling a job; order reassembly must still hold.
    let sequential = run_study(&config(1));
    let oversubscribed = run_study(&config(16));
    assert_eq!(sequential, oversubscribed);
}

/// The cloud side of a session is schedule-free: twelve clients racing
/// through registration, re-registration and token refresh on 1, 2 and
/// 8 threads leave byte-identical metrics (per-shard counters included)
/// and the same identity → (user id, live token) map.
#[test]
fn user_ids_tokens_and_shard_counters_ignore_the_thread_count() {
    let drive = |threads: usize| {
        let obs = pmware_obs::Obs::new();
        let cloud = SharedCloud::new(CloudInstance::new(CellDatabase::new(), 11).with_obs(&obs));
        let sessions = parallel_map((0..12u32).collect(), threads, |n| {
            let (imei, email) = (format!("imei-{n}"), format!("p{n}@x.y"));
            let start = SimTime::from_seconds(u64::from(n));
            let mut client =
                CloudClient::register(cloud.clone(), &imei, &email, start).expect("register");
            if n % 3 == 0 {
                client
                    .reregister(&imei, &email, start)
                    .expect("re-register");
            }
            let later = start + SimDuration::from_hours(23);
            for _ in 0..=n % 4 {
                client
                    .get("/api/v1/places", later)
                    .expect("authenticated read");
            }
            assert!(client
                .refresh_if_needed(later, SimDuration::from_hours(2))
                .expect("refresh"));
            let state = client.state();
            ((imei, email), (state.user, state.token))
        });
        // Read the sessions back from the cloud: each live token
        // authenticates, and re-registering names the same user.
        let end = SimTime::from_seconds(30 * 3_600);
        for ((imei, email), (user, token)) in &sessions {
            let places = cloud.handle(&Request::get("/api/v1/places").with_token(token), end);
            assert!(places.is_success(), "{places:?}");
            let again = cloud.handle(
                &Request::post(
                    "/api/v1/registration",
                    serde_json::json!({"imei": imei, "email": email}),
                ),
                end,
            );
            assert_eq!(again.json()["user"], serde_json::json!(user.0));
        }
        let sessions: BTreeMap<(String, String), (UserId, String)> = sessions.into_iter().collect();
        (sessions, obs.metrics_json().expect("registry is live"))
    };
    let (sessions, metrics) = drive(1);
    assert!(
        metrics.contains("cloud_shard_requests_total"),
        "per-shard counters belong in the shared snapshot: {metrics}"
    );
    for threads in [2, 8] {
        let (other_sessions, other_metrics) = drive(threads);
        assert_eq!(
            sessions, other_sessions,
            "user ids or tokens depend on the thread count ({threads})"
        );
        assert_eq!(
            metrics, other_metrics,
            "metrics snapshot depends on the thread count ({threads})"
        );
    }
}

/// Admission control is schedule-free too: each bucket's refill phase
/// hashes the user id, which derives from identity, so a tight budget
/// sheds the same requests on 1 and 2 threads.
#[test]
fn admission_denials_ignore_the_thread_count() {
    let throttled = |threads: usize| {
        let obs = pmware_obs::Obs::new();
        let budget =
            AdmissionConfig::uniform(99, RateBudget::new(2, SimDuration::from_seconds(30)));
        let results = run_study_with_admission(
            &StudyConfig {
                obs: obs.clone(),
                ..config(threads)
            },
            Some(budget),
        );
        let snapshot = obs.metrics().expect("registry is live").snapshot();
        let denials = snapshot.counter_sum_with_prefix("cloud_admission_denied_total");
        (
            results,
            denials,
            obs.metrics_json().expect("registry is live"),
        )
    };
    let (sequential, denials, metrics) = throttled(1);
    assert!(denials > 0, "the tight budget must shed requests");
    let (parallel, parallel_denials, parallel_metrics) = throttled(2);
    assert_eq!(denials, parallel_denials);
    assert_eq!(sequential, parallel);
    assert_eq!(metrics, parallel_metrics);
}

/// The thread-count guarantee survives live instrumentation: with a
/// metrics registry and trace bus attached, a parallel run still equals
/// the sequential *uninstrumented* run field by field (the byte-level
/// equality of the exported artefacts themselves is pinned in
/// `obs_golden.rs`).
#[test]
fn parallel_run_is_identical_with_observability_attached() {
    let plain = run_study(&config(1));
    let obs = pmware_obs::Obs::with_trace(4_096);
    let observed = run_study(&StudyConfig { obs, ..config(4) });
    assert_eq!(plain, observed);
}

/// The wire-traffic claim behind the batched protocol, measured directly
/// at the client: a six-day offload backlog costs six requests when sent
/// per-day but exactly one when coalesced into a delta-compressed batch —
/// a 6× reduction, comfortably under the ≤1/3 target — and the cloud ends
/// up with byte-identical places either way (and identical to the plain
/// unbatched array protocol).
#[test]
fn batched_offload_coalesces_backlog_into_one_request() {
    // Six days of a two-cell oscillation, one observation a minute for an
    // hour each morning — enough dwell for GCA to mint a place.
    let log: Vec<GsmObservation> = (0..6u64)
        .flat_map(|day| {
            (0..60u64).map(move |minute| GsmObservation {
                time: SimTime::from_seconds(day * 86_400 + 8 * 3_600 + minute * 60),
                cell: CellGlobalId {
                    plmn: Plmn { mcc: 404, mnc: 45 },
                    lac: Lac(1),
                    cell: CellId(1 + (minute % 2) as u32),
                },
                layer: NetworkLayer::G2,
                rssi_dbm: -70.0,
            })
        })
        .collect();
    let day_len = log.len() / 6;
    let cloud = SharedCloud::new(CloudInstance::new(CellDatabase::new(), 5));
    let now = SimTime::from_seconds(6 * 86_400);

    // Per-day baseline: the unacknowledged suffix goes out as one request
    // per day of backlog.
    let mut per_day =
        CloudClient::register(cloud.clone(), "imei-day", "day@x.y", now).expect("register");
    let before = per_day.wire_requests();
    for day in 0..6 {
        let chunk = &log[day * day_len..(day + 1) * day_len];
        per_day
            .discover_places_batched(chunk, (day * day_len) as u64, now)
            .expect("per-day offload");
    }
    let per_day_requests = per_day.wire_requests() - before;
    assert_eq!(per_day_requests, 6);

    // Coalesced: the whole backlog in one batched request.
    let mut coalesced =
        CloudClient::register(cloud.clone(), "imei-all", "all@x.y", now).expect("register");
    let before = coalesced.wire_requests();
    let places = coalesced
        .discover_places_batched(&log, 0, now)
        .expect("coalesced offload");
    let coalesced_requests = coalesced.wire_requests() - before;
    assert_eq!(coalesced_requests, 1);
    assert!(
        coalesced_requests * 3 <= per_day_requests,
        "coalesced offload must cut wire requests to at most 1/3 of per-day \
         ({coalesced_requests} vs {per_day_requests})"
    );

    // Control: the legacy plain-array protocol. All three spellings must
    // leave the cloud with byte-identical places.
    let mut plain =
        CloudClient::register(cloud.clone(), "imei-old", "old@x.y", now).expect("register");
    let control = plain.discover_places(&log, 0, now).expect("plain offload");
    assert!(!places.is_empty(), "six days of dwell must mint a place");
    assert_eq!(places, control);
    assert_eq!(
        cloud.places_of(per_day.user()),
        cloud.places_of(coalesced.user())
    );
    assert_eq!(
        cloud.places_of(coalesced.user()),
        cloud.places_of(plain.user())
    );
}

/// Offload chunking is pure wire phrasing: per-day (`1`), three-day
/// (`3`) and whole-suffix (`0`, the coalescing default) offloads produce
/// identical participant outcomes — places, tags, classification,
/// bit-identical energy — because the cloud absorbs the same observation
/// stream in the same order regardless of how the suffix is split into
/// requests. Only the wire-request count may differ, and never downward
/// for finer chunking.
#[test]
fn offload_chunking_never_changes_study_results() {
    let coalesced = run_study(&config(1));
    for batch_days in [1u32, 3] {
        let chunked = run_study(&StudyConfig {
            offload_batch_days: batch_days,
            ..config(1)
        });
        assert_eq!(
            coalesced.participants, chunked.participants,
            "participant outcomes diverged at offload_batch_days={batch_days}"
        );
        assert!(
            chunked.cloud_requests >= coalesced.cloud_requests,
            "finer chunking cannot send fewer requests \
             ({} at batch_days={batch_days} vs {} coalesced)",
            chunked.cloud_requests,
            coalesced.cloud_requests
        );
    }
}
