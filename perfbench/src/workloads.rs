//! The three workloads: what each sets up, times, checks and reports.
//!
//! * `cohort` — the deployment study through `run_study`, multi-week so
//!   nightly GCA offload and profile sync both happen, on one thread per
//!   core. The phone pipeline (radio, scheduler, inference) takes nearly
//!   all of its time, so radio, PMS and `parallel_map` changes show here
//!   and cloud changes cannot.
//! * `cloud_replay` — a cohort's recorded cloud traffic plus per-user
//!   daily reads, replayed closed-loop from one client into a fresh
//!   all-resident instance: the cloud hot path with the working set in RAM.
//! * `cloud_durable` — the first sim-days of the same stream into a
//!   durable instance whose resident cap is a small fraction of the users,
//!   then a crash, `CloudInstance::recover` and probe reads: WAL writes,
//!   evict/hydrate and recovery. Durable requests cost about 80 times the
//!   in-memory ones, so the whole stream would not fit a run.
//!
//! Every workload reports the same end-to-end metrics (see [`end_to_end`]);
//! a traced run reports every per-layer metric, 0 where a layer does not
//! apply to the workload.

use std::path::Path;
use std::time::{Duration, Instant};

use pmware_bench::deployment::{run_study, StudyResults};
use pmware_cloud::{CellDatabase, CloudInstance};
use serde_json::{json, Value};

use crate::cloud::{self, Replay};
use crate::cohort::{self, CohortSize, Inputs};
use crate::report::{self, median, quantile, Breakdown, Metrics};
use crate::stream::{self, Fingerprint, Stream};
use crate::tap::{observations_in, Exchange};
use crate::trace::{self, Span};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;
/// Timed repetitions per run at least, however long they take.
const MIN_REPEATS: usize = 3;

/// Route labels reported per endpoint: the phone's traffic plus the
/// benchmark's reads.
const REPORTED_ENDPOINTS: [&str; 10] = [
    "register",
    "token_refresh",
    "places_discover",
    "places_sync",
    "routes_sync",
    "profiles_sync",
    "geolocate_signature",
    "places_list",
    "routes_list",
    "analytics_next_place",
];

/// Sizes of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Participants (cloud users).
    pub participants: usize,
    /// Study days.
    pub days: u64,
    /// Worker threads (`cohort`).
    pub threads: usize,
    /// Resident store cap (`cloud_durable`).
    pub resident_cap: usize,
    /// Sim-days of the stream replayed (`cloud_durable`).
    pub replay_days: u64,
}

impl Sizes {
    /// JSON form.
    pub fn to_json(self) -> Value {
        json!({
            "participants": self.participants,
            "days": self.days,
            "threads": self.threads,
            "resident_cap": self.resident_cap,
            "replay_days": self.replay_days,
        })
    }
}

/// Everything a run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed a check or answered outside 2xx.
    pub failed: u64,
    /// What failed, one line each.
    pub failures: Vec<String>,
    /// The metrics of the result line.
    pub metrics: Metrics,
    /// Extra detail for the result file (fingerprint, breakdown, ...).
    pub detail: Vec<(&'static str, Value)>,
    /// Spans of a traced run.
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }

    fn ok_frac(&self) -> f64 {
        (self.attempted - self.failed.min(self.attempted)) as f64 / self.attempted.max(1) as f64
    }
}

fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Runs set-up `f` `SETUP_REPEATS` times; returns the last output and the
/// median seconds.
fn set_up<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    let mut seconds = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let (out, s) = time(&mut f);
        seconds.push(s);
        last = Some(out);
    }
    (last.expect("SETUP_REPEATS > 0"), median(&seconds))
}

/// Repeats `f` until `seconds` have passed and it ran `MIN_REPEATS` times.
fn repeat_for(seconds: f64, mut f: impl FnMut()) {
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut runs = 0;
    while runs < MIN_REPEATS || start.elapsed() < budget {
        f();
        runs += 1;
    }
}

/// Per-layer metrics that do not apply to a workload read 0.
fn zeros(m: &mut Metrics, names: &[(&str, &'static str)]) {
    for (name, unit) in names {
        m.push(*name, 0.0, unit);
    }
}

const PHONE_METRICS: [(&str, &str); 19] = [
    ("world.build_s", "s"),
    ("mobility.population_s", "s"),
    ("mobility.itinerary_s", "s"),
    ("mobility.position_calls_per_pday", "count"),
    ("mobility.position_ns_per_call", "ns"),
    ("core.pms.run_self_ms_per_pday", "ms"),
    ("core.pms.register_us", "us"),
    ("core.pms.finish_ms", "ms"),
    ("apps.ms_per_pday", "ms"),
    ("algorithms.matching_ms", "ms"),
    ("bench.parallel.idle_frac", "fraction"),
    ("world.radio.gsm_ns_per_sample", "ns"),
    ("world.radio.wifi_ns_per_scan", "ns"),
    ("world.radio.gps_ns_per_fix", "ns"),
    ("world.radio.gsm_share_est", "fraction"),
    ("core.client.requests_per_pday", "count"),
    ("core.client.wire_bytes_per_pday", "bytes"),
    ("core.client.retries", "count"),
    ("cloud.busy_share", "fraction"),
];

const STORAGE_METRICS: [(&str, &str); 8] = [
    ("cloud.storage.evictions", "count"),
    ("cloud.storage.hydrations", "count"),
    ("cloud.storage.hydrated_request_frac", "fraction"),
    ("cloud.storage.wal_bytes_per_request", "bytes"),
    ("cloud.storage.dir_bytes_per_user", "bytes"),
    ("cloud.storage.first_touch_us", "us"),
    ("cloud.storage.resident_users", "count"),
    ("cloud.storage.recovery_s", "s"),
];

/// `cloud.<endpoint>.*` and `cloud.discover.ns_per_observation` from the
/// spans of a traced run.
fn endpoint_metrics(m: &mut Metrics, spans: &[Span], observations: u64) {
    let totals = report::totals(spans);
    for ep in REPORTED_ENDPOINTS {
        let t = totals
            .get(format!("cloud.{ep}").as_str())
            .cloned()
            .unwrap_or_default();
        m.push(format!("cloud.{ep}.calls"), t.calls as f64, "count");
        m.push(format!("cloud.{ep}.busy_ms"), t.dur_ns as f64 / 1e6, "ms");
        m.push(
            format!("cloud.{ep}.p99_us"),
            quantile(&t.durations, 0.99) as f64 / 1e3,
            "us",
        );
    }
    let discover = totals.get("cloud.places_discover").map_or(0, |t| t.dur_ns);
    m.push(
        "cloud.discover.ns_per_observation",
        discover as f64 / observations.max(1) as f64,
        "ns",
    );
}

fn breakdown_detail(out: &mut Outcome, b: &Breakdown) {
    out.detail.push(("breakdown", b.to_json()));
    if (b.accounted_frac() - 1.0).abs() > 0.01 {
        out.failures.push(format!(
            "layer self times + idle + unattributed = {:.4} of wall",
            b.accounted_frac()
        ));
    }
}

/// Pushes the end-to-end metrics, the same set for every workload:
/// set-up time, throughput in participant-days and in cloud requests per
/// second, cloud request latency (median and p99 of `latencies`, with the
/// sample count in the detail), the study's discovery quality and phone
/// energy, peak memory, and the share of operations that passed.
/// `wall_s` is the median time to serve `pdays` participant-days, which
/// took `requests` cloud requests; `study` ran `study_days` days.
#[allow(clippy::too_many_arguments)]
fn end_to_end(
    out: &mut Outcome,
    setup_s: f64,
    wall_s: f64,
    pdays: f64,
    requests: f64,
    latencies: &mut [u64],
    study: &StudyResults,
    study_days: u64,
) {
    latencies.sort_unstable();
    let energy: f64 = study.participants.iter().map(|p| p.energy_joules).sum();
    let m = &mut out.metrics;
    m.push("participant_days_per_s", pdays / wall_s, "1/s");
    m.push("requests_per_s", requests / wall_s, "1/s");
    m.push(
        "request_p50_us",
        quantile(latencies, 0.5) as f64 / 1e3,
        "us",
    );
    m.push(
        "request_p99_us",
        quantile(latencies, 0.99) as f64 / 1e3,
        "us",
    );
    m.push(
        "discovery_correct_frac",
        study.correct_fraction(),
        "fraction",
    );
    let study_pdays = (study.participants.len() as u64 * study_days).max(1) as f64;
    m.push("energy_j_per_pday", energy / study_pdays, "J");
    m.push("setup_s", setup_s, "s");
    m.push("peak_rss_mb", report::peak_rss_mb(), "MiB");
    let ok = out.ok_frac();
    out.metrics.push("ok_ops_frac", ok, "fraction");
    out.detail.push(("latency_samples", json!(latencies.len())));
    out.detail.push((
        "study",
        json!({
            "places": study.total_discovered(),
            "tagged_frac": study.tagged_fraction(),
            "correct_frac": study.correct_fraction(),
            "merged_frac": study.merged_fraction(),
            "divided_frac": study.divided_fraction(),
            "like_frac": study.like_fraction(),
            "cloud_requests": study.cloud_requests,
        }),
    ));
}

/// The `cohort` workload.
pub fn cohort(seed: u64, seconds: f64, traced: bool, sizes: Sizes) -> Outcome {
    let size = CohortSize {
        participants: sizes.participants,
        days: sizes.days,
        threads: sizes.threads,
    };
    let config = cohort::study_config(seed, size);
    let mut out = Outcome::default();
    if !traced {
        let (inputs, setup_s) = set_up(|| cohort::build_inputs(seed, size));
        let reference = cohort::run_traceable(&inputs, seed, size, false);
        drop(inputs);
        for stats in &reference.stats {
            out.attempted += stats.traffic.requests;
            out.failed += stats.traffic.non_ok;
        }
        let mut walls = Vec::new();
        let mut last = None;
        repeat_for(seconds, || {
            let (results, s) = time(|| run_study(&config));
            walls.push(s);
            out.attempted += results.participants.len() as u64;
            let failures = cohort::check(&results, &reference.results);
            out.failed += failures.len() as u64;
            out.failures.extend(failures);
            last = Some(results);
        });
        let results = last.expect("timed at least once");
        let mut latencies: Vec<u64> = reference
            .stats
            .iter()
            .flat_map(|s| s.traffic.latencies_ns.iter().copied())
            .collect();
        end_to_end(
            &mut out,
            setup_s,
            median(&walls),
            size.pdays(),
            results.cloud_requests as f64,
            &mut latencies,
            &results,
            size.days,
        );
        out.detail.push(("study_wall_s", json!(walls)));
        return out;
    }

    let (untraced, untraced_s) = time(|| run_study(&config));
    trace::start();
    let ((inputs, run), traced_s) = time(|| {
        trace::span("bench.cohort", 0, || {
            let inputs = cohort::build_inputs(seed, size);
            let run = cohort::run_traceable(&inputs, seed, size, true);
            (inputs, run)
        })
    });
    let (spans, leaves) = trace::take();
    out.attempted = untraced.participants.len() as u64;
    out.failures = cohort::check(&untraced, &run.results);
    out.failed = out.failures.len() as u64;
    for stats in &run.stats {
        out.attempted += stats.traffic.requests;
        out.failed += stats.traffic.non_ok;
    }

    let pdays = size.pdays();
    let totals = report::totals(&spans);
    let get = |name: &str| totals.get(name).cloned().unwrap_or_default();
    let sum = |f: &dyn Fn(&cohort::ParticipantStats) -> f64| run.stats.iter().map(f).sum::<f64>();
    let positions: Vec<_> = run
        .stats
        .iter()
        .flat_map(|s| s.positions.iter().copied())
        .collect();
    let radio = cohort::radio_probe(&inputs.world, &positions, seed);
    let busy = get("bench.participant").dur_ns as f64;
    let cloud_busy: u64 = totals
        .iter()
        .filter(|(name, _)| name.starts_with("cloud.") && **name != "cloud.setup")
        .map(|(_, t)| t.dur_ns)
        .sum();
    let parallel_wall = get("bench.parallel").dur_ns as f64;
    let threads = size.threads.min(size.participants).max(1);
    let position = trace::leaf_total(&leaves, "mobility.position");
    let m = &mut out.metrics;
    m.push("world.build_s", get("world.build").dur_ns as f64 / 1e9, "s");
    m.push(
        "mobility.population_s",
        get("mobility.population").dur_ns as f64 / 1e9,
        "s",
    );
    m.push(
        "mobility.itinerary_s",
        get("mobility.itinerary").dur_ns as f64 / 1e9,
        "s",
    );
    m.push(
        "mobility.position_calls_per_pday",
        sum(&|s| s.position_calls as f64) / pdays,
        "count",
    );
    m.push(
        "mobility.position_ns_per_call",
        position.ns as f64 / position.calls.max(1) as f64,
        "ns",
    );
    m.push(
        "core.pms.run_self_ms_per_pday",
        get("core.pms.run").self_ns as f64 / 1e6 / pdays,
        "ms",
    );
    m.push(
        "core.pms.register_us",
        get("core.pms.register").mean_ns() / 1e3,
        "us",
    );
    m.push(
        "core.pms.finish_ms",
        get("core.pms.finish").mean_ns() / 1e6,
        "ms",
    );
    m.push(
        "apps.ms_per_pday",
        get("apps").dur_ns as f64 / 1e6 / pdays,
        "ms",
    );
    m.push(
        "algorithms.matching_ms",
        get("algorithms.matching").mean_ns() / 1e6,
        "ms",
    );
    m.push(
        "bench.parallel.idle_frac",
        1.0 - busy / (threads as f64 * parallel_wall).max(1.0),
        "fraction",
    );
    m.push("world.radio.gsm_ns_per_sample", radio[0], "ns");
    m.push("world.radio.wifi_ns_per_scan", radio[1], "ns");
    m.push("world.radio.gps_ns_per_fix", radio[2], "ns");
    m.push(
        "world.radio.gsm_share_est",
        sum(&|s| s.radio_samples[0]) * radio[0] / busy.max(1.0),
        "fraction",
    );
    m.push(
        "core.client.requests_per_pday",
        sum(&|s| s.traffic.requests as f64) / pdays,
        "count",
    );
    m.push(
        "core.client.wire_bytes_per_pday",
        sum(&|s| s.traffic.wire_bytes as f64) / pdays,
        "bytes",
    );
    m.push("core.client.retries", sum(&|s| s.retries as f64), "count");
    m.push(
        "cloud.busy_share",
        cloud_busy as f64 / busy.max(1.0),
        "fraction",
    );
    endpoint_metrics(
        &mut out.metrics,
        &spans,
        run.stats.iter().map(|s| s.traffic.observations).sum(),
    );
    zeros(&mut out.metrics, &STORAGE_METRICS);
    let b = report::breakdown(&spans, &leaves, threads);
    out.metrics.push(
        "bench.unattributed_frac",
        b.unattributed_ns / b.wall_ns.max(1.0),
        "fraction",
    );
    out.metrics.push(
        "bench.trace_overhead_frac",
        traced_s / untraced_s - 1.0,
        "fraction",
    );
    breakdown_detail(&mut out, &b);
    out.detail.push((
        "radio",
        json!({
            "probe_positions": positions.len(),
            "gsm_samples": sum(&|s| s.radio_samples[0]),
            "wifi_scans": sum(&|s| s.radio_samples[1]),
            "gps_fixes": sum(&|s| s.radio_samples[2]),
        }),
    ));
    out.spans = spans;
    out
}

/// Sets a cloud workload up: the cohort's inputs, the cell database and a
/// fresh instance (durable in `store` when given). Returns the inputs and
/// the median set-up seconds.
fn cloud_setup(seed: u64, sizes: Sizes, store: Option<&Path>) -> (Inputs, f64) {
    let size = CohortSize {
        participants: sizes.participants,
        days: sizes.days,
        threads: 1,
    };
    set_up(|| {
        let inputs = cohort::build_inputs(seed, size);
        let instance = CloudInstance::new(CellDatabase::from_world(&inputs.world), seed + 1);
        if let Some(dir) = store {
            let _ = std::fs::remove_dir_all(dir);
            std::fs::create_dir_all(dir).expect("create the store directory");
            instance.set_storage(Some(cloud::durable_config(dir, sizes.resident_cap)));
        }
        std::hint::black_box(instance);
        inputs
    })
}

/// Records the stream's fingerprint (per-endpoint counts, wire bytes,
/// hash) so that a change in phone traffic shows as a changed workload.
fn stream_detail(out: &mut Outcome, stream: &Stream) {
    out.detail
        .push(("fingerprint", Fingerprint::of(&stream.exchanges).to_json()));
}

fn count(out: &mut Outcome, replay: &Replay) {
    out.attempted += replay.requests();
    out.failed += replay.mismatches + replay.non_ok;
    if replay.mismatches > 0 {
        out.failures.push(format!(
            "{} responses differ from the recorded ones",
            replay.mismatches
        ));
    }
    if replay.non_ok > 0 {
        out.failures
            .push(format!("{} responses outside 2xx", replay.non_ok));
    }
}

/// The `cloud_replay` workload.
pub fn cloud_replay(seed: u64, seconds: f64, traced: bool, sizes: Sizes) -> Outcome {
    let mut out = Outcome::default();
    let (inputs, setup_s) = cloud_setup(seed, sizes, None);
    let stream = stream::record(&inputs, seed, sizes.days);
    drop(inputs);
    stream_detail(&mut out, &stream);
    if !traced {
        let mut busy = Vec::new();
        let mut latencies = Vec::new();
        repeat_for(seconds, || {
            let instance = cloud::in_memory(&stream);
            let r = cloud::replay(&instance, &stream.exchanges);
            busy.push(r.busy_s());
            count(&mut out, &r);
            latencies.extend_from_slice(&r.latencies_ns);
        });
        out.detail.push(("passes", json!(busy.len())));
        end_to_end(
            &mut out,
            setup_s,
            median(&busy),
            (sizes.participants as u64 * sizes.days) as f64,
            stream.exchanges.len() as f64,
            &mut latencies,
            &stream.study,
            sizes.days,
        );
        return out;
    }
    let untraced = cloud::replay(&cloud::in_memory(&stream), &stream.exchanges);
    let setup_spans = traced_setup(seed, sizes);
    let instance = cloud::in_memory(&stream);
    let traced = trace::span("bench.replay", 0, || {
        cloud::replay(&instance, &stream.exchanges)
    });
    count(&mut out, &untraced);
    count(&mut out, &traced);
    let (spans, leaves) = trace::take();
    cloud_layer_metrics(
        &mut out,
        setup_spans,
        spans,
        &leaves,
        &stream.exchanges,
        &untraced,
        &traced,
    );
    zeros(&mut out.metrics, &STORAGE_METRICS[..6]);
    out.metrics.push(
        "cloud.storage.resident_users",
        instance.resident_users() as f64,
        "count",
    );
    out.metrics.push("cloud.storage.recovery_s", 0.0, "s");
    out
}

/// Per-layer metrics common to both cloud workloads.
fn cloud_layer_metrics(
    out: &mut Outcome,
    setup_spans: Vec<Span>,
    spans: Vec<Span>,
    leaves: &[(&'static str, trace::Leaf)],
    exchanges: &[Exchange],
    untraced: &Replay,
    traced: &Replay,
) {
    let setup = report::totals(&setup_spans);
    let setup_s = |name: &str| setup.get(name).map_or(0.0, |t| t.dur_ns as f64 / 1e9);
    let b = report::breakdown(&spans, leaves, 1);
    let cloud_ns: f64 = b
        .layers
        .iter()
        .filter(|(name, _)| name.starts_with("cloud."))
        .map(|(_, ns)| ns)
        .sum();
    for (name, unit) in PHONE_METRICS {
        let value = match name {
            "world.build_s" => setup_s("world.build"),
            "mobility.population_s" => setup_s("mobility.population"),
            "mobility.itinerary_s" => setup_s("mobility.itinerary"),
            "cloud.busy_share" => cloud_ns / b.wall_ns.max(1.0),
            _ => 0.0,
        };
        out.metrics.push(name, value, unit);
    }
    let observations = exchanges
        .iter()
        .map(|ex| observations_in(&ex.request) as u64)
        .sum();
    endpoint_metrics(&mut out.metrics, &spans, observations);
    out.metrics.push(
        "bench.unattributed_frac",
        b.unattributed_ns / b.wall_ns.max(1.0),
        "fraction",
    );
    let busy = |r: &Replay| r.latencies_ns.iter().sum::<u64>() as f64;
    out.metrics.push(
        "bench.trace_overhead_frac",
        busy(traced) / busy(untraced).max(1.0) - 1.0,
        "fraction",
    );
    breakdown_detail(out, &b);
    out.spans = setup_spans;
    out.spans.extend(spans);
}

/// Turns tracing on and builds a cloud workload's inputs once more, for
/// the set-up layers' spans.
fn traced_setup(seed: u64, sizes: Sizes) -> Vec<Span> {
    trace::start();
    let size = CohortSize {
        participants: sizes.participants,
        days: sizes.days,
        threads: 1,
    };
    cohort::build_inputs(seed, size);
    trace::take().0
}

/// The `cloud_durable` workload; the store lives under `work`.
pub fn cloud_durable(seed: u64, seconds: f64, traced: bool, sizes: Sizes, work: &Path) -> Outcome {
    let mut out = Outcome::default();
    let (inputs, setup_s) = cloud_setup(seed, sizes, Some(work));
    let stream = stream::record(&inputs, seed, sizes.days);
    drop(inputs);
    stream_detail(&mut out, &stream);
    let part = stream.first_days(sizes.replay_days);
    let (probes, mismatches) = stream.probes(part);
    if mismatches > 0 {
        out.failed += mismatches;
        out.failures.push(format!(
            "{mismatches} responses of a fresh all-resident instance differ from the recorded ones"
        ));
    }
    out.detail.push((
        "replayed",
        json!({"requests": part.len(), "probes": probes.len()}),
    ));
    if !traced {
        let mut busy = Vec::new();
        let mut recovery = Vec::new();
        let mut latencies = Vec::new();
        repeat_for(seconds, || {
            let pass = cloud::durable_pass(&stream, part, &probes, work, sizes.resident_cap);
            busy.push(pass.stream.busy_s());
            recovery.push(pass.recovery_s);
            count(&mut out, &pass.stream);
            count(&mut out, &pass.probes);
            latencies.extend_from_slice(&pass.stream.latencies_ns);
        });
        out.detail.push(("passes", json!(busy.len())));
        out.detail.push(("recovery_s", json!(median(&recovery))));
        end_to_end(
            &mut out,
            setup_s,
            median(&busy),
            (sizes.participants as u64 * sizes.replay_days) as f64,
            part.len() as f64,
            &mut latencies,
            &stream.study,
            sizes.days,
        );
        return out;
    }
    let untraced = cloud::durable_pass(&stream, part, &probes, work, sizes.resident_cap);
    let setup_spans = traced_setup(seed, sizes);
    let pass = trace::span("bench.replay", 0, || {
        cloud::durable_pass(&stream, part, &probes, work, sizes.resident_cap)
    });
    for r in [
        &untraced.stream,
        &untraced.probes,
        &pass.stream,
        &pass.probes,
    ] {
        count(&mut out, r);
    }
    let (spans, leaves) = trace::take();
    cloud_layer_metrics(
        &mut out,
        setup_spans,
        spans,
        &leaves,
        part,
        &untraced.stream,
        &pass.stream,
    );
    let requests = pass.stream.requests().max(1) as f64;
    let first_touch = &pass.probes.first_touch_ns;
    let m = &mut out.metrics;
    m.push("cloud.storage.evictions", pass.evictions as f64, "count");
    m.push("cloud.storage.hydrations", pass.hydrations as f64, "count");
    m.push(
        "cloud.storage.hydrated_request_frac",
        pass.stream.hydrated as f64 / requests,
        "fraction",
    );
    m.push(
        "cloud.storage.wal_bytes_per_request",
        pass.wal_bytes as f64 / requests,
        "bytes",
    );
    m.push(
        "cloud.storage.dir_bytes_per_user",
        pass.dir_bytes as f64 / f64::from(stream.users.max(1)),
        "bytes",
    );
    m.push(
        "cloud.storage.first_touch_us",
        first_touch.iter().sum::<u64>() as f64 / first_touch.len().max(1) as f64 / 1e3,
        "us",
    );
    m.push(
        "cloud.storage.resident_users",
        pass.resident_users as f64,
        "count",
    );
    m.push("cloud.storage.recovery_s", pass.recovery_s, "s");
    out
}
