//! The `cloud_replay` and `cloud_durable` workloads: a recorded stream
//! replayed closed-loop from one client, straight into a `CloudInstance`.

use std::path::{Path, PathBuf};
use std::time::Instant;

use pmware_cloud::{CloudInstance, Method, Request, StorageConfig};

use crate::stream::Stream;
use crate::tap::{endpoint_of, endpoint_span, Exchange};
use crate::trace;

/// A fresh copy of a recorded request, with no cached wire encoding, so
/// every replay pays what the first delivery paid.
pub fn fresh(request: &Request) -> Request {
    let copy = match request.method {
        Method::Get => Request::get(request.path.clone()),
        Method::Post => Request::post(request.path.clone(), request.body.clone()),
    };
    match &request.token {
        Some(token) => copy.with_token(token.clone()),
        None => copy,
    }
}

/// Outcome of replaying a list of exchanges.
#[derive(Debug, Default)]
pub struct Replay {
    /// Host nanoseconds of each `handle` call, in stream order.
    pub latencies_ns: Vec<u64>,
    /// Responses that differ from the recorded ones (wire equality).
    pub mismatches: u64,
    /// Responses outside 2xx.
    pub non_ok: u64,
    /// Requests during which the instance hydrated a parked store.
    pub hydrated: u64,
    /// Latency of each user's first request (recovery probes).
    pub first_touch_ns: Vec<u64>,
}

impl Replay {
    /// Requests replayed.
    pub fn requests(&self) -> u64 {
        self.latencies_ns.len() as u64
    }

    /// Host seconds spent inside `handle`: one closed-loop client is busy
    /// exactly this long.
    pub fn busy_s(&self) -> f64 {
        self.latencies_ns.iter().sum::<u64>() as f64 * 1e-9
    }
}

/// Replays `exchanges` into `instance` in order, one at a time, checking
/// every response against the recorded one.
pub fn replay(instance: &CloudInstance, exchanges: &[Exchange]) -> Replay {
    let mut out = Replay {
        latencies_ns: Vec::with_capacity(exchanges.len()),
        ..Replay::default()
    };
    let mut touched = std::collections::BTreeSet::new();
    for ex in exchanges {
        let request = trace::span("bench.copy", ex.user, || fresh(&ex.request));
        let name = endpoint_span(endpoint_of(&request));
        let hydrations = instance.hydration_count();
        let start = Instant::now();
        let response = trace::span(name, ex.user, || instance.handle(&request, ex.at));
        let ns = start.elapsed().as_nanos() as u64;
        out.latencies_ns.push(ns);
        if touched.insert(ex.user) {
            out.first_touch_ns.push(ns);
        }
        out.hydrated += u64::from(instance.hydration_count() > hydrations);
        out.non_ok += u64::from(!response.is_success());
        let differs = trace::span("bench.check", ex.user, || response != ex.response);
        out.mismatches += u64::from(differs);
    }
    out
}

/// An all-resident instance as the stream's recorder built it.
pub fn in_memory(stream: &Stream) -> CloudInstance {
    CloudInstance::new(stream.cells.clone(), stream.cloud_seed)
}

/// Storage settings of the durable workload.
pub fn durable_config(dir: &Path, resident_cap: usize) -> StorageConfig {
    StorageConfig {
        resident_cap: Some(resident_cap),
        store_dir: Some(dir.to_path_buf()),
        ..StorageConfig::default()
    }
}

/// One durable pass: the stream into a fresh durable instance, then a
/// crash (the instance is dropped), recovery, and the probes.
#[derive(Debug)]
pub struct DurablePass {
    /// The stream replay.
    pub stream: Replay,
    /// Host seconds `CloudInstance::recover` took.
    pub recovery_s: f64,
    /// The probe replay against the recovered instance.
    pub probes: Replay,
    /// Stores evicted during the stream.
    pub evictions: u64,
    /// Stores hydrated during the stream.
    pub hydrations: u64,
    /// Stores resident when the stream ended.
    pub resident_users: usize,
    /// Bytes of WAL files when the stream ended.
    pub wal_bytes: u64,
    /// Bytes of the whole store directory when the stream ended.
    pub dir_bytes: u64,
}

/// Runs one durable pass over `exchanges` (a part of `stream`) with its
/// store in `dir` (emptied first); `probes` are the expected answers after
/// `exchanges` (see [`Stream::probes`]).
pub fn durable_pass(
    stream: &Stream,
    exchanges: &[Exchange],
    probes: &[Exchange],
    dir: &Path,
    resident_cap: usize,
) -> DurablePass {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create the store directory");
    let config = durable_config(dir, resident_cap);
    let instance = in_memory(stream).with_storage(config.clone());
    let replayed = replay(&instance, exchanges);
    let evictions = instance.eviction_count();
    let hydrations = instance.hydration_count();
    let resident_users = instance.resident_users();
    let (wal_bytes, dir_bytes) = dir_sizes(dir);
    drop(instance);
    let start = Instant::now();
    let recovered = trace::span("cloud.recover", 0, || {
        CloudInstance::recover(
            stream.cells.clone(),
            stream.cloud_seed,
            config,
            Stream::probe_at(exchanges),
        )
    });
    let recovery_s = start.elapsed().as_secs_f64();
    let probes = replay(&recovered, probes);
    DurablePass {
        stream: replayed,
        recovery_s,
        probes,
        evictions,
        hydrations,
        resident_users,
        wal_bytes,
        dir_bytes,
    }
}

/// (WAL bytes, all bytes) under `dir`.
fn dir_sizes(dir: &Path) -> (u64, u64) {
    let mut wal = 0;
    let mut all = 0;
    let mut stack: Vec<PathBuf> = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let Ok(meta) = entry.metadata() else { continue };
            if meta.is_dir() {
                stack.push(path);
            } else {
                all += meta.len();
                let name = entry.file_name();
                let name = name.to_string_lossy();
                if name.starts_with("wal-") && name.ends_with(".jsonl") {
                    wal += meta.len();
                }
            }
        }
    }
    (wal, all)
}
