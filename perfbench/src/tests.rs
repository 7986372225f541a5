//! The benchmark's own tests: a tiny size of each workload passes its
//! checks and reports exactly the metrics `BENCHMARK.json` names, and the
//! checks catch a tampered recorded response and a perturbed cohort result.

use std::path::PathBuf;
use std::sync::Mutex;

use pmware_bench::deployment::run_study;
use pmware_cloud::{Payload, Response};
use serde_json::Value;

use crate::cohort::{self, CohortSize};
use crate::workloads::{self, Sizes};
use crate::{cloud, stream};

/// Tracing state is process-wide: tests that run workloads take turns.
pub static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn tiny(resident_cap: usize, replay_days: u64) -> Sizes {
    Sizes {
        participants: 4,
        days: 4,
        threads: 2,
        resident_cap,
        replay_days,
    }
}

fn metric_names(kind: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let bench: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let mut names: Vec<String> = bench[kind]
        .as_array()
        .expect("metric list")
        .iter()
        .map(|m| m["name"].as_str().expect("metric name").to_owned())
        .collect();
    names.sort();
    names
}

fn reported(outcome: &workloads::Outcome) -> Vec<String> {
    let mut names: Vec<String> = outcome
        .metrics
        .0
        .iter()
        .map(|(n, _, _)| n.clone())
        .collect();
    names.sort();
    names
}

fn work_dir(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("test-{name}-{}", std::process::id()))
}

fn assert_passes(outcome: &workloads::Outcome, traced: bool) {
    assert!(outcome.correct(), "failures: {:?}", outcome.failures);
    assert!(outcome.attempted > 0);
    let kind = if traced { "per_layer" } else { "end_to_end" };
    assert_eq!(reported(outcome), metric_names(kind));
    for (name, value, _) in &outcome.metrics.0 {
        assert!(value.is_finite(), "{name} = {value}");
    }
}

#[test]
fn tiny_cohort_passes_its_checks() {
    let _guard = serial();
    for traced in [false, true] {
        assert_passes(&workloads::cohort(7, 0.0, traced, tiny(0, 0)), traced);
    }
}

#[test]
fn tiny_cloud_replay_passes_its_checks() {
    let _guard = serial();
    for traced in [false, true] {
        assert_passes(&workloads::cloud_replay(7, 0.0, traced, tiny(0, 0)), traced);
    }
}

#[test]
fn tiny_cloud_durable_passes_its_checks() {
    let _guard = serial();
    let dir = work_dir("durable");
    for traced in [false, true] {
        let outcome = workloads::cloud_durable(7, 0.0, traced, tiny(1, 3), &dir);
        assert_passes(&outcome, traced);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tampered_recorded_response_fails_the_replay() {
    let _guard = serial();
    let size = CohortSize {
        participants: 2,
        days: 2,
        threads: 1,
    };
    let mut stream = stream::record(&cohort::build_inputs(5, size), 5, size.days);
    let clean = cloud::replay(&cloud::in_memory(&stream), &stream.exchanges);
    assert_eq!((clean.mismatches, clean.non_ok), (0, 0));

    let last = stream.exchanges.len() - 1;
    stream.exchanges[last].response = Response::ok(Payload::Empty);
    let tampered = cloud::replay(&cloud::in_memory(&stream), &stream.exchanges);
    assert_eq!(tampered.mismatches, 1);
}

#[test]
fn perturbed_cohort_result_fails_the_check() {
    let _guard = serial();
    let size = CohortSize {
        participants: 4,
        days: 4,
        threads: 2,
    };
    let timed = run_study(&cohort::study_config(7, size));
    let reference = cohort::run_traceable(&cohort::build_inputs(7, size), 7, size, false).results;
    assert_eq!(cohort::check(&timed, &reference), Vec::<String>::new());

    let mut perturbed = timed.clone();
    perturbed.participants[1].correct += 1;
    assert!(!cohort::check(&perturbed, &reference).is_empty());
    let mut perturbed = timed;
    perturbed.cloud_requests += 1;
    assert!(!cohort::check(&perturbed, &reference).is_empty());
}
