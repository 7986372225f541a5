//! PMWare benchmark: one workload per process.
//!
//! `perfbench --workload <cohort|cloud_replay|cloud_durable> --seed N
//! --seconds S --trace <0|1> [--out DIR] [--rev REV]`
//!
//! With `--trace 0` it times the workload with tracing off and reports the
//! end-to-end metrics; with `--trace 1` it runs once untraced and once
//! traced and reports the per-layer metrics. Every run checks the
//! program's outputs. The last line of standard output is the result:
//! `{"correct", "attempted", "failed", "metrics"}`; the exit code is 1 when
//! a check failed. Details (provenance, workload fingerprint, wall-time
//! breakdown) go to `DIR/<workload>-seed<N>-trace<T>.json`, and a traced
//! run's spans to `DIR/<workload>-seed<N>-spans.jsonl`.

mod cloud;
mod cohort;
mod report;
mod stream;
mod tap;
mod trace;
mod workloads;

#[cfg(test)]
mod tests;

use std::path::PathBuf;

use pmware_bench::args::{flag, opt_flag};
use serde_json::json;

use workloads::{Outcome, Sizes};

/// Sizes per workload: a 128-participant, two-week cohort (multi-week, so
/// nightly offload and profile sync both happen; large enough that the
/// spread across seeds stays small). The durable workload replays its
/// first 3 sim-days with an eighth of the users resident.
fn sizes(workload: &str, nproc: usize) -> Option<Sizes> {
    let (resident_cap, replay_days) = match workload {
        "cohort" | "cloud_replay" => (0, 0),
        "cloud_durable" => (16, 3),
        _ => return None,
    };
    Some(Sizes {
        participants: 128,
        days: 14,
        threads: nproc,
        resident_cap,
        replay_days,
    })
}

fn main() {
    let Some(workload) = opt_flag("workload") else {
        eprintln!("usage: perfbench --workload <cohort|cloud_replay|cloud_durable> --seed N --seconds S --trace <0|1>");
        std::process::exit(2);
    };
    let seed: u64 = flag("seed", 1);
    let seconds: f64 = flag("seconds", 10.0);
    let traced = match flag::<u8>("trace", 0) {
        0 => false,
        1 => true,
        other => {
            eprintln!("error: --trace must be 0 or 1, got {other}");
            std::process::exit(2);
        }
    };
    let out_dir = PathBuf::from(opt_flag("out").unwrap_or_else(|| "perfbench/out".to_owned()));
    let rev = opt_flag("rev").unwrap_or_else(|| "unknown".to_owned());
    let nproc = pmware_bench::parallel::resolve_threads(0);
    let Some(sizes) = sizes(&workload, nproc) else {
        eprintln!("error: unknown workload {workload:?}");
        std::process::exit(2);
    };
    std::fs::create_dir_all(&out_dir).expect("create the output directory");
    let provenance = json!({
        "workload": workload,
        "rev": rev,
        "nproc": nproc,
        "seed": seed,
        "seconds": seconds,
        "trace": traced,
        "sizes": sizes.to_json(),
    });
    println!("provenance {provenance}");

    let work = out_dir.join(format!("work-{}", std::process::id()));
    let outcome = match workload.as_str() {
        "cohort" => workloads::cohort(seed, seconds, traced, sizes),
        "cloud_replay" => workloads::cloud_replay(seed, seconds, traced, sizes),
        _ => {
            let outcome = workloads::cloud_durable(seed, seconds, traced, sizes, &work);
            let _ = std::fs::remove_dir_all(&work);
            outcome
        }
    };
    finish(&out_dir, &workload, seed, traced, provenance, outcome);
}

/// Writes the result file (and spans), prints the human summary and the
/// result line, and exits.
fn finish(
    out_dir: &std::path::Path,
    workload: &str,
    seed: u64,
    traced: bool,
    provenance: serde_json::Value,
    outcome: Outcome,
) -> ! {
    for (name, value) in &outcome.detail {
        println!("{name} {value}");
    }
    for failure in &outcome.failures {
        println!("FAILED {failure}");
    }
    for (name, value, unit) in &outcome.metrics.0 {
        println!("{name:<40} {value:>16.6} {unit}");
    }
    if traced {
        let path = out_dir.join(format!("{workload}-seed{seed}-spans.jsonl"));
        trace::write_jsonl(&path, &outcome.spans).expect("write the span file");
        println!(
            "spans {} written to {}",
            outcome.spans.len(),
            path.display()
        );
    }
    let detail: std::collections::BTreeMap<&str, serde_json::Value> = outcome
        .detail
        .iter()
        .map(|(k, v)| (*k, v.clone()))
        .collect();
    let correct = outcome.correct();
    let result = json!({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": outcome.metrics.to_json(),
    });
    let file = json!({
        "provenance": provenance,
        "result": result,
        "failures": outcome.failures,
        "detail": detail,
    });
    let path = out_dir.join(format!(
        "{workload}-seed{seed}-trace{}.json",
        u8::from(traced)
    ));
    std::fs::write(&path, format!("{file}\n")).expect("write the result file");
    println!("{result}");
    std::process::exit(if correct { 0 } else { 1 });
}
