//! The AHNTP serving benchmark. See README.md.
//!
//! ```sh
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload score_reads --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Prints one run-record JSON line, then as its last line
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}` with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). Exits non-zero without a result when it cannot run.

mod inputs;
mod layers;
mod loadgen;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use ahntp_telemetry::json::Json;

/// Every end-to-end metric with its unit, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("read_p50_us", "us"),
    ("peak_rss_mb", "MiB"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
    })
}

/// The commit of the checkout, read from `.git` without running git;
/// `unknown` outside a git checkout.
fn git_rev() -> String {
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(Path::new(".git/HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&Path::new(".git").join(reference))
        .or_else(|| {
            read(Path::new(".git/packed-refs"))?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    let args = match parse_args(&argv[1..]) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    // The program runs on its defaults: no AHNTP_* override may leak in.
    // Nothing has read the environment yet, and no other thread exists.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("AHNTP_") {
            std::env::remove_var(&key);
        }
    }
    // `/metrics` is a production endpoint, so the registry is on; trace
    // collection and the epoch profiler only in the traced run.
    ahntp_telemetry::set_enabled(true);
    ahntp_telemetry::set_trace_collect(args.trace);
    ahntp_telemetry::set_profiling(args.trace);

    let work_dir = PathBuf::from(".bench_work").join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("error: create {}: {e}", work_dir.display());
        return ExitCode::from(1);
    }
    let opts = workloads::Opts {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        work_dir: work_dir.clone(),
    };
    let result = workloads::run(&args.workload, &opts);
    let _ = std::fs::remove_dir_all(&work_dir);
    let _ = std::fs::remove_dir(".bench_work");
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    for p in &outcome.problems {
        eprintln!("check failed: {p}");
    }

    let units: &[(&str, &str)] = if args.trace {
        &layers::PER_LAYER
    } else {
        &END_TO_END
    };
    let unit_of = |name: &str| {
        units
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .expect("metric has a unit")
    };
    let mut record = vec![
        ("workload", Json::from(args.workload.as_str())),
        (
            "command",
            Json::Arr(argv.iter().map(|a| Json::from(a.as_str())).collect()),
        ),
        ("git_rev", Json::from(git_rev())),
        (
            "nproc",
            Json::from(std::thread::available_parallelism().map_or(1, |n| n.get())),
        ),
        ("kernel_threads", Json::from(ahntp_par::threads())),
        ("seed", Json::from(args.seed)),
        ("seconds", Json::from(args.seconds)),
        ("trace", Json::from(args.trace)),
        ("connections", Json::from(workloads::CONNECTIONS)),
        (
            "ladder_rps",
            Json::Arr(
                (0..=loadgen::LADDER_TOP)
                    .map(|k| Json::from(loadgen::rung_rate(k)))
                    .collect(),
            ),
        ),
        (
            "reference_rps",
            Json::from(loadgen::rung_rate(loadgen::REFERENCE_RUNG)),
        ),
        ("rung_tail_percentile", Json::from(loadgen::RUNG_TAIL)),
    ];
    record.extend(outcome.record);
    println!("{}", Json::obj([("record", Json::obj(record))]).to_line());
    let metrics = Json::Obj(
        outcome
            .metrics
            .iter()
            .map(|&(name, value)| {
                (
                    name.to_string(),
                    Json::obj([
                        ("value", Json::from(value)),
                        ("unit", Json::from(unit_of(name))),
                    ]),
                )
            })
            .collect(),
    );
    println!(
        "{}",
        Json::obj([
            ("correct", Json::from(outcome.correct)),
            ("attempted", Json::from(outcome.attempted)),
            ("failed", Json::from(outcome.failed)),
            ("metrics", metrics),
        ])
        .to_line()
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the metric tables here must agree.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = ahntp_telemetry::json::parse(&text).expect("BENCHMARK.json is JSON");
        let listed = |key: &str| -> Vec<(String, String)> {
            match doc.get(key) {
                Some(Json::Arr(items)) => items
                    .iter()
                    .map(|m| {
                        (
                            m.get("name").and_then(Json::as_str).unwrap().to_string(),
                            m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                        )
                    })
                    .collect(),
                _ => panic!("no {key} list"),
            }
        };
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&layers::PER_LAYER));
        let Some(Json::Arr(workloads)) = doc.get("workloads") else {
            panic!("no workloads")
        };
        let names: Vec<&str> = workloads
            .iter()
            .filter_map(|w| w.get("name")?.as_str())
            .collect();
        assert_eq!(names, ["score_reads", "live_mixed", "topk_fanout"]);
    }

    #[test]
    fn arguments_parse_and_reject_garbage() {
        let a = |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let ok = a("--workload live_mixed --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (ok.workload.as_str(), ok.seed, ok.seconds, ok.trace),
            ("live_mixed", 7, 10.0, true)
        );
        assert!(a("--seed 7").is_err());
        assert!(a("--workload x --trace 2").is_err());
        assert!(a("--workload x --seconds -1").is_err());
        assert!(a("--workload x --bogus 1").is_err());
    }
}
