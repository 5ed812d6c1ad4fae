//! The traced run: per-layer metrics, named by crate.
//!
//! Each metric comes from timing calls into a crate's public functions
//! around the benchmark's own inputs, or from the serving stack's own
//! `GET /metrics` and `GET /debug/traces`. A stage that does not exist on
//! a workload's path (the front on a single node, ingest on a frozen
//! server) reads 0.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::io::Cursor;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use ahntp::Ahntp;
use ahntp_serve::http::{read_request, write_response_with};
use ahntp_serve::{shard_ranges, BackendKind, SharedIndex, TrustIndex};
use ahntp_stream::{EventApplier, LiveTrustModel, StalenessBound};
use ahntp_telemetry::json::{parse, Json};
use ahntp_telemetry::KernelKind;

use crate::inputs::{self, Stream, PAIRS_PER_REQUEST, TOP_K};
use crate::loadgen::{latencies, open_loop, percentile, Class, Conn, Req, Shot};
use crate::loadgen::{rung_rate, REFERENCE_RUNG};
use crate::workloads::{median, mix_p50, Metrics, Record, Target, Trained, EVENTS_RPS};

/// Every per-layer metric with its unit, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("loadgen.lag_p99_us", "us"),
    ("net.outside_us", "us"),
    ("data.generate_ms", "ms"),
    ("model.build_ms", "ms"),
    ("train.epoch_ms", "ms"),
    ("train.matmul_ms", "ms"),
    ("train.csr_ms", "ms"),
    ("train.elementwise_ms", "ms"),
    ("train.reduction_ms", "ms"),
    ("train.cache_build_ms", "ms"),
    ("train.unattributed_ms", "ms"),
    ("train.accounted_frac", "ratio"),
    ("artifact.export_ms", "ms"),
    ("artifact.encode_ms", "ms"),
    ("artifact.open_ms", "ms"),
    ("http.parse_us", "us"),
    ("http.write_us", "us"),
    ("serve.parse_us", "us"),
    ("serve.queue_wait_us", "us"),
    ("serve.score_us", "us"),
    ("serve.batches", "count"),
    ("serve.batch_pairs_mean", "count"),
    ("serve.shed", "count"),
    ("serve.deadline_exceeded", "count"),
    ("serve.coverage_frac", "ratio"),
    ("index.score_pairs8_us", "us"),
    ("index.score_pairs64_us", "us"),
    ("index.topk_us", "us"),
    ("index.topk_range_us", "us"),
    ("front.rpc_per_request", "count"),
    ("front.shard_topk_us", "us"),
    ("front.overhead_us", "us"),
    ("front.shard_errors", "count"),
    ("stream.apply_us", "us"),
    ("stream.refresh_us", "us"),
    ("stream.affected_per_event", "count"),
    ("stream.noop_frac", "ratio"),
    ("index.patch_us", "us"),
    ("serve.ingest_wait_us", "us"),
    ("serve.ingest_apply_us", "us"),
    ("serve.ingest_errors", "count"),
    ("telemetry.record_ns", "ns"),
    ("telemetry.record_contended_ns", "ns"),
    ("trace.overhead_frac", "ratio"),
];

/// Requests per traced window: fewer than the server's 128-entry trace
/// ring holds, so a scrape after each window sees every request of it.
const WINDOW: u64 = 80;
/// Event batches the stream probe replays where the workload sends none.
const PROBE_BATCHES: u64 = 100;

/// Per-layer values measured so far, and the sample counts behind them
/// for the run record.
#[derive(Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
    pub samples: Record,
}

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.values.insert(name, value);
    }

    /// Every per-layer metric, 0 for stages absent from the workload.
    pub fn into_metrics(self) -> Metrics {
        PER_LAYER
            .iter()
            .map(|(name, _)| (*name, self.values.get(name).copied().unwrap_or(0.0)))
            .collect()
    }

    /// `ahntp-data`, `ahntp` model build, training and artifact export.
    pub fn model_path(&mut self, t: &Trained, (export_ms, encode_ms, open_ms): (f64, f64, f64)) {
        self.samples
            .push(("train_epochs", Json::from(t.epochs.len())));
        self.set("data.generate_ms", t.generate_ms);
        self.set("model.build_ms", t.build_ms);
        let epochs = t.epochs.len().max(1) as f64;
        let wall_ms: Vec<f64> = t.epochs.iter().map(|e| e.wall_us as f64 / 1e3).collect();
        self.set("train.epoch_ms", median(&wall_ms));
        let kind_ms = |kind: KernelKind| -> f64 {
            t.epochs
                .iter()
                .filter_map(|e| e.profile)
                .map(|p| p.us[kind as usize] as f64 / 1e3)
                .sum::<f64>()
                / epochs
        };
        self.set("train.matmul_ms", kind_ms(KernelKind::Matmul));
        self.set("train.csr_ms", kind_ms(KernelKind::Csr));
        self.set("train.elementwise_ms", kind_ms(KernelKind::Elementwise));
        self.set("train.reduction_ms", kind_ms(KernelKind::Reduction));
        self.set("train.cache_build_ms", kind_ms(KernelKind::CacheBuild));
        // "other" is the profiler's catch-all, so it counts as unattributed.
        let accounted: f64 = KernelKind::all()
            .into_iter()
            .filter(|k| *k != KernelKind::Other)
            .map(kind_ms)
            .sum();
        let mean_wall = wall_ms.iter().sum::<f64>() / epochs;
        self.set("train.unattributed_ms", mean_wall - accounted);
        self.set(
            "train.accounted_frac",
            if mean_wall > 0.0 {
                accounted / mean_wall
            } else {
                0.0
            },
        );
        self.set("artifact.export_ms", export_ms);
        self.set("artifact.encode_ms", encode_ms);
        self.set("artifact.open_ms", open_ms);
    }

    /// `ahntp-serve::http` on the workload's own request and response
    /// bytes, in memory.
    pub fn request_codec(&mut self, req: &Req, response_body: &str) {
        let request = req.to_bytes();
        self.set(
            "http.parse_us",
            per_call_us(2000, || {
                black_box(
                    read_request(&mut Cursor::new(black_box(&request[..])))
                        .expect("own request parses"),
                );
            }),
        );
        let headers = [
            ("X-Ahntp-Trace-Id", "00000000000000ff".to_string()),
            ("X-Ahntp-Backend", "exact".to_string()),
        ];
        let mut out = Vec::with_capacity(response_body.len() + 256);
        self.set(
            "http.write_us",
            per_call_us(2000, || {
                out.clear();
                write_response_with(
                    &mut out,
                    200,
                    "OK",
                    "application/json",
                    &headers,
                    response_body.as_bytes(),
                    true,
                )
                .expect("writing to memory cannot fail");
                black_box(&out);
            }),
        );
    }

    /// `ahntp-serve` index and backends on the workload's index.
    pub fn index(&mut self, index: &TrustIndex, seed: u64) {
        let n = index.n_users();
        for (name, count) in [
            ("index.score_pairs8_us", PAIRS_PER_REQUEST),
            ("index.score_pairs64_us", 64),
        ] {
            let batches: Vec<Vec<(usize, usize)>> = (0..64)
                .map(|i| inputs::pairs(seed, Stream::Probe, i, n, count))
                .collect();
            let mut i = 0;
            self.set(
                name,
                per_call_us(2000, || {
                    black_box(
                        index
                            .score_pairs(&batches[i % batches.len()])
                            .expect("pairs in range"),
                    );
                    i += 1;
                }),
            );
        }
        let users: Vec<usize> = (0..64).map(|i| inputs::topk_user(seed, i, n)).collect();
        let reps = (4_000_000 / n).clamp(20, 2000);
        let mut i = 0;
        self.set(
            "index.topk_us",
            per_call_us(reps, || {
                black_box(
                    index
                        .top_k_trustees(users[i % users.len()], TOP_K)
                        .expect("user in range"),
                );
                i += 1;
            }),
        );
        let (lo, hi) = shard_ranges(n, 2)[0];
        self.set(
            "index.topk_range_us",
            per_call_us(reps, || {
                black_box(
                    index
                        .top_k_trustees_in(users[i % users.len()], TOP_K, lo, hi)
                        .expect("user in range"),
                );
                i += 1;
            }),
        );
    }

    /// `ahntp-stream` and the index write path, from a mirror replay.
    pub fn stream(&mut self, s: &StreamTimes) {
        self.samples
            .push(("stream_events", Json::from(s.affected.len())));
        self.samples
            .push(("stream_patches", Json::from(s.patch_us.len())));
        self.set("stream.apply_us", median(&s.apply_us));
        self.set("stream.refresh_us", median(&s.refresh_us));
        self.set("index.patch_us", median(&s.patch_us));
        let events = s.affected.len().max(1) as f64;
        self.set(
            "stream.affected_per_event",
            s.affected.iter().sum::<usize>() as f64 / events,
        );
        self.set(
            "stream.noop_frac",
            s.affected.iter().filter(|&&a| a == 0).count() as f64 / events,
        );
    }

    /// `ahntp-telemetry`: the cost of one metric record on the serve
    /// metric names, alone and with `nproc` threads recording at once.
    /// Runs last: it adds to the server's counters.
    pub fn telemetry(&mut self) {
        const CALLS: u64 = 100_000;
        let record = || {
            let t = Instant::now();
            for i in 0..CALLS {
                ahntp_telemetry::counter_add("serve.http.requests", 1);
                ahntp_telemetry::histogram_record("serve.request.us", 1000 + i % 1000);
            }
            t.elapsed().as_secs_f64() * 1e9 / (2 * CALLS) as f64
        };
        self.set("telemetry.record_ns", record());
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let per_thread: Vec<f64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads).map(|_| scope.spawn(record)).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("recording thread panicked"))
                .collect()
        });
        self.set(
            "telemetry.record_contended_ns",
            per_thread.iter().sum::<f64>() / threads as f64,
        );
    }
}

/// Median over 15 samples of the mean time of `reps` calls, µs.
fn per_call_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..15)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..reps {
                f();
            }
            t.elapsed().as_secs_f64() * 1e6 / reps as f64
        })
        .collect();
    median(&samples)
}

/// Timings of a replay of event batches through an [`EventApplier`].
#[derive(Default)]
pub struct StreamTimes {
    pub apply_us: Vec<f64>,
    /// Refreshes that produced a head patch.
    pub refresh_us: Vec<f64>,
    pub patch_us: Vec<f64>,
    /// Affected users per event.
    pub affected: Vec<usize>,
}

/// Applies `batches` (event batch indices, in order) to `applier`,
/// refreshing per its staleness bound and patching `index` as a live
/// server does.
pub fn replay<M: LiveTrustModel>(
    applier: &mut EventApplier<M>,
    index: &SharedIndex,
    seed: u64,
    n: usize,
    batches: &[u64],
) -> StreamTimes {
    let mut s = StreamTimes::default();
    for &b in batches {
        for event in inputs::event_batch(seed, b, n) {
            let t = Instant::now();
            let applied = applier.apply(&event).expect("generated events are valid");
            s.apply_us.push(us(t));
            s.affected.push(applied.affected_users.len());
            let t = Instant::now();
            let patch = applier.maybe_refresh().expect("no failpoints are armed");
            if let Some(patch) = patch {
                s.refresh_us.push(us(t));
                let t = Instant::now();
                index
                    .apply_head_patch(&patch)
                    .expect("refreshed rows fit the index");
                s.patch_us.push(us(t));
            }
        }
    }
    s
}

/// The stream layer on a workload that sends no events: a fresh applier
/// over its trained model replays seeded batches.
pub fn replay_probe(model: Ahntp, seed: u64, n: usize) -> StreamTimes {
    let index = SharedIndex::new(
        TrustIndex::from_artifact_with(model.export_artifact(), BackendKind::Exact)
            .expect("exported artifact is valid"),
    );
    let mut applier = EventApplier::new(model, StalenessBound::immediate());
    let batches: Vec<u64> = (0..PROBE_BATCHES).collect();
    replay(&mut applier, &index, seed, n, &batches)
}

fn us(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e6
}

/// What the traced serving probe sent.
pub struct Probe {
    pub shots: Vec<Shot>,
    /// One answered read body, for the in-memory HTTP write timing.
    pub sample_body: String,
}

fn get_json(conn: &mut Conn, target: &str) -> Json {
    let reply = conn
        .get(target)
        .unwrap_or_else(|e| panic!("GET {target}: {e}"));
    assert_eq!(reply.status, 200, "GET {target} answered {}", reply.status);
    parse(&reply.body).unwrap_or_else(|e| panic!("GET {target} is not JSON: {e}"))
}

fn counter(doc: &Json, name: &str) -> f64 {
    doc.get(name).and_then(Json::as_f64).unwrap_or(0.0)
}

fn histogram(doc: &Json, name: &str) -> (f64, f64) {
    doc.get(name).map_or((0.0, 0.0), |h| {
        (
            h.get("count").and_then(Json::as_f64).unwrap_or(0.0),
            h.get("sum").and_then(Json::as_f64).unwrap_or(0.0),
        )
    })
}

/// Adds the ring's traces to `traces`, keyed by trace id.
fn scrape_traces(conn: &mut Conn, traces: &mut HashMap<u64, Json>) {
    if let Some(Json::Arr(items)) = get_json(conn, "/debug/traces").get("traces") {
        for t in items {
            if let Some(id) = t
                .get("trace_id")
                .and_then(Json::as_str)
                .and_then(|h| u64::from_str_radix(h, 16).ok())
            {
                traces.insert(id, t.clone());
            }
        }
    }
}

fn stage_us(trace: &Json, name: &str) -> Option<f64> {
    match trace.get("stages")? {
        Json::Arr(stages) => stages
            .iter()
            .find(|s| s.get("name").and_then(Json::as_str) == Some(name))
            .and_then(|s| s.get("dur_us")?.as_f64()),
        _ => None,
    }
}

/// Median of one stage over the traces of `shots`.
fn stage_median(shots: &[&Shot], traces: &HashMap<u64, Json>, stage: &str) -> f64 {
    let v: Vec<f64> = shots
        .iter()
        .filter_map(|s| traces.get(&s.trace_id?))
        .filter_map(|t| stage_us(t, stage))
        .collect();
    median(&v)
}

/// Read p50 over the target's classes, as the end-to-end `read_p50_us`.
fn read_p50(t: &Target, shots: &[Shot]) -> f64 {
    let p50s: Vec<f64> = t
        .read_classes
        .iter()
        .map(|&c| percentile(&latencies(shots, Some(c)), 50.0))
        .collect();
    mix_p50(&p50s)
}

/// The serving layers: an untraced stretch at the reference rate, then
/// the same rate with Chrome-trace collection and the profiler on, in
/// windows each followed by a `/debug/traces` scrape; `/metrics` before
/// and after the traced stretch. With `shards`, the front is probed
/// against each shard directly.
pub fn traced_serving(
    layers: &mut Layers,
    t: &Target,
    seconds: f64,
    shards: &[SocketAddr],
) -> Probe {
    let untraced_for = Duration::from_secs_f64(seconds * 0.3);
    let traced_for = Duration::from_secs_f64(seconds * 0.4);
    let window = Duration::from_secs_f64(WINDOW as f64 / rung_rate(REFERENCE_RUNG));
    let mut conns = t.connect();
    let mut traces: HashMap<u64, Json> = HashMap::new();
    let (untraced, traced, events, before, after) = std::thread::scope(|scope| {
        let events = t.make_event.map(|make| {
            let mut conn = vec![Conn::connect(t.addr).expect("connect the events connection")];
            let whole = untraced_for + traced_for;
            scope.spawn(move || open_loop(&mut conn, EVENTS_RPS, whole, 0, make, &|_| false))
        });
        ahntp_telemetry::set_trace_collect(false);
        ahntp_telemetry::set_profiling(false);
        let untraced = open_loop(
            &mut conns,
            rung_rate(REFERENCE_RUNG),
            untraced_for,
            0,
            t.make_read,
            t.keep,
        );
        ahntp_telemetry::set_trace_collect(true);
        ahntp_telemetry::set_profiling(true);
        let before = get_json(&mut conns[0], "/metrics");
        let mut base = untraced.due;
        let mut traced = Vec::new();
        let started = Instant::now();
        while started.elapsed() < traced_for {
            let rung = open_loop(
                &mut conns,
                rung_rate(REFERENCE_RUNG),
                window,
                base,
                t.make_read,
                t.keep,
            );
            base += rung.due;
            if shards.is_empty() {
                scrape_traces(&mut conns[0], &mut traces);
            }
            traced.extend(rung.shots);
        }
        let after = get_json(&mut conns[0], "/metrics");
        let events = events.map(|h| h.join().expect("events generator panicked"));
        if shards.is_empty() {
            scrape_traces(&mut conns[0], &mut traces);
        }
        (untraced, traced, events, before, after)
    });

    let mut lags: Vec<f64> = untraced.shots.iter().map(|s| s.lag_us).collect();
    lags.sort_by(f64::total_cmp);
    layers.set("loadgen.lag_p99_us", percentile(&lags, 99.0));
    layers
        .samples
        .push(("untraced_requests", Json::from(untraced.shots.len())));
    layers
        .samples
        .push(("traced_requests", Json::from(traced.len())));
    layers
        .samples
        .push(("scraped_traces", Json::from(traces.len())));
    layers.samples.push((
        "event_batches",
        Json::from(events.as_ref().map_or(0, |e| e.shots.len())),
    ));
    let untraced_p50 = read_p50(t, &untraced.shots);
    layers.set(
        "trace.overhead_frac",
        (read_p50(t, &traced) - untraced_p50) / untraced_p50,
    );

    let delta = |name: &str| counter(&after, name) - counter(&before, name);
    let reads: Vec<&Shot> = traced
        .iter()
        .filter(|s| s.ok && t.read_classes.contains(&s.class))
        .collect();
    let service: Vec<f64> = reads.iter().map(|s| s.latency_us - s.lag_us).collect();
    if shards.is_empty() {
        // Client time from send minus the server's own request time.
        let outside: Vec<f64> = reads
            .iter()
            .filter_map(|s| {
                let dur = traces.get(&s.trace_id?)?.get("dur_us")?.as_f64()?;
                Some(s.latency_us - s.lag_us - dur)
            })
            .collect();
        let outside = median(&outside);
        layers.set("net.outside_us", outside);
        let scores: Vec<&Shot> = reads
            .iter()
            .copied()
            .filter(|s| s.class == Class::Score)
            .collect();
        let stages = [
            "serve.parse",
            "serve.enqueue",
            "serve.queue.wait",
            "serve.score",
        ]
        .map(|stage| stage_median(&scores, &traces, stage));
        layers.set("serve.parse_us", stages[0]);
        layers.set("serve.queue_wait_us", stages[2]);
        layers.set("serve.score_us", stages[3]);
        let score_service: Vec<f64> = scores.iter().map(|s| s.latency_us - s.lag_us).collect();
        let client = median(&score_service);
        if client > 0.0 {
            layers.set(
                "serve.coverage_frac",
                (outside + stages.iter().sum::<f64>()) / client,
            );
        }
    } else {
        // The front keeps no trace ring: use its request-time histogram.
        let (c0, s0) = histogram(&before, "front.request.us");
        let (c1, s1) = histogram(&after, "front.request.us");
        if c1 > c0 && !service.is_empty() {
            let mean_service = service.iter().sum::<f64>() / service.len() as f64;
            layers.set("net.outside_us", mean_service - (s1 - s0) / (c1 - c0));
        }
        layers.set(
            "front.rpc_per_request",
            delta("front.rpc.calls") / delta("front.http.requests").max(1.0),
        );
        layers.set("front.shard_errors", delta("front.shard_errors"));
        let probes: Vec<Req> = reads
            .iter()
            .take(200)
            .map(|s| (t.make_read)(s.index))
            .collect();
        let closed_loop_p50 = |addr: SocketAddr| -> f64 {
            let mut conn = Conn::connect(addr).expect("connect for the front probe");
            let mut v: Vec<f64> = probes
                .iter()
                .map(|req| {
                    let t = Instant::now();
                    let reply = conn.send(req).expect("front probe request");
                    assert_eq!(reply.status, 200, "front probe answered {}", reply.status);
                    us(t)
                })
                .collect();
            v.sort_by(f64::total_cmp);
            percentile(&v, 50.0)
        };
        let slowest_shard = shards
            .iter()
            .map(|&a| closed_loop_p50(a))
            .fold(0.0, f64::max);
        layers.set("front.shard_topk_us", slowest_shard);
        layers.set("front.overhead_us", closed_loop_p50(t.addr) - slowest_shard);
    }
    let (b0, p0) = histogram(&before, "serve.score.batch_size");
    let (b1, p1) = histogram(&after, "serve.score.batch_size");
    layers.set("serve.batches", b1 - b0);
    layers.set(
        "serve.batch_pairs_mean",
        if b1 > b0 { (p1 - p0) / (b1 - b0) } else { 0.0 },
    );
    layers.set("serve.shed", delta("serve.shed"));
    layers.set("serve.deadline_exceeded", delta("serve.deadline_exceeded"));
    layers.set("serve.ingest_errors", delta("serve.ingest.errors"));
    if let Some(events) = &events {
        let ingests: Vec<&Shot> = events.shots.iter().filter(|s| s.ok).collect();
        layers.set(
            "serve.ingest_wait_us",
            stage_median(&ingests, &traces, "serve.ingest.wait"),
        );
        layers.set(
            "serve.ingest_apply_us",
            stage_median(&ingests, &traces, "serve.ingest.apply"),
        );
    }

    let sample_body = traced
        .iter()
        .find_map(|s| s.body.clone())
        .unwrap_or_else(|| {
            let req = (t.make_read)(0);
            conns[0].send(&req).map(|r| r.body).unwrap_or_default()
        });
    let mut shots = untraced.shots;
    shots.extend(traced);
    shots.extend(events.into_iter().flat_map(|r| r.shots));
    Probe { shots, sample_body }
}
