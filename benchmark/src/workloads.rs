//! The three workloads: their set-up, their measured serving phase, and
//! the checks that the program's answers are correct.
//!
//! * `score_reads` — train → export → open → `serve`, then open-loop
//!   `POST /score` of 8 pairs. Each pair is one O(d) dot, so HTTP, the
//!   batcher's linger and metric recording are nearly the whole request;
//!   it is also the only workload whose set-up is mostly training.
//! * `live_mixed` — `serve_live` with `StalenessBound::immediate()`;
//!   one connection alternates `/score` and `/topk` on the ladder while a
//!   second sends `POST /events` at a fixed rate. The same read layers as
//!   `score_reads` with the applier thread and the index write lock beside
//!   them, so a change that speeds one request class at the other's cost
//!   shows. The only workload where `ahntp-stream` and head refresh work.
//! * `topk_fanout` — a 24,000-user synthetic artifact opened by two range
//!   shards behind `serve_sharded`; open-loop `GET /topk` through the
//!   front. `/topk` never enters the batch queue: the front (two shard
//!   RPCs per request) and the scan over half the index on each shard
//!   dominate, and the batcher does nothing.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ahntp::{Ahntp, AhntpConfig};
use ahntp_data::{DatasetConfig, TrustDataset};
use ahntp_eval::{train_and_evaluate_observed, EpochStats, EvalReport, TrainConfig, TrainObserver};
use ahntp_serve::{
    serve, serve_live, serve_sharded, shard_ranges, BackendKind, ServeConfig, ServerHandle,
    ShardedHandle, SharedIndex, TrustIndex,
};
use ahntp_stream::{EventApplier, LiveTrustModel, StalenessBound};
use ahntp_telemetry::json::{parse, Json};

use crate::inputs::{self, Stream, PAIRS_PER_REQUEST, TOP_K, USERS};
use crate::layers::{self, Layers};
use crate::loadgen::{
    latencies, next_rung, open_loop, percentile, rung_rate, supported_tail, Class, Conn, Req, Rung,
    Shot, Verdict,
};

/// Share of `--seconds` spent at the reference rung.
const REFERENCE_SHARE: f64 = 0.6;
/// Requests per other rung, per second of `--seconds`: enough that a
/// rung's p90 is not decided by a handful of scheduler stalls.
const RUNG_REQUESTS_PER_SECOND: f64 = 30.0;
/// Keep-alive connections per workload, all classes together (`nproc`
/// on the two-core reference host).
pub const CONNECTIONS: usize = 2;
/// `POST /events` batches per second on `live_mixed`.
pub const EVENTS_RPS: f64 = 5.0;
/// Read-latency limit of a holding rung, µs.
const READ_LIMIT_US: f64 = 10_000.0;
/// The same on `topk_fanout`, whose every request is two shard RPCs.
const FANOUT_LIMIT_US: f64 = 20_000.0;
/// Full-batch epochs of the `score_reads` set-up.
const EPOCHS: usize = 80;
/// The "short training" of the `live_mixed` set-up.
const LIVE_EPOCHS: usize = 10;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// `topk_fanout` set-up is short, so more repeats steady its median.
const FANOUT_SETUP_REPEATS: usize = 5;
/// Synthetic index size and head width on `topk_fanout`.
const FANOUT_USERS: usize = 24_000;
const FANOUT_DIM: usize = 32;
const SHARDS: usize = 2;
/// One in this many read answers is kept and checked.
const CHECK_EVERY: u64 = 8;
/// `live_mixed` probes after the run: `/score` requests and `/topk` users.
const LIVE_PROBES: u64 = 16;
/// Largest allowed gap between a served and a mirrored live score.
const LIVE_TOLERANCE: f64 = 1e-6;

/// Command-line options of one run.
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory inside the checkout for artifact files.
    pub work_dir: PathBuf,
}

/// Metric values by name, in output order.
pub type Metrics = Vec<(&'static str, f64)>;
/// Run record fields.
pub type Record = Vec<(&'static str, Json)>;

/// What one run measured and checked.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Metrics,
    /// Run record fields: configuration, rung results, sample counts.
    pub record: Record,
    /// Human-readable reasons `correct` is false.
    pub problems: Vec<String>,
}

pub fn run(workload: &str, opts: &Opts) -> Result<Outcome, String> {
    match workload {
        "score_reads" => score_reads(opts),
        "live_mixed" => live_mixed(opts),
        "topk_fanout" => topk_fanout(opts),
        other => Err(format!(
            "unknown workload {other:?}; expected score_reads, live_mixed or topk_fanout"
        )),
    }
}

// ---------------------------------------------------------------------------
// Shared pieces
// ---------------------------------------------------------------------------

/// Collects the per-epoch stats the trainer reports.
#[derive(Default)]
pub struct Epochs(pub Vec<EpochStats>);

impl TrainObserver for Epochs {
    fn on_epoch(&mut self, stats: &EpochStats) {
        self.0.push(*stats);
    }
}

/// A trained model with the inputs it came from and the layer timings of
/// getting there.
pub struct Trained {
    pub model: Ahntp,
    pub report: EvalReport,
    pub epochs: Vec<EpochStats>,
    pub generate_ms: f64,
    pub build_ms: f64,
}

fn model_config(seed: u64) -> AhntpConfig {
    // The repository's default experiment scale: 64-32-16 convolutions,
    // one 16-wide tower, lr 5e-3.
    let mut cfg = AhntpConfig {
        seed,
        ..AhntpConfig::small()
    };
    cfg.adam.lr = 5e-3;
    cfg
}

/// Dataset → split → `Ahntp::new` → full-batch training, all from `seed`.
pub fn train(seed: u64, epochs: usize) -> Trained {
    let t = Instant::now();
    let ds = TrustDataset::generate(&DatasetConfig::ciao_like(USERS, seed));
    let generate_ms = ms(t);
    let split = ds.split(0.8, 0.2, 2, seed);
    let t = Instant::now();
    let mut model = Ahntp::new(
        &ds.features,
        &ds.attributes,
        &split.train_graph,
        &model_config(seed),
    );
    let build_ms = ms(t);
    let mut observer = Epochs::default();
    let cfg = TrainConfig {
        epochs,
        patience: 0,
        ..TrainConfig::default()
    };
    let report =
        train_and_evaluate_observed(&mut model, &split.train, &split.test, &cfg, &mut observer);
    Trained {
        model,
        report,
        epochs: observer.0,
        generate_ms,
        build_ms,
    }
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

fn first_200(addr: SocketAddr, req: &Req) -> Result<(), String> {
    let mut conn = Conn::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let reply = conn
        .send(req)
        .map_err(|e| format!("first request to {addr}: {e}"))?;
    if reply.status != 200 {
        return Err(format!(
            "first request answered {}: {}",
            reply.status, reply.body
        ));
    }
    Ok(())
}

/// Median of `values` (mean of the middle two for an even count); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The reads' p50 over the request mix: the mean of the class p50s.
/// With one read class it is that class's p50.
pub fn mix_p50(p50s: &[f64]) -> f64 {
    p50s.iter().sum::<f64>() / p50s.len().max(1) as f64
}

/// Where the load goes and what it consists of.
pub struct Target<'a> {
    pub addr: SocketAddr,
    pub read_conns: usize,
    pub read_classes: &'static [Class],
    pub limit_us: f64,
    pub make_read: &'a (dyn Fn(u64) -> Req + Sync),
    /// Which read answers to keep for checking.
    pub keep: &'a (dyn Fn(u64) -> bool + Sync),
    /// The event batch maker, on the workload that writes.
    pub make_event: Option<&'a (dyn Fn(u64) -> Req + Sync)>,
}

impl Target<'_> {
    pub fn connect(&self) -> Vec<Conn> {
        (0..self.read_conns)
            .map(|_| Conn::connect(self.addr).expect("connect to the server under test"))
            .collect()
    }
}

/// The measured serving phase.
pub struct Served {
    /// Every rung tried, in order, with its ladder index and verdict; the
    /// first is the reference rung.
    pub tried: Vec<(usize, Rung, Verdict)>,
    /// The highest rung that held, if any.
    pub held: Option<usize>,
    pub events: Option<Rung>,
    /// Share of the host's CPU time stolen by the hypervisor while serving:
    /// a diagnostic for run-to-run noise.
    pub steal_frac: f64,
}

impl Served {
    pub fn reference(&self) -> &Rung {
        &self.tried[0].1
    }

    pub fn rungs(&self) -> impl Iterator<Item = &Rung> {
        self.tried
            .iter()
            .map(|(_, r, _)| r)
            .chain(self.events.iter())
    }
}

/// Holds the reference rung for its share of `seconds`, then searches
/// the ladder ([`next_rung`]) with a fixed request count per rung.
/// Events, if any, run on their own connection at a fixed rate for the
/// whole `seconds`.
pub fn serve_phase(t: &Target, seconds: f64) -> Served {
    let jiffies = cpu_jiffies();
    let total = Duration::from_secs_f64(seconds);
    let rung_requests = (RUNG_REQUESTS_PER_SECOND * seconds).max(100.0);
    let mut conns = t.connect();
    std::thread::scope(|scope| {
        let events = t.make_event.map(|make| {
            let mut conn = vec![Conn::connect(t.addr).expect("connect the events connection")];
            scope.spawn(move || open_loop(&mut conn, EVENTS_RPS, total, 0, make, &|_| false))
        });
        let (mut held, mut failed) = (None, None);
        let mut tried = Vec::new();
        let mut base = 0;
        while let Some(k) = next_rung(held, failed) {
            let rate = rung_rate(k);
            let length = if tried.is_empty() {
                total.mul_f64(REFERENCE_SHARE)
            } else {
                Duration::from_secs_f64(rung_requests / rate)
            };
            // A rung other than the reference that fails runs once more
            // and fails only if both runs fail: one scheduler stall on the
            // shared host must not end the climb.
            let attempts = if tried.is_empty() { 1 } else { 2 };
            let mut holds = false;
            for _ in 0..attempts {
                let rung = open_loop(&mut conns, rate, length, base, t.make_read, t.keep);
                base += rung.due;
                let verdict = Verdict::of(&rung, t.read_classes);
                holds = verdict.holds(t.limit_us);
                tried.push((k, rung, verdict));
                if holds {
                    break;
                }
            }
            if holds {
                held = Some(k);
            } else {
                failed = Some(k);
            }
        }
        let events = events.map(|h| h.join().expect("events generator panicked"));
        let (steal, all) = cpu_jiffies();
        let steal_frac = (steal - jiffies.0) as f64 / (all - jiffies.1).max(1) as f64;
        Served {
            tried,
            held,
            events,
            steal_frac,
        }
    })
}

/// Tally of answers: every sent request, every failure (non-200, socket
/// error, or a wrong answer).
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// Checked `/topk` answers that differ from the in-process scan only
    /// in which equally-scored candidates fill the last places.
    pub cut_ties: u64,
}

impl Tally {
    pub fn count(&mut self, shots: &[Shot]) {
        self.attempted += shots.len() as u64;
        self.failed += shots.iter().filter(|s| !s.ok).count() as u64;
    }

    pub fn mismatch(&mut self, message: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(message);
        }
    }

    pub fn problem(&mut self, message: String) {
        self.problems.push(message);
    }
}

/// The end-to-end metrics and the run record of an untraced run.
fn e2e(t: &Target, served: &Served, setups: &[f64], tally: &Tally) -> (Metrics, Record) {
    let reference = &served.reference().shots;
    let mut p50s = Vec::new();
    let mut classes = Vec::new();
    let summary = |shots: &[Shot], class: Class| {
        let sorted = latencies(shots, Some(class));
        let mut fields = vec![("samples", Json::from(sorted.len()))];
        for (name, p) in [("p50_us", 50.0), ("p90_us", 90.0), ("p99_us", 99.0)] {
            fields.push((name, Json::from(percentile(&sorted, p))));
        }
        fields.push((
            "highest_supported_percentile",
            supported_tail(&sorted).map_or(Json::Null, |(p, _)| Json::from(p)),
        ));
        (percentile(&sorted, 50.0), Json::obj(fields))
    };
    for &class in t.read_classes {
        let (p50, json) = summary(reference, class);
        p50s.push(p50);
        classes.push((class.name().to_string(), json));
    }
    if let Some(events) = &served.events {
        classes.push((
            Class::Events.name().to_string(),
            summary(&events.shots, Class::Events).1,
        ));
    }
    let max_rate = served
        .held
        .and_then(|k| {
            served
                .tried
                .iter()
                .find(|(i, _, v)| *i == k && v.holds(t.limit_us))
        })
        .map_or(0.0, |(_, _, v)| v.achieved_rps);
    let metrics = vec![
        ("setup_s", median(setups)),
        ("read_p50_us", mix_p50(&p50s)),
        ("peak_rss_mb", peak_rss_mb()),
    ];
    let mut lags: Vec<f64> = reference.iter().map(|s| s.lag_us).collect();
    lags.sort_by(f64::total_cmp);
    let record = vec![
        (
            "setup_runs_s",
            Json::Arr(setups.iter().map(|&s| Json::from(s)).collect()),
        ),
        (
            "classes_at_reference",
            Json::Obj(classes.into_iter().collect()),
        ),
        ("max_rate_rps", Json::from(max_rate)),
        ("reference_lag_p99_us", Json::from(percentile(&lags, 99.0))),
        ("host_steal_frac", Json::from(served.steal_frac)),
        (
            "rungs_tried",
            Json::Arr(
                served
                    .tried
                    .iter()
                    .map(|(k, rung, v)| {
                        Json::obj([
                            ("rung", Json::from(*k)),
                            ("rate_rps", Json::from(rung.rate)),
                            ("due", Json::from(rung.due)),
                            ("sent", Json::from(rung.shots.len())),
                            ("unsent", Json::from(rung.unsent)),
                            ("read_p90_us", Json::from(v.read_tail_us)),
                            ("lag_growth_us", Json::from(v.lag_growth_us)),
                            ("failed", Json::from(v.failed)),
                            ("achieved_rps", Json::from(v.achieved_rps)),
                            ("holds", Json::from(v.holds(t.limit_us))),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("rung_limit_us", Json::from(t.limit_us)),
        (
            "failed_frac",
            Json::from(if tally.attempted == 0 {
                0.0
            } else {
                tally.failed as f64 / tally.attempted as f64
            }),
        ),
    ];
    (metrics, record)
}

/// Cumulative `(steal, total)` CPU jiffies of the host, from `/proc/stat`.
pub fn cpu_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn scores_of(body: &str) -> Option<Vec<f64>> {
    match parse(body).ok()?.get("scores")? {
        Json::Arr(items) => items.iter().map(Json::as_f64).collect(),
        _ => None,
    }
}

fn trustees_of(body: &str) -> Option<Vec<(usize, f64)>> {
    match parse(body).ok()?.get("trustees")? {
        Json::Arr(items) => items
            .iter()
            .map(|t| Some((t.get("user")?.as_f64()? as usize, t.get("score")?.as_f64()?)))
            .collect(),
        _ => None,
    }
}

/// Checks a kept `/score` answer bitwise against the in-process index.
fn check_score(
    tally: &mut Tally,
    index: &TrustIndex,
    pairs: &[(usize, usize)],
    body: &str,
    what: &str,
) {
    let want = index
        .score_pairs(pairs)
        .expect("generated pairs are in range");
    match scores_of(body) {
        Some(got)
            if got.len() == want.len() && got.iter().zip(&want).all(|(g, w)| *g as f32 == *w) => {}
        _ => tally.mismatch(format!(
            "{what}: /score answered {body}, index says {want:?}"
        )),
    }
}

/// Checks a kept `/topk` answer against `top_k_trustees` on the full
/// index: scores bit for bit at every position, ids equal at every
/// position above the k-th score. The places holding the k-th score may be
/// filled by any candidates with exactly that score, in ascending id
/// order; the single-node scan keeps the ones with the larger raw dot
/// while the front's merge keeps the smaller ids, so those are counted in
/// `cut_ties` and reported, not failed.
fn check_topk(tally: &mut Tally, index: &TrustIndex, user: usize, body: &str, what: &str) {
    let want = index
        .top_k_trustees(user, TOP_K)
        .expect("generated users are in range");
    let score = |v: usize| index.score(user, v).ok();
    match trustees_of(body).and_then(|got| topk_agrees(&got, &want, user, score)) {
        Some(false) => {}
        Some(true) => tally.cut_ties += 1,
        None => tally.mismatch(format!(
            "{what}: /topk?user={user} answered {body}, full scan says {want:?}"
        )),
    }
}

/// `Some(tied)` when `got` agrees with `want` as [`check_topk`] requires,
/// `tied` telling whether the candidates at the k-th score differ;
/// `None` on any other difference. `score` gives the full-index score of
/// `(user, v)`.
fn topk_agrees(
    got: &[(usize, f64)],
    want: &[(usize, f32)],
    user: usize,
    score: impl Fn(usize) -> Option<f32>,
) -> Option<bool> {
    let same = |a: f32, b: f32| a.to_bits() == b.to_bits();
    if got.len() != want.len() || got.iter().zip(want).any(|(g, w)| !same(g.1 as f32, w.1)) {
        return None;
    }
    let Some(&(_, cut)) = want.last() else {
        return Some(false);
    };
    let start = want.iter().position(|w| same(w.1, cut))?;
    if got[..start]
        .iter()
        .zip(&want[..start])
        .any(|(g, w)| g.0 != w.0)
    {
        return None;
    }
    let tail = &got[start..];
    let ascending = tail.windows(2).all(|p| p[0].0 < p[1].0);
    let at_cut = tail
        .iter()
        .all(|&(v, _)| v != user && score(v).is_some_and(|s| same(s, cut)));
    if !(ascending && at_cut) {
        return None;
    }
    Some(tail.iter().zip(&want[start..]).any(|(g, w)| g.0 != w.0))
}

fn write_artifact(path: &Path, bytes: &[u8]) -> Result<(), String> {
    std::fs::write(path, bytes).map_err(|e| format!("write {}: {e}", path.display()))
}

fn backend_of(addr: SocketAddr) -> Json {
    Conn::connect(addr)
        .and_then(|mut c| c.get("/healthz"))
        .ok()
        .and_then(|r| parse(&r.body).ok())
        .and_then(|doc| doc.get("backend").cloned())
        .unwrap_or(Json::Null)
}

fn finish(
    t: &Target,
    served: Option<&Served>,
    setups: &[f64],
    mut tally: Tally,
    layers: Option<Layers>,
    mut record: Record,
) -> Outcome {
    if let Some(served) = served {
        for rung in served.rungs() {
            tally.count(&rung.shots);
        }
    }
    record.push(("backend", backend_of(t.addr)));
    record.push(("topk_cut_tie_divergences", Json::from(tally.cut_ties)));
    let metrics = match (layers, served) {
        (Some(mut layers), _) => {
            record.append(&mut layers.samples);
            layers.into_metrics()
        }
        (None, Some(served)) => {
            let (metrics, more) = e2e(t, served, setups, &tally);
            record.extend(more);
            metrics
        }
        (None, None) => unreachable!("an untraced run always serves"),
    };
    Outcome {
        correct: tally.problems.is_empty() && tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        record,
        problems: tally.problems,
    }
}

// ---------------------------------------------------------------------------
// score_reads
// ---------------------------------------------------------------------------

struct ScoreDeployment {
    server: ServerHandle,
    trained: Trained,
    path: PathBuf,
    artifact_ms: (f64, f64, f64),
}

fn score_reads_setup(opts: &Opts, first: &Req) -> Result<ScoreDeployment, String> {
    let trained = train(opts.seed, EPOCHS);
    let t = Instant::now();
    let artifact = trained.model.export_artifact();
    let export_ms = ms(t);
    let t = Instant::now();
    let bytes = artifact.encode_v2();
    let encode_ms = ms(t);
    let path = opts.work_dir.join("score_reads.ahntpsrv");
    write_artifact(&path, &bytes)?;
    let t = Instant::now();
    let index = TrustIndex::open(&path).map_err(|e| format!("open {}: {e}", path.display()))?;
    let open_ms = ms(t);
    let server = serve(index, &ServeConfig::default()).map_err(|e| format!("serve: {e}"))?;
    first_200(server.addr(), first)?;
    Ok(ScoreDeployment {
        server,
        trained,
        path,
        artifact_ms: (export_ms, encode_ms, open_ms),
    })
}

fn score_reads(opts: &Opts) -> Result<Outcome, String> {
    let seed = opts.seed;
    let make_read = move |i: u64| {
        inputs::score_req(&inputs::pairs(
            seed,
            Stream::Pairs,
            i,
            USERS,
            PAIRS_PER_REQUEST,
        ))
    };
    let keep = |i: u64| i.is_multiple_of(CHECK_EVERY);
    let mut tally = Tally::default();
    let mut setups = Vec::new();
    let mut losses = Vec::new();
    let mut deployment = None;
    for _ in 0..if opts.trace { 1 } else { SETUP_REPEATS } {
        // The previous set-up's server stops before the next one starts.
        drop(deployment.take());
        let started = Instant::now();
        let d = score_reads_setup(opts, &make_read(0))?;
        setups.push(started.elapsed().as_secs_f64());
        losses.push(d.trained.report.final_loss);
        deployment = Some(d);
    }
    let d = deployment.expect("at least one set-up");
    let final_loss = losses[0];
    if !final_loss.is_finite() || losses.iter().any(|l| l.to_bits() != final_loss.to_bits()) {
        tally.problem(format!(
            "training is not deterministic or not finite: final losses {losses:?}"
        ));
    }
    let target = Target {
        addr: d.server.addr(),
        read_conns: CONNECTIONS,
        read_classes: &[Class::Score],
        limit_us: READ_LIMIT_US,
        make_read: &make_read,
        keep: &keep,
        make_event: None,
    };
    let reference = TrustIndex::open(&d.path).map_err(|e| format!("reopen artifact: {e}"))?;
    let check = |tally: &mut Tally, shots: &[Shot]| {
        for s in shots.iter().filter(|s| s.class == Class::Score) {
            if let Some(body) = &s.body {
                let pairs = inputs::pairs(seed, Stream::Pairs, s.index, USERS, PAIRS_PER_REQUEST);
                check_score(
                    tally,
                    &reference,
                    &pairs,
                    body,
                    &format!("request {}", s.index),
                );
            }
        }
    };
    let record = vec![
        ("final_loss", Json::from(final_loss)),
        ("epochs", Json::from(d.trained.report.epochs_run)),
        ("users", Json::from(USERS)),
    ];
    if opts.trace {
        let mut layers = Layers::default();
        layers.model_path(&d.trained, d.artifact_ms);
        let probe = layers::traced_serving(&mut layers, &target, opts.seconds, &[]);
        check(&mut tally, &probe.shots);
        tally.count(&probe.shots);
        layers.request_codec(&make_read(1), &probe.sample_body);
        layers.index(&reference, seed);
        let stream = layers::replay_probe(d.trained.model, seed, USERS);
        layers.stream(&stream);
        layers.telemetry();
        return Ok(finish(&target, None, &setups, tally, Some(layers), record));
    }
    let served = serve_phase(&target, opts.seconds);
    for rung in served.rungs() {
        check(&mut tally, &rung.shots);
    }
    Ok(finish(&target, Some(&served), &setups, tally, None, record))
}

// ---------------------------------------------------------------------------
// live_mixed
// ---------------------------------------------------------------------------

fn live_factory(seed: u64) -> impl FnOnce() -> Box<dyn LiveTrustModel> + Send + 'static {
    move || Box::new(train(seed, LIVE_EPOCHS).model) as Box<dyn LiveTrustModel>
}

fn live_read(seed: u64, i: u64) -> Req {
    if i.is_multiple_of(2) {
        inputs::score_req(&inputs::pairs(
            seed,
            Stream::Pairs,
            i,
            USERS,
            PAIRS_PER_REQUEST,
        ))
    } else {
        inputs::topk_req(inputs::topk_user(seed, i, USERS))
    }
}

fn live_mixed(opts: &Opts) -> Result<Outcome, String> {
    let seed = opts.seed;
    let make_read = move |i: u64| live_read(seed, i);
    let make_event = move |i: u64| inputs::events_req(&inputs::event_batch(seed, i, USERS));
    let mut setups = Vec::new();
    let mut server = None;
    for _ in 0..if opts.trace { 1 } else { SETUP_REPEATS } {
        drop(server.take());
        let started = Instant::now();
        let s = serve_live(
            live_factory(seed),
            StalenessBound::immediate(),
            &ServeConfig::default(),
        )
        .map_err(|e| format!("serve_live: {e}"))?;
        first_200(s.addr(), &make_read(0))?;
        setups.push(started.elapsed().as_secs_f64());
        server = Some(s);
    }
    let server = server.expect("at least one set-up");
    // The mirror: the same model trained the same way, fed the same
    // events afterwards.
    let mirror = train(seed, LIVE_EPOCHS);
    let target = Target {
        addr: server.addr(),
        read_conns: CONNECTIONS - 1,
        read_classes: &[Class::Score, Class::Topk],
        limit_us: READ_LIMIT_US,
        make_read: &make_read,
        keep: &|_| false,
        make_event: Some(&make_event),
    };
    let mut tally = Tally::default();
    let record = vec![
        ("users", Json::from(USERS)),
        ("events_rps", Json::from(EVENTS_RPS)),
    ];
    let (served, probe, mut layers) = if opts.trace {
        let mut layers = Layers::default();
        let t = Instant::now();
        let artifact = mirror.model.export_artifact();
        let export_ms = ms(t);
        let t = Instant::now();
        let bytes = artifact.encode_v2();
        let encode_ms = ms(t);
        let path = opts.work_dir.join("live_mixed.ahntpsrv");
        write_artifact(&path, &bytes)?;
        let t = Instant::now();
        let index = TrustIndex::open(&path).map_err(|e| format!("open {}: {e}", path.display()))?;
        let open_ms = ms(t);
        layers.model_path(&mirror, (export_ms, encode_ms, open_ms));
        layers.index(&index, seed);
        let probe = layers::traced_serving(&mut layers, &target, opts.seconds, &[]);
        layers.request_codec(&make_read(0), &probe.sample_body);
        (None, Some(probe), Some(layers))
    } else {
        (Some(serve_phase(&target, opts.seconds)), None, None)
    };
    // Replay exactly the batches the server answered, in send order.
    let event_shots: Vec<&Shot> = match (&served, &probe) {
        (Some(s), _) => s.events.iter().flat_map(|r| r.shots.iter()).collect(),
        (_, Some(p)) => p
            .shots
            .iter()
            .filter(|s| s.class == Class::Events)
            .collect(),
        _ => unreachable!(),
    };
    let batches: Vec<u64> = event_shots
        .iter()
        .filter(|s| s.ok)
        .map(|s| s.index)
        .collect();
    let mirror_index = SharedIndex::new(
        TrustIndex::from_artifact_with(mirror.model.export_artifact(), BackendKind::Exact)
            .map_err(|e| format!("mirror artifact: {e}"))?,
    );
    let mut applier = EventApplier::new(mirror.model, StalenessBound::immediate());
    let stream = layers::replay(&mut applier, &mirror_index, seed, USERS, &batches);
    match applier.force_refresh() {
        Ok(Some(patch)) => mirror_index.apply_head_patch(&patch)?,
        Ok(None) => {}
        Err(e) => tally.problem(format!("mirror refresh failed: {e}")),
    }
    check_live(&mut tally, server.addr(), &mirror_index.read(), seed);
    if let Some(layers) = &mut layers {
        layers.stream(&stream);
        layers.telemetry();
    }
    if let Some(p) = &probe {
        tally.count(&p.shots);
    }
    Ok(finish(
        &target,
        served.as_ref(),
        &setups,
        tally,
        layers,
        record,
    ))
}

/// After the run: served scores and rankings must match the mirror
/// applier's index within [`LIVE_TOLERANCE`].
fn check_live(tally: &mut Tally, addr: SocketAddr, mirror: &TrustIndex, seed: u64) {
    let mut conn = match Conn::connect(addr) {
        Ok(c) => c,
        Err(e) => return tally.mismatch(format!("live probe connect: {e}")),
    };
    for i in 0..LIVE_PROBES {
        tally.attempted += 2;
        let pairs = inputs::pairs(seed, Stream::Probe, i, USERS, PAIRS_PER_REQUEST);
        let want = mirror
            .score_pairs(&pairs)
            .expect("probe pairs are in range");
        match conn
            .send(&inputs::score_req(&pairs))
            .ok()
            .filter(|r| r.status == 200)
            .and_then(|r| scores_of(&r.body))
        {
            Some(got)
                if got.len() == want.len()
                    && got
                        .iter()
                        .zip(&want)
                        .all(|(g, w)| (g - f64::from(*w)).abs() <= LIVE_TOLERANCE) => {}
            got => tally.mismatch(format!("live probe {i}: served {got:?}, mirror {want:?}")),
        }
        let user = (inputs::draw(seed, Stream::Probe, u64::MAX - i) % USERS as u64) as usize;
        let want = mirror
            .top_k_trustees(user, TOP_K)
            .expect("probe user is in range");
        match conn
            .send(&inputs::topk_req(user))
            .ok()
            .filter(|r| r.status == 200)
            .and_then(|r| trustees_of(&r.body))
        {
            Some(got)
                if got.len() == want.len()
                    && got.iter().zip(&want).all(|((gu, gs), (wu, ws))| {
                        gu == wu && (gs - f64::from(*ws)).abs() <= LIVE_TOLERANCE
                    }) => {}
            got => tally.mismatch(format!(
                "live probe topk {user}: served {got:?}, mirror {want:?}"
            )),
        }
    }
}

// ---------------------------------------------------------------------------
// topk_fanout
// ---------------------------------------------------------------------------

struct Cluster {
    front: ShardedHandle,
    shards: Vec<ServerHandle>,
}

fn fanout_setup(opts: &Opts, first: &Req, path: &Path) -> Result<(Cluster, (f64, f64)), String> {
    let artifact = inputs::synthetic_artifact(opts.seed, FANOUT_USERS, FANOUT_DIM);
    let t = Instant::now();
    let bytes = artifact.encode_v2();
    let encode_ms = ms(t);
    write_artifact(path, &bytes)?;
    let mut open_ms = 0.0;
    let mut shards = Vec::new();
    for range in shard_ranges(FANOUT_USERS, SHARDS) {
        let t = Instant::now();
        let index = TrustIndex::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
        open_ms += ms(t);
        let cfg = ServeConfig {
            shard_range: Some(range),
            ..ServeConfig::default()
        };
        shards.push(serve(index, &cfg).map_err(|e| format!("serve shard: {e}"))?);
    }
    let addrs: Vec<SocketAddr> = shards.iter().map(ServerHandle::addr).collect();
    let front = serve_sharded(&addrs, &ServeConfig::default())
        .map_err(|e| format!("serve_sharded: {e}"))?;
    first_200(front.addr(), first)?;
    Ok((
        Cluster { front, shards },
        (encode_ms, open_ms / SHARDS as f64),
    ))
}

fn topk_fanout(opts: &Opts) -> Result<Outcome, String> {
    let seed = opts.seed;
    let make_read = move |i: u64| inputs::topk_req(inputs::topk_user(seed, i, FANOUT_USERS));
    let keep = |i: u64| i.is_multiple_of(CHECK_EVERY);
    let path = opts.work_dir.join("topk_fanout.ahntpsrv");
    let mut setups = Vec::new();
    let mut cluster = None;
    let mut artifact_ms = (0.0, 0.0);
    for _ in 0..if opts.trace { 1 } else { FANOUT_SETUP_REPEATS } {
        if let Some(c) = cluster.take() {
            stop_cluster(c);
        }
        let started = Instant::now();
        let (c, times) = fanout_setup(opts, &make_read(0), &path)?;
        setups.push(started.elapsed().as_secs_f64());
        artifact_ms = times;
        cluster = Some(c);
    }
    let cluster = cluster.expect("at least one set-up");
    let full = TrustIndex::open(&path).map_err(|e| format!("reopen artifact: {e}"))?;
    let target = Target {
        addr: cluster.front.addr(),
        read_conns: CONNECTIONS,
        read_classes: &[Class::Topk],
        limit_us: FANOUT_LIMIT_US,
        make_read: &make_read,
        keep: &keep,
        make_event: None,
    };
    let mut tally = Tally::default();
    let check = |tally: &mut Tally, shots: &[Shot]| {
        for s in shots {
            if let Some(body) = &s.body {
                let user = inputs::topk_user(seed, s.index, FANOUT_USERS);
                check_topk(tally, &full, user, body, &format!("request {}", s.index));
            }
        }
    };
    let record = vec![
        ("users", Json::from(FANOUT_USERS)),
        ("head_dim", Json::from(FANOUT_DIM)),
        ("shards", Json::from(SHARDS)),
    ];
    if opts.trace {
        let mut layers = Layers::default();
        layers.set("artifact.encode_ms", artifact_ms.0);
        layers.set("artifact.open_ms", artifact_ms.1);
        let shard_addrs: Vec<SocketAddr> = cluster.shards.iter().map(ServerHandle::addr).collect();
        let probe = layers::traced_serving(&mut layers, &target, opts.seconds, &shard_addrs);
        check(&mut tally, &probe.shots);
        tally.count(&probe.shots);
        layers.request_codec(&make_read(1), &probe.sample_body);
        layers.index(&full, seed);
        layers.telemetry();
        let outcome = finish(&target, None, &setups, tally, Some(layers), record);
        stop_cluster(cluster);
        return Ok(outcome);
    }
    let served = serve_phase(&target, opts.seconds);
    for rung in served.rungs() {
        check(&mut tally, &rung.shots);
    }
    let outcome = finish(&target, Some(&served), &setups, tally, None, record);
    stop_cluster(cluster);
    Ok(outcome)
}

fn stop_cluster(c: Cluster) {
    c.front.shutdown();
    for s in c.shards {
        s.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::topk_agrees;

    const WANT: [(usize, f32); 4] = [(7, 0.9), (3, 0.8), (5, 0.7), (9, 0.7)];

    fn score(v: usize) -> Option<f32> {
        match v {
            7 => Some(0.9),
            3 => Some(0.8),
            1 | 5 | 9 | 11 => Some(0.7),
            _ => Some(0.1),
        }
    }

    fn got(ids: [usize; 4]) -> Vec<(usize, f64)> {
        ids.iter()
            .zip(WANT)
            .map(|(&v, (_, s))| (v, f64::from(s)))
            .collect()
    }

    #[test]
    fn identical_answers_agree_without_a_tie() {
        assert_eq!(
            topk_agrees(&got([7, 3, 5, 9]), &WANT, 0, score),
            Some(false)
        );
    }

    #[test]
    fn other_candidates_at_the_kth_score_count_as_a_tie() {
        assert_eq!(topk_agrees(&got([7, 3, 1, 5]), &WANT, 0, score), Some(true));
        assert_eq!(
            topk_agrees(&got([7, 3, 1, 11]), &WANT, 0, score),
            Some(true)
        );
    }

    #[test]
    fn every_other_difference_fails() {
        // a candidate above the cut swapped
        assert_eq!(topk_agrees(&got([7, 1, 5, 9]), &WANT, 0, score), None);
        // a candidate at the cut whose real score is lower
        assert_eq!(topk_agrees(&got([7, 3, 5, 4]), &WANT, 0, score), None);
        // tied candidates out of id order, repeated, or the trustor itself
        assert_eq!(topk_agrees(&got([7, 3, 9, 5]), &WANT, 0, score), None);
        assert_eq!(topk_agrees(&got([7, 3, 5, 5]), &WANT, 0, score), None);
        assert_eq!(topk_agrees(&got([7, 3, 1, 5]), &WANT, 1, score), None);
        // a score that differs in the last bit, or a short answer
        let mut off = got([7, 3, 5, 9]);
        off[0].1 = f64::from(f32::from_bits(0.9f32.to_bits() + 1));
        assert_eq!(topk_agrees(&off, &WANT, 0, score), None);
        assert_eq!(topk_agrees(&got([7, 3, 5, 9])[..3], &WANT, 0, score), None);
    }
}
