//! The serving runtime — acceptor, worker pool, keep-alive connection
//! loop — and the node role that runs on it with the scoring
//! micro-batcher.
//!
//! ```text
//! TcpListener ──accept──▶ acceptor thread ──mpsc──▶ worker pool (N threads)
//!                                                      │ Role::routes
//!                                                      ▼ (node) POST /score
//!                                       bounded batch queue (Mutex+Condvar)
//!                                                      │ drain ≤ max_batch
//!                                                      ▼
//!                                             batcher thread ──▶ TrustIndex
//! ```
//!
//! # One runtime, two roles
//!
//! [`start`] runs a [`Role`] — a route function, the role's metric and log
//! names, and its `X-Ahntp-Backend` value — on the shared runtime. A node
//! ([`serve`], [`serve_live`]) routes `/score`, `/topk`, `/events`,
//! `/admin/swap` and `/healthz` to its index; the sharded front
//! ([`serve_sharded`](crate::serve_sharded)) routes the same paths to its
//! shards. The runtime itself answers `/metrics`, `/metrics/prometheus`,
//! `/debug/traces` and `/debug/trace.json` for both, stamps every response
//! with a trace id, and records every request in the trace ring.
//!
//! Workers parse HTTP and answer `GET` endpoints directly; `POST /score`
//! jobs go through the batch queue to the batcher thread, which scores
//! what is queued at wake-up: it never waits for a batch to fill, so a
//! lone request is scored at once, and jobs that arrive while a batch is
//! being scored share the next one (up to [`ServeConfig::max_batch`]
//! pairs). Shutdown is cooperative: a flag flip plus one self-connection
//! unblocks the acceptor, workers finish their in-flight requests, and
//! the batcher drains the queue before exiting — no request is dropped.
//!
//! # Slow and idle clients
//!
//! [`ServeConfig::read_timeout`] is only the idle tick of the connection
//! loop. A request whose first byte has arrived is never interrupted by a
//! tick, so a head split across ticks is one request; the whole request
//! must arrive within [`ServeConfig::deadline`] of that byte, or the
//! connection is closed (a drip-fed "slowloris" head holds its worker for
//! at most the deadline plus one tick). Between requests, a tick closes
//! the connection when shutdown has begun or when an accepted connection
//! is waiting for a worker, so idle keep-alive clients never pin the pool.
//!
//! # Live trust
//!
//! [`serve_live`] additionally runs an **applier thread** owning a
//! [`LiveTrustModel`]: `POST /events` batches flow to it over a channel,
//! it folds them into the model's delta-maintained caches
//! ([`EventApplier`]), and patches the refreshed head rows into the
//! shared index under short write locks ([`SharedIndex`]). One consumer
//! means the event log is totally ordered; `/score` and `/topk` keep
//! answering from the live index throughout. A server started with
//! [`serve`] has no model and answers `/events` with `501`.
//!
//! Metrics (all under the `serve.` prefix): `serve.http.requests` /
//! `serve.http.errors` counters, `serve.request.us` latency histogram,
//! `serve.score.batch_size` histogram, and the `serve.queue.depth` gauge.
//!
//! # Tracing
//!
//! Each request is stamped with a fresh trace id
//! ([`ahntp_telemetry::next_trace_id`]) that travels with the scoring job
//! through the queue into the batcher and back: the worker installs it as
//! the thread's ambient id while handling the request, answers with an
//! `X-Ahntp-Trace-Id` header, and records the request (with its
//! parse / enqueue / queue-wait / score stage timings) in the
//! [`TraceRing`](crate::trace_ring::TraceRing) behind `GET /debug/traces`.
//! With trace collection on, the same stages are emitted as Chrome trace
//! events on a per-request virtual lane (`pid` 2, `tid` = trace id), so a
//! loadgen run opened in Perfetto shows every request as one
//! `serve.request` span with its stages nested inside.
//!
//! # Fault tolerance
//!
//! Every `/score` request carries a deadline ([`ServeConfig::deadline`]):
//! a reply that does not arrive in time answers `504` with a
//! `Retry-After` header and bumps `serve.deadline_exceeded`, so a stalled
//! or slow batcher can never hang a client past the deadline. A full (or
//! stopped) batch queue sheds load with `503` + `Retry-After` and bumps
//! `serve.shed`. When the `serve.batch` failpoint trips, the batcher
//! degrades from the fused batch kernel to per-pair scalar scoring
//! (`serve.degraded` counts the batches served that way) rather than
//! failing the jobs. `GET /healthz` never touches the queue, so liveness
//! probes keep answering under every failure mode. Failpoints
//! (`ahntp-faultz`): `serve.request`, `serve.enqueue`, `serve.batch`,
//! plus `serve.read` / `serve.write` in the HTTP layer.

use std::collections::VecDeque;
use std::io::{self, BufReader, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ahntp_telemetry::json::{parse, Json};
use ahntp_telemetry::{
    counter_add, debug, gauge_set, histogram_record, info, metrics_prometheus_text,
    metrics_snapshot_json, trace_now_us, warn, KernelKind, KernelSpan,
};

use ahntp_stream::{
    parse_events, EventApplier, HeadPatch, LiveTrustModel, StalenessBound, TrustEvent,
};

use crate::backend::BackendKind;
use crate::http::{read_request, write_response_with, HttpError, Request};
use crate::index::{ScoreError, SharedIndex, TrustIndex};
use crate::trace_ring::{RequestTrace, Stage, TraceRing};

/// Tuning knobs for [`serve`], [`serve_live`] and
/// [`serve_sharded`](crate::serve_sharded).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; use port 0 to let the OS pick (tests do).
    pub addr: String,
    /// HTTP worker threads.
    pub workers: usize,
    /// Maximum pairs in one scoring batch. Batches hold whole jobs, so a
    /// single larger job is scored in a batch of its own.
    pub max_batch: usize,
    /// Maximum queued scoring jobs before `POST /score` answers 503.
    pub queue_capacity: usize,
    /// Socket read timeout: the idle tick of the connection loop. It
    /// bounds how long an idle keep-alive connection can delay shutdown or
    /// hold a worker another connection is waiting for; it never cuts a
    /// request in progress (see `deadline`).
    pub read_timeout: Duration,
    /// Kernel worker threads for the `ahntp-par` pool that large scoring
    /// batches and top-k scans fan out over. `0` (the default) leaves the
    /// process-wide setting alone (`AHNTP_THREADS`, or one thread per
    /// core); any other value overrides it at startup. Results are
    /// bitwise identical at every setting.
    pub threads: usize,
    /// Per-request deadline. Reading: a request must arrive whole within
    /// this budget of its first byte, or the connection is closed. For
    /// `POST /score` and `POST /events`: if the batcher or the applier has
    /// not replied within this budget (measured from request parse), the
    /// worker answers `504 Gateway Timeout` with a `Retry-After` header
    /// instead of blocking forever. A front also uses it as the timeout of
    /// each shard RPC.
    pub deadline: Duration,
    /// Value of the `Retry-After` header (whole seconds, minimum 1) on
    /// load-shed (`503`) and deadline (`504`) responses.
    pub retry_after: Duration,
    /// How many recently served requests `GET /debug/traces` retains
    /// (per-request stage timings, newest last). Minimum 1.
    pub trace_ring: usize,
    /// Scoring backend override. `None` (the default) keeps whatever the
    /// index was built with — for [`serve`] that is the index passed in;
    /// for [`serve_live`] the environment default
    /// ([`BackendKind::from_env`], `AHNTP_BACKEND`). `Some(kind)` rebuilds
    /// onto `kind` at startup.
    pub backend: Option<BackendKind>,
    /// The contiguous trustee id range `[lo, hi)` this server owns as a
    /// shard of a scatter-gather cluster. `None` (the default) serves the
    /// whole id space. A shard still maps the *full* artifact — `/score`
    /// answers any pair — but its `/topk` scans only the owned range
    /// (always with the exact scalar arithmetic), so a front tier can
    /// merge per-shard results into the single-node exact answer
    /// bitwise. The range is advertised as `shard_lo`/`shard_hi` in
    /// `/healthz` for front-tier discovery.
    pub shard_range: Option<(usize, usize)>,
    /// Sybil-defense prior to attach at startup
    /// ([`TrustIndex::with_defense`]): `/score` and `/topk` then serve
    /// `(1 − α) · learned + α · prior[trustee]` blended scores, and
    /// `/healthz` advertises `defended: true` plus the alpha. `None` (the
    /// default) serves raw learned scores. Build one with
    /// [`DefensePrior::from_env`] to pick the alpha up from
    /// `AHNTP_PPR_ALPHA`.
    pub defense: Option<crate::index::DefensePrior>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            max_batch: 64,
            queue_capacity: 1024,
            read_timeout: Duration::from_millis(50),
            threads: 0,
            deadline: Duration::from_secs(2),
            retry_after: Duration::from_secs(1),
            trace_ring: 128,
            backend: None,
            shard_range: None,
            defense: None,
        }
    }
}

/// One endpoint answer: status line plus JSON body, with an optional
/// `Retry-After` value (seconds) for backpressure responses. Text
/// endpoints (Prometheus exposition, raw Chrome trace JSON) carry a
/// pre-rendered body instead of a [`Json`] document.
pub(crate) struct Response {
    pub(crate) status: u16,
    pub(crate) reason: &'static str,
    pub(crate) body: Json,
    /// `(content_type, body)` override; when set, wins over `body`.
    pub(crate) text: Option<(&'static str, String)>,
    pub(crate) retry_after: Option<u64>,
}

impl Response {
    pub(crate) fn new(status: u16, reason: &'static str, body: Json) -> Response {
        Response { status, reason, body, text: None, retry_after: None }
    }

    pub(crate) fn text(content_type: &'static str, body: String) -> Response {
        Response {
            status: 200,
            reason: "OK",
            body: Json::Null,
            text: Some((content_type, body)),
            retry_after: None,
        }
    }

    pub(crate) fn error(status: u16, reason: &'static str, message: &str) -> Response {
        Response::new(status, reason, Json::obj([("error", message.into())]))
    }

    pub(crate) fn retry_after(mut self, after: Duration) -> Response {
        self.retry_after = Some(after.as_secs().max(1));
        self
    }
}

/// Everything a node needs to answer its own endpoints.
struct RequestCtx {
    index: Arc<SharedIndex>,
    queue: Arc<BatchQueue>,
    /// Channel to the live-event applier thread; `None` on a frozen
    /// server, which answers `POST /events` with `501`.
    ingest: Option<mpsc::Sender<IngestJob>>,
    deadline: Duration,
    retry_after: Duration,
    /// Active scoring backend name, captured once at startup (head
    /// patches never change the backend), echoed in the
    /// `X-Ahntp-Backend` header and response `backend` fields.
    backend: &'static str,
    /// Backend kind matching `backend`; `/admin/swap` rebuilds opened
    /// snapshots onto it so a swap never silently changes the backend.
    backend_kind: BackendKind,
    /// Owned trustee range when serving as a shard
    /// ([`ServeConfig::shard_range`]); restricts `/topk` candidates.
    shard_range: Option<(usize, usize)>,
}

/// What the batcher sends back for one job: the scores plus the
/// timestamps the requesting worker needs to attribute its wait.
struct ScoreReply {
    result: Result<Vec<f32>, ScoreError>,
    /// When the batcher drained the job from the queue.
    picked_up_us: u64,
    /// When the batch's scoring finished.
    scored_us: u64,
    /// Whether the batch fell back to per-pair scalar scoring.
    degraded: bool,
}

/// One queued `POST /score` request.
struct ScoreJob {
    pairs: Vec<(usize, usize)>,
    /// Trace id of the originating request; carried through the queue so
    /// the batcher works under the requester's id.
    trace_id: u64,
    reply: mpsc::Sender<ScoreReply>,
}

/// One queued `POST /events` batch bound for the applier thread.
struct IngestJob {
    events: Vec<TrustEvent>,
    trace_id: u64,
    reply: mpsc::Sender<IngestReply>,
}

/// What the applier sends back for one ingest batch.
struct IngestReply {
    /// Events applied before the first failure (all of them on success).
    applied: usize,
    /// Total affected users across the applied events.
    affected: usize,
    /// Head rows patched into the index while handling this batch.
    refreshed: usize,
    /// Users still dirty after the batch (staleness-bound refresh failed
    /// or was deferred).
    dirty: usize,
    error: Option<String>,
    /// When the applier drained the job from the channel.
    picked_up_us: u64,
    /// When the batch (including its refresh flush) finished.
    done_us: u64,
}

#[derive(Default)]
struct QueueState {
    jobs: VecDeque<ScoreJob>,
    stopped: bool,
}

/// Bounded job queue between workers and the batcher.
struct BatchQueue {
    state: Mutex<QueueState>,
    cond: Condvar,
    capacity: usize,
}

impl BatchQueue {
    fn new(capacity: usize) -> BatchQueue {
        BatchQueue {
            state: Mutex::new(QueueState::default()),
            cond: Condvar::new(),
            capacity,
        }
    }

    /// Enqueues a job; `false` means full or stopping (caller answers 503).
    fn push(&self, job: ScoreJob) -> bool {
        let mut state = self.state.lock().unwrap();
        if state.stopped || state.jobs.len() >= self.capacity {
            return false;
        }
        state.jobs.push_back(job);
        gauge_set("serve.queue.depth", state.jobs.len() as f64);
        self.cond.notify_one();
        true
    }

    fn stop(&self) {
        self.state.lock().unwrap().stopped = true;
        self.cond.notify_all();
    }

    /// Blocks until a job is queued or the queue is stopped, then drains
    /// whole jobs in FIFO order until the next one would take the batch
    /// past `max_batch` pairs (the first job always goes in, so one
    /// oversize job forms a batch of its own). There is no timed wait:
    /// jobs that arrive while a batch is being scored coalesce into the
    /// next one. `None` once the queue is stopped and empty.
    fn next_batch(&self, max_batch: usize) -> Option<Vec<ScoreJob>> {
        let mut state = self.state.lock().unwrap();
        while state.jobs.is_empty() && !state.stopped {
            state = self.cond.wait(state).unwrap();
        }
        let mut batch: Vec<ScoreJob> = Vec::new();
        let mut batch_pairs = 0usize;
        while let Some(job) = state.jobs.front() {
            if !batch.is_empty() && batch_pairs + job.pairs.len() > max_batch {
                break;
            }
            batch_pairs += job.pairs.len();
            batch.push(state.jobs.pop_front().unwrap());
        }
        gauge_set("serve.queue.depth", state.jobs.len() as f64);
        (!batch.is_empty()).then_some(batch) // empty: drained and told to stop
    }
}

/// The batcher loop: score whatever is queued at wake-up, reply, repeat,
/// until the queue is stopped and drained.
fn run_batcher(queue: &BatchQueue, index: &SharedIndex, max_batch: usize) {
    while let Some(batch) = queue.next_batch(max_batch) {
        let batch_pairs: usize = batch.iter().map(|j| j.pairs.len()).sum();
        // Pin one index version for the whole batch: the read guard keeps
        // the live applier's write lock out until every job is answered,
        // so a coalesced batch never sees a half-applied patch.
        let index = index.read();
        histogram_record("serve.score.batch_size", batch_pairs as u64);
        let picked_up_us = trace_now_us();
        // Score under the requester's trace id when the batch is one job
        // deep; a coalesced batch belongs to no single request, so the
        // ambient id stays unset and the span attributes to the batcher
        // thread lane only.
        let _scope = (batch.len() == 1)
            .then(|| ahntp_telemetry::set_trace_id_scope(batch[0].trace_id));
        let _batch_span = KernelSpan::enter("serve.batch", KernelKind::Other);
        // Chaos hook: an Err action degrades this batch from the fused
        // kernel to per-pair scalar scoring (jobs still get answers); a
        // Delay action just slows the batch down — the per-request
        // deadline in `score_endpoint` bounds what clients see.
        if ahntp_faultz::armed() && ahntp_faultz::hit("serve.batch").is_some() {
            counter_add("serve.degraded", 1);
            warn!("serve", "batch kernel faulted; degrading to per-pair scoring");
            for job in batch {
                let result: Result<Vec<f32>, ScoreError> = job
                    .pairs
                    .iter()
                    .map(|&(trustor, trustee)| index.score(trustor, trustee))
                    .collect();
                let _ = job.reply.send(ScoreReply {
                    result,
                    picked_up_us,
                    scored_us: trace_now_us(),
                    degraded: true,
                });
            }
            continue;
        }
        let all: Vec<(usize, usize)> = batch
            .iter()
            .flat_map(|j| j.pairs.iter().copied())
            .collect();
        match index.score_pairs(&all) {
            Ok(scores) => {
                let scored_us = trace_now_us();
                let mut offset = 0;
                for job in batch {
                    let n = job.pairs.len();
                    let slice = scores[offset..offset + n].to_vec();
                    offset += n;
                    let _ = job.reply.send(ScoreReply {
                        result: Ok(slice),
                        picked_up_us,
                        scored_us,
                        degraded: false,
                    });
                }
            }
            Err(_) => {
                // Some job smuggled in a bad id; rescore per job so only
                // the offender sees the error.
                for job in batch {
                    let result = index.score_pairs(&job.pairs);
                    let _ = job.reply.send(ScoreReply {
                        result,
                        picked_up_us,
                        scored_us: trace_now_us(),
                        degraded: false,
                    });
                }
            }
        }
    }
}

/// Handle to a running server: a node from [`serve`] or [`serve_live`],
/// or a front from [`serve_sharded`](crate::serve_sharded). Dropping it
/// shuts the server down.
pub struct ServerHandle {
    addr: SocketAddr,
    /// The role's log target.
    log: &'static str,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    /// Nodes only: the scoring queue and its batcher thread.
    batcher: Option<(Arc<BatchQueue>, JoinHandle<()>)>,
    /// Live nodes only: an ingest sender and the applier thread. Dropping
    /// the sender (after the workers' clones are gone) lets the applier
    /// drain the remaining batches and exit.
    applier: Option<(mpsc::Sender<IngestJob>, JoinHandle<()>)>,
}

impl ServerHandle {
    /// The bound address (with the OS-assigned port when the config asked
    /// for port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: stops accepting, lets in-flight requests
    /// finish, drains the scoring queue, joins every thread. A front's
    /// shards are servers of their own and keep running.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return; // already stopped
        }
        // Unblock the acceptor's accept() with one throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.acceptor.take() {
            let _ = t.join();
        }
        // Acceptor exit drops the connection sender; workers drain the
        // channel, finish their in-flight requests, and exit.
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
        // No worker can enqueue anymore: drain the batcher and stop it.
        if let Some((queue, t)) = self.batcher.take() {
            queue.stop();
            let _ = t.join();
        }
        // Workers are gone, so the handle holds the last ingest sender:
        // dropping it disconnects the channel and the applier exits once
        // it has drained the already-queued batches. It exits last, after
        // the batcher, so the next server's applier thread reuses the
        // allocator arena that held this one's model instead of a fresh
        // one (peak RSS of servers started one after another).
        if let Some((ingest, t)) = self.applier.take() {
            drop(ingest);
            let _ = t.join();
        }
        // Every thread has quiesced: if AHNTP_TRACE_OUT is set, persist
        // the Chrome trace collected over the server's lifetime.
        ahntp_telemetry::flush_trace_to_env();
        info!(self.log, "server on {} stopped", self.addr);
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Starts a frozen server (no event ingest) and returns once the socket
/// is bound and every thread is running. `POST /events` answers `501`;
/// use [`serve_live`] to serve a mutable model.
///
/// # Errors
///
/// Fails when the address cannot be bound.
pub fn serve(index: TrustIndex, config: &ServeConfig) -> io::Result<ServerHandle> {
    let index = match config.backend {
        Some(kind) if kind != index.backend_kind() => index.with_backend(kind),
        _ => index,
    };
    let index = match &config.defense {
        Some(defense) => index
            .with_defense(defense.clone())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?,
        None => index,
    };
    serve_shared(Arc::new(SharedIndex::new(index)), config, None)
}

/// Starts a live server: like [`serve`], plus a `POST /events` endpoint
/// that folds trust events into a [`LiveTrustModel`] and patches the
/// refreshed head rows into the scoring index.
///
/// The factory runs on a dedicated applier thread (models may hold
/// non-`Send` state): it builds the model there, seeds the index from
/// [`LiveTrustModel::export_artifact`], then applies event batches in
/// arrival order — a single consumer, so the event log is totally
/// ordered. `bound` decides how much staleness may accumulate between
/// head refreshes; [`StalenessBound::immediate`] keeps the index exact
/// after every event.
///
/// # Errors
///
/// Fails when the address cannot be bound, when the model factory
/// panics, or when the exported artifact does not validate.
pub fn serve_live<F>(
    factory: F,
    bound: StalenessBound,
    config: &ServeConfig,
) -> io::Result<ServerHandle>
where
    F: FnOnce() -> Box<dyn LiveTrustModel> + Send + 'static,
{
    let (boot_tx, boot_rx) = mpsc::channel();
    let (ingest_tx, ingest_rx) = mpsc::channel::<IngestJob>();
    let kind = config.backend.unwrap_or_else(BackendKind::from_env);
    let defense = config.defense.clone();
    let applier = std::thread::spawn(move || {
        let model = factory();
        let index = match TrustIndex::from_artifact_with(model.export_artifact(), kind) {
            Ok(index) => index,
            Err(e) => {
                let _ = boot_tx.send(Err(format!("exported artifact invalid: {e}")));
                return;
            }
        };
        let index = match defense {
            Some(defense) => match index.with_defense(defense) {
                Ok(index) => index,
                Err(e) => {
                    let _ = boot_tx.send(Err(format!("defense prior rejected: {e}")));
                    return;
                }
            },
            None => index,
        };
        let shared = Arc::new(SharedIndex::new(index));
        if boot_tx.send(Ok(Arc::clone(&shared))).is_err() {
            return; // serve_shared failed to bind; nothing to apply onto
        }
        run_applier(&ingest_rx, model, bound, &shared);
    });
    let shared = match boot_rx.recv() {
        Ok(Ok(shared)) => shared,
        Ok(Err(msg)) => {
            let _ = applier.join();
            return Err(io::Error::new(io::ErrorKind::InvalidData, msg));
        }
        // The factory panicked before reporting anything.
        Err(_) => {
            let _ = applier.join();
            return Err(io::Error::other("live model construction failed"));
        }
    };
    serve_shared(shared, config, Some((ingest_tx, applier)))
}

/// The applier loop: single consumer of the ingest channel. Each batch
/// folds into the model through an [`EventApplier`]; refreshed head rows
/// are patched into the shared index under short write locks. A mid-batch
/// failure stops the batch, but the successfully applied prefix is still
/// flushed so the reply always describes an index that has caught up with
/// everything that was applied.
fn run_applier(
    jobs: &mpsc::Receiver<IngestJob>,
    model: Box<dyn LiveTrustModel>,
    bound: StalenessBound,
    index: &SharedIndex,
) {
    let mut applier = EventApplier::new(model, bound);
    while let Ok(job) = jobs.recv() {
        let picked_up_us = trace_now_us();
        let _scope = ahntp_telemetry::set_trace_id_scope(job.trace_id);
        let _span = KernelSpan::enter("serve.ingest", KernelKind::Other);
        histogram_record("serve.ingest.batch_size", job.events.len() as u64);
        let mut applied = 0usize;
        let mut affected = 0usize;
        let mut refreshed = 0usize;
        let mut error: Option<String> = None;
        let patch_index = |patch: Option<HeadPatch>, refreshed: &mut usize| match patch {
            Some(patch) => match index.apply_head_patch(&patch) {
                Ok(()) => {
                    *refreshed += patch.users.len();
                    None
                }
                Err(e) => Some(e),
            },
            None => None,
        };
        for event in &job.events {
            match applier.apply(event) {
                Ok(a) => {
                    applied += 1;
                    affected += a.affected_users.len();
                }
                Err(e) => {
                    error = Some(e.to_string());
                    break;
                }
            }
            match applier.maybe_refresh() {
                Ok(patch) => {
                    error = patch_index(patch, &mut refreshed);
                    if error.is_some() {
                        break;
                    }
                }
                Err(e) => {
                    error = Some(e.to_string());
                    break;
                }
            }
        }
        // A fault mid-batch leaves an applied-but-unrefreshed prefix:
        // flush it so the error reply never hides index lag behind the
        // failure. (Healthy batches refresh per the staleness bound; a
        // `stream.refresh` fault keeps the dirty set, so the rows stay
        // consistent-but-stale and the next refresh retries.)
        if let Some(message) = &error {
            if let Ok(patch) = applier.force_refresh() {
                if let Some(e) = patch_index(patch, &mut refreshed) {
                    warn!("serve", "ingest flush failed: {e}");
                }
            }
            counter_add("serve.ingest.errors", 1);
            warn!("serve", "ingest batch failed after {applied} events: {message}");
        }
        let _ = job.reply.send(IngestReply {
            applied,
            affected,
            refreshed,
            dirty: applier.dirty_users().len(),
            error,
            picked_up_us,
            done_us: trace_now_us(),
        });
    }
}

/// Shared startup path for [`serve`] and [`serve_live`].
fn serve_shared(
    index: Arc<SharedIndex>,
    config: &ServeConfig,
    live: Option<(mpsc::Sender<IngestJob>, JoinHandle<()>)>,
) -> io::Result<ServerHandle> {
    if config.threads > 0 {
        ahntp_par::set_threads(config.threads);
    }

    // Capture the backend surface once: the kind never changes after
    // startup, so workers echo a `&'static str` instead of re-reading it,
    // and the footprint/envelope gauges describe the running process.
    let (backend_name, backend_kind) = {
        let snapshot = index.read();
        gauge_set("serve.backend.bytes_per_user", snapshot.bytes_per_user() as f64);
        gauge_set(
            "serve.backend.score_error_bound",
            f64::from(snapshot.score_error_bound()),
        );
        if let Some((lo, hi)) = config.shard_range {
            if lo >= hi || hi > snapshot.n_users() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "shard range [{lo}, {hi}) invalid for an index of {} users",
                        snapshot.n_users()
                    ),
                ));
            }
        }
        (snapshot.backend_name(), snapshot.backend_kind())
    };

    let mode = if live.is_some() { "live" } else { "frozen" };
    let queue = Arc::new(BatchQueue::new(config.queue_capacity.max(1)));
    let ctx = RequestCtx {
        index: Arc::clone(&index),
        queue: Arc::clone(&queue),
        ingest: live.as_ref().map(|(ingest, _)| ingest.clone()),
        deadline: config.deadline,
        retry_after: config.retry_after,
        backend: backend_name,
        backend_kind,
        shard_range: config.shard_range,
    };
    let role = Role {
        names: &NODE,
        backend: backend_name.to_string(),
        routes: Box::new(move |req, trace_id, stages| route(req, &ctx, trace_id, stages)),
    };
    let mut handle = start(role, config)?;
    {
        let snapshot = index.read();
        info!(
            "serve",
            "serving {} users of model {:?} on {} with {} workers ({mode}, {backend_name} backend)",
            snapshot.n_users(),
            snapshot.model(),
            handle.addr(),
            config.workers.max(1),
        );
    }
    let max_batch = config.max_batch.max(1);
    let batcher = {
        let queue = Arc::clone(&queue);
        std::thread::spawn(move || run_batcher(&queue, &index, max_batch))
    };
    handle.batcher = Some((queue, batcher));
    handle.applier = live;
    Ok(handle)
}

/// The names a role reports under. Tests and the benchmark run a front
/// and its shards in one process, and so against one metrics registry:
/// each role counts under its own names.
pub(crate) struct Names {
    /// Counter of requests answered.
    pub(crate) requests: &'static str,
    /// Counter of requests answered with a status of 400 or above.
    pub(crate) errors: &'static str,
    /// Histogram of request wall time, µs.
    pub(crate) latency: &'static str,
    /// Target of the role's log lines.
    pub(crate) log: &'static str,
    /// Target of the per-request access log (`debug` level, off by
    /// default).
    pub(crate) access_log: &'static str,
}

const NODE: Names = Names {
    requests: "serve.http.requests",
    errors: "serve.http.errors",
    latency: "serve.request.us",
    log: "serve",
    access_log: "serve.access",
};

/// A role's own endpoints: given the request, its trace id and the stage
/// list to record timings in, the answer.
pub(crate) type Routes = Box<dyn Fn(&Request, u64, &mut Vec<Stage>) -> Response + Send + Sync>;

/// What one kind of server runs on the shared runtime: its routes and
/// the names it reports under.
pub(crate) struct Role {
    pub(crate) names: &'static Names,
    /// `X-Ahntp-Backend` value on every response.
    pub(crate) backend: String,
    pub(crate) routes: Routes,
}

/// Binds `config.addr` and serves `role` there: one acceptor thread, a
/// pool of `config.workers` threads taking accepted connections over a
/// channel, and the keep-alive loop ([`Runtime::serve`]) on each.
pub(crate) fn start(role: Role, config: &ServeConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let log = role.names.log;
    let shutdown = Arc::new(AtomicBool::new(false));
    let runtime = Arc::new(Runtime {
        role,
        traces: TraceRing::new(config.trace_ring),
        shutdown: Arc::clone(&shutdown),
        waiting: AtomicUsize::new(0),
        read_timeout: config.read_timeout,
        deadline: config.deadline,
    });
    let (conn_tx, conn_rx) = mpsc::channel::<TcpStream>();
    let conn_rx = Arc::new(Mutex::new(conn_rx));

    let acceptor = {
        let runtime = Arc::clone(&runtime);
        std::thread::spawn(move || loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if runtime.shutdown.load(Ordering::SeqCst) {
                        break; // the wake-up connection, or late arrival
                    }
                    runtime.waiting.fetch_add(1, Ordering::SeqCst);
                    if conn_tx.send(stream).is_err() {
                        break;
                    }
                }
                Err(e) => {
                    if runtime.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    warn!(log, "accept failed: {e}");
                }
            }
        })
    };

    let workers: Vec<JoinHandle<()>> = (0..config.workers.max(1))
        .map(|_| {
            let conn_rx = Arc::clone(&conn_rx);
            let runtime = Arc::clone(&runtime);
            std::thread::spawn(move || loop {
                // Don't hold the receiver lock while serving a connection.
                let Ok(stream) = conn_rx.lock().expect("no worker panics holding it").recv() else {
                    return; // acceptor gone and channel drained
                };
                runtime.waiting.fetch_sub(1, Ordering::SeqCst);
                if let Err(e) = runtime.serve(stream) {
                    warn!(log, "connection dropped: {e}");
                }
            })
        })
        .collect();

    Ok(ServerHandle {
        addr,
        log,
        shutdown,
        acceptor: Some(acceptor),
        workers,
        batcher: None,
        applier: None,
    })
}

/// What every worker of one server shares.
struct Runtime {
    role: Role,
    /// The last requests served, behind `GET /debug/traces`.
    traces: TraceRing,
    shutdown: Arc<AtomicBool>,
    /// Accepted connections no worker has taken yet: the acceptor bumps
    /// it, the worker that takes one drops it.
    waiting: AtomicUsize,
    read_timeout: Duration,
    deadline: Duration,
}

impl Runtime {
    /// Serves one connection (keep-alive loop) until close, error, or
    /// shutdown.
    ///
    /// `read_timeout` is only the idle tick: between requests each tick
    /// checks for shutdown, and yields the worker (closing this idle
    /// connection) when another accepted connection is waiting for one.
    /// Once a request's first byte has arrived no tick interrupts it
    /// ([`RequestReader`]), and the whole request must arrive within
    /// `deadline` of that byte or the connection is closed.
    fn serve(&self, stream: TcpStream) -> io::Result<()> {
        stream.set_read_timeout(Some(self.read_timeout))?;
        // Responses are one small write each; Nagle + delayed ACK would
        // add ~40ms per exchange.
        stream.set_nodelay(true)?;
        let mut writer = stream.try_clone()?;
        let mut reader = BufReader::new(RequestReader {
            stream,
            deadline: self.deadline,
            started: None,
        });
        loop {
            match read_request(&mut reader) {
                Ok(Some(req)) => {
                    // Bytes already buffered open the next (pipelined)
                    // request.
                    reader.get_mut().started = (!reader.buffer().is_empty()).then(Instant::now);
                    if !self.answer(&req, &mut writer)? {
                        return Ok(());
                    }
                }
                Ok(None) => return Ok(()), // peer closed between requests
                Err(HttpError::Io(e)) if is_tick(&e) && reader.get_ref().started.is_none() => {
                    if self.shutdown.load(Ordering::SeqCst)
                        || self.waiting.load(Ordering::SeqCst) > 0
                    {
                        return Ok(());
                    }
                }
                Err(HttpError::Io(e)) => return Err(e),
                Err(HttpError::BadRequest(m)) => {
                    return self.reject(&mut writer, 400, "Bad Request", &m)
                }
                Err(HttpError::TooLarge) => {
                    return self.reject(&mut writer, 413, "Payload Too Large", "body too large")
                }
            }
        }
    }

    /// Answers a request that could not be read, closing the connection.
    fn reject(
        &self,
        writer: &mut TcpStream,
        status: u16,
        reason: &str,
        message: &str,
    ) -> io::Result<()> {
        counter_add(self.role.names.errors, 1);
        let body = Json::obj([("error", Json::from(message))]).to_line();
        let json = "application/json";
        write_response_with(writer, status, reason, json, &[], body.as_bytes(), false)
    }

    /// Answers one request and records it; returns whether the
    /// connection stays open.
    fn answer(&self, req: &Request, writer: &mut TcpStream) -> io::Result<bool> {
        let names = self.role.names;
        let started = Instant::now();
        let req_ts_us = trace_now_us();
        counter_add(names.requests, 1);
        let trace_id = ahntp_telemetry::next_trace_id();
        let mut stages: Vec<Stage> = Vec::new();
        let resp = {
            // Ambient id for any span opened while handling this request
            // on this thread (top-k scans, metrics, ...).
            let _scope = ahntp_telemetry::set_trace_id_scope(trace_id);
            self.route(req, trace_id, &mut stages)
        };
        if resp.status >= 400 {
            counter_add(names.errors, 1);
        }
        let mut headers: Vec<(&str, String)> = vec![
            ("X-Ahntp-Trace-Id", format!("{trace_id:016x}")),
            ("X-Ahntp-Backend", self.role.backend.clone()),
        ];
        if let Some(secs) = resp.retry_after {
            headers.push(("Retry-After", secs.to_string()));
        }
        // Finish the in-flight response even during shutdown, but don't
        // invite another request.
        let keep_alive = !req.wants_close() && !self.shutdown.load(Ordering::SeqCst);
        let (status, reason) = (resp.status, resp.reason);
        let (content_type, body) = match resp.text {
            Some((ct, text)) => (ct, text.into_bytes()),
            None => ("application/json", resp.body.to_line().into_bytes()),
        };
        write_response_with(writer, status, reason, content_type, &headers, &body, keep_alive)?;
        let us = started.elapsed().as_micros() as u64;
        histogram_record(names.latency, us);
        debug!(
            names.access_log,
            "{} {} {status} {us}us trace={trace_id:016x}",
            req.method,
            req.path
        );
        if ahntp_telemetry::trace_collecting() {
            // Request lane: one serve.request span with the stages nested
            // under the same (pid, tid).
            ahntp_telemetry::trace_complete_request("serve.request", req_ts_us, us, trace_id);
            for s in &stages {
                ahntp_telemetry::trace_complete_request(s.name, s.ts_us, s.dur_us, trace_id);
            }
        }
        self.traces.push(RequestTrace {
            trace_id,
            method: req.method.clone(),
            path: req.path.clone(),
            status,
            ts_us: req_ts_us,
            dur_us: us,
            stages,
        });
        Ok(keep_alive)
    }

    /// The observability endpoints every role answers; everything else
    /// goes to the role's routes.
    fn route(&self, req: &Request, trace_id: u64, stages: &mut Vec<Stage>) -> Response {
        match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/metrics") => match req.query.get("format").map(String::as_str) {
                Some("prometheus") => {
                    Response::text("text/plain; version=0.0.4", metrics_prometheus_text())
                }
                Some(other) => Response::error(
                    400,
                    "Bad Request",
                    &format!("unknown metrics format {other:?} (try \"prometheus\")"),
                ),
                None => Response::new(200, "OK", metrics_snapshot_json()),
            },
            ("GET", "/metrics/prometheus") => {
                Response::text("text/plain; version=0.0.4", metrics_prometheus_text())
            }
            // The last trace_ring requests with their stage timings.
            ("GET", "/debug/traces") => Response::new(200, "OK", self.traces.to_json()),
            // The live Chrome trace buffer (empty unless collection is on).
            ("GET", "/debug/trace.json") => {
                Response::new(200, "OK", ahntp_telemetry::chrome_trace_json())
            }
            (_, "/metrics" | "/metrics/prometheus" | "/debug/traces" | "/debug/trace.json") => {
                Response::error(405, "Method Not Allowed", "method not allowed")
            }
            _ => (self.role.routes)(req, trace_id, stages),
        }
    }
}

/// Whether a read error is the socket's read timeout firing.
fn is_tick(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// The socket under a connection's `BufReader`. Between requests a
/// read-timeout tick surfaces as an error so the loop can check for
/// shutdown; once a request's first byte has arrived, ticks are retried
/// (a head split across ticks is never torn) until `deadline` after that
/// byte, when the read fails with `TimedOut`.
struct RequestReader {
    stream: TcpStream,
    deadline: Duration,
    /// When the request being read began; `None` between requests.
    started: Option<Instant>,
}

impl Read for RequestReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            if self.started.is_some_and(|t| t.elapsed() >= self.deadline) {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "request not received within the deadline",
                ));
            }
            match self.stream.read(buf) {
                Ok(n) => {
                    if n > 0 {
                        self.started.get_or_insert_with(Instant::now);
                    }
                    return Ok(n);
                }
                Err(e) if self.started.is_some() && is_tick(&e) => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// Dispatches one request to its endpoint.
///
/// `GET /healthz` is answered inline without touching the batch queue:
/// liveness probes keep working while scoring is shedding, degraded, or
/// stalled.
fn route(
    req: &Request,
    ctx: &RequestCtx,
    trace_id: u64,
    stages: &mut Vec<Stage>,
) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/score") => score_endpoint(req, ctx, trace_id, stages),
        ("POST", "/events") => events_endpoint(req, ctx, trace_id, stages),
        ("POST", "/admin/swap") => swap_endpoint(req, ctx),
        ("GET", "/topk") => topk_endpoint(req, &ctx.index.read(), ctx.shard_range),
        ("GET", "/healthz") => {
            let index = ctx.index.read();
            let mut entries = vec![
                ("status", Json::from("ok")),
                ("model", index.model().into()),
                ("n_users", index.n_users().into()),
                // Hex string: u64 fingerprints don't fit in JSON's f64.
                ("fingerprint", format!("{:016x}", index.fingerprint()).into()),
                // Whether this server ingests live trust events.
                ("live", ctx.ingest.is_some().into()),
                // Active scoring backend and its stated envelope.
                ("backend", index.backend_name().into()),
                ("backend_bytes_per_user", index.bytes_per_user().into()),
                ("backend_score_error_bound", index.score_error_bound().into()),
                ("backend_approximate_topk", index.approximate_top_k().into()),
                // Whether the artifact is still a zero-copy mapped view.
                ("mapped", index.is_mapped().into()),
                // Whether served scores are Sybil-defense blended.
                ("defended", index.defended().into()),
            ];
            if let Some(defense) = index.defense() {
                entries.push(("defense_alpha", defense.alpha().into()));
            }
            // Shard servers advertise their owned trustee range so a
            // front tier can discover the cluster layout from /healthz.
            if let Some((lo, hi)) = ctx.shard_range {
                entries.push(("shard_lo", lo.into()));
                entries.push(("shard_hi", hi.into()));
            }
            Response::new(200, "OK", Json::obj(entries))
        }
        (_, "/score" | "/events" | "/admin/swap" | "/topk" | "/healthz") => {
            Response::error(405, "Method Not Allowed", "method not allowed")
        }
        _ => Response::error(404, "Not Found", "no such endpoint"),
    }
}

/// Reads `{"pairs": [[u, v], ...]}` out of a `/score` body (shared with
/// the sharded front tier, which re-groups pairs by owning shard).
pub(crate) fn parse_pairs(body: &[u8]) -> Result<Vec<(usize, usize)>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let doc = parse(text).map_err(|e| format!("body is not JSON: {e}"))?;
    let Some(Json::Arr(items)) = doc.get("pairs") else {
        return Err("body must be {\"pairs\": [[trustor, trustee], ...]}".to_string());
    };
    let as_user = |v: &Json| -> Result<usize, String> {
        match v.as_f64() {
            Some(n) if n >= 0.0 && n.fract() == 0.0 && n <= u32::MAX as f64 => Ok(n as usize),
            _ => Err(format!("user ids must be non-negative integers, got {}", v.to_line())),
        }
    };
    items
        .iter()
        .map(|item| match item {
            Json::Arr(pair) if pair.len() == 2 => {
                Ok((as_user(&pair[0])?, as_user(&pair[1])?))
            }
            other => Err(format!("each pair must be [trustor, trustee], got {}", other.to_line())),
        })
        .collect()
}

/// A load-shed answer: `503` + `Retry-After`, counted in `serve.shed`.
fn shed(ctx: &RequestCtx, message: &str) -> Response {
    counter_add("serve.shed", 1);
    Response::error(503, "Service Unavailable", message).retry_after(ctx.retry_after)
}

fn score_endpoint(
    req: &Request,
    ctx: &RequestCtx,
    trace_id: u64,
    stages: &mut Vec<Stage>,
) -> Response {
    let started = Instant::now();
    let parse_ts = trace_now_us();
    ahntp_faultz::failpoint!("serve.request", |_inj| Response::error(
        500,
        "Internal Server Error",
        "injected fault in request handling",
    ));
    let pairs = match parse_pairs(&req.body) {
        Ok(p) => p,
        Err(m) => return Response::error(400, "Bad Request", &m),
    };
    stages.push(Stage {
        name: "serve.parse",
        ts_us: parse_ts,
        dur_us: trace_now_us().saturating_sub(parse_ts),
    });
    // Chaos hook: pretend the queue rejected the job.
    ahntp_faultz::failpoint!("serve.enqueue", |_inj| shed(ctx, "scoring queue full"));
    let (reply_tx, reply_rx) = mpsc::channel();
    let enqueue_ts = trace_now_us();
    if !ctx.queue.push(ScoreJob { pairs, trace_id, reply: reply_tx }) {
        return shed(ctx, "scoring queue full");
    }
    let enqueued_us = trace_now_us();
    stages.push(Stage {
        name: "serve.enqueue",
        ts_us: enqueue_ts,
        dur_us: enqueued_us.saturating_sub(enqueue_ts),
    });
    // The deadline budget started when the request began parsing; wait
    // only for what is left of it.
    let remaining = ctx.deadline.saturating_sub(started.elapsed());
    let reply = reply_rx.recv_timeout(remaining);
    if let Ok(reply) = &reply {
        // Attribute the wait: queued until the batcher drained the job,
        // then scoring until the batch kernel finished.
        stages.push(Stage {
            name: "serve.queue.wait",
            ts_us: enqueued_us,
            dur_us: reply.picked_up_us.saturating_sub(enqueued_us),
        });
        stages.push(Stage {
            name: if reply.degraded { "serve.score.degraded" } else { "serve.score" },
            ts_us: reply.picked_up_us,
            dur_us: reply.scored_us.saturating_sub(reply.picked_up_us),
        });
    }
    match reply.map(|r| r.result) {
        Ok(Ok(scores)) => Response::new(
            200,
            "OK",
            Json::obj([
                (
                    "scores",
                    Json::Arr(scores.into_iter().map(Json::from).collect()),
                ),
                ("backend", ctx.backend.into()),
            ]),
        ),
        Ok(Err(e)) => Response::error(400, "Bad Request", &e.to_string()),
        Err(mpsc::RecvTimeoutError::Timeout) => {
            // The job may still complete inside the batcher; the reply
            // channel is simply dropped and its send ignored.
            counter_add("serve.deadline_exceeded", 1);
            Response::error(504, "Gateway Timeout", "scoring deadline exceeded")
                .retry_after(ctx.retry_after)
        }
        // Batcher went away mid-flight (shutdown race): overloaded-style
        // answer rather than a hung worker.
        Err(mpsc::RecvTimeoutError::Disconnected) => shed(ctx, "scoring backend stopped"),
    }
}

/// `POST /events`: parses a trust-event batch, hands it to the applier
/// thread, and reports what was applied. A partial failure (invalid
/// event, armed `stream.*` failpoint) answers `500` with the applied
/// prefix length; the index has still caught up with that prefix.
fn events_endpoint(
    req: &Request,
    ctx: &RequestCtx,
    trace_id: u64,
    stages: &mut Vec<Stage>,
) -> Response {
    let started = Instant::now();
    let parse_ts = trace_now_us();
    // Chaos hook: fail ingest before anything reaches the applier.
    ahntp_faultz::failpoint!("serve.ingest", |_inj| Response::error(
        500,
        "Internal Server Error",
        "injected fault in event ingest",
    ));
    let Some(ingest) = &ctx.ingest else {
        return Response::error(
            501,
            "Not Implemented",
            "this server serves a frozen artifact; start it with serve_live to ingest events",
        );
    };
    let text = match std::str::from_utf8(&req.body) {
        Ok(t) => t,
        Err(_) => return Response::error(400, "Bad Request", "body is not UTF-8"),
    };
    let events = match parse_events(text) {
        Ok(e) => e,
        Err(m) => return Response::error(400, "Bad Request", &m),
    };
    stages.push(Stage {
        name: "serve.parse",
        ts_us: parse_ts,
        dur_us: trace_now_us().saturating_sub(parse_ts),
    });
    let n_events = events.len();
    let (reply_tx, reply_rx) = mpsc::channel();
    let enqueue_ts = trace_now_us();
    if ingest.send(IngestJob { events, trace_id, reply: reply_tx }).is_err() {
        return shed(ctx, "ingest backend stopped");
    }
    let enqueued_us = trace_now_us();
    stages.push(Stage {
        name: "serve.enqueue",
        ts_us: enqueue_ts,
        dur_us: enqueued_us.saturating_sub(enqueue_ts),
    });
    let remaining = ctx.deadline.saturating_sub(started.elapsed());
    match reply_rx.recv_timeout(remaining) {
        Ok(reply) => {
            stages.push(Stage {
                name: "serve.ingest.wait",
                ts_us: enqueued_us,
                dur_us: reply.picked_up_us.saturating_sub(enqueued_us),
            });
            stages.push(Stage {
                name: "serve.ingest.apply",
                ts_us: reply.picked_up_us,
                dur_us: reply.done_us.saturating_sub(reply.picked_up_us),
            });
            let mut entries = vec![
                ("events", Json::from(n_events)),
                ("applied", Json::from(reply.applied)),
                ("affected_users", Json::from(reply.affected)),
                ("refreshed_users", Json::from(reply.refreshed)),
                ("dirty_users", Json::from(reply.dirty)),
            ];
            match reply.error {
                None => Response::new(200, "OK", Json::obj(entries)),
                Some(e) => {
                    entries.push(("error", Json::from(e)));
                    Response::new(500, "Internal Server Error", Json::obj(entries))
                }
            }
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            // The batch may still land; only this reply is abandoned.
            counter_add("serve.deadline_exceeded", 1);
            Response::error(504, "Gateway Timeout", "ingest deadline exceeded")
                .retry_after(ctx.retry_after)
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => shed(ctx, "ingest backend stopped"),
    }
}

/// `POST /admin/swap`: atomically replaces the served snapshot with one
/// opened (zero-copy when the frame is v2) from `{"path": "..."}`.
///
/// The new index is fully built — mapped/decoded, CRC-checked, validated,
/// backend constructed — *before* the write lock is taken, so in-flight
/// requests keep scoring the old snapshot throughout and a crash anywhere
/// before the final swap leaves the old snapshot serving. Refusals are
/// typed: `409` when the offered snapshot's fingerprint or shape
/// disagrees with the serving one, `422` when the file is torn or
/// corrupt (CRC/offsets-table failures surface here as errors, never
/// panics), `500` when the `shard.swap` failpoint injects a fault.
fn swap_endpoint(req: &Request, ctx: &RequestCtx) -> Response {
    ahntp_faultz::failpoint!("shard.swap", |_inj| Response::error(
        500,
        "Internal Server Error",
        "injected fault in snapshot swap",
    ));
    let text = match std::str::from_utf8(&req.body) {
        Ok(t) => t,
        Err(_) => return Response::error(400, "Bad Request", "body is not UTF-8"),
    };
    let doc = match parse(text) {
        Ok(d) => d,
        Err(e) => return Response::error(400, "Bad Request", &format!("body is not JSON: {e}")),
    };
    let Some(path) = doc.get("path").and_then(Json::as_str) else {
        return Response::error(400, "Bad Request", "body must be {\"path\": \"...\"}");
    };
    // Build outside the lock: the expensive part of the swap happens
    // while the old snapshot keeps serving.
    let new = match TrustIndex::open_with(path, ctx.backend_kind) {
        Ok(index) => index,
        Err(e) => {
            counter_add("serve.swap.errors", 1);
            return Response::error(
                422,
                "Unprocessable Entity",
                &format!("snapshot {path:?} unusable: {e}"),
            );
        }
    };
    let summary = Json::obj([
        ("swapped", true.into()),
        ("path", path.into()),
        ("fingerprint", format!("{:016x}", new.fingerprint()).into()),
        ("n_users", new.n_users().into()),
        ("mapped", new.is_mapped().into()),
        ("backend", ctx.backend.into()),
    ]);
    match ctx.index.swap(new) {
        Ok(()) => {
            info!("serve", "snapshot swapped in from {path:?}");
            Response::new(200, "OK", summary)
        }
        Err(e) => {
            counter_add("serve.swap.refused", 1);
            Response::error(409, "Conflict", &e.to_string())
        }
    }
}

/// The `user` and `k` (default 10) of a `/topk` request, or the `400` to
/// answer. Shared with the sharded front, which forwards both.
pub(crate) fn topk_query(req: &Request) -> Result<(usize, usize), Response> {
    let k = match req.query.get("k") {
        Some(_) => req.query_usize("k"),
        None => Ok(10),
    };
    req.query_usize("user")
        .and_then(|user| Ok((user, k?)))
        .map_err(|m| Response::error(400, "Bad Request", &m))
}

fn topk_endpoint(
    req: &Request,
    index: &TrustIndex,
    shard_range: Option<(usize, usize)>,
) -> Response {
    let (user, k) = match topk_query(req) {
        Ok(query) => query,
        Err(resp) => return resp,
    };
    // A shard scans only its owned trustee range (exact arithmetic, so a
    // front-tier merge reproduces the single-node exact scan bitwise); a
    // whole-space server scans through its configured backend.
    let result = match shard_range {
        Some((lo, hi)) => index.top_k_trustees_in(user, k, lo, hi),
        None => index.top_k_trustees(user, k),
    };
    match result {
        Ok(top) => Response::new(
            200,
            "OK",
            Json::obj([
                ("user", user.into()),
                (
                    "trustees",
                    Json::Arr(
                        top.into_iter()
                            .map(|(v, s)| {
                                Json::obj([("user", v.into()), ("score", s.into())])
                            })
                            .collect(),
                    ),
                ),
                ("backend", index.backend_name().into()),
            ]),
        ),
        Err(e) => Response::error(400, "Bad Request", &e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{format_request, read_response};
    use ahntp_nn::TrustArtifact;
    use std::io::Write;

    fn toy_index(n_users: usize) -> TrustIndex {
        // Unit rows at distinct angles around the circle.
        let row = |i: usize| {
            let a = i as f32 * 0.7;
            vec![a.cos(), a.sin()]
        };
        let artifact = TrustArtifact {
            model: "AHNTP".to_string(),
            fingerprint: 0xfeed_beef_0000_0001,
            calibration: 0.5,
            n_users,
            emb_dim: 2,
            head_dim: 2,
            embeddings: vec![0.0; n_users * 2].into(),
            trustor_head: (0..n_users).flat_map(row).collect(),
            trustee_head: (0..n_users).rev().flat_map(row).collect(),
        };
        TrustIndex::from_artifact(artifact).unwrap()
    }

    fn start(n_users: usize) -> ServerHandle {
        ahntp_telemetry::set_enabled(true);
        serve(
            toy_index(n_users),
            &ServeConfig {
                workers: 2,
                ..ServeConfig::default()
            },
        )
        .expect("bind 127.0.0.1:0")
    }

    /// Blocking one-shot HTTP exchange; returns (status, body).
    fn exchange(addr: SocketAddr, request: &str) -> (u16, String) {
        let (status, _, body) = exchange_with_headers(addr, request);
        (status, body)
    }

    fn post_score(addr: SocketAddr, body: &str) -> (u16, String) {
        exchange(addr, &format_request("POST", "/score", body, true))
    }

    #[test]
    fn score_endpoint_matches_the_index() {
        let server = start(6);
        let addr = server.addr();
        let index = toy_index(6);
        let (status, body) = post_score(addr, r#"{"pairs":[[0,1],[2,5],[3,3]]}"#);
        assert_eq!(status, 200, "{body}");
        let doc = parse(&body).unwrap();
        let Some(Json::Arr(scores)) = doc.get("scores") else {
            panic!("no scores in {body}");
        };
        let expected = index.score_pairs(&[(0, 1), (2, 5), (3, 3)]).unwrap();
        assert_eq!(scores.len(), expected.len());
        for (got, want) in scores.iter().zip(&expected) {
            let got = got.as_f64().unwrap();
            assert!((got - f64::from(*want)).abs() < 1e-6, "{got} vs {want}");
        }
        server.shutdown();
    }

    #[test]
    fn bad_requests_get_typed_errors() {
        let server = start(4);
        let addr = server.addr();
        let (status, body) = post_score(addr, "not json at all");
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("JSON"), "{body}");
        let (status, body) = post_score(addr, r#"{"pairs":[[0,99]]}"#);
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("out of range"), "{body}");
        let (status, _) = post_score(addr, r#"{"pairs":[[0,-1]]}"#);
        assert_eq!(status, 400);
        let (status, _) = exchange(addr, "GET /nope HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert_eq!(status, 404);
        let (status, _) = exchange(addr, "PUT /score HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert_eq!(status, 405);
        server.shutdown();
    }

    #[test]
    fn topk_healthz_and_metrics_respond() {
        let server = start(5);
        let addr = server.addr();
        let (status, body) =
            exchange(addr, "GET /topk?user=0&k=3 HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert_eq!(status, 200, "{body}");
        let doc = parse(&body).unwrap();
        let Some(Json::Arr(trustees)) = doc.get("trustees") else {
            panic!("no trustees in {body}");
        };
        assert_eq!(trustees.len(), 3);
        let expected = toy_index(5).top_k_trustees(0, 3).unwrap();
        for (item, (user, _)) in trustees.iter().zip(&expected) {
            assert_eq!(item.get("user").and_then(Json::as_f64), Some(*user as f64));
        }

        let (status, body) =
            exchange(addr, "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert_eq!(status, 200);
        let doc = parse(&body).unwrap();
        assert_eq!(doc.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(doc.get("n_users").and_then(Json::as_f64), Some(5.0));
        assert_eq!(
            doc.get("fingerprint").and_then(Json::as_str),
            Some("feedbeef00000001")
        );

        let (status, body) =
            exchange(addr, "GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert_eq!(status, 200);
        let doc = parse(&body).unwrap();
        // At least the requests we just made are visible.
        assert!(
            doc.get("serve.http.requests").and_then(Json::as_f64).unwrap_or(0.0) >= 2.0,
            "{body}"
        );
        server.shutdown();
    }

    #[test]
    fn keep_alive_serves_multiple_requests_per_connection() {
        let server = start(4);
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        for _ in 0..3 {
            stream
                .write_all(b"GET /healthz HTTP/1.1\r\n\r\n")
                .unwrap();
            let response = read_response(&mut BufReader::new(&stream)).unwrap();
            assert_eq!(response.status, 200, "{}", response.body);
        }
        server.shutdown();
    }

    #[test]
    fn shutdown_completes_inflight_requests() {
        let server = start(8);
        let addr = server.addr();
        // Hammer the server from several client threads while the main
        // thread shuts it down; every exchange must either complete with
        // 200/503 or fail at the socket level — never hang or panic.
        let clients: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut completed = 0usize;
                    for _ in 0..20 {
                        let mut stream = match TcpStream::connect(addr) {
                            Ok(s) => s,
                            Err(_) => break, // listener already closed
                        };
                        let body = r#"{"pairs":[[0,1],[2,3],[4,5]]}"#;
                        let req = format_request("POST", "/score", body, true);
                        if stream.write_all(req.as_bytes()).is_err() {
                            break;
                        }
                        // An error here includes a connection accepted
                        // but never served.
                        let Ok(response) = read_response(&mut BufReader::new(&stream)) else {
                            break;
                        };
                        assert!(
                            response.status == 200 || response.status == 503,
                            "unexpected response: {response:?}"
                        );
                        if response.status == 200 {
                            completed += 1;
                        }
                    }
                    completed
                })
            })
            .collect();
        // Let the clients get going, then pull the plug.
        std::thread::sleep(Duration::from_millis(30));
        server.shutdown();
        let total: usize = clients.into_iter().map(|c| c.join().unwrap()).sum();
        assert!(total > 0, "no request completed before shutdown");
    }

    #[test]
    fn full_queue_answers_503() {
        // Capacity-1 queue and a parked batcher thread can't be arranged
        // without hooks; instead stop the queue directly and check the
        // push path degrades to 503.
        let queue = BatchQueue::new(1);
        queue.stop();
        let (tx, _rx) = mpsc::channel();
        assert!(!queue.push(ScoreJob { pairs: vec![(0, 0)], trace_id: 1, reply: tx }));
    }

    /// Queues one job per pair list (trace ids 1, 2, ... in order) and
    /// stops the queue, so a batcher run afterwards drains it and exits:
    /// no timing is involved.
    fn stopped_queue(jobs: &[&[(usize, usize)]]) -> (BatchQueue, Vec<mpsc::Receiver<ScoreReply>>) {
        let queue = BatchQueue::new(jobs.len());
        let replies = (1..)
            .zip(jobs)
            .map(|(trace_id, pairs)| {
                let (reply, rx) = mpsc::channel();
                assert!(queue.push(ScoreJob {
                    pairs: pairs.to_vec(),
                    trace_id,
                    reply
                }));
                rx
            })
            .collect();
        queue.stop();
        (queue, replies)
    }

    /// The trace ids of each batch the queue hands the batcher.
    fn batches(queue: &BatchQueue, max_batch: usize) -> Vec<Vec<u64>> {
        std::iter::from_fn(|| queue.next_batch(max_batch))
            .map(|batch| batch.iter().map(|job| job.trace_id).collect())
            .collect()
    }

    /// Runs the batcher over `jobs` on `toy_index(n_users)` and returns
    /// each job's answer, checked to have arrived before the batcher
    /// exited.
    fn run_to_completion(
        n_users: usize,
        jobs: &[&[(usize, usize)]],
        max_batch: usize,
    ) -> Vec<Result<Vec<f32>, ScoreError>> {
        let (queue, replies) = stopped_queue(jobs);
        let index = SharedIndex::new(toy_index(n_users));
        std::thread::scope(|s| {
            s.spawn(|| run_batcher(&queue, &index, max_batch));
        });
        replies
            .iter()
            .map(|rx| {
                rx.try_recv()
                    .expect("answered before the batcher exited")
                    .result
            })
            .collect()
    }

    #[test]
    fn the_batcher_coalesces_whole_jobs_up_to_max_batch_in_fifo_order() {
        let jobs: [&[(usize, usize)]; 4] = [
            &[(0, 1), (1, 2), (2, 3)],
            &[(3, 4), (4, 5)],
            &[(5, 0)],
            &[(1, 1), (2, 2)],
        ];
        // 3 + 2 pairs fill a batch of 5; the next job would make it 6.
        let (queue, _replies) = stopped_queue(&jobs);
        assert_eq!(batches(&queue, 5), vec![vec![1, 2], vec![3, 4]]);
        let index = toy_index(6);
        let answers = run_to_completion(6, &jobs, 5);
        for (pairs, answer) in jobs.iter().zip(answers) {
            assert_eq!(answer, index.score_pairs(pairs));
        }
    }

    #[test]
    fn a_job_larger_than_max_batch_is_scored_alone() {
        let big: &[(usize, usize)] = &[(0, 1), (1, 2), (2, 3), (3, 4)];
        let jobs: [&[(usize, usize)]; 3] = [&[(0, 0)], big, &[(1, 0)]];
        let (queue, _replies) = stopped_queue(&jobs);
        assert_eq!(batches(&queue, 2), vec![vec![1], vec![2], vec![3]]);
        let index = toy_index(5);
        let answers = run_to_completion(5, &jobs, 2);
        assert_eq!(answers[1], index.score_pairs(big));
        assert_eq!(answers[1].as_ref().map(Vec::len), Ok(4));
    }

    #[test]
    fn stop_with_jobs_queued_answers_every_job_before_the_batcher_exits() {
        let pairs: Vec<[(usize, usize); 2]> = (0..20)
            .map(|i| [(i % 7, (i + 3) % 7), (i % 5, i % 7)])
            .collect();
        let jobs: Vec<&[(usize, usize)]> = pairs.iter().map(|p| p.as_slice()).collect();
        let index = toy_index(7);
        let answers = run_to_completion(7, &jobs, 8);
        assert_eq!(answers.len(), 20);
        for (pairs, answer) in jobs.iter().zip(answers) {
            assert_eq!(answer, index.score_pairs(pairs));
        }
    }

    #[test]
    fn an_out_of_range_id_errors_only_its_own_job() {
        let jobs: [&[(usize, usize)]; 3] = [&[(0, 1)], &[(0, 99)], &[(2, 3), (3, 1)]];
        let (queue, _replies) = stopped_queue(&jobs);
        assert_eq!(
            batches(&queue, 64),
            vec![vec![1, 2, 3]],
            "one coalesced batch"
        );
        let index = toy_index(4);
        let answers = run_to_completion(4, &jobs, 64);
        assert_eq!(answers[0], index.score_pairs(jobs[0]));
        assert_eq!(
            answers[1],
            Err(ScoreError::UserOutOfRange {
                user: 99,
                n_users: 4
            })
        );
        assert_eq!(answers[2], index.score_pairs(jobs[2]));
        assert!(answers[0].is_ok() && answers[2].is_ok());
    }

    fn score_request() -> Request {
        Request {
            method: "POST".to_string(),
            path: "/score".to_string(),
            query: std::collections::BTreeMap::new(),
            headers: std::collections::BTreeMap::new(),
            body: br#"{"pairs":[[0,1]]}"#.to_vec(),
        }
    }

    #[test]
    fn deadline_and_shed_responses_carry_retry_after() {
        ahntp_telemetry::set_enabled(true);
        // Capacity-1 queue with no batcher: the first job is accepted but
        // never answered (deadline path), which leaves the queue full so
        // the second job is shed.
        let ctx = RequestCtx {
            index: Arc::new(SharedIndex::new(toy_index(4))),
            queue: Arc::new(BatchQueue::new(1)),
            ingest: None,
            deadline: Duration::from_millis(20),
            retry_after: Duration::from_secs(2),
            backend: "exact",
            backend_kind: BackendKind::Exact,
            shard_range: None,
        };
        let deadline0 = ahntp_telemetry::counter_get("serve.deadline_exceeded");
        let shed0 = ahntp_telemetry::counter_get("serve.shed");
        let resp = score_endpoint(&score_request(), &ctx, 1, &mut Vec::new());
        assert_eq!(resp.status, 504, "{}", resp.body.to_line());
        assert_eq!(resp.retry_after, Some(2));
        assert!(ahntp_telemetry::counter_get("serve.deadline_exceeded") > deadline0);
        let resp = score_endpoint(&score_request(), &ctx, 2, &mut Vec::new());
        assert_eq!(resp.status, 503, "{}", resp.body.to_line());
        assert_eq!(resp.retry_after, Some(2));
        assert!(ahntp_telemetry::counter_get("serve.shed") > shed0);
    }

    #[test]
    fn healthz_bypasses_the_scoring_queue() {
        let queue = Arc::new(BatchQueue::new(1));
        queue.stop(); // scoring is completely dead...
        let ctx = RequestCtx {
            index: Arc::new(SharedIndex::new(toy_index(3))),
            queue,
            ingest: None,
            deadline: Duration::from_millis(5),
            retry_after: Duration::from_secs(1),
            backend: "exact",
            backend_kind: BackendKind::Exact,
            shard_range: None,
        };
        let req = Request {
            method: "GET".to_string(),
            path: "/healthz".to_string(),
            query: std::collections::BTreeMap::new(),
            headers: std::collections::BTreeMap::new(),
            body: Vec::new(),
        };
        let resp = route(&req, &ctx, 1, &mut Vec::new());
        assert_eq!(resp.status, 200, "...but liveness still answers");
        // While /score correctly sheds.
        let resp = route(&score_request(), &ctx, 2, &mut Vec::new());
        assert_eq!(resp.status, 503);
        assert_eq!(resp.retry_after, Some(1));
    }

    /// One-shot exchange that also returns the response headers.
    fn exchange_with_headers(
        addr: SocketAddr,
        request: &str,
    ) -> (u16, Vec<(String, String)>, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(request.as_bytes()).unwrap();
        let response = read_response(&mut BufReader::new(&stream)).unwrap();
        (response.status, response.headers.into_iter().collect(), response.body)
    }

    #[test]
    fn every_response_carries_a_trace_id_recorded_in_the_debug_ring() {
        let server = start(4);
        let addr = server.addr();
        let body = r#"{"pairs":[[0,1]]}"#;
        let request = format_request("POST", "/score", body, true);
        let (status, headers, _) = exchange_with_headers(addr, &request);
        assert_eq!(status, 200);
        let trace_id = headers
            .iter()
            .find(|(n, _)| n == "x-ahntp-trace-id")
            .map(|(_, v)| v.clone())
            .expect("X-Ahntp-Trace-Id header on every response");
        assert_eq!(trace_id.len(), 16, "hex wire format: {trace_id}");
        assert!(trace_id.chars().all(|c| c.is_ascii_hexdigit()));

        // The ring remembers the request, with its stage breakdown.
        let (status, body) =
            exchange(addr, "GET /debug/traces HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert_eq!(status, 200);
        let doc = parse(&body).unwrap();
        let Some(Json::Arr(traces)) = doc.get("traces") else {
            panic!("no traces in {body}");
        };
        let scored = traces
            .iter()
            .find(|t| t.get("path").and_then(Json::as_str) == Some("/score"))
            .expect("the /score request is in the ring");
        assert_eq!(scored.get("trace_id").and_then(Json::as_str), Some(trace_id.as_str()));
        let Some(Json::Arr(stages)) = scored.get("stages") else {
            panic!("no stages in {}", scored.to_line());
        };
        let names: Vec<_> = stages
            .iter()
            .filter_map(|s| s.get("name").and_then(Json::as_str).map(str::to_string))
            .collect();
        for want in ["serve.parse", "serve.enqueue", "serve.queue.wait", "serve.score"] {
            assert!(names.iter().any(|n| n == want), "missing {want} in {names:?}");
        }
        server.shutdown();
    }

    /// Satellite: the active backend is visible on the wire — `backend`
    /// JSON field on `/score`, `/topk`, `/healthz`, plus an
    /// `X-Ahntp-Backend` header on every response — and
    /// [`ServeConfig::backend`] actually switches it.
    #[test]
    fn responses_carry_the_active_backend() {
        ahntp_telemetry::set_enabled(true);
        for kind in [None, Some(BackendKind::Int8)] {
            let server = serve(
                toy_index(6),
                &ServeConfig { workers: 2, backend: kind, ..ServeConfig::default() },
            )
            .unwrap();
            let addr = server.addr();
            let want = kind.unwrap_or_default().name();

            let body = r#"{"pairs":[[0,1]]}"#;
            let request = format_request("POST", "/score", body, true);
            let (status, headers, body) = exchange_with_headers(addr, &request);
            assert_eq!(status, 200, "{body}");
            let header = headers
                .iter()
                .find(|(n, _)| n == "x-ahntp-backend")
                .map(|(_, v)| v.as_str())
                .expect("X-Ahntp-Backend header on every response");
            assert_eq!(header, want);
            let doc = parse(&body).unwrap();
            assert_eq!(doc.get("backend").and_then(Json::as_str), Some(want), "{body}");

            let (_, body) =
                exchange(addr, "GET /topk?user=0&k=2 HTTP/1.1\r\nConnection: close\r\n\r\n");
            let doc = parse(&body).unwrap();
            assert_eq!(doc.get("backend").and_then(Json::as_str), Some(want), "{body}");

            let (_, body) =
                exchange(addr, "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
            let doc = parse(&body).unwrap();
            assert_eq!(doc.get("backend").and_then(Json::as_str), Some(want), "{body}");
            assert!(
                doc.get("backend_bytes_per_user").and_then(Json::as_f64).unwrap_or(0.0) > 0.0,
                "{body}"
            );
            let bound = doc
                .get("backend_score_error_bound")
                .and_then(Json::as_f64)
                .expect("error bound in healthz");
            if kind.is_some() {
                assert!(bound > 0.0, "int8 must state a nonzero envelope: {body}");
            } else {
                assert_eq!(bound, 0.0, "{body}");
            }
            // The error paths carry the header too.
            let (status, headers, _) = exchange_with_headers(
                addr,
                "GET /nope HTTP/1.1\r\nConnection: close\r\n\r\n",
            );
            assert_eq!(status, 404);
            assert!(headers.iter().any(|(n, v)| n == "x-ahntp-backend" && v == want));
            server.shutdown();
        }
    }

    #[test]
    fn prometheus_and_debug_trace_endpoints_respond() {
        let server = start(4);
        let addr = server.addr();
        for path in ["/metrics/prometheus", "/metrics?format=prometheus"] {
            let (status, headers, body) = exchange_with_headers(
                addr,
                &format!("GET {path} HTTP/1.1\r\nConnection: close\r\n\r\n"),
            );
            assert_eq!(status, 200, "{path}: {body}");
            let ct = headers
                .iter()
                .find(|(n, _)| n == "content-type")
                .map(|(_, v)| v.as_str())
                .unwrap();
            assert!(ct.starts_with("text/plain"), "{path}: {ct}");
            assert!(body.contains("# TYPE serve_http_requests counter"), "{path}: {body}");
        }
        let (status, body) = exchange(
            addr,
            "GET /metrics?format=msgpack HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert_eq!(status, 400, "{body}");

        // /debug/trace.json always parses, even with collection off.
        let (status, body) =
            exchange(addr, "GET /debug/trace.json HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert_eq!(status, 200);
        let doc = parse(&body).unwrap();
        assert!(doc.get("traceEvents").is_some(), "{body}");
        server.shutdown();
    }

    use ahntp_hypergraph::HypergraphError;
    use ahntp_stream::AppliedEvent;

    /// Minimal live model: each user is an angle; adding an edge rotates
    /// its members by the edge weight. Weight-only events affect nobody,
    /// matching the real model's semantics.
    struct ToyLive {
        angles: Vec<f32>,
    }

    impl ToyLive {
        fn new(n: usize) -> ToyLive {
            ToyLive { angles: (0..n).map(|u| u as f32 * 0.9).collect() }
        }

        fn rows(&self, users: &[usize]) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
            let emb = users.iter().flat_map(|&u| [self.angles[u], 1.0]).collect();
            let trustor = users
                .iter()
                .flat_map(|&u| [self.angles[u].cos(), self.angles[u].sin()])
                .collect();
            let trustee = users
                .iter()
                .flat_map(|&u| [(self.angles[u] + 0.5).cos(), (self.angles[u] + 0.5).sin()])
                .collect();
            (emb, trustor, trustee)
        }
    }

    impl LiveTrustModel for ToyLive {
        fn n_users(&self) -> usize {
            self.angles.len()
        }

        fn apply_event(
            &mut self,
            event: &TrustEvent,
        ) -> Result<AppliedEvent, ahntp_stream::StreamError> {
            match event {
                TrustEvent::AddEdge { members, weight, .. } => {
                    let n = self.angles.len();
                    if let Some(&v) = members.iter().find(|&&m| m >= n) {
                        return Err(HypergraphError::VertexOutOfRange { vertex: v, n }.into());
                    }
                    let mut affected: Vec<usize> = members.clone();
                    affected.sort_unstable();
                    affected.dedup();
                    for &m in &affected {
                        self.angles[m] += weight;
                    }
                    Ok(AppliedEvent { affected_users: affected })
                }
                // Weight-only semantics: heads stay exact.
                _ => Ok(AppliedEvent::default()),
            }
        }

        fn refresh_heads(&self, users: &[usize]) -> HeadPatch {
            let (emb_rows, trustor_rows, trustee_rows) = self.rows(users);
            HeadPatch {
                users: users.to_vec(),
                emb_dim: 2,
                head_dim: 2,
                emb_rows,
                trustor_rows,
                trustee_rows,
            }
        }

        fn export_artifact(&self) -> TrustArtifact {
            let all: Vec<usize> = (0..self.angles.len()).collect();
            let (embeddings, trustor_head, trustee_head) = self.rows(&all);
            TrustArtifact {
                model: "TOY-LIVE".to_string(),
                fingerprint: 0x70f0_0000_0000_0001,
                calibration: 0.5,
                n_users: self.angles.len(),
                emb_dim: 2,
                head_dim: 2,
                embeddings: embeddings.into(),
                trustor_head: trustor_head.into(),
                trustee_head: trustee_head.into(),
            }
        }

        fn rebuild_artifact(&self) -> TrustArtifact {
            self.export_artifact()
        }
    }

    fn post_events(addr: SocketAddr, body: &str) -> (u16, String) {
        exchange(addr, &format_request("POST", "/events", body, true))
    }

    #[test]
    fn live_server_ingests_events_and_scores_from_the_patched_index() {
        ahntp_telemetry::set_enabled(true);
        let server = serve_live(
            || Box::new(ToyLive::new(5)),
            StalenessBound::immediate(),
            &ServeConfig { workers: 2, ..ServeConfig::default() },
        )
        .expect("bind live server");
        let addr = server.addr();

        let (status, body) =
            exchange(addr, "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert_eq!(status, 200);
        let doc = parse(&body).unwrap();
        assert_eq!(doc.get("live"), Some(&Json::Bool(true)), "{body}");

        let (status, body) = post_events(
            addr,
            r#"{"events":[{"op":"add","group":"node","members":[0,2],"weight":0.7}]}"#,
        );
        assert_eq!(status, 200, "{body}");
        let doc = parse(&body).unwrap();
        assert_eq!(doc.get("applied").and_then(Json::as_f64), Some(1.0), "{body}");
        assert_eq!(doc.get("affected_users").and_then(Json::as_f64), Some(2.0));
        assert_eq!(doc.get("refreshed_users").and_then(Json::as_f64), Some(2.0));
        assert_eq!(doc.get("dirty_users").and_then(Json::as_f64), Some(0.0));

        // The live index now answers with the mutated geometry: mirror
        // the event on a local model and compare.
        let mut mirror = ToyLive::new(5);
        mirror
            .apply_event(&TrustEvent::AddEdge {
                group: ahntp_stream::HyperGroup::Node,
                members: vec![0, 2],
                weight: 0.7,
            })
            .unwrap();
        let want = TrustIndex::from_artifact(mirror.export_artifact())
            .unwrap()
            .score_pairs(&[(0, 2), (2, 4), (1, 1)])
            .unwrap();
        let (status, body) = post_score(addr, r#"{"pairs":[[0,2],[2,4],[1,1]]}"#);
        assert_eq!(status, 200, "{body}");
        let doc = parse(&body).unwrap();
        let Some(Json::Arr(scores)) = doc.get("scores") else {
            panic!("no scores in {body}");
        };
        for (got, want) in scores.iter().zip(&want) {
            let got = got.as_f64().unwrap();
            assert!((got - f64::from(*want)).abs() < 1e-6, "{got} vs {want}");
        }

        // A malformed body is rejected before it reaches the applier.
        let (status, body) = post_events(addr, r#"{"events":[{"op":"levitate"}]}"#);
        assert_eq!(status, 400, "{body}");

        // An invalid event mid-batch: the prefix lands, the offender is
        // reported, and nothing after it applies.
        let (status, body) = post_events(
            addr,
            r#"{"events":[
                {"op":"add","group":"node","members":[1],"weight":0.1},
                {"op":"add","group":"node","members":[0,9],"weight":1.0},
                {"op":"add","group":"node","members":[3],"weight":9.9}
            ]}"#,
        );
        assert_eq!(status, 500, "{body}");
        let doc = parse(&body).unwrap();
        assert_eq!(doc.get("applied").and_then(Json::as_f64), Some(1.0), "{body}");
        assert!(
            doc.get("error").and_then(Json::as_str).unwrap_or("").contains("out of range"),
            "{body}"
        );
        // The mirror applies the same prefix; scores still agree.
        mirror
            .apply_event(&TrustEvent::AddEdge {
                group: ahntp_stream::HyperGroup::Node,
                members: vec![1],
                weight: 0.1,
            })
            .unwrap();
        let want = TrustIndex::from_artifact(mirror.export_artifact())
            .unwrap()
            .score(1, 3)
            .unwrap();
        let (status, body) = post_score(addr, r#"{"pairs":[[1,3]]}"#);
        assert_eq!(status, 200, "{body}");
        let got = parse(&body)
            .unwrap()
            .get("scores")
            .and_then(|s| match s {
                Json::Arr(a) => a[0].as_f64(),
                _ => None,
            })
            .unwrap();
        assert!((got - f64::from(want)).abs() < 1e-6, "{got} vs {want}");
        server.shutdown();
    }

    #[test]
    fn a_batched_staleness_bound_defers_refreshes_until_exceeded() {
        ahntp_telemetry::set_enabled(true);
        let server = serve_live(
            || Box::new(ToyLive::new(4)),
            StalenessBound::batched(2),
            &ServeConfig { workers: 1, ..ServeConfig::default() },
        )
        .expect("bind live server");
        let addr = server.addr();
        // Two events stay under the bound: applied but not refreshed.
        let (status, body) = post_events(
            addr,
            r#"{"events":[
                {"op":"add","group":"node","members":[0],"weight":0.3},
                {"op":"add","group":"node","members":[1],"weight":0.3}
            ]}"#,
        );
        assert_eq!(status, 200, "{body}");
        let doc = parse(&body).unwrap();
        assert_eq!(doc.get("refreshed_users").and_then(Json::as_f64), Some(0.0), "{body}");
        assert_eq!(doc.get("dirty_users").and_then(Json::as_f64), Some(2.0));
        // The third event exceeds max_pending_events = 2: everything
        // dirty refreshes in one patch.
        let (status, body) = post_events(
            addr,
            r#"{"events":[{"op":"add","group":"node","members":[2],"weight":0.3}]}"#,
        );
        assert_eq!(status, 200, "{body}");
        let doc = parse(&body).unwrap();
        assert_eq!(doc.get("refreshed_users").and_then(Json::as_f64), Some(3.0), "{body}");
        assert_eq!(doc.get("dirty_users").and_then(Json::as_f64), Some(0.0));
        server.shutdown();
    }

    #[test]
    fn events_on_a_frozen_server_answer_501() {
        let server = start(4);
        let addr = server.addr();
        let (status, body) =
            post_events(addr, r#"{"events":[{"op":"decay","factor":0.9}]}"#);
        assert_eq!(status, 501, "{body}");
        assert!(body.contains("serve_live"), "{body}");
        let (status, _) = exchange(addr, "GET /events HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert_eq!(status, 405);
        // And the frozen health check says so.
        let (status, body) =
            exchange(addr, "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert_eq!(status, 200);
        assert_eq!(parse(&body).unwrap().get("live"), Some(&Json::Bool(false)), "{body}");
        server.shutdown();
    }
}
