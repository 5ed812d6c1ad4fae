//! Scatter-gather serving over range-sharded shard servers.
//!
//! A *shard* is an ordinary [`crate::serve`] server started with
//! [`crate::ServeConfig::shard_range`] set: it maps the **full** artifact
//! (so `/score` answers any pair) but its `/topk` scans only the owned
//! contiguous trustee range, always with the exact scalar arithmetic. The
//! *front* started by [`serve_sharded`] discovers the shards through
//! their `/healthz` (fingerprints must agree, ranges must partition
//! `[0, n)`), then serves the same HTTP surface as a single node:
//!
//! * `POST /score` — pairs are validated against the cluster id space
//!   (same typed errors as a single node), grouped by the shard owning
//!   each trustee, scored in parallel, and reassembled in request order.
//! * `GET /topk` — fanned out to every shard; the per-shard heaps merge
//!   under the documented **(score desc, user id asc)** total order and
//!   truncate to `k`. Shard scans return global user ids and run the
//!   exact scalar kernel, and JSON numbers round-trip bit-exactly, so
//!   the merged body is **byte-identical** to the single-node exact
//!   backend's response — the invariant `tests/shard_exactness.rs`
//!   sweeps.
//! * `POST /admin/swap` — serialized through a front-level lock and
//!   forwarded to every shard; each shard builds the new snapshot before
//!   taking its write lock ([`crate::SharedIndex::swap`]), so reads never
//!   drop during a swap and a mismatched fingerprint is refused with
//!   `409` cluster-wide.
//! * `POST /events` — broadcast to every shard (each holds the full
//!   artifact, so live patches must land everywhere); the highest-status
//!   reply wins, surfacing any shard's failure.
//! * `GET /healthz` — aggregates shard health (`"ok"` / `"degraded"`),
//!   and `GET /metrics/shards` fans out to the shards' registries.
//!
//! # One runtime
//!
//! The front is a role of the same server, not a server of its own: it
//! runs on the runtime in [`crate::server`] (acceptor, worker pool,
//! keep-alive loop) and contributes only the routes above, its `front.*`
//! metric names, and the shards' backend for `X-Ahntp-Backend`. So it
//! answers `/metrics`, `/metrics/prometheus`, `/debug/traces` and
//! `/debug/trace.json` like a node, and [`serve_sharded`] returns a
//! [`ServerHandle`]. Shard replies are read with the crate's one response
//! parser, [`crate::http::read_response`].
//!
//! # Fault model
//!
//! Any shard unreachable (or the `shard.rpc` failpoint armed) makes
//! fan-out reads answer `503` + `Retry-After` *deterministically* — a
//! partial top-k merge would be silently wrong, so the front never
//! serves one. `tests/shard_chaos.rs` drives these paths.

use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::Duration;

use ahntp_telemetry::json::{parse, Json};
use ahntp_telemetry::{counter_add, info, warn};

use crate::http::{format_request, read_response, Request};
use crate::index::ScoreError;
use crate::server::{
    parse_pairs, start, topk_query, Names, Response, Role, ServeConfig, ServerHandle,
};

/// A front's handle: a [`ServerHandle`] like any other server's.
pub type ShardedHandle = ServerHandle;

/// The front's names: distinct from a node's, because a front and its
/// shards often share one process and so one metrics registry.
const FRONT: Names = Names {
    requests: "front.http.requests",
    errors: "front.http.errors",
    latency: "front.request.us",
    log: "front",
    access_log: "front.access",
};

/// One discovered shard: where it listens and which trustee ids it owns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardInfo {
    /// The shard server's address.
    pub addr: SocketAddr,
    /// First owned trustee id (inclusive).
    pub lo: usize,
    /// One past the last owned trustee id.
    pub hi: usize,
}

/// Splits `[0, n_users)` into `n_shards` contiguous, near-even ranges
/// (the first `n_users % n_shards` shards take one extra id). Use these
/// as the [`ServeConfig::shard_range`] of each shard server.
///
/// # Panics
///
/// Panics when `n_shards` is zero or exceeds `n_users` (an empty shard
/// range is invalid).
pub fn shard_ranges(n_users: usize, n_shards: usize) -> Vec<(usize, usize)> {
    assert!(n_shards > 0, "need at least one shard");
    assert!(
        n_shards <= n_users,
        "{n_shards} shards over {n_users} users would leave a shard empty"
    );
    let base = n_users / n_shards;
    let extra = n_users % n_shards;
    let mut ranges = Vec::with_capacity(n_shards);
    let mut lo = 0;
    for s in 0..n_shards {
        let hi = lo + base + usize::from(s < extra);
        ranges.push((lo, hi));
        lo = hi;
    }
    ranges
}

/// What the front learned from the shards at startup, shared (read-only
/// except the swap lock) by every front worker.
struct Front {
    shards: Vec<ShardInfo>,
    n_users: usize,
    model: String,
    fingerprint: String,
    backend: String,
    live: bool,
    rpc_timeout: Duration,
    retry_after: Duration,
    /// Serializes `/admin/swap` broadcasts: one cluster-wide swap at a
    /// time, so two concurrent swaps cannot interleave across shards.
    swap_lock: Mutex<()>,
}

impl Front {
    /// Which shard owns trustee id `v`. Ranges partition `[0, n_users)`
    /// (validated at startup), so this always resolves for valid ids.
    fn owner(&self, v: usize) -> usize {
        self.shards
            .iter()
            .position(|s| s.lo <= v && v < s.hi)
            .expect("ranges partition the id space")
    }
}

/// One blocking HTTP exchange with a shard. `Connection: close` per call:
/// correctness first — connection pooling is a measured optimization the
/// bench harness can motivate later.
///
/// # Errors
///
/// Socket-level failures (connect/read/write, including the `shard.rpc`
/// failpoint) — the caller maps these to a deterministic `503`.
fn rpc(addr: SocketAddr, request: &str, timeout: Duration) -> io::Result<(u16, String)> {
    ahntp_faultz::failpoint!("shard.rpc");
    counter_add("front.rpc.calls", 1);
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.set_nodelay(true)?;
    stream.write_all(request.as_bytes())?;
    let response = read_response(&mut BufReader::new(stream))?;
    Ok((response.status, response.body))
}

/// Queries every shard in parallel; index `i` of the result pairs with
/// `front.shards[i]`.
fn fan_out(front: &Front, request: &str) -> Vec<io::Result<(u16, String)>> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = front
            .shards
            .iter()
            .map(|shard| scope.spawn(move || rpc(shard.addr, request, front.rpc_timeout)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("rpc thread panicked")).collect()
    })
}

/// The deterministic degraded answer when any shard is unreachable:
/// `503` + `Retry-After`, naming the shard. Partial fan-out results are
/// never served.
fn shard_unavailable(front: &Front, shard: &ShardInfo, e: &io::Error) -> Response {
    counter_add("front.shard_unavailable", 1);
    warn!("front", "shard {} unreachable: {e}", shard.addr);
    Response::error(
        503,
        "Service Unavailable",
        &format!("shard {} (users [{}, {})) unavailable", shard.addr, shard.lo, shard.hi),
    )
    .retry_after(front.retry_after)
}

/// `POST /score` on the front: validate ids against the cluster id space
/// (byte-identical typed errors to a single node), group by the trustee's
/// owning shard, score in parallel, reassemble in request order.
fn front_score(req: &Request, front: &Front) -> Response {
    let pairs = match parse_pairs(&req.body) {
        Ok(p) => p,
        Err(m) => return Response::error(400, "Bad Request", &m),
    };
    // Mirror TrustIndex::score_pairs' validation order (trustor then
    // trustee, first offender wins) so error bodies match bitwise.
    for &(u, v) in &pairs {
        for user in [u, v] {
            if user >= front.n_users {
                let e = ScoreError::UserOutOfRange { user, n_users: front.n_users };
                return Response::error(400, "Bad Request", &e.to_string());
            }
        }
    }
    // Group pair positions by owning shard; relative order within a
    // group preserves request order, so reassembly is a scatter write.
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); front.shards.len()];
    for (i, &(_, v)) in pairs.iter().enumerate() {
        groups[front.owner(v)].push(i);
    }
    let replies = std::thread::scope(|scope| {
        let handles: Vec<_> = front
            .shards
            .iter()
            .zip(&groups)
            .map(|(shard, group)| {
                let pairs = &pairs;
                scope.spawn(move || {
                    if group.is_empty() {
                        return Ok(None);
                    }
                    let body = Json::obj([(
                        "pairs",
                        Json::Arr(
                            group
                                .iter()
                                .map(|&i| {
                                    Json::Arr(vec![pairs[i].0.into(), pairs[i].1.into()])
                                })
                                .collect(),
                        ),
                    )])
                    .to_line();
                    let request = format_request("POST", "/score", &body, true);
                    rpc(shard.addr, &request, front.rpc_timeout).map(Some)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rpc thread panicked"))
            .collect::<Vec<_>>()
    });
    let mut scores: Vec<Option<Json>> = vec![None; pairs.len()];
    for ((shard, group), reply) in front.shards.iter().zip(&groups).zip(replies) {
        let Some((status, body)) = (match reply {
            Ok(r) => r,
            Err(e) => return shard_unavailable(front, shard, &e),
        }) else {
            continue;
        };
        if status != 200 {
            // A shard-side refusal (shed, deadline, injected fault):
            // propagate the first one rather than serving partial scores.
            counter_add("front.shard_errors", 1);
            return passthrough(status, &body, front);
        }
        let doc = match parse(&body) {
            Ok(d) => d,
            Err(e) => return bad_gateway(shard, &format!("unparseable /score body: {e}")),
        };
        let Some(Json::Arr(got)) = doc.get("scores") else {
            return bad_gateway(shard, "no scores in /score body");
        };
        if got.len() != group.len() {
            return bad_gateway(shard, "shard returned a different number of scores");
        }
        for (&i, s) in group.iter().zip(got) {
            scores[i] = Some(s.clone());
        }
    }
    let scores: Vec<Json> = scores
        .into_iter()
        .map(|s| s.expect("every pair was grouped to exactly one shard"))
        .collect();
    Response::new(
        200,
        "OK",
        Json::obj([
            ("scores", Json::Arr(scores)),
            ("backend", front.backend.as_str().into()),
        ]),
    )
}

/// `GET /topk` on the front: fan out to every shard, merge the per-shard
/// candidate heaps under (score desc, user id asc), truncate to `k`.
fn front_topk(req: &Request, front: &Front) -> Response {
    let (user, k) = match topk_query(req) {
        Ok(query) => query,
        Err(resp) => return resp,
    };
    let path = format!("/topk?user={user}&k={k}");
    let replies = fan_out(front, &format_request("GET", &path, "", true));
    // (score f64, user id, the score's parsed Json for re-rendering).
    // f32→f64 is exact and the JSON renderer prints shortest-roundtrip
    // doubles, so sorting the parsed doubles and re-rendering them
    // reproduces the single-node body bytes.
    let mut merged: Vec<(f64, usize, Json)> = Vec::new();
    for (shard, reply) in front.shards.iter().zip(replies) {
        let (status, body) = match reply {
            Ok(r) => r,
            Err(e) => return shard_unavailable(front, shard, &e),
        };
        if status != 200 {
            counter_add("front.shard_errors", 1);
            return passthrough(status, &body, front);
        }
        let doc = match parse(&body) {
            Ok(d) => d,
            Err(e) => return bad_gateway(shard, &format!("unparseable /topk body: {e}")),
        };
        let Some(Json::Arr(trustees)) = doc.get("trustees") else {
            return bad_gateway(shard, "no trustees in /topk body");
        };
        for t in trustees {
            let (Some(v), Some(s)) = (
                t.get("user").and_then(Json::as_f64),
                t.get("score").and_then(Json::as_f64),
            ) else {
                return bad_gateway(shard, "malformed trustee entry");
            };
            let score = t.get("score").cloned().unwrap_or(Json::Null);
            merged.push((s, v as usize, score));
        }
    }
    // The documented tie-break across shard boundaries: score
    // descending, then user id ascending. Shard ids are global, so no
    // per-shard offset arithmetic happens here (or anywhere).
    merged.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    merged.truncate(k);
    Response::new(
        200,
        "OK",
        Json::obj([
            ("user", user.into()),
            (
                "trustees",
                Json::Arr(
                    merged
                        .into_iter()
                        .map(|(_, v, score)| {
                            Json::obj([("user", v.into()), ("score", score)])
                        })
                        .collect(),
                ),
            ),
            ("backend", front.backend.as_str().into()),
        ]),
    )
}

/// `POST /admin/swap` on the front: serialized broadcast; every shard
/// must accept. A refusal or failure surfaces with that shard named —
/// shards already swapped stay swapped (snapshots are compatible by
/// construction; the refusing shard is the operator's signal).
fn front_swap(req: &Request, front: &Front) -> Response {
    let _one_at_a_time = front.swap_lock.lock().expect("swap lock poisoned");
    let body = match std::str::from_utf8(&req.body) {
        Ok(t) => t,
        Err(_) => return Response::error(400, "Bad Request", "body is not UTF-8"),
    };
    let request = format_request("POST", "/admin/swap", body, true);
    let mut results = Vec::with_capacity(front.shards.len());
    for shard in &front.shards {
        let (status, reply) = match rpc(shard.addr, &request, front.rpc_timeout) {
            Ok(r) => r,
            Err(e) => return shard_unavailable(front, shard, &e),
        };
        if status != 200 {
            counter_add("front.swap.refused", 1);
            let error = parse(&reply)
                .ok()
                .and_then(|d| d.get("error").and_then(Json::as_str).map(str::to_string))
                .unwrap_or(reply);
            let (_, reason) = reason_for(status);
            return Response::new(
                status,
                reason,
                Json::obj([
                    ("error", error.into()),
                    ("shard", shard.addr.to_string().into()),
                ]),
            );
        }
        results.push(parse(&reply).unwrap_or(Json::Null));
    }
    counter_add("front.swap.ok", 1);
    info!("front", "snapshot swapped across {} shards", front.shards.len());
    Response::new(
        200,
        "OK",
        Json::obj([("swapped", true.into()), ("shards", Json::Arr(results))]),
    )
}

/// `POST /events` on the front: broadcast (every shard holds the full
/// artifact, so live patches must land on all of them); the
/// highest-status reply is returned so any shard's failure surfaces.
fn front_events(req: &Request, front: &Front) -> Response {
    let body = match std::str::from_utf8(&req.body) {
        Ok(t) => t,
        Err(_) => return Response::error(400, "Bad Request", "body is not UTF-8"),
    };
    let replies = fan_out(front, &format_request("POST", "/events", body, true));
    let mut worst: Option<(u16, String)> = None;
    for (shard, reply) in front.shards.iter().zip(replies) {
        let (status, body) = match reply {
            Ok(r) => r,
            Err(e) => return shard_unavailable(front, shard, &e),
        };
        if worst.as_ref().map_or(true, |(w, _)| status > *w) {
            worst = Some((status, body));
        }
    }
    let (status, body) = worst.expect("at least one shard");
    passthrough(status, &body, front)
}

/// `GET /healthz` on the front: aggregate shard health. Always `200` —
/// the front itself is alive — with `"status": "degraded"` when any
/// shard is down.
fn front_healthz(front: &Front) -> Response {
    let replies = fan_out(front, &format_request("GET", "/healthz", "", true));
    let mut all_ok = true;
    let shards: Vec<Json> = front
        .shards
        .iter()
        .zip(replies)
        .map(|(shard, reply)| {
            let status = match reply {
                Ok((200, _)) => "ok",
                Ok(_) => {
                    all_ok = false;
                    "unhealthy"
                }
                Err(_) => {
                    all_ok = false;
                    "down"
                }
            };
            Json::obj([
                ("addr", shard.addr.to_string().into()),
                ("lo", shard.lo.into()),
                ("hi", shard.hi.into()),
                ("status", status.into()),
            ])
        })
        .collect();
    Response::new(
        200,
        "OK",
        Json::obj([
            ("status", if all_ok { "ok" } else { "degraded" }.into()),
            ("model", front.model.as_str().into()),
            ("n_users", front.n_users.into()),
            ("fingerprint", front.fingerprint.as_str().into()),
            ("live", front.live.into()),
            ("backend", front.backend.as_str().into()),
            ("sharded", true.into()),
            ("shards", Json::Arr(shards)),
        ]),
    )
}

/// `GET /metrics/shards`: every shard's metrics registry, labeled.
fn front_shard_metrics(front: &Front) -> Response {
    let replies = fan_out(front, &format_request("GET", "/metrics", "", true));
    let shards: Vec<Json> = front
        .shards
        .iter()
        .zip(replies)
        .map(|(shard, reply)| {
            let metrics = match reply {
                Ok((200, body)) => parse(&body).unwrap_or(Json::Null),
                _ => Json::Null,
            };
            Json::obj([
                ("addr", shard.addr.to_string().into()),
                ("metrics", metrics),
            ])
        })
        .collect();
    Response::new(200, "OK", Json::obj([("shards", Json::Arr(shards))]))
}

/// Maps a status code to its canonical reason phrase for passthrough.
fn reason_for(status: u16) -> (u16, &'static str) {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Upstream Status",
    };
    (status, reason)
}

/// Forwards a shard reply as the front's own response, re-rendering the
/// parsed JSON (bit-exact for numeric payloads).
fn passthrough(status: u16, body: &str, front: &Front) -> Response {
    let (status, reason) = reason_for(status);
    let doc = parse(body).unwrap_or_else(|_| Json::obj([("error", body.into())]));
    let resp = Response::new(status, reason, doc);
    if status == 503 || status == 504 {
        resp.retry_after(front.retry_after)
    } else {
        resp
    }
}

/// A shard reply the front cannot make sense of: `502`, naming the shard.
fn bad_gateway(shard: &ShardInfo, message: &str) -> Response {
    counter_add("front.shard_errors", 1);
    Response::error(
        502,
        "Bad Gateway",
        &format!("shard {}: {message}", shard.addr),
    )
}

fn front_route(req: &Request, front: &Front) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/score") => front_score(req, front),
        ("GET", "/topk") => front_topk(req, front),
        ("POST", "/admin/swap") => front_swap(req, front),
        ("POST", "/events") => front_events(req, front),
        ("GET", "/healthz") => front_healthz(front),
        ("GET", "/metrics/shards") => front_shard_metrics(front),
        (_, "/score" | "/topk" | "/admin/swap" | "/events" | "/healthz" | "/metrics/shards") => {
            Response::error(405, "Method Not Allowed", "method not allowed")
        }
        _ => Response::error(404, "Not Found", "no such endpoint"),
    }
}

/// Discovers one shard through its `/healthz`.
fn discover(addr: SocketAddr, timeout: Duration) -> io::Result<(ShardInfo, Json)> {
    let (status, body) = rpc(addr, &format_request("GET", "/healthz", "", true), timeout)?;
    if status != 200 {
        return Err(io::Error::other(format!("shard {addr} /healthz answered {status}")));
    }
    let doc = parse(&body)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("shard {addr}: {e}")))?;
    let n_users = doc.get("n_users").and_then(Json::as_f64).unwrap_or(0.0) as usize;
    // A shard without an explicit range owns the whole id space (a
    // one-shard cluster over a plain server works).
    let lo = doc.get("shard_lo").and_then(Json::as_f64).unwrap_or(0.0) as usize;
    let hi = doc.get("shard_hi").and_then(Json::as_f64).unwrap_or(n_users as f64) as usize;
    Ok((ShardInfo { addr, lo, hi }, doc))
}

/// Starts the scatter-gather front tier over already-running shard
/// servers (see the module docs for the serving surface).
///
/// Discovery runs once at startup: every shard's `/healthz` must answer,
/// all fingerprints / models / backends / `n_users` must agree, and the
/// advertised ranges must partition `[0, n_users)` exactly — a cluster
/// whose shards could disagree on a single byte of a response is refused
/// before it serves anything.
///
/// The [`ServeConfig`] knobs a front uses: `addr`, `workers`,
/// `read_timeout`, `retry_after`, `trace_ring`, and `deadline` (which
/// also bounds each RPC to a shard). Scoring knobs are unused — the front
/// does not score.
///
/// # Errors
///
/// Binding failures, unreachable shards, and layout validation failures.
pub fn serve_sharded(shards: &[SocketAddr], config: &ServeConfig) -> io::Result<ServerHandle> {
    if shards.is_empty() {
        return Err(io::Error::new(io::ErrorKind::InvalidInput, "no shards given"));
    }
    let rpc_timeout = config.deadline;
    let mut infos: Vec<(ShardInfo, Json)> = Vec::with_capacity(shards.len());
    for &addr in shards {
        infos.push(discover(addr, rpc_timeout)?);
    }
    // Cluster-wide invariants: identical snapshot everywhere.
    let field = |doc: &Json, name: &str| -> String {
        doc.get(name).and_then(Json::as_str).unwrap_or("").to_string()
    };
    let first = &infos[0].1;
    let (model, fingerprint, backend) =
        (field(first, "model"), field(first, "fingerprint"), field(first, "backend"));
    let n_users = first.get("n_users").and_then(Json::as_f64).unwrap_or(0.0) as usize;
    let live = first.get("live") == Some(&Json::Bool(true));
    for (info, doc) in &infos {
        for (name, want) in
            [("model", &model), ("fingerprint", &fingerprint), ("backend", &backend)]
        {
            let got = field(doc, name);
            if &got != want {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("shard {} {name} {got:?} != {want:?}", info.addr),
                ));
            }
        }
        let got = doc.get("n_users").and_then(Json::as_f64).unwrap_or(0.0) as usize;
        if got != n_users {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("shard {} holds {got} users, expected {n_users}", info.addr),
            ));
        }
    }
    // Ranges must partition [0, n_users) with no gap or overlap.
    let mut layout: Vec<ShardInfo> = infos.into_iter().map(|(i, _)| i).collect();
    layout.sort_by_key(|s| s.lo);
    let mut expect = 0usize;
    for shard in &layout {
        if shard.lo != expect || shard.hi <= shard.lo {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "shard ranges do not partition [0, {n_users}): shard {} owns [{}, {})\
                     but [{expect}, ..) is next",
                    shard.addr, shard.lo, shard.hi
                ),
            ));
        }
        expect = shard.hi;
    }
    if expect != n_users {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("shard ranges cover [0, {expect}) but the index holds {n_users} users"),
        ));
    }

    let front = Front {
        shards: layout,
        n_users,
        model,
        fingerprint,
        backend,
        live,
        rpc_timeout,
        retry_after: config.retry_after,
        swap_lock: Mutex::new(()),
    };
    let summary = format!(
        "over {} shards ({} users, {} backend)",
        front.shards.len(),
        front.n_users,
        front.backend
    );
    let role = Role {
        names: &FRONT,
        backend: front.backend.clone(),
        routes: Box::new(move |req, _, _| front_route(req, &front)),
    };
    let handle = start(role, config)?;
    info!(
        "front",
        "scatter-gather front on {} {summary}",
        handle.addr()
    );
    Ok(handle)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_ranges_partition_evenly() {
        assert_eq!(shard_ranges(10, 1), vec![(0, 10)]);
        assert_eq!(shard_ranges(10, 2), vec![(0, 5), (5, 10)]);
        // 10 = 4 + 3 + 3: the remainder lands on the first shards.
        assert_eq!(shard_ranges(10, 3), vec![(0, 4), (4, 7), (7, 10)]);
        assert_eq!(
            shard_ranges(7, 7),
            (0..7).map(|i| (i, i + 1)).collect::<Vec<_>>()
        );
        // Every split partitions exactly.
        for n in [1usize, 5, 24, 1000] {
            for s in 1..=n.min(9) {
                let ranges = shard_ranges(n, s);
                assert_eq!(ranges.len(), s);
                assert_eq!(ranges[0].0, 0);
                assert_eq!(ranges[s - 1].1, n);
                for w in ranges.windows(2) {
                    assert_eq!(w[0].1, w[1].0, "contiguous");
                }
                let sizes: Vec<usize> = ranges.iter().map(|(lo, hi)| hi - lo).collect();
                let (min, max) =
                    (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(max - min <= 1, "near-even: {sizes:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "leave a shard empty")]
    fn more_shards_than_users_is_refused() {
        let _ = shard_ranges(3, 4);
    }

    #[test]
    fn reason_phrases_cover_passthrough_statuses() {
        for status in [200, 400, 409, 422, 500, 501, 503, 504] {
            let (s, reason) = reason_for(status);
            assert_eq!(s, status);
            assert!(!reason.is_empty());
        }
        assert_eq!(reason_for(418).1, "Upstream Status");
    }
}
