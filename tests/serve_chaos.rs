//! Chaos suite for the serving stack: armed failpoints (`ahntp-faultz`)
//! inject delays, errors, and queue rejections into a live server, and
//! every failure mode must stay inside the fault-tolerance contract —
//! shed requests answer `503` with `Retry-After`, slow batches never hang
//! a client past the per-request deadline (`504` + `Retry-After`), the
//! batcher degrades to per-pair scoring instead of failing, `/healthz`
//! stays live throughout, and the metrics snapshot accounts for every
//! injected event.
//!
//! Failpoints are process-global, so every test serializes on a
//! file-local gate.

use ahntp_bench::loadgen::{http_request, run_load, LoadConfig};
use ahntp_faultz::{self as faultz, Action, FaultSpec};
use ahntp_serve::http::{format_request, read_response};
use ahntp_serve::{serve, ServeConfig, ServerHandle, TrustIndex};
use ahntp_telemetry::json::{parse, Json};
use std::collections::BTreeMap;
use std::io::{BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

static GATE: Mutex<()> = Mutex::new(());

const N_USERS: usize = 16;

fn toy_index() -> TrustIndex {
    let row = |i: usize| {
        let a = i as f32 * 0.7;
        vec![a.cos(), a.sin()]
    };
    let artifact = ahntp_nn::TrustArtifact {
        model: "AHNTP".to_string(),
        fingerprint: 0xfeed_beef_0000_0002,
        calibration: 0.5,
        n_users: N_USERS,
        emb_dim: 2,
        head_dim: 2,
        embeddings: vec![0.0; N_USERS * 2].into(),
        trustor_head: (0..N_USERS).flat_map(row).collect(),
        trustee_head: (0..N_USERS).rev().flat_map(row).collect(),
    };
    TrustIndex::from_artifact(artifact).expect("toy artifact is valid")
}

fn start(deadline: Duration) -> ServerHandle {
    ahntp_telemetry::set_enabled(true);
    serve(
        toy_index(),
        &ServeConfig {
            workers: 2,
            deadline,
            retry_after: Duration::from_secs(2),
            ..ServeConfig::default()
        },
    )
    .expect("bind loopback")
}

/// One-shot HTTP exchange that also captures response headers
/// (lower-cased names) — `http_request` in the loadgen drops them.
fn exchange(addr: SocketAddr, request: &str) -> (u16, BTreeMap<String, String>, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(request.as_bytes()).expect("send");
    let response = read_response(&mut BufReader::new(&stream)).expect("response");
    (response.status, response.headers, response.body)
}

fn post_score(addr: SocketAddr, body: &str) -> (u16, BTreeMap<String, String>, String) {
    exchange(addr, &format_request("POST", "/score", body, true))
}

fn get(addr: SocketAddr, path: &str) -> (u16, BTreeMap<String, String>, String) {
    exchange(
        addr,
        &format!("GET {path} HTTP/1.1\r\nConnection: close\r\n\r\n"),
    )
}

fn metric(addr: SocketAddr, name: &str) -> f64 {
    let (status, _, body) = get(addr, "/metrics");
    assert_eq!(status, 200, "{body}");
    parse(&body)
        .expect("metrics JSON")
        .get(name)
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// A batch delay far past the deadline: the client gets `504` +
/// `Retry-After` within the deadline budget instead of hanging, and
/// `/healthz` (which never touches the queue) stays live throughout.
#[test]
fn injected_batch_delay_never_hangs_a_client_past_the_deadline() {
    let _gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    let server = start(Duration::from_millis(100));
    let addr = server.addr();
    let _fault = faultz::scoped("serve.batch", FaultSpec::new(Action::Delay(400)));

    let started = Instant::now();
    let (status, headers, body) = post_score(addr, r#"{"pairs":[[0,1]]}"#);
    let elapsed = started.elapsed();
    assert_eq!(status, 504, "{body}");
    assert_eq!(headers.get("retry-after").map(String::as_str), Some("2"));
    assert!(body.contains("deadline"), "{body}");
    assert!(
        elapsed < Duration::from_millis(350),
        "client waited {elapsed:?} — past the 100ms deadline and into the injected delay"
    );

    // Liveness is queue-independent: healthz answers while scoring stalls.
    let (status, _, body) = get(addr, "/healthz");
    assert_eq!(status, 200, "{body}");

    assert!(metric(addr, "serve.deadline_exceeded") >= 1.0);
    assert!(metric(addr, "faultz.triggered") >= 1.0);
    server.shutdown();
}

/// An erroring batch kernel degrades to per-pair scoring: clients still
/// get correct `200` answers, and `serve.degraded` counts the fallback.
#[test]
fn injected_batch_error_degrades_to_per_pair_scoring() {
    let _gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    let server = start(Duration::from_secs(2));
    let addr = server.addr();
    let degraded_before = metric(addr, "serve.degraded");
    let _fault = faultz::scoped("serve.batch", FaultSpec::new(Action::Err));

    let (status, _, body) = post_score(addr, r#"{"pairs":[[0,1],[2,5],[3,3]]}"#);
    assert_eq!(status, 200, "degraded mode must still answer: {body}");
    let doc = parse(&body).expect("score JSON");
    let Some(Json::Arr(scores)) = doc.get("scores") else {
        panic!("no scores in {body}");
    };
    let index = toy_index();
    let expected = index.score_pairs(&[(0, 1), (2, 5), (3, 3)]).unwrap();
    assert_eq!(scores.len(), expected.len());
    for (got, want) in scores.iter().zip(&expected) {
        let got = got.as_f64().unwrap();
        assert!(
            (got - f64::from(*want)).abs() < 1e-6,
            "degraded score {got} vs batched {want}"
        );
    }
    assert!(metric(addr, "serve.degraded") > degraded_before);
    server.shutdown();
}

/// A rejected enqueue sheds the request: `503` + `Retry-After`, counted
/// in `serve.shed`, with `/healthz` unaffected.
#[test]
fn injected_enqueue_rejection_sheds_with_retry_after() {
    let _gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    let server = start(Duration::from_secs(2));
    let addr = server.addr();
    let shed_before = metric(addr, "serve.shed");
    let _fault = faultz::scoped("serve.enqueue", FaultSpec::new(Action::Err));

    let (status, headers, body) = post_score(addr, r#"{"pairs":[[0,1]]}"#);
    assert_eq!(status, 503, "{body}");
    assert_eq!(headers.get("retry-after").map(String::as_str), Some("2"));
    assert!(body.contains("queue full"), "{body}");
    let (status, _, _) = get(addr, "/healthz");
    assert_eq!(status, 200);
    assert!(metric(addr, "serve.shed") > shed_before);
    server.shutdown();
}

/// An `nth`-gated request fault fires exactly once: the first request
/// answers `500`, the next is served normally, and the per-site counter
/// records exactly one trigger.
#[test]
fn nth_gated_request_fault_fires_exactly_once() {
    let _gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    let server = start(Duration::from_secs(2));
    let addr = server.addr();
    let triggered_before = metric(addr, "faultz.serve.request.triggered");
    let _fault = faultz::scoped("serve.request", FaultSpec::new(Action::Err).on_nth(1));

    let (status, _, body) = post_score(addr, r#"{"pairs":[[0,1]]}"#);
    assert_eq!(status, 500, "{body}");
    assert!(body.contains("injected"), "{body}");
    let (status, _, body) = post_score(addr, r#"{"pairs":[[0,1]]}"#);
    assert_eq!(status, 200, "second request must be clean: {body}");
    assert_eq!(
        metric(addr, "faultz.serve.request.triggered") - triggered_before,
        1.0,
        "the nth(1) gate must fire exactly once"
    );
    server.shutdown();
}

/// Socket-fault injection: an armed `serve.read` drops connections (the
/// worker treats it as an I/O failure) without wedging the server — once
/// disarmed, the same server serves normally again.
#[test]
fn injected_read_faults_drop_connections_but_not_the_server() {
    let _gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    let server = start(Duration::from_secs(2));
    let addr = server.addr();
    {
        let _fault = faultz::scoped("serve.read", FaultSpec::new(Action::Err));
        // The worker aborts the connection before reading the request;
        // the client sees EOF instead of a response.
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
            .expect("send");
        let mut response = String::new();
        let _ = BufReader::new(&stream).read_to_string(&mut response);
        assert!(
            response.is_empty(),
            "connection should have been dropped, got {response:?}"
        );
    }
    // Disarmed: the same server answers again.
    let (status, _, _) = get(addr, "/healthz");
    assert_eq!(status, 200, "server must survive injected read faults");
    server.shutdown();
}

/// The loadgen under a 10ms injected batch delay: every request is
/// answered (completed or failed, never hung), and the run finishes in
/// bounded time. Prints baseline-vs-chaos numbers for EXPERIMENTS.md.
#[test]
fn loadgen_under_injected_delay_answers_every_request() {
    let _gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    let cfg = LoadConfig {
        connections: 3,
        requests_per_connection: 25,
        pairs_per_request: 4,
        n_users: N_USERS,
    };
    let total = cfg.connections * cfg.requests_per_connection;

    let server = start(Duration::from_millis(200));
    let baseline = run_load(server.addr(), &cfg);
    server.shutdown();
    assert_eq!(baseline.completed + baseline.failed, total);

    let server = start(Duration::from_millis(200));
    let addr = server.addr();
    let chaos = {
        let _fault = faultz::scoped("serve.batch", FaultSpec::new(Action::Delay(10)));
        run_load(addr, &cfg)
    };
    let deadline_exceeded = metric(addr, "serve.deadline_exceeded");
    let shed = metric(addr, "serve.shed");
    server.shutdown();
    assert_eq!(
        chaos.completed + chaos.failed,
        total,
        "every request must be answered under injected delay"
    );
    // With a 10ms delay per batch and a 200ms deadline, most requests
    // still complete; the rest must be accounted for as deadline/shed.
    assert!(
        chaos.completed > 0,
        "nothing completed under a 10ms delay: {}",
        chaos.summary()
    );
    println!("baseline: {}", baseline.summary());
    println!("delay(10): {}", chaos.summary());
    println!("deadline_exceeded={deadline_exceeded} shed={shed}");

    // A clean one-shot request after all chaos: the stack is still whole.
    let server = start(Duration::from_secs(2));
    let mut conn = TcpStream::connect(server.addr()).expect("connect");
    let (status, body) = http_request(&mut conn, "POST", "/score", r#"{"pairs":[[1,2]]}"#)
        .expect("clean request");
    assert_eq!(status, 200, "{body}");
    server.shutdown();
}

/// A request head split by a pause longer than the read-timeout tick is
/// still one request: the tick only polls idle connections, and never
/// discards the bytes of a request in progress.
#[test]
fn a_head_split_across_read_timeout_ticks_is_answered() {
    let _gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    let server = start(Duration::from_secs(2));
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\n")
        .expect("first half");
    std::thread::sleep(Duration::from_millis(150));
    stream
        .write_all(b"Connection: close\r\n\r\n")
        .expect("second half");
    let response = read_response(&mut BufReader::new(&stream)).expect("response");
    assert_eq!(response.status, 200, "{}", response.body);
    server.shutdown();
}

/// A drip-fed head ("slowloris") holds its worker only until the
/// deadline: the connection is cut within the deadline plus one
/// read-timeout tick, and the next client of a one-worker server is
/// answered after that.
#[test]
fn a_drip_fed_head_is_cut_off_at_the_deadline() {
    let _gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    let deadline = Duration::from_millis(300);
    let config = ServeConfig {
        workers: 1,
        deadline,
        ..ServeConfig::default()
    };
    let server = serve(toy_index(), &config).expect("bind loopback");
    let addr = server.addr();

    let mut slow = TcpStream::connect(addr).expect("connect");
    slow.set_read_timeout(Some(Duration::from_millis(20)))
        .expect("client timeout");
    slow.write_all(b"GET /healthz HTTP/1.1\r\nX-Drip: ")
        .expect("head start");
    let started = Instant::now();
    let next = std::thread::spawn(move || {
        let (status, _, _) = get(addr, "/healthz");
        (status, started.elapsed())
    });
    // One byte per client tick until the server hangs up (EOF or reset),
    // giving up after 3 s.
    let cut = loop {
        if started.elapsed() > Duration::from_secs(3) {
            break None;
        }
        match slow.read(&mut [0u8; 1]) {
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            _ => break Some(started.elapsed()),
        }
        if slow.write_all(b"a").is_err() {
            break Some(started.elapsed());
        }
    };
    drop(slow);
    let cut = cut.expect("the drip-fed connection was never cut off");
    let bound = deadline + config.read_timeout + Duration::from_millis(250);
    assert!(cut <= bound, "cut off after {cut:?}, bound {bound:?}");
    let (status, answered) = next.join().expect("second client");
    assert_eq!(status, 200);
    assert!(
        answered <= cut + Duration::from_secs(1),
        "second client answered {answered:?} in, cut off at {cut:?}"
    );
    server.shutdown();
}

/// Idle keep-alive connections do not pin workers: with both workers of
/// the server holding an idle client, a third client is still answered
/// within a second.
#[test]
fn idle_keep_alive_clients_yield_their_workers() {
    let _gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    let server = start(Duration::from_secs(2));
    let addr = server.addr();
    let idle: Vec<TcpStream> = (0..2)
        .map(|_| {
            let mut conn = TcpStream::connect(addr).expect("connect");
            let (status, body) = http_request(&mut conn, "GET", "/healthz", "").expect("healthz");
            assert_eq!(status, 200, "{body}");
            conn
        })
        .collect();
    let mut third = TcpStream::connect(addr).expect("connect");
    third
        .set_read_timeout(Some(Duration::from_secs(1)))
        .expect("client timeout");
    third
        .write_all(format_request("GET", "/healthz", "", true).as_bytes())
        .expect("send");
    let response =
        read_response(&mut BufReader::new(&third)).expect("third client answered within 1 s");
    assert_eq!(response.status, 200, "{}", response.body);
    drop(idle);
    server.shutdown();
}

/// A lone request is scored as soon as the batcher wakes: on an idle
/// node, 20 sequential one-pair `/score` requests over one keep-alive
/// connection spend a median of well under a millisecond in the batch
/// queue (`serve.queue.wait` in `/debug/traces`), so no request waits for
/// company that never comes.
#[test]
fn a_lone_request_does_not_linger_in_the_batch_queue() {
    let _gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    ahntp_telemetry::set_enabled(true);
    let server = serve(toy_index(), &ServeConfig::default()).expect("bind loopback");
    let addr = server.addr();
    let mut conn = TcpStream::connect(addr).expect("connect");
    for i in 0..20 {
        let body = format!(r#"{{"pairs":[[{},{}]]}}"#, i % N_USERS, (i + 5) % N_USERS);
        let (status, body) = http_request(&mut conn, "POST", "/score", &body).expect("score");
        assert_eq!(status, 200, "{body}");
    }
    let (status, _, body) = get(addr, "/debug/traces");
    assert_eq!(status, 200, "{body}");
    server.shutdown();

    let doc = parse(&body).expect("traces JSON");
    let Some(Json::Arr(traces)) = doc.get("traces") else {
        panic!("no traces in {body}");
    };
    let mut waits: Vec<f64> = traces
        .iter()
        .filter(|t| t.get("path").and_then(Json::as_str) == Some("/score"))
        .flat_map(|t| match t.get("stages") {
            Some(Json::Arr(stages)) => stages.clone(),
            _ => Vec::new(),
        })
        .filter(|s| s.get("name").and_then(Json::as_str) == Some("serve.queue.wait"))
        .filter_map(|s| s.get("dur_us").and_then(Json::as_f64))
        .collect();
    assert_eq!(waits.len(), 20, "one queue wait per request: {body}");
    waits.sort_by(f64::total_cmp);
    let median = (waits[9] + waits[10]) / 2.0;
    assert!(
        median < 1000.0,
        "median queue wait {median} µs for a lone request (waits {waits:?})"
    );
}
