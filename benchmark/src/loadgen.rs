//! Open-loop load generation: a keep-alive HTTP/1.1 client, a scheduled
//! sender, exact percentiles, and the rate ladder's stop rule.
//!
//! Every request has a due time fixed before the run starts (request `i`
//! of a rung at rate `r` is due at `start + i / r`). Its latency is timed
//! from that due time, not from when a connection became free, so a
//! server stall is charged to every request it delays (no coordinated
//! omission). How late the generator itself sent each request is kept
//! as `lag_us` and reported.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// How long past a rung's end the generator keeps sending requests that
/// were due inside the rung. Requests still unsent after that are
/// abandoned and counted in [`Rung::unsent`]: the backlog grew.
const GRACE: Duration = Duration::from_millis(100);

/// How long a reply may take before the socket read fails the request.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// The request classes the workloads send.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// `POST /score`.
    Score,
    /// `GET /topk`.
    Topk,
    /// `POST /events`.
    Events,
}

impl Class {
    pub fn name(self) -> &'static str {
        match self {
            Class::Score => "score",
            Class::Topk => "topk",
            Class::Events => "events",
        }
    }
}

/// One request to send.
#[derive(Debug, Clone)]
pub struct Req {
    pub class: Class,
    pub method: &'static str,
    pub target: String,
    pub body: String,
}

impl Req {
    /// The request as it goes on the wire.
    pub fn to_bytes(&self) -> Vec<u8> {
        format!(
            "{} {} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{}",
            self.method,
            self.target,
            self.body.len(),
            self.body
        )
        .into_bytes()
    }
}

/// A parsed response.
#[derive(Debug, Clone)]
pub struct Reply {
    pub status: u16,
    /// `X-Ahntp-Trace-Id`, when the server stamped one.
    pub trace_id: Option<u64>,
    pub body: String,
}

/// One keep-alive connection.
pub struct Conn {
    addr: SocketAddr,
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        let writer = stream.try_clone()?;
        Ok(Conn {
            addr,
            writer,
            reader: BufReader::new(stream),
        })
    }

    /// Sends one request and reads its whole response. After a socket
    /// error the connection is re-opened for the next call.
    pub fn send(&mut self, req: &Req) -> io::Result<Reply> {
        self.send_bytes(&req.to_bytes())
    }

    /// `GET target`, for the observability endpoints.
    pub fn get(&mut self, target: &str) -> io::Result<Reply> {
        self.send_bytes(format!("GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n").as_bytes())
    }

    fn send_bytes(&mut self, request: &[u8]) -> io::Result<Reply> {
        let result = self.exchange(request);
        if result.is_err() {
            if let Ok(fresh) = Conn::connect(self.addr) {
                *self = fresh;
            }
        }
        result
    }

    fn exchange(&mut self, request: &[u8]) -> io::Result<Reply> {
        self.writer.write_all(request)?;
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad status line {line:?}"),
                )
            })?;
        let mut length = 0usize;
        let mut trace_id = None;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.parse().map_err(|_| {
                        io::Error::new(io::ErrorKind::InvalidData, "bad content-length")
                    })?;
                } else if name.eq_ignore_ascii_case("x-ahntp-trace-id") {
                    trace_id = u64::from_str_radix(value, 16).ok();
                }
            }
        }
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        let body = String::from_utf8(body)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "body is not UTF-8"))?;
        Ok(Reply {
            status,
            trace_id,
            body,
        })
    }
}

/// What happened to one sent request.
#[derive(Debug, Clone)]
pub struct Shot {
    /// Request index within the run (seeds the request's content).
    pub index: u64,
    pub class: Class,
    /// How late the generator sent it, µs after its due time.
    pub lag_us: f64,
    /// Due time to last response byte, µs.
    pub latency_us: f64,
    /// Answered 200 (socket errors and other statuses are failures).
    pub ok: bool,
    pub trace_id: Option<u64>,
    /// The response body, kept for requests the caller asked to check.
    pub body: Option<String>,
}

/// One rung: a fixed rate held for a fixed duration.
#[derive(Debug, Clone)]
pub struct Rung {
    pub rate: f64,
    /// Requests due inside the rung.
    pub due: u64,
    /// Requests due but never sent because the generator fell more than
    /// [`GRACE`] behind the rung's end.
    pub unsent: u64,
    /// Sent requests, in index order.
    pub shots: Vec<Shot>,
    /// First due time to last response, seconds.
    pub wall_s: f64,
}

/// Sends `rate × duration` requests on `conns`, request `i` due at
/// `start + i / rate`. Each connection carries one request at a time and
/// takes the next due request when it is free, so a stalled connection
/// never holds back requests another connection can send. Request `i`
/// is `make(base + i)`; its body is kept when `keep(base + i)`.
pub fn open_loop(
    conns: &mut [Conn],
    rate: f64,
    duration: Duration,
    base: u64,
    make: &(dyn Fn(u64) -> Req + Sync),
    keep: &(dyn Fn(u64) -> bool + Sync),
) -> Rung {
    assert!(
        rate > 0.0 && !conns.is_empty(),
        "open_loop needs a rate and a connection"
    );
    let due = ((rate * duration.as_secs_f64()).round() as u64).max(1);
    let next = AtomicU64::new(0);
    let start = Instant::now() + Duration::from_millis(1);
    let cutoff = duration + GRACE;
    let (shots, last) = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                let next = &next;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= due {
                            break;
                        }
                        let due_at = start + Duration::from_secs_f64(i as f64 / rate);
                        let now = Instant::now();
                        if now < due_at {
                            std::thread::sleep(due_at - now);
                        }
                        let sent = Instant::now();
                        if sent.duration_since(start) > cutoff {
                            break;
                        }
                        let req = make(base + i);
                        let reply = conn.send(&req);
                        let done = Instant::now();
                        let (ok, trace_id, body) = match reply {
                            Ok(r) => {
                                let keep_body = r.status == 200 && keep(base + i);
                                (r.status == 200, r.trace_id, keep_body.then_some(r.body))
                            }
                            Err(_) => (false, None, None),
                        };
                        out.push(Shot {
                            index: base + i,
                            class: req.class,
                            lag_us: micros(sent.duration_since(due_at)),
                            latency_us: micros(done.duration_since(due_at)),
                            ok,
                            trace_id,
                            body,
                        });
                    }
                    (out, Instant::now())
                })
            })
            .collect();
        let mut all = Vec::new();
        let mut last = start;
        for h in handles {
            let (shots, ended) = h.join().expect("generator thread panicked");
            all.extend(shots);
            last = last.max(ended);
        }
        all.sort_by_key(|s| s.index);
        (all, last)
    });
    let wall_s = last.saturating_duration_since(start).as_secs_f64();
    let unsent = due - shots.len() as u64;
    Rung {
        rate,
        due,
        unsent,
        shots,
        wall_s,
    }
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Nearest-rank percentile `p` (0..=100) of ascending `sorted`; 0 when
/// empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    // The epsilon keeps float error from bumping an exact rank up by one.
    let rank = ((p / 100.0) * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The percentiles the tail is read at, highest first.
const TAILS: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// The highest of p99.9 / p99 / p90 / p50 that has at least ten samples
/// above it, with its value: `(percentile, value)`. `None` below 20
/// samples.
pub fn supported_tail(sorted: &[f64]) -> Option<(f64, f64)> {
    TAILS
        .iter()
        .find(|&&p| sorted.len() as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
        .map(|&p| (p, percentile(sorted, p)))
}

/// Sorted latencies (µs) of the `ok` shots of one class; a failed shot
/// counts as missing every limit, so it sorts as +inf.
pub fn latencies(shots: &[Shot], class: Option<Class>) -> Vec<f64> {
    let mut v: Vec<f64> = shots
        .iter()
        .filter(|s| class.is_none_or(|c| s.class == c))
        .map(|s| if s.ok { s.latency_us } else { f64::INFINITY })
        .collect();
    v.sort_by(f64::total_cmp);
    v
}

/// How much the generator's lateness grew across a rung: the median lag
/// of the last quarter of its shots minus that of the first quarter, µs.
pub fn lag_growth_us(shots: &[Shot]) -> f64 {
    let q = shots.len() / 4;
    if q == 0 {
        return 0.0;
    }
    let median_lag = |part: &[Shot]| {
        let mut lags: Vec<f64> = part.iter().map(|s| s.lag_us).collect();
        lags.sort_by(f64::total_cmp);
        percentile(&lags, 50.0)
    };
    median_lag(&shots[shots.len() - q..]) - median_lag(&shots[..q])
}

/// Lateness may grow by at most this much within a rung that holds: a
/// queue that fluctuates near capacity moves the median lag by a few
/// milliseconds, an overload moves it by a share of the rung's length.
pub const MAX_LAG_GROWTH_US: f64 = 5000.0;

/// The read-latency percentile a rung's limit applies to. On a shared
/// two-core host the scheduler alone puts p99 anywhere in 5-12 ms at
/// 200 req/s, so a p99 test passes or fails at random; p90 moves only
/// when requests queue.
pub const RUNG_TAIL: f64 = 90.0;

/// The conditions a rung must meet, as measured.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// [`RUNG_TAIL`] of the rung's read latencies, µs (+inf when failures
    /// reach the tail).
    pub read_tail_us: f64,
    pub failed: usize,
    pub lag_growth_us: f64,
    pub unsent: u64,
    /// Reads answered per second over the rung's wall time.
    pub achieved_rps: f64,
}

impl Verdict {
    pub fn of(rung: &Rung, read_classes: &[Class]) -> Verdict {
        let reads: Vec<Shot> = rung
            .shots
            .iter()
            .filter(|s| read_classes.contains(&s.class))
            .cloned()
            .collect();
        let ok = reads.iter().filter(|s| s.ok).count();
        Verdict {
            read_tail_us: percentile(&latencies(&reads, None), RUNG_TAIL),
            failed: reads.len() - ok,
            lag_growth_us: lag_growth_us(&reads),
            unsent: rung.unsent,
            achieved_rps: if rung.wall_s > 0.0 {
                ok as f64 / rung.wall_s
            } else {
                0.0
            },
        }
    }

    /// Read tail within `limit_us`, nothing failed, and no growing
    /// backlog (lag growth within [`MAX_LAG_GROWTH_US`], nothing left
    /// unsent).
    pub fn holds(&self, limit_us: f64) -> bool {
        self.read_tail_us <= limit_us
            && self.failed == 0
            && self.unsent == 0
            && self.lag_growth_us <= MAX_LAG_GROWTH_US
    }
}

/// The fixed geometric ladder of offered read rates: rung `k` offers
/// `LADDER_BASE_RPS · 2^(k / RUNGS_PER_OCTAVE)` req/s for
/// `k = 0..=LADDER_TOP`, i.e. 100 to 12,800 req/s in steps of 4.4%.
pub const LADDER_BASE_RPS: f64 = 100.0;
pub const RUNGS_PER_OCTAVE: usize = 16;
pub const LADDER_TOP: usize = 112;
/// The rung latency percentiles are reported at: 400 req/s, about half
/// of every workload's capacity. At 200 req/s the cores idle between
/// requests, and wake-up latency on a shared host moved `topk_fanout`'s
/// p50 far more from run to run.
pub const REFERENCE_RUNG: usize = 32;

pub fn rung_rate(k: usize) -> f64 {
    LADDER_BASE_RPS * 2f64.powf(k as f64 / RUNGS_PER_OCTAVE as f64)
}

/// The ladder's stop rule: the next rung to try, given the highest rung
/// that held so far and the lowest that failed, or `None` when the two
/// are adjacent. The climb starts at the reference rung and goes up an
/// octave at a time; the first rung that fails stops the climb, and the
/// search then bisects between it and the highest rung that held (or the
/// bottom of the ladder). No rung above a failed one is ever tried.
pub fn next_rung(held: Option<usize>, failed: Option<usize>) -> Option<usize> {
    match (held, failed) {
        (None, None) => Some(REFERENCE_RUNG),
        (Some(h), None) if h >= LADDER_TOP => None,
        (Some(h), None) => Some((h + RUNGS_PER_OCTAVE).min(LADDER_TOP)),
        (held, Some(f)) => {
            let (lo, f) = (held.map_or(-1, |h| h as i64), f as i64);
            (f - lo > 1).then(|| (lo + f).div_euclid(2) as usize)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A one-connection HTTP responder that answers `{}` after `stall`
    /// for request number `stall_at` (0-based) and immediately otherwise.
    fn fake_server(stall_at: usize, stall: Duration) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            stream.set_nodelay(true).unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut reader = BufReader::new(stream);
            let mut n = 0usize;
            loop {
                let mut length = 0usize;
                let mut line = String::new();
                if reader.read_line(&mut line).unwrap_or(0) == 0 {
                    return;
                }
                loop {
                    line.clear();
                    reader.read_line(&mut line).unwrap();
                    if line.trim_end().is_empty() {
                        break;
                    }
                    if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                        length = v.trim().parse().unwrap();
                    }
                }
                let mut body = vec![0u8; length];
                reader.read_exact(&mut body).unwrap();
                if n == stall_at {
                    std::thread::sleep(stall);
                }
                n += 1;
                writer
                    .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nX-Ahntp-Trace-Id: 00000000000000ff\r\n\r\n{}")
                    .unwrap();
            }
        });
        (addr, handle)
    }

    fn ping(_: u64) -> Req {
        Req {
            class: Class::Score,
            method: "POST",
            target: "/score".into(),
            body: "{}".into(),
        }
    }

    #[test]
    fn latency_counts_from_due_time_through_a_stall() {
        let stall = Duration::from_millis(300);
        let (addr, server) = fake_server(10, stall);
        let mut conns = vec![Conn::connect(addr).unwrap()];
        // 100 req/s for 1 s: request 10 stalls 300 ms, so requests 11..=39
        // were due while the only connection was blocked.
        let rung = open_loop(&mut conns, 100.0, Duration::from_secs(1), 0, &ping, &|_| {
            false
        });
        drop(conns);
        server.join().unwrap();
        assert_eq!(rung.due, 100);
        assert_eq!(rung.unsent, 0);
        assert!(rung.shots.iter().all(|s| s.ok));
        assert_eq!(rung.shots[0].trace_id, Some(0xff));
        let s11 = &rung.shots[11];
        // Due 10 ms after the stalled request; answered only after the
        // stall ended, so its latency is ~290 ms although the server
        // answered it at once.
        assert!(s11.latency_us > 250_000.0, "latency {}", s11.latency_us);
        // ...and the generator's lateness accounts for that wait.
        assert!(s11.lag_us > 250_000.0, "lag {}", s11.lag_us);
        // Timing from send instead would hide it: the server-side time of
        // request 11 is tiny.
        assert!(s11.latency_us - s11.lag_us < 50_000.0);
        // Well after the stall drained, requests are on time again.
        assert!(
            rung.shots[90].lag_us < 50_000.0,
            "lag {}",
            rung.shots[90].lag_us
        );
        let sorted = latencies(&rung.shots, Some(Class::Score));
        assert!(percentile(&sorted, 90.0) > 100_000.0);
    }

    #[test]
    fn lateness_is_accounted_when_the_rate_exceeds_capacity() {
        // Every request stalls 20 ms at the server from #0 on: one
        // connection sustains at most 50 req/s, the rung offers 200 req/s.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            loop {
                line.clear();
                if reader.read_line(&mut line).unwrap_or(0) == 0 {
                    return;
                }
                let mut length = 0usize;
                loop {
                    line.clear();
                    reader.read_line(&mut line).unwrap();
                    if line.trim_end().is_empty() {
                        break;
                    }
                    if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                        length = v.trim().parse().unwrap();
                    }
                }
                let mut body = vec![0u8; length];
                reader.read_exact(&mut body).unwrap();
                std::thread::sleep(Duration::from_millis(20));
                let _ = writer.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}");
            }
        });
        let mut conns = vec![Conn::connect(addr).unwrap()];
        let rung = open_loop(
            &mut conns,
            200.0,
            Duration::from_millis(500),
            0,
            &ping,
            &|_| false,
        );
        drop(conns);
        server.join().unwrap();
        assert_eq!(rung.due, 100);
        // ~30 of 100 fit in the rung plus grace; the rest is abandoned.
        assert!(rung.unsent > 50, "unsent {}", rung.unsent);
        let v = Verdict::of(&rung, &[Class::Score]);
        assert!(
            v.lag_growth_us > MAX_LAG_GROWTH_US,
            "growth {}",
            v.lag_growth_us
        );
        assert!(!v.holds(1e12));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn supported_tail_keeps_ten_samples_beyond() {
        let sorted = |n: usize| -> Vec<f64> { (1..=n).map(|i| i as f64).collect() };
        assert_eq!(supported_tail(&sorted(19)), None);
        assert_eq!(supported_tail(&sorted(20)), Some((50.0, 10.0)));
        assert_eq!(supported_tail(&sorted(99)).map(|t| t.0), Some(50.0));
        assert_eq!(supported_tail(&sorted(100)), Some((90.0, 90.0)));
        assert_eq!(supported_tail(&sorted(999)).map(|t| t.0), Some(90.0));
        assert_eq!(supported_tail(&sorted(1000)), Some((99.0, 990.0)));
        assert_eq!(supported_tail(&sorted(10_000)), Some((99.9, 9990.0)));
    }

    fn verdict(tail: f64, failed: usize, growth: f64, unsent: u64) -> Verdict {
        Verdict {
            read_tail_us: tail,
            failed,
            lag_growth_us: growth,
            unsent,
            achieved_rps: 1.0,
        }
    }

    #[test]
    fn each_condition_fails_a_rung() {
        let limit = 10_000.0;
        assert!(verdict(9_000.0, 0, 10.0, 0).holds(limit));
        assert!(!verdict(11_000.0, 0, 10.0, 0).holds(limit));
        assert!(!verdict(9_000.0, 1, 10.0, 0).holds(limit));
        assert!(!verdict(9_000.0, 0, 2.0 * MAX_LAG_GROWTH_US, 0).holds(limit));
        assert!(!verdict(9_000.0, 0, 10.0, 3).holds(limit));
        assert!(!verdict(f64::INFINITY, 0, 10.0, 0).holds(limit));
    }

    /// Runs the search against `holds` and returns the highest rung that
    /// held plus every rung tried, in order.
    fn search(holds: impl Fn(usize) -> bool) -> (Option<usize>, Vec<usize>) {
        let (mut held, mut failed, mut tried) = (None, None, Vec::new());
        while let Some(k) = next_rung(held, failed) {
            tried.push(k);
            if holds(k) {
                held = Some(k);
            } else {
                failed = Some(k);
            }
        }
        (held, tried)
    }

    #[test]
    fn ladder_finds_the_capacity_rung_of_a_monotone_system() {
        for capacity in 0..=LADDER_TOP {
            let (found, tried) = search(|k| k <= capacity);
            assert_eq!(found, Some(capacity), "tried {tried:?}");
            assert!(tried.len() <= 12, "capacity {capacity}: tried {tried:?}");
            assert_eq!(tried[0], REFERENCE_RUNG);
        }
        assert_eq!(search(|_| false), (None, vec![32, 15, 7, 3, 1, 0]));
        assert_eq!(rung_rate(REFERENCE_RUNG), 400.0);
        assert!((rung_rate(LADDER_TOP) - 12_800.0).abs() < 1e-6);
    }

    #[test]
    fn ladder_stops_climbing_at_the_first_failing_rung() {
        // Rung 48 fails (a stall, say) although 56 would hold: the climb
        // stops at 48 and bisects below it, never trying above it.
        let (found, tried) = search(|k| k != 48 && k <= 60);
        assert_eq!(found, Some(47));
        assert_eq!(tried, vec![32, 48, 40, 44, 46, 47]);
    }
}
