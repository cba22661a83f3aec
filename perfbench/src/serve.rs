//! The `serve-mix` workload: open-loop load on a loopback
//! `rome_server::net::SocketServer`, from one client thread of this process
//! over two connections, one per request class. The classes take turns:
//! each reference round serves the heavy schedule, then the light one.
//!
//! * **Heavy** connection: paper-shaped specs — calibrated `tpot` for the
//!   three models, a `figure13` sweep, RoMe and HBM4 `queue_depth`, a RoMe
//!   `multi_cube` run and a closed-loop MoE window.
//! * **Light** connection: warm `calibration` lookups and `{"op":"stats"}`
//!   frames, where the wire and the serving spine dominate.
//!
//! The send schedule is drawn from `--seed` (the order inside each cycle of
//! specs and the jitter of each send) and each latency is timed from the
//! request's scheduled send time, so a stall delays every request behind it
//! in the measurement too. The reference phase replays that schedule
//! [`ROUNDS`] times and keeps each request's lowest latency, so a host stall
//! must hit the same request in every replay to count. Each response must
//! equal the in-process `render_response` for the same spec, ignoring the
//! echoed id.
//!
//! Untraced: set-up (engine, cold calibration of both systems, bind,
//! connect) several times, then a warm-up and the reference rounds at fixed
//! rates, then a heavy-only rate ladder for `capacity_rps`. Traced: the
//! reference rounds, the server's own `{"op":"stats"}` frame over the wire,
//! and an in-process replay of one round's frames through `parse_frame` →
//! `serve_batch` → `render_response`, timed stage by stage.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rome_server::proto::{self, Frame};
use rome_server::{NetConfig, NetStats, ScenarioEngine, ServerHandle, SocketServer};
use rome_sim::MemorySystemKind;

use crate::measure::{median, quantile, timed, Outcome, Rng};
use crate::{per_layer, Args};

/// The heavy class: paper-shaped scenario specs, sent in seeded order
/// within each cycle.
const HEAVY: [&str; 8] = [
    r#"{"scenario":"tpot","name":"tpot-deepseek","model":"deepseek-v3","batch":64,"seq_len":8192,"calibrated":true}"#,
    r#"{"scenario":"tpot","name":"tpot-grok","model":"grok-1","batch":64,"seq_len":8192,"calibrated":true}"#,
    r#"{"scenario":"tpot","name":"tpot-llama","model":"llama-3","batch":64,"seq_len":8192,"calibrated":true}"#,
    r#"{"scenario":"sweep","name":"fig13","kind":"figure13","seq_len":8192}"#,
    r#"{"scenario":"queue_depth","name":"qd-rome","system":"rome","depths":[1,2,4],"total_bytes":262144,"granularity":4096}"#,
    r#"{"scenario":"queue_depth","name":"qd-hbm4","system":"hbm4","depths":[64],"total_bytes":131072,"granularity":32}"#,
    r#"{"scenario":"multi_cube","name":"cubes-rome","system":"rome","cubes":2,"channels_per_cube":4,"bytes_per_cube":262144,"max_ns":5000000}"#,
    r#"{"scenario":"closed_loop","name":"moe","system":"rome","channels":4,"windows":[8],"max_ns":5000000,"workload":{"type":"moe","experts":32,"top_k":4,"expert_bytes":16384,"layers":2,"tokens_per_step":16,"steps":1,"step_period_ns":0,"granularity":4096,"base":0,"zipf_exponent":1.2,"seed":42}}"#,
];

/// The light class: warm calibration lookups and stats frames.
const LIGHT: [&str; 3] = [
    r#"{"scenario":"calibration","name":"cal-hbm4","system":"hbm4"}"#,
    r#"{"scenario":"calibration","name":"cal-rome","system":"rome"}"#,
    r#"{"op":"stats"}"#,
];

/// Reference offered load, requests per second.
const HEAVY_RPS: f64 = 120.0;
const LIGHT_RPS: f64 = 300.0;
/// Share of `--seconds` spent in the reference rounds (the rest runs the
/// ladder in untraced runs), and the share of each round the heavy class
/// takes before the light class has its turn. The whole process runs on
/// one CPU, so a light request sent while a heavy one was being served
/// waited for the scheduler's time slice, not for the serving spine: with
/// the classes at once, `light_p99_ms` moved threefold between identical
/// runs.
const REFERENCE_SHARE: f64 = 0.7;
const HEAVY_SHARE: f64 = 5.0 / 7.0;
/// The reference phase replays one seeded schedule this many times, and
/// each request's latency is its lowest over the replays. The host stalls
/// the process for milliseconds at random moments, in some minutes for one
/// request in ten; a stall seldom hits the same request in every replay,
/// while queueing the schedule itself causes recurs in each.
const ROUNDS: usize = 3;
/// Length of each class's untimed warm-up before the rounds: a prefix of
/// its schedule, checked like the rest.
const WARMUP_S: f64 = 0.5;
/// The fixed heavy-rate ladder (requests per second) and the latency limit
/// a rung's p99 must meet.
const LADDER: [f64; 5] = [100.0, 200.0, 300.0, 450.0, 900.0];
const P99_LIMIT_MS: f64 = 100.0;
/// A ladder rung whose connection ever held more requests than this has a
/// growing backlog.
const RUNG_OUTSTANDING_LIMIT: usize = 32;
/// Attempts a rung gets before the ladder stops.
const RUNG_ATTEMPTS: usize = 3;
/// Open-loop validity: the generator may run at most this late (p99), and
/// at the reference rate at most this many requests may be outstanding on
/// one connection. Both sit above what the host's own stalls (tens of
/// milliseconds) cause, so they flag a generator or server that cannot keep
/// the schedule.
const LATE_LIMIT_MS: f64 = 50.0;
const OUTSTANDING_LIMIT: usize = 32;
/// Set-ups per run; the median is reported.
const SETUPS: usize = 5;
/// How long to wait for responses after the last scheduled send.
const GRACE: Duration = Duration::from_secs(10);
/// Below this wait, the client sends at once instead of sleeping in a timed
/// read. The client never spins: on a small host a spinning client would
/// take the CPU the server needs.
const MIN_WAIT: f64 = 20e-6;

/// A running loopback server and the client's two connections.
struct Server {
    engine: Arc<ScenarioEngine>,
    handle: ServerHandle,
    thread: JoinHandle<NetStats>,
    heavy: TcpStream,
    light: TcpStream,
}

impl Server {
    /// The workload's set-up: a cold engine, cold calibration of both
    /// systems, bind, and both connections.
    fn start() -> std::io::Result<Server> {
        let engine = Arc::new(ScenarioEngine::new());
        engine
            .calibration()
            .get_or_calibrate(MemorySystemKind::Hbm4);
        engine
            .calibration()
            .get_or_calibrate(MemorySystemKind::Rome);
        let server = SocketServer::bind("127.0.0.1:0", Arc::clone(&engine), NetConfig::default())?;
        let handle = server.handle();
        let addr = server.local_addr();
        let thread = std::thread::spawn(move || server.run());
        let connect = |addr: SocketAddr| -> std::io::Result<TcpStream> {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            Ok(stream)
        };
        Ok(Server {
            heavy: connect(addr)?,
            light: connect(addr)?,
            engine,
            handle,
            thread,
        })
    }

    /// Close both connections, drain the server and join its thread.
    fn stop(self) -> NetStats {
        let _ = self.heavy.shutdown(std::net::Shutdown::Both);
        let _ = self.light.shutdown(std::net::Shutdown::Both);
        self.handle.drain(Duration::from_millis(500));
        self.thread.join().unwrap_or_default()
    }
}

/// What a response must be.
#[derive(Debug, Clone)]
enum Want {
    /// Exactly this line once the echoed id is removed.
    Exact(String),
    /// A stats snapshot.
    Stats,
}

/// One scheduled request.
#[derive(Debug, Clone)]
struct Entry {
    /// Scheduled send time, seconds from the phase start.
    at: f64,
    id: u64,
    /// The spec or control frame (without the envelope id).
    body: &'static str,
    want: Want,
}

impl Entry {
    fn frame(&self) -> String {
        if self.body.starts_with(r#"{"op""#) {
            format!(r#"{{"op":"stats","id":{}}}"#, self.id)
        } else {
            format!(r#"{{"id":{},"spec":{}}}"#, self.id, self.body)
        }
    }
}

/// What happened to one request, in seconds from the phase start.
#[derive(Debug, Clone, Copy, Default)]
struct Sample {
    at: f64,
    sent: f64,
    received: Option<f64>,
    ok: bool,
}

impl Sample {
    fn latency_ms(&self) -> Option<f64> {
        self.received.map(|r| (r - self.at) * 1e3)
    }
}

/// The expected bare response line of every spec, rendered in process.
struct Expected {
    heavy: Vec<String>,
    light: Vec<Want>,
    /// In-process serve time of each heavy spec, seconds.
    heavy_s: Vec<f64>,
}

fn serve_in_process(engine: &ScenarioEngine, body: &str) -> Result<String, String> {
    match proto::parse_frame(body)? {
        Frame::Request(req) => {
            let mut results = engine.serve_batch(std::slice::from_ref(&req.spec));
            let result = results.pop().ok_or("serve_batch returned no result")?;
            Ok(proto::render_response(None, &req.spec, &result))
        }
        Frame::Stats { id } => Ok(proto::render_stats_frame(id, engine.stats_json())),
        Frame::Flight { .. } => Err("the workload sends no flight frames".into()),
    }
}

fn expected(engine: &ScenarioEngine, out: &mut Outcome) -> Expected {
    let mut heavy = Vec::new();
    let mut heavy_s = Vec::new();
    for body in HEAVY {
        let (line, s) = timed(|| serve_in_process(engine, body));
        let line = line.unwrap_or_else(|e| {
            out.fail(format!("heavy spec does not serve: {e}"));
            String::new()
        });
        if line.contains(r#""scenario":"error""#) || line.contains(r#""error":"#) {
            out.fail(format!("heavy spec serves an error: {line}"));
        }
        heavy.push(line);
        heavy_s.push(s);
    }
    let light = LIGHT
        .iter()
        .map(|body| {
            if body.starts_with(r#"{"op""#) {
                Want::Stats
            } else {
                Want::Exact(serve_in_process(engine, body).unwrap_or_default())
            }
        })
        .collect();
    Expected {
        heavy,
        light,
        heavy_s,
    }
}

/// An open-loop schedule at `rps` over `seconds`, in whole cycles of
/// `bodies` (seeded order within each cycle), each send jittered by up to
/// half a gap.
fn schedule(
    rng: &mut Rng,
    rps: f64,
    seconds: f64,
    bodies: &[&'static str],
    wants: &[Want],
    first_id: u64,
) -> Vec<Entry> {
    let cycles = ((rps * seconds) / bodies.len() as f64).round().max(1.0) as usize;
    let gap = 1.0 / rps;
    let offset = rng.unit() * gap;
    let mut entries = Vec::with_capacity(cycles * bodies.len());
    for _ in 0..cycles {
        let mut order: Vec<usize> = (0..bodies.len()).collect();
        rng.shuffle(&mut order);
        for i in order {
            let n = entries.len();
            entries.push(Entry {
                at: offset + n as f64 * gap + rng.unit() * gap * 0.5,
                id: first_id + n as u64,
                body: bodies[i],
                want: wants[i].clone(),
            });
        }
    }
    entries
}

/// Drive one connection through its schedule: send each frame when due,
/// time each response on arrival, check it, and give up on responses still
/// missing [`GRACE`] after the last send.
fn drive(stream: &TcpStream, entries: &[Entry], start: Instant) -> (Vec<Sample>, usize) {
    let mut writer = stream;
    let mut reader = stream;
    let now = || start.elapsed().as_secs_f64();
    let mut samples: Vec<Sample> = entries
        .iter()
        .map(|e| Sample {
            at: e.at,
            ..Sample::default()
        })
        .collect();
    let (mut next, mut received, mut max_outstanding) = (0usize, 0usize, 0usize);
    let mut pending: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 64 * 1024];
    let last_at = entries.last().map_or(0.0, |e| e.at);
    while received < entries.len() {
        let t = now();
        while next < entries.len() && entries[next].at <= t {
            let mut frame = entries[next].frame();
            frame.push('\n');
            if writer.write_all(frame.as_bytes()).is_err() {
                return (samples, max_outstanding);
            }
            samples[next].sent = now();
            next += 1;
            max_outstanding = max_outstanding.max(next - received);
        }
        let t = now();
        let wait = if next < entries.len() {
            entries[next].at - t
        } else {
            last_at + GRACE.as_secs_f64() - t
        };
        if wait <= 0.0 && next == entries.len() {
            break; // the remaining responses timed out
        }
        if wait < MIN_WAIT || !readable(stream, Duration::from_secs_f64(wait)) {
            continue;
        }
        match reader.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                let arrived = now();
                pending.extend_from_slice(&chunk[..n]);
                while let Some(pos) = pending.iter().position(|&b| b == b'\n') {
                    let line: Vec<u8> = pending.drain(..=pos).collect();
                    if received < entries.len() {
                        let text = String::from_utf8_lossy(&line[..line.len() - 1]);
                        samples[received].received = Some(arrived);
                        samples[received].ok = matches(&entries[received], &text);
                        received += 1;
                    }
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => break,
        }
    }
    (samples, max_outstanding)
}

/// Wait until `stream` has data to read or `timeout` passes; `true` when
/// readable. Uses `ppoll`, whose timeout is a high-resolution timer: a
/// socket read timeout is rounded to scheduler ticks (milliseconds), which
/// would delay both the sends and the timestamps of the responses.
#[cfg(target_os = "linux")]
fn readable(stream: &TcpStream, timeout: Duration) -> bool {
    use std::os::fd::AsRawFd;

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: u64,
            timeout: *const Timespec,
            sigmask: *const std::ffi::c_void,
        ) -> i32;
    }
    const POLLIN: i16 = 1;
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs().min(i64::MAX as u64) as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fd` and `ts` are live, correctly laid out `struct pollfd`
    // and `struct timespec` values for the whole call; `nfds` is 1, the
    // length of the one-element array `fds` points to; a null signal mask
    // leaves the thread's mask unchanged. The descriptor stays open because
    // `stream` is borrowed for the call.
    let ready = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    ready > 0
}

/// Portable fallback: a socket read timeout (coarser than `ppoll`).
#[cfg(not(target_os = "linux"))]
fn readable(stream: &TcpStream, timeout: Duration) -> bool {
    let mut byte = [0u8; 1];
    stream.set_read_timeout(Some(timeout)).is_ok() && stream.peek(&mut byte).is_ok()
}

/// Whether `line` is the right response to `entry`: the echoed id first,
/// then exactly the in-process rendering.
fn matches(entry: &Entry, line: &str) -> bool {
    let prefix = format!(r#"{{"id":{},"#, entry.id);
    let Some(rest) = line.strip_prefix(&prefix) else {
        return false;
    };
    match &entry.want {
        Want::Exact(bare) => bare.len() == rest.len() + 1 && bare[1..] == *rest,
        Want::Stats => rest.starts_with(r#""scenario":"stats""#),
    }
}

/// One phase's client-side results for one connection.
struct ConnResult {
    entries: Vec<Entry>,
    samples: Vec<Sample>,
    max_outstanding: usize,
}

impl ConnResult {
    fn latencies_ms(&self) -> Vec<f64> {
        self.samples.iter().filter_map(Sample::latency_ms).collect()
    }

    fn late_ms(&self) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.sent > 0.0)
            .map(|s| (s.sent - s.at) * 1e3)
            .collect()
    }

    /// Time each request waited behind the previous one on its connection:
    /// from its send until the previous response arrived.
    fn queue_waits_s(&self) -> Vec<f64> {
        let mut waits = vec![0.0];
        for pair in self.samples.windows(2) {
            let prev = pair[0].received.unwrap_or(pair[1].sent);
            waits.push((prev - pair[1].sent).max(0.0));
        }
        waits.truncate(self.samples.len());
        waits
    }

    fn failed(&self) -> u64 {
        self.samples.iter().filter(|s| !s.ok).count() as u64
    }

    fn last_received(&self) -> f64 {
        self.samples
            .iter()
            .filter_map(|s| s.received)
            .fold(0.0, f64::max)
    }
}

/// Run one phase: drive one schedule on one connection.
fn phase(stream: &TcpStream, entries: Vec<Entry>) -> ConnResult {
    let (samples, max_outstanding) = drive(stream, &entries, Instant::now());
    ConnResult {
        entries,
        samples,
        max_outstanding,
    }
}

/// Count one phase's requests; every response missing, an error, or unlike
/// the in-process rendering is a failed operation.
fn check_phase(out: &mut Outcome, label: &str, heavy: &ConnResult, light: &ConnResult) {
    out.count(heavy.samples.len() as u64, heavy.failed());
    out.count(light.samples.len() as u64, light.failed());
    if heavy.failed() + light.failed() > 0 {
        out.problems.push(format!(
            "{label}: {} heavy and {} light responses were missing, errors, or differed from the in-process rendering",
            heavy.failed(),
            light.failed()
        ));
    }
}

/// Each request's lowest latency over the rounds that answered it
/// correctly. The rounds replay one schedule, so sample `i` of every round
/// is the same request.
fn best_latencies_ms<'a>(rounds: impl Iterator<Item = &'a ConnResult>) -> Vec<f64> {
    let mut best: Vec<Option<f64>> = Vec::new();
    for round in rounds {
        if best.len() < round.samples.len() {
            best.resize(round.samples.len(), None);
        }
        for (b, s) in best.iter_mut().zip(&round.samples) {
            if let Some(ms) = s.latency_ms().filter(|_| s.ok) {
                *b = Some(b.map_or(ms, |old| old.min(ms)));
            }
        }
    }
    best.into_iter().flatten().collect()
}

fn heavy_wants(expected: &Expected) -> Vec<Want> {
    expected.heavy.iter().cloned().map(Want::Exact).collect()
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut server = None;
    for _ in 0..SETUPS {
        if let Some(previous) = server.take() {
            Server::stop(previous);
        }
        match timed(Server::start) {
            (Ok(s), seconds) => {
                setup_s.push(seconds);
                server = Some(s);
            }
            (Err(e), _) => {
                out.fail(format!("server set-up failed: {e}"));
                return out;
            }
        }
    }
    let server = server.expect("at least one set-up ran");
    let expected = expected(&server.engine, &mut out);
    for (body, s) in HEAVY.iter().zip(&expected.heavy_s) {
        let name = body
            .split(r#""name":""#)
            .nth(1)
            .and_then(|r| r.split('"').next());
        out.line(format!(
            "serve {}: in-process serve {:.3} ms",
            name.unwrap_or("?"),
            s * 1e3
        ));
    }
    let registry = Arc::clone(server.engine.registry());
    let work = || {
        [
            registry.counter("engine.events").get(),
            registry.counter("engine.idle_wakeups").get(),
        ]
    };

    let mut rng = Rng::new(args.seed);
    let round_s = args.seconds * REFERENCE_SHARE / ROUNDS as f64;
    let heavy = schedule(
        &mut rng,
        HEAVY_RPS,
        round_s * HEAVY_SHARE,
        &HEAVY,
        &heavy_wants(&expected),
        1,
    );
    let light = schedule(
        &mut rng,
        LIGHT_RPS,
        round_s * (1.0 - HEAVY_SHARE),
        &LIGHT,
        &expected.light,
        1,
    );
    // One round: the heavy schedule on its connection, then the light one
    // on its own.
    let round = |heavy: Vec<Entry>, light: Vec<Entry>| {
        (phase(&server.heavy, heavy), phase(&server.light, light))
    };
    let warmup = |entries: &[Entry]| -> Vec<Entry> {
        entries
            .iter()
            .take_while(|e| e.at < WARMUP_S)
            .cloned()
            .collect()
    };
    let (warm_heavy, warm_light) = round(warmup(&heavy), warmup(&light));
    check_phase(&mut out, "warm-up", &warm_heavy, &warm_light);
    let mut rounds = Vec::with_capacity(ROUNDS);
    let mut round_work = Vec::with_capacity(ROUNDS);
    for i in 0..ROUNDS {
        let before = work();
        let (h, l) = round(heavy.clone(), light.clone());
        let after = work();
        round_work.push([after[0] - before[0], after[1] - before[1]]);
        check_phase(&mut out, &format!("round {i}"), &h, &l);
        rounds.push((h, l));
    }
    // Every round serves the same frames, so the engine's exact work counts
    // must repeat.
    if round_work.iter().any(|w| *w != round_work[0]) {
        out.fail(format!(
            "exact work counts drifted between rounds: [engine.events, engine.idle_wakeups] {round_work:?}"
        ));
    }
    // Validity, like latency, takes the best round: a generator or server
    // that cannot keep the schedule falls behind in every round, a stall of
    // the host in one.
    let late_by_round: Vec<f64> = rounds
        .iter()
        .map(|(h, l)| {
            let late: Vec<f64> = h.late_ms().into_iter().chain(l.late_ms()).collect();
            quantile(&late, 0.99)
        })
        .collect();
    let outstanding_by_round: Vec<usize> = rounds
        .iter()
        .map(|(h, l)| h.max_outstanding.max(l.max_outstanding))
        .collect();
    let late_p99 = late_by_round.iter().copied().fold(f64::INFINITY, f64::min);
    let max_outstanding = outstanding_by_round.iter().copied().min().unwrap_or(0);
    out.line(format!(
        "client: late p99 {late_p99:.4} ms (rounds {late_by_round:.4?}), \
         max outstanding {max_outstanding} (rounds {outstanding_by_round:?}), \
         {ROUNDS} rounds of {} heavy and {} light requests",
        heavy.len(),
        light.len()
    ));
    if late_p99 > LATE_LIMIT_MS {
        out.invalid(format!(
            "generator ran {late_p99:.3} ms late at p99 in its best round (limit {LATE_LIMIT_MS} ms): invalid run"
        ));
    }
    if max_outstanding > OUTSTANDING_LIMIT {
        out.invalid(format!(
            "backlog grew to {max_outstanding} outstanding at the reference rate in every round: invalid run"
        ));
    }

    if args.trace {
        let (heavy, light) = &rounds[0];
        traced(
            &mut out,
            server,
            heavy,
            light,
            round_work[0],
            late_p99,
            max_outstanding,
        );
        return out;
    }

    let walls: Vec<f64> = rounds
        .iter()
        .map(|(h, l)| h.last_received() + l.last_received())
        .collect();
    let wall = median(&walls);
    let completed = rounds
        .iter()
        .flat_map(|(h, l)| h.samples.iter().chain(&l.samples))
        .filter(|s| s.ok)
        .count();
    for (round, (h, l)) in rounds.iter().enumerate() {
        out.line(format!(
            "round {round}: heavy p50 {:.4} p99 {:.4} ms, light p50 {:.4} p99 {:.4} ms",
            quantile(&h.latencies_ms(), 0.5),
            quantile(&h.latencies_ms(), 0.99),
            quantile(&l.latencies_ms(), 0.5),
            quantile(&l.latencies_ms(), 0.99),
        ));
    }
    let heavy_ms = best_latencies_ms(rounds.iter().map(|(h, _)| h));
    let light_ms = best_latencies_ms(rounds.iter().map(|(_, l)| l));
    for (class, samples) in [("heavy", &heavy_ms), ("light", &light_ms)] {
        let q = |p| quantile(samples, p);
        out.line(format!(
            "{class} best-of-{ROUNDS} latency ms: p50 {:.4} p90 {:.4} p95 {:.4} p98 {:.4} p99 {:.4} p99.5 {:.4} max {:.4} (n={})",
            q(0.5),
            q(0.9),
            q(0.95),
            q(0.98),
            q(0.99),
            q(0.995),
            q(1.0),
            samples.len()
        ));
    }

    // The ladder: heavy-only rungs of equal length, stopping at the first
    // rung that misses the latency limit or builds a backlog in every
    // attempt. The time left after the reference rounds holds every rung
    // plus the further attempts of the rung that ends the ladder.
    let rung_s = args.seconds * (1.0 - REFERENCE_SHARE) / (LADDER.len() + RUNG_ATTEMPTS - 1) as f64;
    let mut capacity = 0.0;
    let mut next_id = 1_000_000;
    for rps in LADDER {
        // A rung gets further attempts when one misses, so a stall of the
        // host does not end the ladder early.
        let mut met = None;
        for _ in 0..RUNG_ATTEMPTS {
            let entries = schedule(
                &mut rng,
                rps,
                rung_s,
                &HEAVY,
                &heavy_wants(&expected),
                next_id,
            );
            next_id += entries.len() as u64;
            let rung = phase(&server.heavy, entries);
            out.count(rung.samples.len() as u64, rung.failed());
            let p99 = quantile(&rung.latencies_ms(), 0.99);
            let first = rung.samples.first().map_or(0.0, |s| s.at);
            let achieved = rung.samples.len() as f64 / (rung.last_received() - first);
            let ok = rung.failed() == 0
                && p99 <= P99_LIMIT_MS
                && rung.max_outstanding <= RUNG_OUTSTANDING_LIMIT;
            out.line(format!(
                "ladder {rps} rps: achieved {achieved:.2} rps, p99 {p99:.2} ms, max outstanding {} -> {}",
                rung.max_outstanding,
                if ok { "meets the limit" } else { "misses the limit" }
            ));
            if ok {
                met = Some(achieved);
                break;
            }
        }
        match met {
            Some(achieved) => capacity = achieved,
            None => break,
        }
    }
    if capacity == 0.0 {
        out.invalid("no ladder rung met the latency limit");
    }
    let stats = server.stop();
    out.line(format!(
        "server: accepted {} connections, rejected {}",
        stats.accepted, stats.rejected_overloaded
    ));

    out.metric("setup_s", median(&setup_s), "s");
    out.metric("wall_s", wall, "s");
    let rss = crate::peak_rss(&mut out);
    out.metric("peak_rss_mib", rss, "MiB");
    out.metric("p50_ms", quantile(&heavy_ms, 0.5), "ms");
    out.metric("p99_ms", quantile(&heavy_ms, 0.99), "ms");
    out.metric("light_p50_ms", quantile(&light_ms, 0.5), "ms");
    out.metric("light_p99_ms", quantile(&light_ms, 0.99), "ms");
    out.metric(
        "throughput_rps",
        completed as f64 / walls.iter().sum::<f64>(),
        "1/s",
    );
    out.metric("capacity_rps", capacity, "1/s");
    out
}

/// Read the server's own stats frame over the light connection.
fn stats_over_wire(server: &Server) -> Option<rome_server::Json> {
    let mut stream = &server.light;
    stream.write_all(b"{\"op\":\"stats\",\"id\":0}\n").ok()?;
    stream.set_read_timeout(Some(GRACE)).ok()?;
    let mut line = Vec::new();
    let mut byte = [0u8; 4096];
    while !line.contains(&b'\n') {
        let n = stream.read(&mut byte).ok()?;
        if n == 0 {
            return None;
        }
        line.extend_from_slice(&byte[..n]);
    }
    let end = line.iter().position(|&b| b == b'\n')?;
    rome_server::json::parse(std::str::from_utf8(&line[..end]).ok()?).ok()
}

/// Stage times of replaying frames in process.
#[derive(Debug, Default, Clone, Copy)]
struct Stages {
    parse: f64,
    serve: f64,
    render: f64,
}

impl Stages {
    fn total(&self) -> f64 {
        self.parse + self.serve + self.render
    }
}

/// Replay one frame through the server's own stages, timed stage by stage.
fn replay_frame(engine: &ScenarioEngine, frame: &str) -> (Stages, bool) {
    let (parsed, parse) = timed(|| proto::parse_frame(frame));
    let mut stages = Stages {
        parse,
        ..Stages::default()
    };
    let ok = match parsed {
        Ok(Frame::Request(req)) => {
            let (mut results, serve) =
                timed(|| engine.serve_batch(std::slice::from_ref(&req.spec)));
            stages.serve = serve;
            match results.pop() {
                Some(result) => {
                    let (line, render) =
                        timed(|| proto::render_response(req.id, &req.spec, &result));
                    stages.render = render;
                    !line.is_empty() && result.is_ok()
                }
                None => false,
            }
        }
        Ok(Frame::Stats { id }) => {
            let (body, serve) = timed(|| engine.stats_json());
            stages.serve = serve;
            let (line, render) = timed(|| proto::render_stats_frame(id, body));
            stages.render = render;
            !line.is_empty()
        }
        _ => false,
    };
    (stages, ok)
}

fn traced(
    out: &mut Outcome,
    server: Server,
    heavy: &ConnResult,
    light: &ConnResult,
    [events_load, idle_load]: [u64; 2],
    late_p99: f64,
    max_outstanding: usize,
) {
    let engine = Arc::clone(&server.engine);
    let counter = |name: &str| engine.registry().counter(name).get();
    let stats = stats_over_wire(&server);
    if stats.is_none() {
        out.fail("the stats frame did not arrive");
    }
    let frame_rtt_mean_us = stats
        .as_ref()
        .and_then(|s| {
            s.get("histograms")?
                .get("net.frame_rtt_us")?
                .get("mean")?
                .as_f64()
        })
        .unwrap_or(0.0);

    // The frames of one reference round, in send order across both
    // connections.
    let mut frames: Vec<(f64, bool, String)> = heavy
        .entries
        .iter()
        .map(|e| (e.at, true, e.frame()))
        .chain(light.entries.iter().map(|e| (e.at, false, e.frame())))
        .collect();
    frames.sort_by(|a, b| a.0.total_cmp(&b.0));
    // The server's frame time of one round: its mean over every frame the
    // connections carried (warm-up and all rounds) times one round's frames.
    let frame_rtt_s = frame_rtt_mean_us * 1e-6 * frames.len() as f64;

    // The plain replay runs before and after the stage-timed one, so warm-up
    // and drift fall on both sides of the overhead comparison.
    let bare = || {
        timed(|| {
            for (_, _, frame) in &frames {
                std::hint::black_box(replay_frame_untimed(&engine, frame));
            }
        })
        .1
    };
    let events_mark = counter("engine.events");
    let bare_before = bare();
    let events_replay = counter("engine.events") - events_mark;
    if events_replay != events_load {
        out.fail(format!(
            "exact work counts drifted: the replay ran {events_replay} engine events, one reference round {events_load}"
        ));
    }
    let mut all = Stages::default();
    let mut light_stages = Stages::default();
    let (_, traced_s) = timed(|| {
        for (_, is_heavy, frame) in &frames {
            let (stages, ok) = replay_frame(&engine, frame);
            if !ok {
                out.fail("a replayed frame did not serve");
            }
            all.parse += stages.parse;
            all.serve += stages.serve;
            all.render += stages.render;
            if !is_heavy {
                light_stages.parse += stages.parse;
                light_stages.serve += stages.serve;
                light_stages.render += stages.render;
            }
        }
    });
    let bare_s = (bare_before + bare()) / 2.0;
    // The replay ran on the live engine while the server sat idle; only
    // now drain it (a draining engine refuses new work).
    server.stop();
    // Socket time of the light class: round trips (from the actual send,
    // minus any wait behind the previous request) less the replayed stages.
    let light_rtt: f64 = light
        .samples
        .iter()
        .zip(light.queue_waits_s())
        .filter_map(|(s, wait)| s.received.map(|r| r - s.sent - wait))
        .sum();
    let waits_ms: Vec<f64> = heavy.queue_waits_s().iter().map(|w| w * 1e3).collect();

    let mut values = per_layer::Values::default();
    values.set("wire.parse_s", all.parse);
    values.set("wire.render_s", all.render);
    values.set("server.serve_s", all.serve);
    values.set("wire.socket_s", light_rtt - light_stages.total());
    values.set("server.queue_wait_p99_ms", quantile(&waits_ms, 0.99));
    values.set("server.frame_rtt_s", frame_rtt_s);
    values.set("client.late_p99_ms", late_p99);
    values.set("client.max_outstanding", max_outstanding as f64);
    values.set("engine.events", events_load as f64);
    values.set("engine.idle_wakeups", idle_load as f64);
    if events_load > 0 {
        values.set("engine.idle_frac", idle_load as f64 / events_load as f64);
    }
    values.set("trace_overhead_pct", 100.0 * (traced_s - bare_s) / bare_s);
    // The server's own receipt-to-enqueue time that the isolated replay of
    // the same frames does not account for: contention with the client
    // threads, and bookkeeping outside the stages.
    values.set("unexplained_s", frame_rtt_s - all.total());
    if frame_rtt_s > 0.0 {
        values.set(
            "unexplained_pct",
            100.0 * (frame_rtt_s - all.total()) / frame_rtt_s,
        );
    }
    out.line(format!(
        "serve-mix traced: {} frames replayed, stages {:.4} s, server frame time {frame_rtt_s:.4} s",
        frames.len(),
        all.total()
    ));
    values.emit(out);
}

/// The same replay with one timer around the whole loop instead of one per
/// stage: the untraced side of `trace_overhead_pct`.
fn replay_frame_untimed(engine: &ScenarioEngine, frame: &str) -> usize {
    match proto::parse_frame(frame) {
        Ok(Frame::Request(req)) => {
            let results = engine.serve_batch(std::slice::from_ref(&req.spec));
            results
                .iter()
                .map(|r| proto::render_response(req.id, &req.spec, r).len())
                .sum()
        }
        Ok(Frame::Stats { id }) => proto::render_stats_frame(id, engine.stats_json()).len(),
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn responses_match_ignoring_only_the_echoed_id() {
        let entry = Entry {
            at: 0.0,
            id: 7,
            body: LIGHT[0],
            want: Want::Exact(r#"{"name":"x","scenario":"calibration"}"#.to_string()),
        };
        assert!(matches(
            &entry,
            r#"{"id":7,"name":"x","scenario":"calibration"}"#
        ));
        assert!(!matches(
            &entry,
            r#"{"id":8,"name":"x","scenario":"calibration"}"#
        ));
        assert!(!matches(
            &entry,
            r#"{"id":7,"name":"y","scenario":"calibration"}"#
        ));
        assert!(!matches(&entry, r#"{"name":"x","scenario":"calibration"}"#));
        let stats = Entry {
            want: Want::Stats,
            ..entry
        };
        assert!(matches(
            &stats,
            r#"{"id":7,"scenario":"stats","counters":{}}"#
        ));
        assert!(!matches(&stats, r#"{"id":7,"scenario":"error"}"#));
    }

    #[test]
    fn best_latency_is_the_lowest_correct_answer_per_request() {
        let round = |values: [(Option<f64>, bool); 3]| ConnResult {
            entries: Vec::new(),
            samples: values
                .iter()
                .enumerate()
                .map(|(i, &(received, ok))| Sample {
                    at: i as f64,
                    sent: i as f64,
                    received: received.map(|r| i as f64 + r),
                    ok,
                })
                .collect(),
            max_outstanding: 1,
        };
        let a = round([(Some(0.004), true), (Some(0.001), false), (None, false)]);
        let b = round([(Some(0.002), true), (Some(0.003), true), (None, false)]);
        let best = best_latencies_ms([&a, &b].into_iter());
        assert_eq!(best.len(), 2, "a request no round answered has no latency");
        assert!((best[0] - 2.0).abs() < 1e-6);
        assert!(
            (best[1] - 3.0).abs() < 1e-6,
            "a wrong answer does not count"
        );
    }

    #[test]
    fn schedules_are_seeded_whole_cycles() {
        let wants = vec![Want::Stats; HEAVY.len()];
        let times = |seed| {
            schedule(&mut Rng::new(seed), 100.0, 1.0, &HEAVY, &wants, 1)
                .iter()
                .map(|e| (e.at, e.body))
                .collect::<Vec<_>>()
        };
        assert_eq!(times(3), times(3));
        assert_ne!(times(3), times(4));
        let entries = times(3);
        assert_eq!(entries.len() % HEAVY.len(), 0);
        assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "sends in order"
        );
    }
}
