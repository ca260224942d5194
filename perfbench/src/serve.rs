//! `serve-h-closed`: an in-process `apots-serve` (default config, Exact
//! lane) serving a seeded H Fast checkpoint to a closed loop of
//! min(nproc, 4) keep-alive connections, one client thread each. A
//! connection sends its next request when the previous reply has fully
//! arrived.
//!
//! Every response must be a 200 whose body equals the answer computed
//! directly from the checkpoint (features → encode → forward, the path
//! the server batches), and the FNV-32 of the storm's responses in query
//! order must equal the pinned golden when the seed has one.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use apots::checkpoint::Checkpoint;
use apots::config::{HyperPreset, PredictorKind, TrainConfig};
use apots::encode::encode_features;
use apots::predictor::{build_predictor, Predictor};
use apots::runtime::TrainOptions;
use apots::trainer::train_with_options;
use apots::InferenceMode;
use apots_serde::Json;
use apots_serve::{Request, ServeConfig, Server};
use apots_traffic::calendar::Calendar;
use apots_traffic::{Corridor, DataConfig, FeatureMask, SampleFeatures, SimConfig, TrafficDataset};

use crate::calib::{HostSpeed, Work};
use crate::report::Outcome;
use crate::stats::{median, samples_needed, Fnv, Summary};
use crate::{derive_seed, host, Budget};

/// Tail percentile reported for request latency.
pub const LATENCY_TAIL_P: f64 = 90.0;
/// Distinct queries in a storm; connections cycle through their share.
const STORM: usize = 2048;
/// Requests per connection before timing starts.
const WARMUP_PER_CONN: usize = 200;
/// Set-ups per run (the median is reported).
const SETUPS: usize = 11;
/// Length of the windows a closed-loop run is cut into, seconds.
const WINDOW_SECS: f64 = 2.0;
/// Fewest full windows an untraced run measures.
const MIN_WINDOWS: usize = 3;

/// Seeded corridor the server answers for (7 days, 5 roads).
fn dataset(seed: u64) -> Arc<TrafficDataset> {
    let sim = SimConfig {
        seed: derive_seed(seed, 11),
        ..SimConfig::default()
    };
    Arc::new(TrafficDataset::new(
        Corridor::generate_with_calendar(sim, Calendar::new(7, 6, vec![3])),
        DataConfig {
            seed: derive_seed(seed, 12),
            ..DataConfig::default()
        },
    ))
}

/// Seeded H Fast checkpoint: initialized from the seed and trained for
/// one plain epoch of 256 samples.
fn checkpoint(seed: u64, data: &TrafficDataset) -> Checkpoint {
    let mut p = build_predictor(
        PredictorKind::Hybrid,
        HyperPreset::Fast,
        data,
        derive_seed(seed, 13),
    );
    let cfg = TrainConfig {
        epochs: 1,
        max_train_samples: Some(256),
        seed: derive_seed(seed, 14),
        ..TrainConfig::fast_plain(FeatureMask::BOTH)
    };
    train_with_options(p.as_mut(), data, &cfg, &mut TrainOptions::default())
        .expect("checkpoint training");
    Checkpoint::capture(p.as_mut())
}

/// Seeded `(road, t)` storm over the valid query range.
fn storm(seed: u64, data: &TrafficDataset) -> Vec<(usize, usize)> {
    let lo = data.config().alpha + data.config().beta;
    let hi = data.corridor().intervals();
    let roads = data.corridor().n_roads();
    (0..STORM as u64)
        .map(|i| {
            let a = derive_seed(seed, 1000 + 2 * i);
            let b = derive_seed(seed, 1001 + 2 * i);
            (
                (a % roads as u64) as usize,
                lo + (b % (hi - lo) as u64) as usize,
            )
        })
        .collect()
}

/// The body the server must send for each query, computed directly: one
/// forward per query through the replica path the server uses.
fn expected_bodies(
    data: &TrafficDataset,
    ck: &Checkpoint,
    queries: &[(usize, usize)],
) -> Vec<String> {
    let mut p = replica(ck, data);
    let beta = data.config().beta;
    queries
        .iter()
        .map(|&(road, tau)| {
            let f = data.features_for_road(road, tau - beta, FeatureMask::BOTH);
            let (input, _) = encode_features(p.kind(), std::slice::from_ref(&f));
            let out = p.forward_infer(&input, InferenceMode::Exact);
            let speed = data.speed_norm().denormalize(out.at2(0, 0));
            format!("{{\"road\":{road},\"t\":{tau},\"speed_kmh\":{speed}}}")
        })
        .collect()
}

fn replica(ck: &Checkpoint, data: &TrafficDataset) -> Box<dyn Predictor> {
    let mut p = ck
        .restore(HyperPreset::Fast, data)
        .expect("checkpoint restores");
    p.prepare(InferenceMode::Exact);
    p
}

/// FNV-32 of response bodies in query order.
fn responses_fnv32(bodies: &[String]) -> u32 {
    let mut h = Fnv::default();
    for b in bodies {
        h.write(b.as_bytes());
    }
    h.finish32()
}

/// The golden of `seed`'s storm, computed directly (no server).
pub fn golden_of(seed: u64) -> u32 {
    let data = dataset(seed);
    let ck = checkpoint(seed, &data);
    responses_fnv32(&expected_bodies(&data, &ck, &storm(seed, &data)))
}

/// One keep-alive connection framing responses by `Content-Length`.
struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(Client {
            stream,
            buf: Vec::with_capacity(512),
        })
    }

    /// Sends one request and returns `(status, body)`; the body borrows
    /// the client's buffer.
    fn call(&mut self, request: &[u8]) -> Result<(u16, &[u8]), String> {
        self.stream
            .write_all(request)
            .map_err(|e| format!("write: {e}"))?;
        self.buf.clear();
        let mut chunk = [0u8; 512];
        loop {
            if let Some((status, start, len)) = frame(&self.buf)? {
                return Ok((status, &self.buf[start..start + len]));
            }
            let n = self
                .stream
                .read(&mut chunk)
                .map_err(|e| format!("read: {e}"))?;
            if n == 0 {
                return Err("server closed the connection mid-response".into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}

/// `(status, body start, body length)` once a whole response is buffered.
fn frame(buf: &[u8]) -> Result<Option<(u16, usize, usize)>, String> {
    let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..end]).map_err(|_| "non-UTF-8 response head")?;
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or("malformed status line")?;
    let len: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.trim().parse().ok())
        .ok_or("missing Content-Length")?;
    let start = end + 4;
    Ok((buf.len() >= start + len).then_some((status, start, len)))
}

fn request_bytes(road: usize, tau: usize) -> Vec<u8> {
    format!("GET /predict?road={road}&t={tau} HTTP/1.1\r\nHost: perfbench\r\n\r\n").into_bytes()
}

/// The generated inputs of one set-up.
struct Inputs {
    data: Arc<TrafficDataset>,
    ck: Checkpoint,
    queries: Vec<(usize, usize)>,
    requests: Vec<Vec<u8>>,
}

/// A booted server with its warmed-up connections.
struct Live {
    server: Server,
    clients: Vec<Client>,
}

impl Live {
    fn shutdown(self) {
        drop(self.clients);
        self.server.shutdown();
    }
}

/// Connections of the closed loop: one per hardware thread, but no more
/// than the server's connection workers, each of which serves one
/// keep-alive connection until it closes.
fn connections() -> usize {
    host::nproc().min(ServeConfig::default().workers)
}

/// One set-up: dataset, checkpoint, server boot, connections and a
/// warm-up of [`WARMUP_PER_CONN`] requests per connection.
fn setup(seed: u64) -> Result<(Inputs, Live), String> {
    let data = dataset(seed);
    let ck = checkpoint(seed, &data);
    let server = Server::start(ServeConfig::default(), data.clone(), ck.clone(), None)?;
    let queries = storm(seed, &data);
    let requests: Vec<Vec<u8>> = queries.iter().map(|&(r, t)| request_bytes(r, t)).collect();
    let mut clients = Vec::new();
    for _ in 0..connections() {
        clients.push(Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?);
    }
    for (c, client) in clients.iter_mut().enumerate() {
        for i in 0..WARMUP_PER_CONN {
            client.call(&requests[(c + i * 7) % STORM])?;
        }
    }
    let inputs = Inputs {
        data,
        ck,
        queries,
        requests,
    };
    Ok((inputs, Live { server, clients }))
}

/// One full 2-s window of a closed-loop run.
struct Window {
    /// Requests completed in the window.
    count: usize,
    /// Seconds of the window the load ran (the window less the pauses
    /// for host-speed samples).
    active: f64,
    /// Client-side latency summary, when the window holds enough requests
    /// for the tail percentile.
    summary: Option<Summary>,
    /// The host-speed samples taken in the window (`from..to`).
    samples: (usize, usize),
}

/// What one closed-loop run over the connections measured.
struct LoopRun {
    /// Every full window, in order.
    windows: Vec<Window>,
    /// Requests completed, the last partial window included.
    count: usize,
    /// Sum of the client-side latencies of those requests, seconds.
    latency_sum: f64,
    /// Seconds the load ran (wall time less the pauses).
    secs: f64,
    /// First-pass bodies in query order (`None` if a connection did not
    /// finish its first pass).
    first_pass: Vec<Option<String>>,
    /// Requests sent.
    attempted: u64,
    /// Requests whose reply was not the expected 200 body.
    errors: Vec<String>,
    failed: u64,
}

/// Runs the closed loop over every connection of `live` until `budget`
/// is spent, at least `need` requests completed and every connection
/// finished one pass over its queries. Connection `c` cycles through
/// queries `c, c + n, c + 2n, …`.
///
/// Each connection appends (completion time in µs since the start,
/// latency in ns) to its own buffer; at every 2-s boundary the driving
/// thread moves the closed window's samples out and summarizes them, so
/// the benchmark's own memory does not grow with the length of the run.
///
/// With `speed`, the driving thread takes a host-speed reference sample
/// per [`crate::calib::EVERY_SECS`] of load: it pauses the load (each
/// connection waits between requests, so no request is in flight and
/// none is timed across the pause), samples, and resumes. Pauses are left
/// out of every time.
fn closed_loop(
    live: &mut Live,
    requests: &[Vec<u8>],
    expected: &[String],
    budget: Budget,
    need: usize,
    mut speed: Option<&mut HostSpeed>,
) -> LoopRun {
    let n_conn = live.clients.len();
    let stop = AtomicBool::new(false);
    let pause = AtomicBool::new(false);
    // Connections still running, and those waiting out a pause.
    let alive = AtomicUsize::new(n_conn);
    let waiting = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let first_passes = AtomicUsize::new(0);
    let buffers: Vec<Mutex<Vec<(u32, u32)>>> =
        (0..n_conn).map(|_| Mutex::new(Vec::new())).collect();
    let mut run = LoopRun {
        windows: Vec::new(),
        count: 0,
        latency_sum: 0.0,
        secs: 0.0,
        first_pass: vec![None; STORM],
        attempted: 0,
        errors: Vec::new(),
        failed: 0,
    };
    // Moves the samples that completed before `end_us` out of every
    // buffer into `into` (seconds), counting them into `run`.
    let take = |run: &mut LoopRun, end_us: u32, into: &mut Vec<f64>| {
        into.clear();
        for buf in &buffers {
            let mut buf = buf.lock().expect("sample buffer");
            let cut = buf.partition_point(|&(at, _)| at < end_us);
            into.extend(buf.drain(..cut).map(|(_, ns)| f64::from(ns) / 1e9));
        }
        run.count += into.len();
        run.latency_sum += into.iter().sum::<f64>();
    };
    let tail_min = samples_needed(LATENCY_TAIL_P);
    let mut paused = 0.0;
    let t0 = Instant::now();
    let per_conn: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = live
            .clients
            .iter_mut()
            .zip(&buffers)
            .enumerate()
            .map(|(c, (client, buf))| {
                let (stop, pause, alive, waiting) = (&stop, &pause, &alive, &waiting);
                let (done, first_passes) = (&done, &first_passes);
                scope.spawn(move || {
                    let mine: Vec<usize> = (c..STORM).step_by(n_conn).collect();
                    let mut first = Vec::with_capacity(mine.len());
                    let mut errors = Vec::new();
                    let (mut sent, mut failed) = (0u64, 0u64);
                    let mut k = 0usize;
                    while !stop.load(Ordering::Relaxed) {
                        if pause.load(Ordering::Acquire) {
                            waiting.fetch_add(1, Ordering::AcqRel);
                            while pause.load(Ordering::Acquire) {
                                std::thread::sleep(Duration::from_micros(200));
                            }
                            waiting.fetch_sub(1, Ordering::AcqRel);
                            continue;
                        }
                        let q = mine[k % mine.len()];
                        let t = Instant::now();
                        let reply = client.call(&requests[q]);
                        let d = t.elapsed();
                        // Saturating: a 4-s request or a 70-min run is
                        // far outside what a run measures.
                        let sat = |v: u128| u32::try_from(v).unwrap_or(u32::MAX);
                        buf.lock()
                            .expect("sample buffer")
                            .push((sat((t - t0 + d).as_micros()), sat(d.as_nanos())));
                        sent += 1;
                        match reply {
                            Ok((status, body)) => {
                                if k < mine.len() {
                                    first.push((q, String::from_utf8_lossy(body).into_owned()));
                                }
                                if status != 200 || body != expected[q].as_bytes() {
                                    failed += 1;
                                    if errors.len() < 4 {
                                        errors.push(format!(
                                            "query {q}: status {status}, body {:?}",
                                            String::from_utf8_lossy(body)
                                        ));
                                    }
                                }
                            }
                            Err(e) => {
                                failed += 1;
                                errors.push(format!("query {q}: {e}"));
                                break;
                            }
                        }
                        k += 1;
                        if k == mine.len() {
                            first_passes.fetch_add(1, Ordering::Relaxed);
                        }
                        done.fetch_add(1, Ordering::Relaxed);
                    }
                    alive.fetch_sub(1, Ordering::AcqRel);
                    (sent, first, errors, failed)
                })
            })
            .collect();
        let mut window = Vec::new();
        let mut window_paused = 0.0;
        let mut window_from = speed.as_deref().map_or(0, HostSpeed::mark);
        let mut tick = Instant::now();
        while !budget.done(
            t0,
            done.load(Ordering::Relaxed) >= need && first_passes.load(Ordering::Relaxed) == n_conn,
        ) {
            std::thread::sleep(Duration::from_millis(5));
            if let Some(s) = speed.as_deref_mut() {
                s.count(tick.elapsed().as_secs_f64());
                if s.due() {
                    let p0 = Instant::now();
                    pause.store(true, Ordering::Release);
                    while waiting.load(Ordering::Acquire) < alive.load(Ordering::Acquire) {
                        std::thread::sleep(Duration::from_micros(50));
                    }
                    while s.due() {
                        s.sample();
                    }
                    pause.store(false, Ordering::Release);
                    let p = p0.elapsed().as_secs_f64();
                    window_paused += p;
                    paused += p;
                }
                tick = Instant::now();
            }
            let end = (run.windows.len() + 1) as f64 * WINDOW_SECS;
            if t0.elapsed().as_secs_f64() >= end {
                take(&mut run, (end * 1e6) as u32, &mut window);
                let to = speed.as_deref().map_or(0, HostSpeed::mark);
                run.windows.push(Window {
                    count: window.len(),
                    active: WINDOW_SECS - window_paused,
                    summary: (window.len() >= tail_min)
                        .then(|| Summary::of(&window, LATENCY_TAIL_P)),
                    samples: (window_from, to),
                });
                window_paused = 0.0;
                window_from = to;
            }
        }
        stop.store(true, Ordering::Relaxed);
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    run.secs = t0.elapsed().as_secs_f64() - paused;
    take(&mut run, u32::MAX, &mut Vec::new());
    for (sent, first, errors, failed) in per_conn {
        run.attempted += sent;
        for (q, body) in first {
            run.first_pass[q] = Some(body);
        }
        run.errors.extend(errors);
        run.failed += failed;
    }
    run
}

/// Folds a closed-loop run's request counts and the storm checksum into
/// `out`.
fn check_loop(out: &mut Outcome, w: &LoopRun, expected: &[String], seed: u64, full: bool) {
    out.attempted += w.attempted;
    out.failed += w.failed;
    out.errors.extend(w.errors.iter().take(4).cloned());
    let bodies: Option<Vec<String>> = w.first_pass.iter().cloned().collect();
    let Some(bodies) = bodies else {
        out.error("a connection did not finish one pass over its queries".into());
        return;
    };
    let got = responses_fnv32(&bodies);
    let want = responses_fnv32(expected);
    if got != want {
        out.error(format!(
            "response FNV-32 {got:#010x}, direct computation {want:#010x}"
        ));
    }
    if let Some(g) = crate::goldens::serve(seed).filter(|_| full) {
        if got != g {
            out.error(format!(
                "response FNV-32 {got:#010x}, pinned golden {g:#010x}"
            ));
        }
    }
}

/// Runs the untraced workload: end-to-end metrics at the nominal host
/// speed (see [`crate::calib`]).
pub fn run(seed: u64, budget: Budget, started: Instant) -> Outcome {
    let mut out = Outcome::default();
    let mut speed = HostSpeed::new(Work::ComputeAndWakeups);
    let mut setups = Vec::with_capacity(SETUPS);
    let mut rig = None;
    for i in 0..SETUPS {
        if let Some((_, live)) = rig.take() {
            Live::shutdown(live);
        }
        let t0 = if i == 0 { started } else { Instant::now() };
        match setup(seed) {
            Ok(r) => rig = Some(r),
            Err(e) => {
                out.check(Some(format!("set-up failed: {e}")));
                return out;
            }
        }
        let secs = t0.elapsed().as_secs_f64();
        setups.push(secs);
        speed.maybe(secs);
    }
    let (inputs, mut live) = rig.expect("at least one set-up");
    let (fs, note) = speed.end_phase("set-up");
    out.note(note);
    let expected = expected_bodies(&inputs.data, &inputs.ck, &inputs.queries);
    let need = samples_needed(LATENCY_TAIL_P);
    let w = closed_loop(
        &mut live,
        &inputs.requests,
        &expected,
        budget.at_least(MIN_WINDOWS as f64 * WINDOW_SECS),
        MIN_WINDOWS * need,
        Some(&mut speed),
    );
    live.shutdown();
    check_loop(&mut out, &w, &expected, seed, true);
    // Every full window scaled by the host's speed around it; throughput
    // and latency per window, then the median over the windows.
    let per_window: Option<Vec<(usize, f64, Summary, f64)>> = w
        .windows
        .iter()
        .map(|win| {
            let f = speed.local_factor(win.samples.0, win.samples.1);
            Some((win.count, win.active, win.summary?, f))
        })
        .collect();
    let Some(per_window) = per_window.filter(|p| p.len() >= MIN_WINDOWS) else {
        out.error(format!(
            "fewer than {MIN_WINDOWS} 2-s windows, or a window with fewer than {need} requests"
        ));
        return out;
    };
    let (_, note) = speed.end_phase("measurement");
    out.note(note);
    let count: usize = per_window.iter().map(|&(c, ..)| c).sum();
    let qps = |scale: bool| {
        median(
            &per_window
                .iter()
                .map(|&(c, a, _, f)| c as f64 / (a * if scale { f } else { 1.0 }))
                .collect::<Vec<_>>(),
        )
    };
    let window_median = |scale: bool, pick: fn(&Summary) -> f64| {
        median(
            &per_window
                .iter()
                .map(|(_, _, s, f)| pick(s) * 1e3 * if scale { *f } else { 1.0 })
                .collect::<Vec<_>>(),
        )
    };
    let (p50, tail) = (|s: &Summary| s.p50, |s: &Summary| s.tail);
    out.note(format!(
        "as measured: setup {:.4} s, {:.1} requests/s, p50 {:.4} ms, p{LATENCY_TAIL_P} {:.4} ms \
         ({} 2-s windows)",
        median(&setups),
        qps(false),
        window_median(false, p50),
        window_median(false, tail),
        per_window.len()
    ));
    let n = Some(count);
    out.metric("setup_s", median(&setups) * fs, "s", Some(SETUPS));
    out.metric("throughput_per_s", qps(true), "1/s", n);
    out.metric("op_p50_ms", window_median(true, p50), "ms", n);
    out.metric("op_tail_ms", window_median(true, tail), "ms", n);
    out
}

/// Mean seconds per call of `f` over `iters` calls.
fn mean_call(iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let t = Instant::now();
    for i in 0..iters {
        f(i);
    }
    t.elapsed().as_secs_f64() / iters as f64
}

/// Traced serving: an untraced and a traced closed-loop window on the
/// same server, the server-side latency histogram and `/metrics`, then
/// each request stage replayed on its own through the public functions
/// the server calls.
pub fn trace(seed: u64, budget: Budget, full: bool) -> Outcome {
    let mut out = Outcome::default();
    let (inputs, mut live) = match setup(seed) {
        Ok(r) => r,
        Err(e) => {
            out.check(Some(format!("set-up failed: {e}")));
            return out;
        }
    };
    let expected = expected_bodies(&inputs.data, &inputs.ck, &inputs.queries);
    let need = if full {
        samples_needed(LATENCY_TAIL_P)
    } else {
        200
    };
    let untraced = closed_loop(
        &mut live,
        &inputs.requests,
        &expected,
        budget.half(),
        need,
        None,
    );
    check_loop(&mut out, &untraced, &expected, seed, full);
    apots_obs::enable(None);
    let traced = closed_loop(
        &mut live,
        &inputs.requests,
        &expected,
        budget.half(),
        need,
        None,
    );
    check_loop(&mut out, &traced, &expected, seed, full);
    let metrics = live.clients[0]
        .call(b"GET /metrics HTTP/1.1\r\nHost: perfbench\r\n\r\n")
        .map(|(status, body)| (status, String::from_utf8_lossy(body).into_owned()));
    apots_obs::disable();
    let hist = apots_obs::metrics::HIST_SERVE_LATENCY_NS.snapshot();
    live.shutdown();
    let batch_mean = match metrics {
        Ok((200, body)) => Json::parse(&body).ok().and_then(|j| {
            let p = j.get("predictions")?.as_f64()?;
            let b = j.get("batches")?.as_f64()?;
            Some(p / b.max(1.0))
        }),
        _ => None,
    };
    let Some(batch_mean) = batch_mean else {
        out.error("/metrics did not answer with predictions and batches".into());
        return out;
    };

    // Stage replays at the size a closed loop on few connections mostly
    // produces: one query per call.
    let data = &inputs.data;
    let beta = data.config().beta;
    let heads: Vec<String> = inputs
        .requests
        .iter()
        .map(|r| String::from_utf8_lossy(r).into_owned())
        .collect();
    let iters = 4 * STORM;
    let parse = mean_call(iters, |i| {
        std::hint::black_box(Request::parse(&heads[i % STORM]).ok());
    });
    let mut feats = SampleFeatures::zeroed(data.corridor().n_roads(), data.config().alpha, 0);
    let features = mean_call(iters, |i| {
        let (road, tau) = inputs.queries[i % STORM];
        data.features_for_road_into(road, tau - beta, FeatureMask::BOTH, &mut feats);
    });
    let one = std::slice::from_ref(&feats);
    let encode = mean_call(iters, |_| {
        std::hint::black_box(encode_features(PredictorKind::Hybrid, one));
    });
    let mut p = replica(&inputs.ck, data);
    let (input, _) = encode_features(PredictorKind::Hybrid, one);
    let forward = mean_call(STORM, |_| {
        std::hint::black_box(p.forward_infer(&input, InferenceMode::Exact));
    });

    let n = Some(traced.count);
    let client_mean = traced.latency_sum / traced.count.max(1) as f64;
    let server_mean = hist.sum as f64 / hist.count.max(1) as f64 / 1e9;
    out.metric("serve.parse_ns", parse * 1e9, "ns", Some(iters));
    out.metric("serve.features_us", features * 1e6, "us", Some(iters));
    out.metric("serve.encode_us", encode * 1e6, "us", Some(iters));
    out.metric("serve.forward_us", forward * 1e6, "us", Some(STORM));
    // The histogram's p50 is a log2-bucket midpoint (factor-2
    // resolution); the wire time subtracts exact means instead.
    let hist_n = Some(hist.count as usize);
    out.metric("serve.server_p50_us", hist.p50 as f64 / 1e3, "us", hist_n);
    out.metric("serve.server_mean_us", server_mean * 1e6, "us", hist_n);
    out.metric("serve.wire_us", (client_mean - server_mean) * 1e6, "us", n);
    out.metric("serve.batch_size_mean", batch_mean, "count", n);
    if full {
        let qps = |w: &LoopRun| w.count as f64 / w.secs;
        out.metric(
            "obs.overhead_frac",
            qps(&untraced) / qps(&traced) - 1.0,
            "ratio",
            n,
        );
    }
    out
}

/// FNV-32 of the storm's responses as served over one connection.
#[cfg(test)]
pub fn served_fnv32(seed: u64) -> u32 {
    let (inputs, mut live) = setup(seed).unwrap();
    let bodies: Vec<String> = inputs
        .requests
        .iter()
        .map(|r| {
            let (status, body) = live.clients[0].call(r).unwrap();
            assert_eq!(status, 200);
            String::from_utf8(body.to_vec()).unwrap()
        })
        .collect();
    live.shutdown();
    responses_fnv32(&bodies)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_responses_by_content_length() {
        let full = b"HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\nbody";
        assert_eq!(frame(full).unwrap(), Some((200, full.len() - 4, 4)));
        assert_eq!(frame(&full[..full.len() - 1]).unwrap(), None);
        assert_eq!(frame(b"HTTP/1.1 200 OK\r\n").unwrap(), None);
        assert!(frame(b"HTTP/1.1 200 OK\r\n\r\n").is_err());
    }

    #[test]
    fn traced_probe_checks_every_response() {
        let _g = crate::test_lock();
        let out = trace(2, Budget::new(0.0), false);
        assert!(out.correct(), "{:?}", out.errors);
        assert!(out.attempted >= 400);
    }
}
