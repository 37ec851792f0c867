//! `serve_mixed`: an open loop, then a closed loop, against an
//! `embed_server --tcp` child with its default configuration.
//!
//! One generator thread drives two non-blocking connections. The open loop
//! sends the seeded Poisson schedule of [`crate::loadgen`] at
//! [`OFFERED_RPS`] and times every request from when it was due, so a
//! stall also charges the requests queued behind it. The closed loop then
//! keeps a fixed window of requests outstanding per connection and
//! measures capacity.
//!
//! The traced run keeps a shorter live open loop (for the generator's lag
//! and backlog) and replays the same requests in process through
//! `protocol`, `EmbedCache`, `Batcher` and `CompiledModel`, timing each
//! call from outside.

use super::{etth1_columns, repeat_setup, report, Opts, Outcome};
use crate::host;
use crate::loadgen::{Planned, RequestStream};
use crate::stats::{describe, median, percentile, summarize, SliceRate};
use crate::trace::Tracer;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use testkit::pool;
use timedrl::{Precision, TimeDrl, TimeDrlConfig};
use timedrl_data::PatchConfig;
use timedrl_serve::{protocol, Batcher, CompiledModel, EmbedCache, Embeddings, ServeConfig};
use timedrl_tensor::NdArray;

/// Offered open-loop rate, requests per second: about half of the
/// closed-loop capacity measured on the commit that introduced the
/// benchmark (see `BENCHMARK.json`).
pub const OFFERED_RPS: f64 = 180.0;
/// Server window length (the `BENCH_serve` model: T=64, P=8, 9 tokens).
const T: usize = 64;
/// Hot windows; far fewer than the server cache's 1024 entries.
const HOT: usize = 256;
/// Every this-many-th open-loop request is byte-compared in process.
const SAMPLE_EVERY: usize = 50;
/// Longest wait for outstanding responses once sending has stopped.
const DRAIN_TIMEOUT_S: f64 = 20.0;
/// Requests each connection keeps outstanding in the closed loop. With one,
/// every response waits on the server's unbatched small writes meeting the
/// client's delayed ACK (~36 ms a round trip here), which measures the
/// socket, not the server; a pipelined window keeps the compute thread busy.
const CLOSED_DEPTH: usize = 8;
/// The generator sleeps this long when neither socket moved, leaving the
/// cores to the server instead of spinning.
const IDLE_POLL: Duration = Duration::from_micros(50);
/// Server compute thread + generator thread.
pub const THREADS: usize = 2;

const DECODE: usize = 0;
const LOOKUP: usize = 1;
const MISS_EMBED: usize = 2;
const INSERT: usize = 3;
const ENCODE: usize = 4;
const RUN: usize = 5;
const PHASES: usize = 6;

fn serve_model() -> TimeDrl {
    let mut cfg = TimeDrlConfig::forecasting(T);
    cfg.patch = PatchConfig::non_overlapping(8);
    cfg.seed = 47;
    TimeDrl::new(cfg)
}

/// Every univariate length-`T` window of the synthetic ETTh1 series.
struct WindowSpace {
    cols: Vec<Vec<f32>>,
    per_channel: usize,
}

impl WindowSpace {
    fn new(seed: u64) -> Self {
        let cols = etth1_columns(seed);
        let per_channel = cols[0].len() - T + 1;
        Self { cols, per_channel }
    }

    fn len(&self) -> usize {
        self.cols.len() * self.per_channel
    }

    fn window(&self, id: usize) -> &[f32] {
        let (c, off) = (id / self.per_channel, id % self.per_channel);
        &self.cols[c][off..off + T]
    }

    fn batch(&self, ids: &[usize]) -> NdArray {
        let mut x = NdArray::zeros(&[ids.len(), T, 1]);
        for (row, &id) in x.data_mut().chunks_exact_mut(T).zip(ids) {
            row.copy_from_slice(self.window(id));
        }
        x
    }

    fn frame(&self, ids: &[usize]) -> Vec<u8> {
        framed(&protocol::encode_request(&self.batch(ids)))
    }
}

fn framed(payload: &[u8]) -> Vec<u8> {
    let mut f = Vec::with_capacity(payload.len() + 8);
    protocol::write_frame(&mut f, payload).expect("writing to a Vec cannot fail");
    f
}

/// The server child; killed and reaped on drop.
struct Server {
    child: Child,
    addr: SocketAddr,
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawns `embed_server --tcp` and returns once it has answered a first
/// request.
fn start_server(bin: &Path, model_path: &Path) -> Result<Server, String> {
    let addr = TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .map_err(|e| format!("no free local port: {e}"))?;
    let child = Command::new(bin)
        .arg("--tcp")
        .arg(addr.to_string())
        .arg(model_path)
        .env("TIMEDRL_THREADS", "1")
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
    let mut server = Server { child, addr };
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut stream = loop {
        if let Ok(Some(status)) = server.child.try_wait() {
            return Err(format!("embed_server exited during start-up: {status}"));
        }
        match TcpStream::connect(addr) {
            Ok(s) => break s,
            Err(e) if Instant::now() > deadline => {
                return Err(format!("embed_server never listened: {e}"))
            }
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    };
    let first = framed(&protocol::encode_request(&NdArray::zeros(&[1, T, 1])));
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    stream.write_all(&first).map_err(|e| e.to_string())?;
    let mut frame = Vec::new();
    protocol::read_frame_into(&mut stream, &mut frame, ServeConfig::default().max_payload)
        .and_then(|_| protocol::decode_response(&frame))
        .map_err(|e| format!("first response: {e}"))?;
    Ok(server)
}

struct Pending {
    req: usize,
    due: Instant,
    windows: usize,
}

/// One non-blocking client connection with its unsent bytes, unparsed
/// response bytes and outstanding requests in send order.
struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    sent: usize,
    inbuf: Vec<u8>,
    parsed: usize,
    frame: Vec<u8>,
    pending: VecDeque<Pending>,
}

type Done = (Pending, Result<(Embeddings, Precision), String>, Instant);

impl Conn {
    fn open(addr: SocketAddr) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_nonblocking(true).map_err(|e| e.to_string())?;
        Ok(Self {
            stream,
            out: Vec::new(),
            sent: 0,
            inbuf: Vec::new(),
            parsed: 0,
            frame: Vec::new(),
            pending: VecDeque::new(),
        })
    }

    fn send(&mut self, frame: &[u8], p: Pending) {
        self.out.extend_from_slice(frame);
        self.pending.push_back(p);
    }

    /// Writes what the socket takes, reads what has arrived and appends
    /// every complete response to `done`. Returns whether anything moved.
    fn pump(&mut self, done: &mut Vec<Done>) -> Result<bool, String> {
        let mut moved = false;
        while self.sent < self.out.len() {
            match self.stream.write(&self.out[self.sent..]) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => {
                    self.sent += n;
                    moved = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e.to_string()),
            }
        }
        if self.sent == self.out.len() {
            self.out.clear();
            self.sent = 0;
        }
        let mut buf = [0u8; 64 * 1024];
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => {
                    self.inbuf.extend_from_slice(&buf[..n]);
                    moved = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e.to_string()),
            }
        }
        loop {
            let avail = &self.inbuf[self.parsed..];
            if avail.len() < 8 {
                break;
            }
            let len = u32::from_le_bytes(avail[..4].try_into().expect("4 bytes")) as usize;
            if avail.len() < 8 + len {
                break;
            }
            let mut whole = &avail[..8 + len];
            let result = protocol::read_frame_into(&mut whole, &mut self.frame, usize::MAX)
                .and_then(|_| protocol::decode_response(&self.frame))
                .map_err(|e| e.to_string());
            self.parsed += 8 + len;
            let p = self
                .pending
                .pop_front()
                .ok_or("response without a request")?;
            done.push((p, result, Instant::now()));
        }
        if self.parsed == self.inbuf.len() {
            self.inbuf.clear();
            self.parsed = 0;
        }
        Ok(moved)
    }
}

/// Checks one response: CRC already verified by the frame reader; here the
/// precision tag and the shape must match the request.
fn validate(
    result: Result<(Embeddings, Precision), String>,
    windows: usize,
    model: &CompiledModel,
) -> Result<Embeddings, String> {
    let (emb, precision) = result?;
    if precision != Precision::Exact {
        return Err(format!("response tagged {precision}, expected exact"));
    }
    let want_t = [windows, model.num_patches(), model.d_model()];
    if emb.z_i.shape() != [windows, model.zi_dim()] || emb.z_t.shape() != want_t {
        return Err(format!(
            "mismatched response: z_i {:?}, z_t {:?} for {windows} windows",
            emb.z_i.shape(),
            emb.z_t.shape()
        ));
    }
    Ok(emb)
}

struct Live {
    server: Server,
    space: WindowSpace,
    plan: Vec<Planned>,
    frames: Vec<Vec<u8>>,
    stream: RequestStream,
    model: CompiledModel,
}

fn setup(opts: &Opts, open_s: f64, model_path: &Path) -> Result<Live, String> {
    let space = WindowSpace::new(opts.seed);
    let mut stream = RequestStream::new(opts.seed, OFFERED_RPS, space.len(), HOT);
    let mut plan = Vec::new();
    while let Some(r) = stream.next_request() {
        if r.due_s >= open_s {
            break;
        }
        plan.push(r);
    }
    let frames = plan.iter().map(|r| space.frame(&r.windows)).collect();
    serve_model()
        .export(model_path)
        .map_err(|e| format!("export: {e}"))?;
    let model = CompiledModel::load(model_path).map_err(|e| e.to_string())?;
    let server = start_server(&opts.server_bin, model_path)?;
    Ok(Live {
        server,
        space,
        plan,
        frames,
        stream,
        model,
    })
}

#[derive(Default)]
struct OpenStats {
    latency: [Vec<f64>; 3],
    lag: Vec<f64>,
    backlog_max: usize,
    attempted: u64,
    failed: u64,
    sampled: Vec<(usize, Embeddings)>,
}

fn size_class(windows: usize) -> usize {
    match windows {
        1 => 0,
        16 => 1,
        _ => 2,
    }
}

fn open_loop(live: &Live, conns: &mut [Conn; 2], seed: u64) -> OpenStats {
    let mut st = OpenStats::default();
    let mut done = Vec::new();
    let sample_phase = (seed % SAMPLE_EVERY as u64) as usize;
    let horizon = live.plan.last().map_or(0.0, |r| r.due_s) + DRAIN_TIMEOUT_S;
    let start = Instant::now();
    let mut next = 0;
    loop {
        let t = start.elapsed().as_secs_f64();
        while next < live.plan.len() && live.plan[next].due_s <= t {
            let r = &live.plan[next];
            conns[next % 2].send(
                &live.frames[next],
                Pending {
                    req: next,
                    due: start + Duration::from_secs_f64(r.due_s),
                    windows: r.windows.len(),
                },
            );
            st.lag.push(t - r.due_s);
            st.attempted += 1;
            next += 1;
        }
        st.backlog_max = st
            .backlog_max
            .max(conns.iter().map(|c| c.pending.len()).sum());
        let mut moved = false;
        for c in conns.iter_mut() {
            match c.pump(&mut done) {
                Ok(m) => moved |= m,
                Err(e) => {
                    println!("connection failed: {e}");
                    st.failed += c.pending.drain(..).count() as u64;
                }
            }
        }
        for (p, result, at) in done.drain(..) {
            match validate(result, p.windows, &live.model) {
                Ok(emb) => {
                    st.latency[size_class(p.windows)].push((at - p.due).as_secs_f64());
                    if p.req % SAMPLE_EVERY == sample_phase {
                        st.sampled.push((p.req, emb));
                    }
                }
                Err(e) => {
                    st.failed += 1;
                    println!("request {}: {e}", p.req);
                }
            }
        }
        let idle = conns.iter().all(|c| c.pending.is_empty());
        if next == live.plan.len() && idle {
            break;
        }
        if t > horizon {
            let lost: usize = conns.iter_mut().map(|c| c.pending.drain(..).count()).sum();
            println!("{lost} requests timed out");
            st.failed += lost as u64 + (live.plan.len() - next) as u64;
            break;
        }
        if !moved {
            std::thread::sleep(IDLE_POLL);
        }
    }
    st
}

/// Both connections send back to back, each keeping [`CLOSED_DEPTH`]
/// requests outstanding; returns (median slice rate and mean rate in
/// windows per second, attempted, failed).
fn closed_loop(live: &mut Live, conns: &mut [Conn; 2], seconds: f64) -> (f64, f64, u64, u64) {
    let (mut windows, mut attempted, mut failed) = (0usize, 0u64, 0u64);
    let mut done = Vec::new();
    let mut rate = SliceRate::start();
    let start = Instant::now();
    let mut last = start;
    let issue = |c: &mut Conn, live: &mut Live, attempted: &mut u64| {
        if let Some(r) = live.stream.next_request() {
            let frame = live.space.frame(&r.windows);
            c.send(
                &frame,
                Pending {
                    req: 0,
                    due: Instant::now(),
                    windows: r.windows.len(),
                },
            );
            *attempted += 1;
        }
    };
    for c in conns.iter_mut() {
        for _ in 0..CLOSED_DEPTH {
            issue(c, live, &mut attempted);
        }
    }
    loop {
        let mut moved = false;
        for c in conns.iter_mut() {
            match c.pump(&mut done) {
                Ok(m) => moved |= m,
                Err(e) => {
                    println!("connection failed: {e}");
                    failed += c.pending.drain(..).count() as u64;
                }
            }
            for (p, result, at) in done.drain(..) {
                match validate(result, p.windows, &live.model) {
                    Ok(_) => {
                        windows += p.windows;
                        last = at;
                        if start.elapsed().as_secs_f64() < seconds {
                            rate.add(p.windows as f64);
                        }
                    }
                    Err(e) => {
                        failed += 1;
                        println!("closed-loop request: {e}");
                    }
                }
                if start.elapsed().as_secs_f64() < seconds {
                    issue(c, live, &mut attempted);
                }
            }
        }
        if conns.iter().all(|c| c.pending.is_empty()) {
            break;
        }
        if start.elapsed().as_secs_f64() > seconds + DRAIN_TIMEOUT_S {
            failed += conns
                .iter_mut()
                .map(|c| c.pending.drain(..).count() as u64)
                .sum::<u64>();
            break;
        }
        if !moved {
            std::thread::sleep(IDLE_POLL);
        }
    }
    (
        rate.median(),
        windows as f64 / (last - start).as_secs_f64(),
        attempted,
        failed,
    )
}

fn bits_equal(a: &NdArray, b: &NdArray) -> bool {
    a.shape() == b.shape()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    println!(
        "{}",
        host::describe_budget(
            THREADS,
            "server compute thread at TIMEDRL_THREADS=1 + generator thread"
        )
    );
    let mut out = Outcome::new();
    let open_s = if opts.trace { 0.3 } else { 0.6 } * opts.seconds;
    let model_path: PathBuf = opts.work_dir.join("serve_model.tdrl");
    let (mut live, setup_s) = repeat_setup(|| setup(opts, open_s, &model_path))?;
    let mut conns = [Conn::open(live.server.addr)?, Conn::open(live.server.addr)?];

    let mut st = open_loop(&live, &mut conns, opts.seed);
    out.attempted += st.attempted;
    out.failed += st.failed;
    let capacity = if opts.trace {
        None
    } else {
        let (median_rate, mean_rate, attempted, failed) =
            closed_loop(&mut live, &mut conns, 0.4 * opts.seconds);
        out.attempted += attempted;
        out.failed += failed;
        Some((median_rate, mean_rate))
    };
    let rss = host::peak_rss_mb(Some(live.server.child.id())).unwrap_or(0.0);
    drop(conns);

    // Output checks, outside the timed loops.
    let mismatched = pool::with_threads(1, || {
        st.sampled
            .iter()
            .filter(|(req, emb)| {
                let want = live
                    .model
                    .embed(&live.space.batch(&live.plan[*req].windows));
                !want.is_ok_and(|w| bits_equal(&w.z_i, &emb.z_i) && bits_equal(&w.z_t, &emb.z_t))
            })
            .count()
    });
    out.check(
        out.failed == 0,
        "every response passed its CRC, carried the Exact tag and matched its request",
    );
    out.check(
        !st.sampled.is_empty() && mismatched == 0,
        &format!(
            "{} sampled responses byte-equal to in-process CompiledModel::embed",
            st.sampled.len()
        ),
    );
    out.failed += mismatched as u64;

    let [b1, b16, b64] = &mut st.latency;
    let (s1, s16, s64) = (summarize(b1), summarize(b16), summarize(b64));
    let mut lag = st.lag.clone();
    let lag_s = summarize(&mut lag);
    println!(
        "serve_mixed: open loop {:.1} s at {OFFERED_RPS} req/s offered ({} requests, 80/15/5% of 1/16/64 \
         windows, 30% hot), 2 connections",
        open_s,
        live.plan.len()
    );
    report(
        "setup_s",
        setup_s,
        "s",
        "median of set-ups (data, model export, server start to first response)",
    );
    report("peak_rss_mb", rss, "MB", "VmHWM of the embed_server child");
    report(
        "failed_ratio",
        out.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
        "",
    );
    report(
        "serve.b1_p50_ms",
        s1.p50 * 1e3,
        "ms",
        &format!("from due time; {}", describe(&s1, 1e3, "ms")),
    );
    report("serve.b1_p99_ms", percentile(b1, 99.0) * 1e3, "ms", "");
    report(
        "serve.b16_p50_ms",
        s16.p50 * 1e3,
        "ms",
        &format!("n={}", s16.n),
    );
    report(
        "serve.b64_p50_ms",
        s64.p50 * 1e3,
        "ms",
        &format!("n={}", s64.n),
    );
    if let Some((eps, mean)) = capacity {
        report(
            "serve.saturated_eps",
            eps,
            "1/s",
            &format!("closed loop, {CLOSED_DEPTH} outstanding per connection; median slice, mean {mean:.1}"),
        );
    }
    println!(
        "  generator lag: {}; max backlog {} requests",
        describe(&lag_s, 1e3, "ms"),
        st.backlog_max
    );

    out.metric("setup_s", setup_s);
    out.metric("peak_rss_mb", rss);
    out.metric("throughput_per_s", capacity.map_or(0.0, |c| c.0));
    out.metric("latency_p50_ms", s1.p50 * 1e3);
    out.metric("latency_tail_ms", percentile(b1, 99.0) * 1e3);

    if opts.trace {
        out.metric("serve.loadgen.lag_p99_ms", percentile(&lag, 99.0) * 1e3);
        out.metric("serve.loadgen.backlog_max", st.backlog_max as f64);
        pool::with_threads(1, || replay(&live, opts.seconds, &mut out))?;
    }
    let _ = std::fs::remove_file(&model_path);
    Ok(out)
}

/// In-process replay of the open-loop requests, each on its own: untraced
/// through `Batcher::run`, then traced twice over — once whole (with
/// `Batcher::run` as one span) on cache A, and once split into its layer
/// calls on cache B, which sees the same sequence and so the same hits.
fn replay(live: &Live, seconds: f64, out: &mut Outcome) -> Result<(), String> {
    let model = &live.model;
    model.warm(1);
    model.warm(64);
    let batcher = Batcher::new(ServeConfig::default().max_batch);
    let cap = ServeConfig::default().cache_capacity;
    let payload = |i: usize| &live.frames[i][8..];
    let mut buf = Vec::new();

    // Untraced.
    let mut cache = EmbedCache::new(cap);
    let (mut n, mut windows) = (0usize, 0usize);
    let t0 = Instant::now();
    while n < live.plan.len() && (n == 0 || t0.elapsed().as_secs_f64() < 0.15 * seconds) {
        let req = protocol::decode_request(payload(n), T, 1, batcher.max_batch())
            .map_err(|e| e.to_string())?;
        let emb = batcher
            .run(model, Some(&mut cache), &[req])
            .map_err(|e| e.to_string())?;
        protocol::encode_response(&mut buf, &emb[0], model.precision());
        windows += live.plan[n].windows.len();
        n += 1;
    }
    let untraced = windows as f64 / t0.elapsed().as_secs_f64();

    // Traced, over the same requests.
    let (mut cache_a, mut cache_b) = (EmbedCache::new(cap), EmbedCache::new(cap));
    let (mut whole, mut parts) = (Tracer::new(PHASES, true), Tracer::new(PHASES, true));
    let mut traced_windows = 0usize;
    for i in 0..n {
        whole.begin();
        let req = protocol::decode_request(payload(i), T, 1, batcher.max_batch())
            .map_err(|e| e.to_string())?;
        let emb = whole
            .span(RUN, || batcher.run(model, Some(&mut cache_a), &[req]))
            .map_err(|e| e.to_string())?;
        protocol::encode_response(&mut buf, &emb[0], model.precision());
        whole.end();
        traced_windows += live.plan[i].windows.len();

        parts.begin();
        let req = parts
            .span(DECODE, || {
                protocol::decode_request(payload(i), T, 1, batcher.max_batch())
            })
            .map_err(|e| e.to_string())?;
        let rows: Vec<&[f32]> = req.data().chunks_exact(T).collect();
        let misses: Vec<&[f32]> = rows
            .iter()
            .copied()
            .filter(|w| parts.span(LOOKUP, || cache_b.lookup(w).is_none()))
            .collect();
        if !misses.is_empty() {
            let mut stacked = NdArray::zeros(&[misses.len(), T, 1]);
            for (dst, w) in stacked.data_mut().chunks_exact_mut(T).zip(&misses) {
                dst.copy_from_slice(w);
            }
            let fresh = parts
                .span(MISS_EMBED, || model.embed(&stacked))
                .map_err(|e| e.to_string())?;
            let (zi, zt) = (model.zi_dim(), model.num_patches() * model.d_model());
            for (k, w) in misses.iter().enumerate() {
                parts.span(INSERT, || {
                    cache_b.insert(
                        w,
                        &fresh.z_i.data()[k * zi..(k + 1) * zi],
                        &fresh.z_t.data()[k * zt..(k + 1) * zt],
                    )
                });
            }
        }
        parts.span(ENCODE, || {
            protocol::encode_response(&mut buf, &emb[0], model.precision())
        });
        parts.end();
    }
    let traced = traced_windows as f64 / whole.whole_total();
    let covered: f64 = [DECODE, LOOKUP, MISS_EMBED, INSERT, ENCODE]
        .iter()
        .map(|&p| parts.total(p))
        .sum();

    // Compiled plan alone at the three request sizes.
    let mut embed_us = [0.0f64; 3];
    for (slot, b) in [1usize, 16, 64].into_iter().enumerate() {
        let ids: Vec<usize> = (0..b).map(|k| (k * 7919 + 13) % live.space.len()).collect();
        let x = live.space.batch(&ids);
        model.warm(b);
        let mut samples = Vec::new();
        let t0 = Instant::now();
        while samples.len() < 5 || t0.elapsed().as_secs_f64() < 0.05 * seconds {
            let t = Instant::now();
            std::hint::black_box(
                model
                    .embed(std::hint::black_box(&x))
                    .map_err(|e| e.to_string())?,
            );
            samples.push(t.elapsed().as_secs_f64());
        }
        embed_us[slot] = median(&samples) * 1e6;
    }

    let hit_ratio = cache_a.hits() as f64 / (cache_a.hits() + cache_a.misses()).max(1) as f64;
    let us = |t: &Tracer, p| t.median(p) * 1e6;
    let rows = [
        ("serve.protocol.decode_us", us(&parts, DECODE)),
        ("serve.protocol.encode_us", us(&parts, ENCODE)),
        ("serve.cache.lookup_us", us(&parts, LOOKUP)),
        ("serve.cache.insert_us", us(&parts, INSERT)),
        ("serve.cache.hit_ratio", hit_ratio),
        ("serve.compiled.miss_embed_us", us(&parts, MISS_EMBED)),
        ("serve.batcher.run_us", us(&whole, RUN)),
        ("serve.request_us", whole.whole_median() * 1e6),
        ("serve.allocs_per_request", whole.allocs_median()),
        ("serve.compiled.embed_b1_us", embed_us[0]),
        ("serve.compiled.embed_b16_us", embed_us[1]),
        ("serve.compiled.embed_b64_us", embed_us[2]),
        ("serve.compiled.per_window_b64_us", embed_us[2] / 64.0),
        ("trace.coverage", covered / whole.whole_total()),
    ];
    println!("traced requests: {n} (per-request medians; allocations are process-wide)");
    for (name, v) in rows {
        println!("  {name:<34} {v:.4}");
        out.metric(name, v);
    }
    println!(
        "  embed per window: b1 {:.2} us, b16 {:.2} us, b64 {:.2} us",
        embed_us[0],
        embed_us[1] / 16.0,
        embed_us[2] / 64.0
    );
    let pct = (untraced / traced - 1.0) * 100.0;
    println!("  tracing overhead: untraced {untraced:.1} windows/s (Batcher replay) vs traced {traced:.1}/s -> {pct:.2}%");
    out.metric("trace.overhead_pct", pct);
    Ok(())
}
