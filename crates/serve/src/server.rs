//! The serving loops. Both transports run one private frame loop (read,
//! decode, answer, encode, write); they differ only in how a decoded
//! request is answered. [`serve_stream`] answers on its own thread with a
//! local [`Batcher`] and [`EmbedCache`]; [`serve_tcp`] gives each
//! connection a thread that hands its windows to a single compute thread,
//! which drains the queue into coalesced micro-batches.

use crate::batcher::Batcher;
use crate::cache::EmbedCache;
use crate::compiled::{CompiledModel, Embeddings};
use crate::error::{Result, ServeError};
use crate::protocol;
use std::io::{Read, Write};
use std::net::TcpListener;
use std::sync::mpsc;
use timedrl::Precision;
use timedrl_tensor::NdArray;

/// Serving knobs; `Default` is sized for interactive embedding traffic.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Largest coalesced batch per encoder pass (and per request).
    pub max_batch: usize,
    /// Largest accepted frame payload, in bytes. Checked against the
    /// length prefix *before* any payload allocation.
    pub max_payload: usize,
    /// Windows held by the embedding cache; `0` disables caching.
    pub cache_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self { max_batch: 64, max_payload: 64 << 20, cache_capacity: 1024 }
    }
}

/// Statistics from one serving session.
#[derive(Debug, Default, Clone, Copy)]
pub struct ServeStats {
    /// Requests answered with embeddings.
    pub served: u64,
    /// Requests answered with a typed error frame.
    pub rejected: u64,
    /// Cache hits / misses across the session.
    pub cache_hits: u64,
    /// See `cache_hits`.
    pub cache_misses: u64,
}

/// The one frame loop: answers every frame read from `r` with one frame
/// on `w`, until clean end-of-stream or a torn frame (truncated or
/// checksum-corrupt), after which the stream can no longer be trusted to
/// be frame-aligned. `(t, c)` is the served window geometry; `answer`
/// embeds one decoded request.
fn frame_loop(
    r: &mut impl Read,
    w: &mut impl Write,
    cfg: ServeConfig,
    (t, c): (usize, usize),
    precision: Precision,
    mut answer: impl FnMut(NdArray) -> Result<Embeddings>,
) -> Result<ServeStats> {
    let mut stats = ServeStats::default();
    // Reused across requests: steady-state frame handling allocates only
    // inside the answer step.
    let mut frame = Vec::new();
    let mut out = Vec::new();
    loop {
        let (reply, torn) = match protocol::read_frame_into(r, &mut frame, cfg.max_payload) {
            Ok(false) => return Ok(stats),
            Ok(true) => {
                (protocol::decode_request(&frame, t, c, cfg.max_batch).and_then(&mut answer), false)
            }
            Err(err) => (Err(err), true),
        };
        match reply {
            Ok(emb) => {
                stats.served += 1;
                protocol::encode_response(&mut out, &emb, precision);
            }
            Err(err) => {
                stats.rejected += 1;
                protocol::encode_error(&mut out, &err);
            }
        }
        protocol::write_frame(w, &out)?;
        w.flush().map_err(ServeError::Io)?;
        if torn {
            return Ok(stats);
        }
    }
}

/// Embeds one request alone: the stream server's answer step, and the
/// compute thread's fallback when a coalesced pass fails.
fn embed_one(
    batcher: &Batcher,
    model: &CompiledModel,
    cache: &mut EmbedCache,
    req: &NdArray,
) -> Result<Embeddings> {
    let mut embs = batcher.run(model, Some(cache), std::slice::from_ref(req))?;
    Ok(embs.pop().expect("one request in, one embedding out"))
}

/// Serves frames from `r`, writing one response frame per request to `w`,
/// until clean end-of-stream. A malformed *request* gets an error frame
/// and the loop continues; a torn *frame* gets an error frame and ends the
/// session. Warms the calling thread's arena first: the buffer pool is
/// thread-local, so only the thread that runs the encoder can warm it.
pub fn serve_stream(
    model: &CompiledModel,
    r: &mut impl Read,
    w: &mut impl Write,
    cfg: ServeConfig,
) -> Result<ServeStats> {
    model.warm(1);
    model.warm(cfg.max_batch);
    let mut cache = EmbedCache::new(cfg.cache_capacity);
    let batcher = Batcher::new(cfg.max_batch);
    let geometry = (model.input_len(), model.n_features());
    let mut stats = frame_loop(r, w, cfg, geometry, model.precision(), |req| {
        embed_one(&batcher, model, &mut cache, &req)
    })?;
    stats.cache_hits = cache.hits();
    stats.cache_misses = cache.misses();
    Ok(stats)
}

/// One queued unit of work: a decoded request plus the connection's reply
/// channel its embeddings go back on.
struct Job {
    windows: NdArray,
    reply: mpsc::SyncSender<Result<Embeddings>>,
}

/// Serves TCP connections on `listener` forever. Each connection gets a
/// thread running the same frame loop as [`serve_stream`]; its answer
/// step queues the decoded windows and waits on the connection's one
/// reply channel. A single compute thread owns the model and cache, warms
/// its own arena, and drains however many jobs are queued the moment it
/// goes idle into one coalesced batch (adaptive micro-batching, capped at
/// `cfg.max_batch`).
pub fn serve_tcp(model: CompiledModel, listener: TcpListener, cfg: ServeConfig) -> Result<()> {
    let geometry = (model.input_len(), model.n_features());
    let precision = model.precision();
    let (tx, rx) = mpsc::channel::<Job>();

    let compute = std::thread::spawn(move || {
        model.warm(1);
        model.warm(cfg.max_batch);
        let mut cache = EmbedCache::new(cfg.cache_capacity);
        let batcher = Batcher::new(cfg.max_batch);
        let (mut requests, mut replies) = (Vec::new(), Vec::new());
        while let Ok(first) = rx.recv() {
            // Adaptive coalescing: take everything already waiting.
            let mut next = Some(first);
            while let Some(job) = next {
                requests.push(job.windows);
                replies.push(job.reply);
                next = if requests.len() < cfg.max_batch { rx.try_recv().ok() } else { None };
            }
            match batcher.run(&model, Some(&mut cache), &requests) {
                Ok(embs) => {
                    for (reply, emb) in replies.drain(..).zip(embs) {
                        let _ = reply.send(Ok(emb));
                    }
                }
                // A failed coalesced pass answers each member alone, so
                // every request gets the reply `serve_stream` would give.
                Err(_) => {
                    for (req, reply) in requests.iter().zip(replies.drain(..)) {
                        let _ = reply.send(embed_one(&batcher, &model, &mut cache, req));
                    }
                }
            }
            requests.clear();
        }
    });

    for conn in listener.incoming() {
        // A failed accept (ECONNABORTED, EMFILE, ...) costs one connection,
        // not the server; the pause keeps EMFILE from spinning a core.
        let Ok(stream) = conn else {
            std::thread::sleep(std::time::Duration::from_millis(10));
            continue;
        };
        let tx = tx.clone();
        std::thread::spawn(move || {
            let (reply, replies) = mpsc::sync_channel(1);
            let gone = || ServeError::BadRequest("compute thread gone".into());
            let _ = frame_loop(&mut &stream, &mut &stream, cfg, geometry, precision, |windows| {
                tx.send(Job { windows, reply: reply.clone() }).map_err(|_| gone())?;
                replies.recv().map_err(|_| gone())?
            });
        });
    }
    drop(tx);
    let _ = compute.join();
    Ok(())
}
