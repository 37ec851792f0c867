//! Length-prefixed wire protocol for the embedding service.
//!
//! Every frame is `u32-le payload-len | u32-le crc32(payload) | payload`.
//! The CRC makes *any* single-byte corruption — header or float data —
//! detectable (exhaustively tested in `tests/corruption.rs`), mirroring
//! the checkpoint container's integrity story on the wire.
//!
//! Request payload (`REQ_EMBED`):
//!
//! ```text
//! u32 tag(1)   u64 batch   u64 t   u64 c   batch·t·c × f32-le
//! ```
//!
//! Response payload: `u32 status`, then for `RESP_OK`
//!
//! ```text
//! u32 precision-tag   u64 batch   u64 zi-dim   u64 t_p   u64 d
//! batch·zi-dim × f32-le (z_i)   batch·t_p·d × f32-le (z_t)
//! ```
//!
//! The precision tag names the exactness tier the embeddings were computed
//! under. This server only computes exact embeddings and always writes `0`;
//! `1` (relaxed) is the retired int8/FMA tier's tag, which still decodes so
//! that a client comparing bytes can name and refuse such a frame.
//!
//! and for `RESP_ERR` a `u32` length + UTF-8 message.
//!
//! Failure model: readers never trust a length they have not checked. A
//! lying prefix is capped by the connection's `max_payload` *before* any
//! allocation, payload reads are incremental, and every decode step
//! validates counts against the bytes actually present — malformed input
//! yields [`ServeError::BadFrame`], never a panic or an over-sized
//! reservation.

use crate::compiled::Embeddings;
use crate::error::{Result, ServeError};
use std::io::{Read, Write};
use testkit::crc32::Crc32;
use timedrl::Precision;
use timedrl_tensor::NdArray;

/// Request tag: embed a batch of raw windows.
pub const REQ_EMBED: u32 = 1;
/// Response status: success.
pub const RESP_OK: u32 = 0;
/// Response status: typed failure, payload carries the message.
pub const RESP_ERR: u32 = 1;

/// Incremental read chunk, bounding per-step allocation on lying prefixes.
const READ_CHUNK: usize = 64 * 1024;

fn bad(msg: impl Into<String>) -> ServeError {
    ServeError::BadFrame(msg.into())
}

/// Writes one frame (length prefix, checksum, payload).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<()> {
    let mut crc = Crc32::new();
    crc.update(payload);
    w.write_all(&(payload.len() as u32).to_le_bytes()).map_err(ServeError::Io)?;
    w.write_all(&crc.finish().to_le_bytes()).map_err(ServeError::Io)?;
    w.write_all(payload).map_err(ServeError::Io)?;
    Ok(())
}

/// Reads one frame into `buf` (cleared first; its capacity is reused
/// across calls, so a steady-state connection loop performs no heap
/// allocation here). Returns `false` on clean end-of-stream *before* any
/// header byte; a stream that dies mid-frame is a [`ServeError::BadFrame`].
pub fn read_frame_into(r: &mut impl Read, buf: &mut Vec<u8>, max_payload: usize) -> Result<bool> {
    buf.clear();
    let mut header = [0u8; 8];
    // Distinguish clean EOF (no more frames) from a torn header.
    let mut got = 0;
    while got < header.len() {
        let n = r.read(&mut header[got..]).map_err(ServeError::Io)?;
        if n == 0 {
            if got == 0 {
                return Ok(false);
            }
            return Err(bad(format!("stream ended {got} bytes into a frame header")));
        }
        got += n;
    }
    let len = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
    let declared_crc = u32::from_le_bytes(header[4..].try_into().unwrap());
    if len > max_payload {
        return Err(bad(format!("frame declares {len} bytes, connection cap is {max_payload}")));
    }
    let mut chunk = [0u8; READ_CHUNK];
    let mut remaining = len;
    while remaining > 0 {
        let want = remaining.min(READ_CHUNK);
        let n = r.read(&mut chunk[..want]).map_err(ServeError::Io)?;
        if n == 0 {
            return Err(bad(format!(
                "truncated frame: header declares {len} bytes, stream ended {remaining} short"
            )));
        }
        buf.extend_from_slice(&chunk[..n]);
        remaining -= n;
    }
    let mut crc = Crc32::new();
    crc.update(buf);
    if crc.finish() != declared_crc {
        return Err(bad(format!(
            "frame checksum mismatch: stored {declared_crc:#010x}, computed {:#010x}",
            crc.finish()
        )));
    }
    Ok(true)
}

/// Bounds-checked little-endian cursor over a frame payload.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if n > self.remaining() {
            return Err(bad(format!("truncated payload: need {n} bytes, {} remain", self.remaining())));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn dim(&mut self, name: &str) -> Result<usize> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| bad(format!("{name} {v} overflows")))
    }

    /// Copies `n` f32s into `dst` (already sized by a validated count).
    fn f32_into(&mut self, dst: &mut [f32]) -> Result<()> {
        let raw = self.take(dst.len() * 4)?;
        for (d, chunk) in dst.iter_mut().zip(raw.chunks_exact(4)) {
            *d = f32::from_le_bytes(chunk.try_into().unwrap());
        }
        Ok(())
    }

    fn finish(self) -> Result<()> {
        if self.remaining() != 0 {
            return Err(bad(format!("{} trailing bytes after payload", self.remaining())));
        }
        Ok(())
    }
}

fn push_f32s(buf: &mut Vec<u8>, data: &[f32]) {
    for &v in data {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

/// Encodes an embed request for a `[B, T, C]` window batch.
pub fn encode_request(windows: &NdArray) -> Vec<u8> {
    assert_eq!(windows.rank(), 3, "request encodes [B, T, C] windows");
    let mut buf = Vec::with_capacity(28 + windows.numel() * 4);
    buf.extend_from_slice(&REQ_EMBED.to_le_bytes());
    for &dim in windows.shape() {
        buf.extend_from_slice(&(dim as u64).to_le_bytes());
    }
    push_f32s(&mut buf, windows.data());
    buf
}

/// Decodes and validates an embed request against the served model's
/// window geometry and the connection's batch cap.
pub fn decode_request(
    payload: &[u8],
    expect_t: usize,
    expect_c: usize,
    max_batch: usize,
) -> Result<NdArray> {
    let mut cur = Cursor::new(payload);
    let tag = cur.u32()?;
    if tag != REQ_EMBED {
        return Err(bad(format!("unknown request tag {tag}")));
    }
    let b = cur.dim("batch")?;
    let t = cur.dim("window length")?;
    let c = cur.dim("feature count")?;
    if t != expect_t || c != expect_c {
        return Err(ServeError::BadRequest(format!(
            "model serves [*, {expect_t}, {expect_c}] windows, request sends [*, {t}, {c}]"
        )));
    }
    if b == 0 {
        return Err(ServeError::BadRequest("empty batch".into()));
    }
    if b > max_batch {
        return Err(ServeError::BadRequest(format!("batch {b} exceeds server cap {max_batch}")));
    }
    // The byte count is checked against the bytes actually present before
    // zeros() runs, so it cannot over-allocate. It is computed checked
    // because `max_batch` is an operator setting: under a huge cap, an
    // unchecked count could wrap to 0 and pass.
    let need = b
        .checked_mul(t)
        .and_then(|v| v.checked_mul(c))
        .and_then(|v| v.checked_mul(4))
        .ok_or_else(|| bad("window byte count overflows".to_string()))?;
    if cur.remaining() != need {
        return Err(bad(format!(
            "payload carries {} bytes of samples, dims {b}x{t}x{c} need {need}",
            cur.remaining()
        )));
    }
    let mut out = NdArray::zeros(&[b, t, c]);
    cur.f32_into(out.data_mut())?;
    cur.finish()?;
    Ok(out)
}

/// Encodes a success response into `buf` (cleared first, capacity reused).
/// The precision tag records the exactness tier the serving model ran under
/// ([`crate::CompiledModel::precision`], always exact).
pub fn encode_response(buf: &mut Vec<u8>, emb: &Embeddings, precision: Precision) {
    buf.clear();
    let (b, zi_dim) = (emb.z_i.shape()[0], emb.z_i.shape()[1]);
    let (t_p, d) = (emb.z_t.shape()[1], emb.z_t.shape()[2]);
    buf.extend_from_slice(&RESP_OK.to_le_bytes());
    buf.extend_from_slice(&precision.tag().to_le_bytes());
    for dim in [b, zi_dim, t_p, d] {
        buf.extend_from_slice(&(dim as u64).to_le_bytes());
    }
    push_f32s(buf, emb.z_i.data());
    push_f32s(buf, emb.z_t.data());
}

/// Encodes an error response into `buf` (cleared first).
pub fn encode_error(buf: &mut Vec<u8>, err: &ServeError) {
    buf.clear();
    let msg = err.to_string();
    buf.extend_from_slice(&RESP_ERR.to_le_bytes());
    buf.extend_from_slice(&(msg.len() as u32).to_le_bytes());
    buf.extend_from_slice(msg.as_bytes());
}

/// Decodes a response payload (client side), returning the embeddings
/// together with the exactness tier they were computed under. A
/// `RESP_ERR` payload comes back as [`ServeError::BadRequest`] carrying
/// the server's message.
pub fn decode_response(payload: &[u8]) -> Result<(Embeddings, Precision)> {
    let mut cur = Cursor::new(payload);
    match cur.u32()? {
        RESP_OK => {
            let prec_tag = cur.u32()?;
            let precision = Precision::from_tag(prec_tag)
                .ok_or_else(|| bad(format!("unknown precision tag {prec_tag}")))?;
            let b = cur.dim("batch")?;
            let zi_dim = cur.dim("zi width")?;
            let t_p = cur.dim("patch count")?;
            let d = cur.dim("d_model")?;
            let zi_n = b
                .checked_mul(zi_dim)
                .ok_or_else(|| bad("zi element count overflows".to_string()))?;
            let zt_n = b
                .checked_mul(t_p)
                .and_then(|v| v.checked_mul(d))
                .ok_or_else(|| bad("zt element count overflows".to_string()))?;
            // Each count fits on its own, but their sum in bytes need not:
            // unchecked, dims that wrap to 0 would pass the length check
            // and reach a `zeros` of 2^62 elements.
            let need = zi_n
                .checked_add(zt_n)
                .and_then(|n| n.checked_mul(4))
                .ok_or_else(|| bad("response byte count overflows".to_string()))?;
            if cur.remaining() != need {
                return Err(bad(format!(
                    "response carries {} bytes, dims need {need}",
                    cur.remaining()
                )));
            }
            let mut z_i = NdArray::zeros(&[b, zi_dim]);
            cur.f32_into(z_i.data_mut())?;
            let mut z_t = NdArray::zeros(&[b, t_p, d]);
            cur.f32_into(z_t.data_mut())?;
            cur.finish()?;
            Ok((Embeddings { z_i, z_t }, precision))
        }
        RESP_ERR => {
            let len = cur.u32()? as usize;
            let raw = cur.take(len)?;
            let msg = std::str::from_utf8(raw).map_err(|_| bad("non-UTF-8 error message".to_string()))?;
            Err(ServeError::BadRequest(format!("server error: {msg}")))
        }
        other => Err(bad(format!("unknown response status {other}"))),
    }
}
