//! Crash-safe, dependency-free binary serialization for arrays, parameter
//! sets, and (via [`write_file_atomic`]/[`read_file`]) arbitrary framed
//! payloads such as full training-state snapshots.
//!
//! # Container format v2 (`TDRL` magic, little-endian)
//!
//! ```text
//! "TDRL"  u32-version(2)  u64-payload-len  u32-crc32(payload)  payload
//! ```
//!
//! The payload starts with a `u32` *kind* tag ([`KIND_ARRAYS`] for plain
//! array lists, [`KIND_TRAIN_STATE`] for the trainer's full snapshot) and
//! is covered end-to-end by an IEEE CRC-32 ([`testkit::crc32()`]). An array
//! list is encoded as:
//!
//! ```text
//! u32-count   per array: u32-rank, rank × u64-dim, numel × f32-le
//! ```
//!
//! # Failure model
//!
//! Readers must survive *any* byte stream without panicking or allocating
//! beyond the data actually present:
//!
//! - the payload is read incrementally in small chunks, so a header that
//!   advertises a huge length on a truncated file fails with `InvalidData`
//!   after reading only what exists;
//! - the checksum is verified *before* any payload byte is interpreted;
//! - every count/rank/dim is validated against the number of bytes
//!   remaining, so no corrupt header can request a gigabyte
//!   `Vec::with_capacity`;
//! - trailing bytes after the framed payload are rejected.
//!
//! Writers are atomic: the container is written to a sibling temp file,
//! fsynced, and renamed over the destination, so a crash mid-write leaves
//! either the old checkpoint or the new one — never a torn file.

use crate::array::NdArray;
use crate::var::Var;
use std::fs::File;
use std::io::{self, BufReader, Read, Write};
use std::path::Path;
use testkit::crc32::Crc32;

const MAGIC: &[u8; 4] = b"TDRL";
const VERSION: u32 = 2;

/// Payload kind tag: a plain list of arrays (model parameters).
pub const KIND_ARRAYS: u32 = 1;
/// Payload kind tag: a full training-state snapshot (parameters, optimizer
/// moments, counters, PRNG streams — composed by `timedrl-core`).
pub const KIND_TRAIN_STATE: u32 = 2;
/// Payload kind tag: a self-describing model export — an inference-config
/// header followed by the parameter arrays (composed by `timedrl-core`,
/// consumed by `timedrl-serve`'s compiled inference path).
pub const KIND_MODEL: u32 = 3;
/// Payload kind tag: one dataset shard — a manifest header (shard index,
/// total shards, global row offset, channel count, total rows) followed by
/// a contiguous `[T_shard, C]` f32 slab (composed and consumed by
/// `timedrl-data`'s out-of-core shard reader/writer).
pub const KIND_SHARD: u32 = 4;
/// Payload kind tag: one shard's gradient contribution to a sharded
/// pre-training step — shard index, step, sample count, loss breakdown,
/// then the gradient arrays in stable `parameters()` order (composed and
/// consumed by `timedrl-core`'s multi-process shard trainer).
pub const KIND_SHARD_GRAD: u32 = 5;

/// Incremental read chunk: bounds per-step allocation so a lying
/// `payload_len` cannot trigger a huge up-front reservation.
const READ_CHUNK: usize = 64 * 1024;

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

// ---------------------------------------------------------------------------
// Container framing
// ---------------------------------------------------------------------------

/// Writes one framed container (header + checksum + payload) to `w`. The
/// payload must already begin with its `u32` kind tag — use
/// [`encode_arrays`] or a caller-composed buffer.
pub fn write_container(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let mut crc = Crc32::new();
    crc.update(payload);
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&(payload.len() as u64).to_le_bytes())?;
    w.write_all(&crc.finish().to_le_bytes())?;
    w.write_all(payload)?;
    Ok(())
}

/// Reads one framed container from `r`, verifies the checksum, checks the
/// kind tag, and requires EOF right after the payload (no trailing bytes).
/// Returns the payload with the kind tag already consumed.
///
/// `size_hint` bounds the up-front payload reservation (pass the file size
/// when known); the read itself is incremental either way, so memory never
/// exceeds the bytes actually present plus one chunk.
///
/// # Errors
/// `InvalidData` on bad magic, unsupported version, checksum mismatch,
/// wrong kind, truncation, or trailing bytes.
pub fn read_container(
    r: &mut impl Read,
    expect_kind: u32,
    size_hint: Option<u64>,
) -> io::Result<Vec<u8>> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(invalid("not a TDRL checkpoint"));
    }
    let version = read_u32(r)?;
    if version != VERSION {
        return Err(invalid(format!(
            "unsupported checkpoint version {version} (this build reads v{VERSION})"
        )));
    }
    let payload_len = read_u64(r)?;
    let declared_crc = read_u32(r)?;
    if let Some(limit) = size_hint {
        // 20-byte header; a payload longer than the file is a lie.
        if payload_len > limit.saturating_sub(20) {
            return Err(invalid(format!(
                "payload length {payload_len} exceeds container size {limit}"
            )));
        }
    }
    // Incremental, bounded read: allocation tracks bytes actually received.
    let reserve = payload_len.min(size_hint.unwrap_or(READ_CHUNK as u64)) as usize;
    let mut payload: Vec<u8> = Vec::with_capacity(reserve.min(1 << 20));
    let mut chunk = [0u8; READ_CHUNK];
    let mut remaining = payload_len;
    while remaining > 0 {
        let want = (remaining as usize).min(READ_CHUNK);
        let got = r.read(&mut chunk[..want])?;
        if got == 0 {
            return Err(invalid(format!(
                "truncated payload: header declares {payload_len} bytes, stream ended {remaining} short"
            )));
        }
        payload.extend_from_slice(&chunk[..got]);
        remaining -= got as u64;
    }
    let mut crc = Crc32::new();
    crc.update(&payload);
    if crc.finish() != declared_crc {
        return Err(invalid(format!(
            "checksum mismatch: stored {declared_crc:#010x}, computed {:#010x}",
            crc.finish()
        )));
    }
    if r.read(&mut chunk[..1])? != 0 {
        return Err(invalid("trailing bytes after checkpoint payload"));
    }
    if payload.len() < 4 {
        return Err(invalid("payload too short for its kind tag"));
    }
    let kind = u32::from_le_bytes(payload[..4].try_into().unwrap());
    if kind != expect_kind {
        return Err(invalid(format!(
            "checkpoint kind {kind} where kind {expect_kind} was expected"
        )));
    }
    payload.drain(..4);
    Ok(payload)
}

// ---------------------------------------------------------------------------
// Bounds-checked payload decoding
// ---------------------------------------------------------------------------

/// A bounds-checked cursor over a decoded payload: every getter validates
/// the remaining length, so corrupt counts fail with `InvalidData` instead
/// of a slice panic or an over-sized allocation.
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Wraps a payload slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if n > self.remaining() {
            return Err(invalid(format!(
                "truncated payload: need {n} bytes, {} remain",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads `n` little-endian `f32`s; `n` is validated against the
    /// remaining length *before* any allocation.
    pub fn f32_vec(&mut self, n: usize) -> io::Result<Vec<f32>> {
        let bytes = n
            .checked_mul(4)
            .ok_or_else(|| invalid("f32 count overflows"))?;
        let raw = self.take(bytes)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// Requires every byte to have been consumed (rejects trailing bytes
    /// after the last decoded section).
    pub fn finish(self) -> io::Result<()> {
        if self.remaining() != 0 {
            return Err(invalid(format!(
                "{} trailing bytes after final section",
                self.remaining()
            )));
        }
        Ok(())
    }
}

/// Appends an array-list section (`u32-count`, then each array) to `buf`.
pub fn encode_arrays(buf: &mut Vec<u8>, arrays: &[&NdArray]) {
    buf.extend_from_slice(&(arrays.len() as u32).to_le_bytes());
    for a in arrays {
        buf.extend_from_slice(&(a.rank() as u32).to_le_bytes());
        for &dim in a.shape() {
            buf.extend_from_slice(&(dim as u64).to_le_bytes());
        }
        for &v in a.data() {
            buf.extend_from_slice(&v.to_le_bytes());
        }
    }
}

/// Decodes an array-list section. Every rank, dim, and element count is
/// checked against the bytes remaining in `r` before anything is
/// allocated.
pub fn decode_arrays(r: &mut ByteReader) -> io::Result<Vec<NdArray>> {
    let count = r.u32()? as usize;
    // Each array needs at least its 4-byte rank word.
    if count > r.remaining() / 4 {
        return Err(invalid(format!(
            "array count {count} impossible in {} remaining bytes",
            r.remaining()
        )));
    }
    let mut arrays = Vec::with_capacity(count);
    for i in 0..count {
        let rank = r.u32()? as usize;
        if rank > 16 {
            return Err(invalid(format!("array {i}: implausible rank {rank}")));
        }
        let mut shape = Vec::with_capacity(rank);
        let mut numel: usize = 1;
        for _ in 0..rank {
            let dim = r.u64()?;
            let dim = usize::try_from(dim)
                .map_err(|_| invalid(format!("array {i}: dimension {dim} overflows")))?;
            numel = numel
                .checked_mul(dim)
                .ok_or_else(|| invalid(format!("array {i}: element count overflows")))?;
            shape.push(dim);
        }
        // The cap that makes corrupt headers harmless: the elements must
        // actually be present in the payload before any buffer is sized.
        let data = r.f32_vec(numel).map_err(|_| {
            invalid(format!(
                "array {i}: {numel} elements declared but only {} bytes remain",
                r.remaining()
            ))
        })?;
        arrays.push(
            NdArray::from_vec(&shape, data).map_err(|e| invalid(e.to_string()))?,
        );
    }
    Ok(arrays)
}

// ---------------------------------------------------------------------------
// Stream-level array API (v1-compatible signatures)
// ---------------------------------------------------------------------------

/// Writes a sequence of arrays to `w` as one framed v2 container.
pub fn write_arrays(w: &mut impl Write, arrays: &[&NdArray]) -> io::Result<()> {
    let mut payload = Vec::new();
    payload.extend_from_slice(&KIND_ARRAYS.to_le_bytes());
    encode_arrays(&mut payload, arrays);
    write_container(w, &payload)
}

/// Reads a sequence of arrays from a framed v2 container.
///
/// # Errors
/// Returns `InvalidData` on a bad magic number, unsupported version,
/// checksum mismatch, truncated or over-long payload, corrupt shape
/// metadata, or trailing bytes.
pub fn read_arrays(r: &mut impl Read) -> io::Result<Vec<NdArray>> {
    let payload = read_container(r, KIND_ARRAYS, None)?;
    let mut reader = ByteReader::new(&payload);
    let arrays = decode_arrays(&mut reader)?;
    reader.finish()?;
    Ok(arrays)
}

fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

// ---------------------------------------------------------------------------
// Atomic file API
// ---------------------------------------------------------------------------

/// Atomically writes a framed container to `path`: the bytes go to a
/// sibling `.tmp` file which is fsynced and then renamed over the
/// destination. A crash at any point leaves either the previous file or
/// the complete new one.
pub fn write_file_atomic(path: impl AsRef<Path>, payload: &[u8]) -> io::Result<()> {
    let path = path.as_ref();
    let tmp = match path.file_name() {
        Some(name) => {
            let mut n = name.to_os_string();
            n.push(".tmp");
            path.with_file_name(n)
        }
        None => return Err(invalid(format!("invalid checkpoint path {path:?}"))),
    };
    let result = (|| {
        let mut f = File::create(&tmp)?;
        write_container(&mut f, payload)?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)?;
        // Make the rename itself durable; failure to fsync the directory
        // (exotic filesystems) only weakens durability, not atomicity.
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Reads and validates a framed container from `path`, returning the
/// payload body (kind tag consumed). The file size bounds every
/// allocation, so a corrupt header can never over-allocate.
pub fn read_file(path: impl AsRef<Path>, expect_kind: u32) -> io::Result<Vec<u8>> {
    let f = File::open(path.as_ref())?;
    let size = f.metadata()?.len();
    read_container(&mut BufReader::new(f), expect_kind, Some(size))
}

/// Saves a parameter set (in its stable `parameters()` order) to `path`,
/// atomically (temp file + fsync + rename).
pub fn save_parameters(path: impl AsRef<Path>, params: &[Var]) -> io::Result<()> {
    let arrays: Vec<NdArray> = params.iter().map(|p| p.to_array()).collect();
    let refs: Vec<&NdArray> = arrays.iter().collect();
    let mut payload = Vec::new();
    payload.extend_from_slice(&KIND_ARRAYS.to_le_bytes());
    encode_arrays(&mut payload, &refs);
    write_file_atomic(path, &payload)
}

/// Loads a checkpoint from `path` into an existing parameter set. Count
/// and shapes must match exactly — a mismatch means the checkpoint belongs
/// to a different configuration.
pub fn load_parameters(path: impl AsRef<Path>, params: &[Var]) -> io::Result<()> {
    let payload = read_file(path, KIND_ARRAYS)?;
    let mut reader = ByteReader::new(&payload);
    let arrays = decode_arrays(&mut reader)?;
    reader.finish()?;
    if arrays.len() != params.len() {
        return Err(invalid(format!(
            "checkpoint has {} arrays, model has {} parameters",
            arrays.len(),
            params.len()
        )));
    }
    for (p, a) in params.iter().zip(&arrays) {
        if p.shape() != a.shape() {
            return Err(invalid(format!(
                "parameter shape {:?} vs checkpoint {:?}",
                p.shape(),
                a.shape()
            )));
        }
    }
    for (p, a) in params.iter().zip(arrays) {
        p.set_value(a);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Prng;

    #[test]
    fn roundtrip_in_memory() {
        let mut rng = Prng::new(0);
        let a = rng.randn(&[3, 4]);
        let b = NdArray::scalar(7.5);
        let c = rng.randn(&[2, 2, 2]);
        let mut buf = Vec::new();
        write_arrays(&mut buf, &[&a, &b, &c]).unwrap();
        let back = read_arrays(&mut buf.as_slice()).unwrap();
        assert_eq!(back, vec![a, b, c]);
    }

    #[test]
    fn rejects_bad_magic() {
        let buf = b"NOPE\x02\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00".to_vec();
        assert!(read_arrays(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn rejects_truncated_payload() {
        let mut rng = Prng::new(1);
        let a = rng.randn(&[4, 4]);
        let mut buf = Vec::new();
        write_arrays(&mut buf, &[&a]).unwrap();
        buf.truncate(buf.len() - 7);
        assert!(read_arrays(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn rejects_trailing_bytes() {
        let mut rng = Prng::new(5);
        let a = rng.randn(&[2, 2]);
        let mut buf = Vec::new();
        write_arrays(&mut buf, &[&a]).unwrap();
        buf.push(0);
        assert!(read_arrays(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn rejects_any_single_byte_flip() {
        let mut rng = Prng::new(6);
        let a = rng.randn(&[3, 3]);
        let mut buf = Vec::new();
        write_arrays(&mut buf, &[&a]).unwrap();
        for i in 0..buf.len() {
            let mut corrupt = buf.clone();
            corrupt[i] ^= 0x40;
            let res = read_arrays(&mut corrupt.as_slice());
            assert!(res.is_err(), "flip at byte {i}/{} went undetected", buf.len());
        }
    }

    #[test]
    fn corrupt_header_cannot_over_allocate() {
        // Handcraft a payload claiming a 2^32-element array with no data
        // behind it: the reader must fail on the length check, not attempt
        // the allocation.
        let mut payload = Vec::new();
        payload.extend_from_slice(&KIND_ARRAYS.to_le_bytes());
        payload.extend_from_slice(&1u32.to_le_bytes()); // count = 1
        payload.extend_from_slice(&2u32.to_le_bytes()); // rank = 2
        payload.extend_from_slice(&(1u64 << 16).to_le_bytes());
        payload.extend_from_slice(&(1u64 << 16).to_le_bytes());
        let mut buf = Vec::new();
        write_container(&mut buf, &payload).unwrap();
        let before = testkit::alloc::allocated_bytes();
        assert!(read_arrays(&mut buf.as_slice()).is_err());
        let grown = testkit::alloc::allocated_bytes() - before;
        assert!(grown < 1 << 20, "reader allocated {grown} bytes on a corrupt header");
    }

    #[test]
    fn rejects_v1_and_future_versions() {
        for version in [1u32, 3] {
            let mut buf = Vec::new();
            buf.extend_from_slice(MAGIC);
            buf.extend_from_slice(&version.to_le_bytes());
            buf.extend_from_slice(&0u64.to_le_bytes());
            buf.extend_from_slice(&0u32.to_le_bytes());
            let err = read_arrays(&mut buf.as_slice()).unwrap_err();
            assert!(err.to_string().contains("version"), "{err}");
        }
    }

    #[test]
    fn save_load_parameters_roundtrip() {
        let mut rng = Prng::new(2);
        let p1 = Var::parameter(rng.randn(&[5]));
        let p2 = Var::parameter(rng.randn(&[2, 3]));
        let dir = std::env::temp_dir().join("timedrl_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.tdrl");
        save_parameters(&path, &[p1.clone(), p2.clone()]).unwrap();
        let orig1 = p1.to_array();
        let orig2 = p2.to_array();
        // Perturb, then restore.
        p1.set_value(NdArray::zeros(&[5]));
        p2.set_value(NdArray::zeros(&[2, 3]));
        load_parameters(&path, &[p1.clone(), p2.clone()]).unwrap();
        assert_eq!(p1.to_array(), orig1);
        assert_eq!(p2.to_array(), orig2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn atomic_save_leaves_no_temp_file() {
        let mut rng = Prng::new(4);
        let p = Var::parameter(rng.randn(&[4]));
        let dir = std::env::temp_dir().join("timedrl_ckpt_atomic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.tdrl");
        save_parameters(&path, &[p.clone()]).unwrap();
        // Overwrite in place: the previous file must be replaced, and no
        // .tmp sibling may survive.
        save_parameters(&path, &[p]).unwrap();
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp files left behind: {leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_rejects_shape_mismatch() {
        let mut rng = Prng::new(3);
        let p = Var::parameter(rng.randn(&[4]));
        let dir = std::env::temp_dir().join("timedrl_ckpt_test2");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.tdrl");
        save_parameters(&path, &[p]).unwrap();
        let wrong = Var::parameter(rng.randn(&[5]));
        assert!(load_parameters(&path, &[wrong]).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
