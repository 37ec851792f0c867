//! Out-of-core dataset shards: a long `[T, C]` series split into
//! CRC-framed container files so training can stream datasets much larger
//! than RAM (DESIGN.md §16).
//!
//! # Shard container (`KIND_SHARD`, v2 framing)
//!
//! Each shard reuses the checkpoint container machinery
//! (`timedrl_tensor::serialize`): `"TDRL"` magic, `u64` payload length, an
//! IEEE CRC-32 verified before any byte is interpreted, atomic
//! temp+fsync+rename writes, and 64 KiB bounded chunked reads. The payload
//! body is a manifest header followed by a contiguous row slab:
//!
//! ```text
//! u64 shard_index    u64 total_shards   u64 global_offset
//! u64 rows           u64 channels       u64 total_rows
//! rows × channels × f32-le
//! ```
//!
//! The manifest is *self-describing and redundant*: every shard names the
//! full split it belongs to, so [`ShardedDataset::open`] can detect a
//! missing shard, a shard from a different split, or a duplicated index —
//! without a separate manifest file that could itself go stale.
//!
//! # Memory model
//!
//! [`ShardedDataset::open`] verifies every shard (full CRC read) but holds
//! only the headers. The one window reader,
//! [`ShardedDataset::shard_window_batch`], gathers only the rows covering
//! the requested windows, loading one shard slab at a time: peak resident
//! data is one slab plus the requested windows (and the row run they
//! span, at most one shard plus one window span), regardless of `T`.
//! Windows are produced by pure `memcpy` from the slabs — **bitwise-equal**
//! to the in-memory [`sliding_windows`](crate::window::sliding_windows)
//! path in any index order, including windows straddling shard boundaries
//! (a test in `crates/integration` pins this).

use crate::window::WindowedForecast;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use timedrl_tensor::serialize::{read_file, write_file_atomic, ByteReader, KIND_SHARD};
use timedrl_tensor::NdArray;

/// A failure in the shard layer, surfaced as a value per the library-code
/// panic-free contract (DESIGN.md §11).
#[derive(Debug)]
pub enum ShardError {
    /// Underlying filesystem failure (open, create, rename, …).
    Io(io::Error),
    /// The series or split geometry handed to the writer is unusable.
    BadSplit(String),
    /// A shard file failed container validation (bad magic/CRC/kind,
    /// truncation, or garbage in the manifest header).
    Corrupt {
        /// The offending file.
        path: PathBuf,
        /// What the reader rejected.
        detail: String,
    },
    /// The set of shard files in a directory does not assemble into one
    /// consistent split (missing/duplicated index, disagreeing totals,
    /// non-contiguous offsets, or a shard from a different split).
    ManifestMismatch {
        /// The shard directory.
        dir: PathBuf,
        /// What was inconsistent.
        detail: String,
    },
    /// The window plan is degenerate (zero stride or zero span), or a
    /// window index lies outside the shard's owned range.
    BadWindowPlan(String),
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Io(e) => write!(f, "shard io error: {e}"),
            ShardError::BadSplit(msg) => write!(f, "bad shard split: {msg}"),
            ShardError::Corrupt { path, detail } => {
                write!(f, "corrupt shard {}: {detail}", path.display())
            }
            ShardError::ManifestMismatch { dir, detail } => {
                write!(f, "inconsistent shard set in {}: {detail}", dir.display())
            }
            ShardError::BadWindowPlan(msg) => write!(f, "bad window plan: {msg}"),
        }
    }
}

impl std::error::Error for ShardError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ShardError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ShardError {
    fn from(e: io::Error) -> Self {
        ShardError::Io(e)
    }
}

/// The manifest header every shard file carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMeta {
    /// This shard's position in the split, `0..total_shards`.
    pub shard_index: u64,
    /// Number of shards in the split this shard belongs to.
    pub total_shards: u64,
    /// Row index (into the full series) of this shard's first row.
    pub global_offset: u64,
    /// Rows in this shard.
    pub rows: u64,
    /// Channels (`C`) — identical across the split.
    pub channels: u64,
    /// Total rows (`T`) of the full series.
    pub total_rows: u64,
}

/// The canonical on-disk name of shard `index`.
pub fn shard_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("shard_{index:05}.tdrl"))
}

/// Splits an in-memory `[T, C]` series into `KIND_SHARD` container files —
/// deterministically: the same series and `rows_per_shard` always produce
/// the same bytes.
#[derive(Debug, Clone)]
pub struct ShardWriter {
    rows_per_shard: usize,
}

impl ShardWriter {
    /// Creates a writer producing shards of `rows_per_shard` rows (the
    /// last shard holds the remainder).
    ///
    /// # Errors
    /// [`ShardError::BadSplit`] when `rows_per_shard == 0`.
    pub fn new(rows_per_shard: usize) -> Result<Self, ShardError> {
        if rows_per_shard == 0 {
            return Err(ShardError::BadSplit("rows_per_shard must be positive".into()));
        }
        Ok(Self { rows_per_shard })
    }

    /// Writes the shard files for `series` into `dir` (created if absent),
    /// atomically (temp + fsync + rename per shard). Returns the paths in
    /// shard order.
    ///
    /// # Errors
    /// [`ShardError::BadSplit`] for a non-`[T, C]` or empty series,
    /// [`ShardError::Io`] on filesystem failures.
    pub fn write(&self, series: &NdArray, dir: impl AsRef<Path>) -> Result<Vec<PathBuf>, ShardError> {
        let dir = dir.as_ref();
        if series.rank() != 2 {
            return Err(ShardError::BadSplit(format!(
                "series must be [T, C], got shape {:?}",
                series.shape()
            )));
        }
        let (t, c) = (series.shape()[0], series.shape()[1]);
        if t == 0 || c == 0 {
            return Err(ShardError::BadSplit(format!("empty series [{t}, {c}]")));
        }
        std::fs::create_dir_all(dir)?;
        let total_shards = t.div_ceil(self.rows_per_shard);
        let mut paths = Vec::with_capacity(total_shards);
        for i in 0..total_shards {
            let offset = i * self.rows_per_shard;
            let rows = self.rows_per_shard.min(t - offset);
            let meta = ShardMeta {
                shard_index: i as u64,
                total_shards: total_shards as u64,
                global_offset: offset as u64,
                rows: rows as u64,
                channels: c as u64,
                total_rows: t as u64,
            };
            let slab = &series.data()[offset * c..(offset + rows) * c];
            let mut payload = Vec::with_capacity(52 + slab.len() * 4);
            payload.extend_from_slice(&KIND_SHARD.to_le_bytes());
            for word in [
                meta.shard_index,
                meta.total_shards,
                meta.global_offset,
                meta.rows,
                meta.channels,
                meta.total_rows,
            ] {
                payload.extend_from_slice(&word.to_le_bytes());
            }
            for &v in slab {
                payload.extend_from_slice(&v.to_le_bytes());
            }
            let path = shard_path(dir, i as u64);
            write_file_atomic(&path, &payload)?;
            paths.push(path);
        }
        Ok(paths)
    }
}

fn corrupt(path: &Path, detail: impl Into<String>) -> ShardError {
    ShardError::Corrupt { path: path.to_path_buf(), detail: detail.into() }
}

/// Reads and fully validates one shard file: container framing (magic,
/// version, CRC, kind, no trailing bytes) plus manifest-header sanity.
/// Returns the header and the `rows × channels` row slab.
///
/// # Errors
/// [`ShardError::Corrupt`] on any framing or header problem;
/// [`ShardError::Io`] when the file cannot be read at all.
pub fn read_shard(path: impl AsRef<Path>) -> Result<(ShardMeta, Vec<f32>), ShardError> {
    let path = path.as_ref();
    let payload = read_file(path, KIND_SHARD).map_err(|e| {
        // InvalidData is the framing layer's corruption verdict;
        // UnexpectedEof is a truncated file — both are corruption, not
        // transient I/O.
        if matches!(e.kind(), io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof) {
            corrupt(path, e.to_string())
        } else {
            ShardError::Io(e)
        }
    })?;
    let mut r = ByteReader::new(&payload);
    let mut words = [0u64; 6];
    for w in &mut words {
        *w = r.u64().map_err(|e| corrupt(path, e.to_string()))?;
    }
    let meta = ShardMeta {
        shard_index: words[0],
        total_shards: words[1],
        global_offset: words[2],
        rows: words[3],
        channels: words[4],
        total_rows: words[5],
    };
    if meta.total_shards == 0 || meta.shard_index >= meta.total_shards {
        return Err(corrupt(
            path,
            format!("shard index {} of {} shards", meta.shard_index, meta.total_shards),
        ));
    }
    if meta.rows == 0 || meta.channels == 0 {
        return Err(corrupt(path, format!("degenerate slab [{}, {}]", meta.rows, meta.channels)));
    }
    let end = meta
        .global_offset
        .checked_add(meta.rows)
        .filter(|&end| end <= meta.total_rows)
        .ok_or_else(|| {
            corrupt(
                path,
                format!(
                    "rows {}..{:?} exceed total_rows {}",
                    meta.global_offset,
                    meta.global_offset.checked_add(meta.rows),
                    meta.total_rows
                ),
            )
        })?;
    let _ = end;
    let numel = (meta.rows as usize)
        .checked_mul(meta.channels as usize)
        .ok_or_else(|| corrupt(path, "slab element count overflows"))?;
    let slab = r.f32_vec(numel).map_err(|e| corrupt(path, e.to_string()))?;
    r.finish().map_err(|e| corrupt(path, e.to_string()))?;
    Ok((meta, slab))
}

/// A directory of shard files opened as one logical dataset.
///
/// `open` CRC-verifies every shard (loading one slab at a time, so peak
/// memory stays one shard) and cross-checks the manifest headers into one
/// consistent split; afterwards only the headers stay resident.
#[derive(Debug, Clone)]
pub struct ShardedDataset {
    dir: PathBuf,
    metas: Vec<ShardMeta>,
}

impl ShardedDataset {
    /// Opens and validates the shard set in `dir`.
    ///
    /// # Errors
    /// [`ShardError::Corrupt`] if any shard fails container validation,
    /// [`ShardError::ManifestMismatch`] if the shards do not assemble into
    /// exactly one split (missing/duplicate/foreign shards, disagreeing
    /// totals, non-contiguous offsets).
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, ShardError> {
        let dir = dir.as_ref().to_path_buf();
        let mismatch = |detail: String| ShardError::ManifestMismatch { dir: dir.clone(), detail };
        let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("shard_") && n.ends_with(".tdrl"))
            })
            .collect();
        paths.sort();
        if paths.is_empty() {
            return Err(mismatch("no shard_*.tdrl files".into()));
        }
        let mut metas = Vec::with_capacity(paths.len());
        for path in &paths {
            // Slab dropped immediately: open() never holds two shards.
            let (meta, _slab) = read_shard(path)?;
            metas.push(meta);
        }
        let total = metas[0].total_shards;
        if metas.len() as u64 != total {
            return Err(mismatch(format!(
                "{} shard files for a split of {total} shards",
                metas.len()
            )));
        }
        metas.sort_by_key(|m| m.shard_index);
        let mut offset = 0u64;
        for (i, m) in metas.iter().enumerate() {
            if m.shard_index != i as u64 {
                return Err(mismatch(format!(
                    "shard index {} where {} was expected (missing or duplicated shard)",
                    m.shard_index, i
                )));
            }
            if m.total_shards != total
                || m.channels != metas[0].channels
                || m.total_rows != metas[0].total_rows
            {
                return Err(mismatch(format!(
                    "shard {i} describes a different split ({} shards, {} channels, {} rows) \
                     than shard 0 ({total}, {}, {})",
                    m.total_shards, m.channels, m.total_rows, metas[0].channels, metas[0].total_rows
                )));
            }
            if m.global_offset != offset {
                return Err(mismatch(format!(
                    "shard {i} starts at row {} where {} was expected (gap or overlap)",
                    m.global_offset, offset
                )));
            }
            offset += m.rows;
        }
        if offset != metas[0].total_rows {
            return Err(mismatch(format!(
                "shards cover {offset} rows of a {}-row series",
                metas[0].total_rows
            )));
        }
        Ok(Self { dir, metas })
    }

    /// Number of shards in the split.
    pub fn num_shards(&self) -> usize {
        self.metas.len()
    }

    /// Channels (`C`) of the series.
    pub fn channels(&self) -> usize {
        self.metas[0].channels as usize
    }

    /// Total rows (`T`) of the full series.
    pub fn total_rows(&self) -> usize {
        self.metas[0].total_rows as usize
    }

    /// Loads shard `j`'s slab, re-verifying its CRC and re-checking the
    /// header against the one captured at `open` (a file swapped on disk
    /// in between is a manifest mismatch, not silent bad data).
    fn load_slab(&self, j: usize) -> Result<Vec<f32>, ShardError> {
        let path = shard_path(&self.dir, j as u64);
        let (meta, slab) = read_shard(&path)?;
        if meta != self.metas[j] {
            return Err(ShardError::ManifestMismatch {
                dir: self.dir.clone(),
                detail: format!("shard {j} changed on disk since open: {meta:?} vs {:?}", self.metas[j]),
            });
        }
        Ok(slab)
    }

    fn check_plan(&self, span: usize, stride: usize) -> Result<(), ShardError> {
        if stride == 0 {
            return Err(ShardError::BadWindowPlan("stride must be positive".into()));
        }
        if span == 0 {
            return Err(ShardError::BadWindowPlan("lookback + horizon must be positive".into()));
        }
        Ok(())
    }

    /// Number of `(lookback, horizon)` windows at `stride` over the full
    /// series — the same count formula as the in-memory
    /// [`sliding_windows`](crate::window::sliding_windows).
    pub fn window_count(&self, lookback: usize, horizon: usize, stride: usize) -> usize {
        let span = lookback + horizon;
        let t = self.total_rows();
        if stride == 0 || span == 0 || t < span {
            0
        } else {
            (t - span) / stride + 1
        }
    }

    /// Global index range `[start, end)` of the windows *owned* by shard
    /// `j`: a window belongs to the shard containing its first row. A shard
    /// index past the split owns nothing: `(0, 0)`.
    pub fn shard_window_range(
        &self,
        j: usize,
        lookback: usize,
        horizon: usize,
        stride: usize,
    ) -> (usize, usize) {
        let n = self.window_count(lookback, horizon, stride);
        if n == 0 || j >= self.metas.len() {
            return (0, 0);
        }
        let m = &self.metas[j];
        let (off, rows) = (m.global_offset as usize, m.rows as usize);
        let first = off.div_ceil(stride);
        let last = (off + rows - 1) / stride + 1;
        (first.min(n), last.min(n))
    }

    /// Number of windows owned by shard `j`.
    pub fn shard_window_count(&self, j: usize, lookback: usize, horizon: usize, stride: usize) -> usize {
        let (a, b) = self.shard_window_range(j, lookback, horizon, stride);
        b - a
    }

    /// Materializes only the windows `idx` — *local* indices into shard
    /// `j`'s owned window range (see [`Self::shard_window_range`]), in
    /// `idx` order. This is the sharded trainer's per-step unit: peak
    /// resident data is one shard slab plus one mini-batch of windows,
    /// never a shard's full window tensor.
    ///
    /// # Errors
    /// [`ShardError::BadWindowPlan`] on a degenerate plan or an index
    /// outside the shard's owned range, or any corruption/mismatch error
    /// from reloading the slabs.
    pub fn shard_window_batch(
        &self,
        j: usize,
        lookback: usize,
        horizon: usize,
        stride: usize,
        idx: &[usize],
    ) -> Result<WindowedForecast, ShardError> {
        let span = lookback + horizon;
        self.check_plan(span, stride)?;
        let c = self.channels();
        let (w0, w1) = self.shard_window_range(j, lookback, horizon, stride);
        let owned = w1 - w0;
        if let Some(&bad) = idx.iter().find(|&&i| i >= owned) {
            return Err(ShardError::BadWindowPlan(format!(
                "window index {bad} out of range for shard {j}'s {owned} owned windows"
            )));
        }
        if idx.is_empty() {
            return Ok(WindowedForecast {
                inputs: NdArray::zeros(&[0, lookback, c]),
                targets: NdArray::zeros(&[0, horizon, c]),
            });
        }
        // Rows covering the selected windows only.
        let lo = *idx.iter().min().expect("non-empty idx");
        let hi = *idx.iter().max().expect("non-empty idx");
        let row_lo = (w0 + lo) * stride;
        let row_hi = (w0 + hi) * stride + span;
        let rows = self.gather_row_range(row_lo, row_hi)?;
        let n = idx.len();
        let mut inputs = Vec::with_capacity(n * lookback * c);
        let mut targets = Vec::with_capacity(n * horizon * c);
        for &i in idx {
            let start = (w0 + i) * stride - row_lo;
            inputs.extend_from_slice(&rows[start * c..(start + lookback) * c]);
            let tstart = start + lookback;
            targets.extend_from_slice(&rows[tstart * c..(tstart + horizon) * c]);
        }
        Ok(WindowedForecast {
            inputs: NdArray::from_vec(&[n, lookback, c], inputs).expect("window shape"),
            targets: NdArray::from_vec(&[n, horizon, c], targets).expect("target shape"),
        })
    }

    /// Gathers global rows `[row_lo, row_hi)` from the minimal run of
    /// shards covering the range, holding one slab at a time.
    fn gather_row_range(&self, row_lo: usize, row_hi: usize) -> Result<Vec<f32>, ShardError> {
        let c = self.channels();
        let mut rows: Vec<f32> = Vec::with_capacity((row_hi - row_lo) * c);
        for (k, m) in self.metas.iter().enumerate() {
            let (off, len) = (m.global_offset as usize, m.rows as usize);
            if off + len <= row_lo || off >= row_hi {
                continue;
            }
            let slab = self.load_slab(k)?;
            let lo = row_lo.max(off) - off;
            let hi = row_hi.min(off + len) - off;
            rows.extend_from_slice(&slab[lo * c..hi * c]);
        }
        Ok(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(t: usize, c: usize) -> NdArray {
        NdArray::from_fn(&[t, c], |i| (i as f32).sin() * 3.0 + i as f32 * 0.01)
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("timedrl_shard_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn roundtrip_reassembles_the_series() {
        let dir = tmp("roundtrip");
        let s = series(37, 3);
        let paths = ShardWriter::new(10).unwrap().write(&s, &dir).unwrap();
        assert_eq!(paths.len(), 4); // 10+10+10+7
        let ds = ShardedDataset::open(&dir).unwrap();
        assert_eq!(ds.num_shards(), 4);
        assert_eq!(ds.total_rows(), 37);
        assert_eq!(ds.channels(), 3);
        let mut rows = Vec::new();
        for j in 0..ds.num_shards() {
            rows.extend(ds.load_slab(j).unwrap());
        }
        assert_eq!(rows, s.data());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn writer_rejects_degenerate_input() {
        assert!(matches!(ShardWriter::new(0), Err(ShardError::BadSplit(_))));
        let dir = tmp("degenerate");
        let w = ShardWriter::new(4).unwrap();
        let rank1 = NdArray::from_fn(&[5], |i| i as f32);
        assert!(matches!(w.write(&rank1, &dir), Err(ShardError::BadSplit(_))));
        let empty = NdArray::zeros(&[0, 2]);
        assert!(matches!(w.write(&empty, &dir), Err(ShardError::BadSplit(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_window_ranges_partition_all_windows() {
        let dir = tmp("ranges");
        ShardWriter::new(7).unwrap().write(&series(53, 2), &dir).unwrap();
        let ds = ShardedDataset::open(&dir).unwrap();
        for (lookback, horizon, stride) in [(5, 2, 1), (8, 0, 3), (16, 4, 5), (60, 0, 1)] {
            let n = ds.window_count(lookback, horizon, stride);
            let mut covered = 0;
            let mut next = 0;
            for j in 0..ds.num_shards() {
                let (a, b) = ds.shard_window_range(j, lookback, horizon, stride);
                assert!(a == next || a == b, "range gap at shard {j}");
                if a < b {
                    next = b;
                }
                covered += b - a;
            }
            assert_eq!(covered, n, "plan ({lookback},{horizon},{stride})");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn degenerate_plans_are_typed_errors() {
        let dir = tmp("plans");
        ShardWriter::new(8).unwrap().write(&series(20, 1), &dir).unwrap();
        let ds = ShardedDataset::open(&dir).unwrap();
        for (lookback, horizon, stride) in [(4, 1, 0), (0, 0, 1)] {
            assert!(matches!(
                ds.shard_window_batch(0, lookback, horizon, stride, &[0]),
                Err(ShardError::BadWindowPlan(_))
            ));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stride_past_a_whole_shard_streams_without_panicking() {
        // 35 rows in 10-row shards, windows (5, 0, 25): window 1 starts at
        // row 25, so shard 2 owns it and shard 1 owns nothing; reading it
        // must skip shard 1's slab entirely.
        let dir = tmp("stride_jump");
        let s = series(35, 1);
        ShardWriter::new(10).unwrap().write(&s, &dir).unwrap();
        let ds = ShardedDataset::open(&dir).unwrap();
        let mut got = Vec::new();
        for j in 0..ds.num_shards() {
            let idx: Vec<usize> = (0..ds.shard_window_count(j, 5, 0, 25)).collect();
            let wf = ds.shard_window_batch(j, 5, 0, 25, &idx).unwrap();
            got.extend(wf.inputs.data().chunks(5).map(<[f32]>::to_vec));
        }
        assert_eq!(got.len(), 2);
        for (w, input) in got.iter().enumerate() {
            let start = w * 25;
            assert_eq!(input, &s.data()[start..start + 5], "window {w}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_window_batch_matches_full_materialization() {
        let dir = tmp("batch");
        let s = series(53, 2);
        ShardWriter::new(7).unwrap().write(&s, &dir).unwrap();
        let ds = ShardedDataset::open(&dir).unwrap();
        let (lookback, horizon, stride) = (5, 2, 3);
        let full = crate::window::sliding_windows(&s, lookback, horizon, stride);
        for j in 0..ds.num_shards() {
            let (w0, w1) = ds.shard_window_range(j, lookback, horizon, stride);
            let n = w1 - w0;
            if n == 0 {
                continue;
            }
            // Reversed order: batches are shuffled index lists, so the
            // gather must honor `idx` order, not window order.
            let idx: Vec<usize> = (0..n).rev().collect();
            let batch = ds.shard_window_batch(j, lookback, horizon, stride, &idx).unwrap();
            for (k, &i) in idx.iter().enumerate() {
                assert_eq!(
                    batch.inputs.slice(0, k, 1).unwrap().data(),
                    full.inputs.slice(0, w0 + i, 1).unwrap().data(),
                    "shard {j} window {i} input bytes"
                );
                assert_eq!(
                    batch.targets.slice(0, k, 1).unwrap().data(),
                    full.targets.slice(0, w0 + i, 1).unwrap().data(),
                    "shard {j} window {i} target bytes"
                );
            }
            // An index past the owned range is a typed error, not a panic.
            assert!(matches!(
                ds.shard_window_batch(j, lookback, horizon, stride, &[n]),
                Err(ShardError::BadWindowPlan(_))
            ));
        }
        // A shard index past the split owns no windows: any index is the
        // same typed error, and the count is zero.
        let past = ds.num_shards();
        assert_eq!(ds.shard_window_count(past, lookback, horizon, stride), 0);
        assert!(matches!(
            ds.shard_window_batch(past, lookback, horizon, stride, &[0]),
            Err(ShardError::BadWindowPlan(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_rejects_an_empty_directory() {
        let dir = tmp("empty_dir");
        assert!(matches!(
            ShardedDataset::open(&dir),
            Err(ShardError::ManifestMismatch { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
