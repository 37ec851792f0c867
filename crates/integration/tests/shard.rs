//! Cross-crate shard suite: the sharded reader against the in-memory
//! window path (bitwise), the corruption/mismatch rejection contract, and
//! multi-worker sharded pretraining against the single-worker run
//! (byte-identical final checkpoints).

use std::path::PathBuf;
use timedrl::{run_shard_worker, ShardTrainPlan, TimeDrl, TimeDrlConfig, TrainError};
use timedrl_data::{sliding_windows, ShardError, ShardWriter, ShardedDataset};
use timedrl_tensor::NdArray;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("timedrl_it_shard_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn series(t: usize, c: usize, seed: u64) -> NdArray {
    NdArray::from_fn(&[t, c], |i| {
        let x = (i as u64).wrapping_mul(0x9e37_79b9).wrapping_add(seed) as f32;
        (x * 1e-6).sin() * 2.0 + (i as f32) * 0.001
    })
}

/// The equivalence property: every window read from shards is
/// bitwise-equal to the in-memory `sliding_windows` output — including
/// windows straddling shard boundaries, shards smaller than one window,
/// shards holding exactly one window, and strides that jump past
/// entire shards.
#[test]
fn sharded_windows_are_bitwise_equal_to_in_memory_path() {
    let dir = tmp("equiv");
    // (t, c, rows_per_shard, lookback, horizon, stride)
    let cases = [
        (97, 2, 10, 8, 4, 1),   // windows straddle every boundary
        (64, 1, 64, 16, 0, 4),  // single shard — degenerate split
        (120, 3, 7, 12, 6, 5),  // shard far smaller than one window span
        (50, 1, 9, 8, 1, 9),    // stride == rows_per_shard: one window starts per shard
        (33, 2, 16, 24, 8, 2),  // only a couple of windows total
        (40, 1, 13, 40, 0, 1),  // exactly one window, spanning all shards
        (35, 1, 10, 5, 0, 25),  // stride jumps clean past an unloaded shard
        (100, 2, 7, 6, 2, 40),  // stride leaps several whole shards at once
    ];
    for (case, &(t, c, rps, lookback, horizon, stride)) in cases.iter().enumerate() {
        let s = series(t, c, case as u64);
        let sub = dir.join(format!("case{case}"));
        ShardWriter::new(rps).unwrap().write(&s, &sub).unwrap();
        let ds = ShardedDataset::open(&sub).unwrap();

        let reference = sliding_windows(&s, lookback, horizon, stride);
        let n = reference.inputs.shape()[0];
        assert_eq!(
            ds.window_count(lookback, horizon, stride),
            n,
            "case {case}: window count"
        );

        // Each shard reads its whole owned range in reversed order (batches
        // are shuffled index lists, so the gather must honor `idx` order);
        // inputs and targets are bitwise the reference's, and the owned
        // ranges partition the windows.
        let mut next = 0;
        for j in 0..ds.num_shards() {
            let (w0, w1) = ds.shard_window_range(j, lookback, horizon, stride);
            assert!(w0 == next || w0 == w1, "case {case}: range gap at shard {j}");
            next = next.max(w1);
            let idx: Vec<usize> = (0..w1 - w0).rev().collect();
            let wf = ds.shard_window_batch(j, lookback, horizon, stride, &idx).unwrap();
            assert_eq!(wf.inputs.shape()[0], w1 - w0, "case {case}: shard {j} count");
            for (k, &i) in idx.iter().enumerate() {
                assert_eq!(
                    wf.inputs.slice(0, k, 1).unwrap().data(),
                    reference.inputs.slice(0, w0 + i, 1).unwrap().data(),
                    "case {case}: shard {j} window {} input bytes",
                    w0 + i
                );
                assert_eq!(
                    wf.targets.slice(0, k, 1).unwrap().data(),
                    reference.targets.slice(0, w0 + i, 1).unwrap().data(),
                    "case {case}: shard {j} window {} target bytes",
                    w0 + i
                );
            }
        }
        assert_eq!(next, n, "case {case}: shard ranges do not partition the windows");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Every byte flip and every truncation of a shard file is rejected with a
/// typed error (the PR-4 corruption contract, extended to `KIND_SHARD`).
#[test]
fn corrupted_shard_files_are_rejected_with_typed_errors() {
    let dir = tmp("corrupt");
    let s = series(23, 2, 7);
    let paths = ShardWriter::new(9).unwrap().write(&s, &dir).unwrap();
    let bytes = std::fs::read(&paths[1]).unwrap();

    for i in 0..bytes.len() {
        let mut bad = bytes.clone();
        bad[i] ^= 0x20;
        std::fs::write(&paths[1], &bad).unwrap();
        let err = ShardedDataset::open(&dir).unwrap_err();
        assert!(
            matches!(err, ShardError::Corrupt { .. } | ShardError::ManifestMismatch { .. }),
            "byte flip at {i} produced {err:?}"
        );
    }
    for len in [0, 4, 11, bytes.len() / 2, bytes.len() - 1] {
        std::fs::write(&paths[1], &bytes[..len]).unwrap();
        let err = ShardedDataset::open(&dir).unwrap_err();
        assert!(
            matches!(err, ShardError::Corrupt { .. }),
            "truncation to {len} bytes produced {err:?}"
        );
    }
    // Restore and confirm the set opens again.
    std::fs::write(&paths[1], &bytes).unwrap();
    ShardedDataset::open(&dir).unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// Manifest cross-checks: a missing shard, a duplicated index, and a shard
/// from a different split are all detected at open.
#[test]
fn inconsistent_shard_sets_are_rejected() {
    let base = tmp("manifest");
    let s = series(40, 1, 3);

    // Missing shard.
    let dir = base.join("missing");
    let paths = ShardWriter::new(10).unwrap().write(&s, &dir).unwrap();
    std::fs::remove_file(&paths[2]).unwrap();
    assert!(matches!(
        ShardedDataset::open(&dir),
        Err(ShardError::ManifestMismatch { .. })
    ));

    // Duplicated index: shard 1's file copied over shard 2's.
    let dir = base.join("dup");
    let paths = ShardWriter::new(10).unwrap().write(&s, &dir).unwrap();
    std::fs::copy(&paths[1], &paths[2]).unwrap();
    assert!(matches!(
        ShardedDataset::open(&dir),
        Err(ShardError::ManifestMismatch { .. })
    ));

    // Foreign shard: a file from a different split mixed in.
    let dir = base.join("foreign");
    ShardWriter::new(10).unwrap().write(&s, &dir).unwrap();
    let other = base.join("other");
    let other_paths = ShardWriter::new(8).unwrap().write(&series(40, 1, 9), &other).unwrap();
    std::fs::copy(&other_paths[3], dir.join("shard_00003.tdrl")).unwrap();
    assert!(matches!(
        ShardedDataset::open(&dir),
        Err(ShardError::ManifestMismatch { .. })
    ));

    std::fs::remove_dir_all(&base).ok();
}

fn probe_cfg() -> TimeDrlConfig {
    let mut cfg = TimeDrlConfig::forecasting(32);
    cfg.d_model = 16;
    cfg.d_ff = 32;
    cfg.n_heads = 2;
    cfg.batch_size = 8;
    cfg.epochs = 2;
    cfg.seed = 21;
    cfg
}

fn run_workers(shards: &PathBuf, run_dir: &PathBuf, n: usize) -> Vec<f32> {
    let cfg = probe_cfg();
    let mk_plan = |w: usize| {
        let mut plan = ShardTrainPlan::new(shards.clone(), run_dir.clone());
        plan.n_workers = n;
        plan.worker = w;
        plan.stride = 4;
        plan
    };
    // Followers on OS threads, coordinator on this one: the protocol only
    // ever touches the filesystem, so in-process threads exercise the same
    // code path `probe shard` drives across real processes.
    let handles: Vec<_> = (1..n)
        .map(|w| {
            let cfg = cfg.clone();
            let plan = mk_plan(w);
            std::thread::spawn(move || run_shard_worker(&cfg, &plan).map(|_| ()))
        })
        .collect();
    let report = run_shard_worker(&cfg, &mk_plan(0)).unwrap();
    for h in handles {
        h.join().unwrap().unwrap();
    }
    report.total
}

/// The process-invariance property at the library level: 1-, 2-, and
/// 3-worker runs produce byte-identical final checkpoints and identical
/// loss histories. (ci.sh re-proves this across real OS processes with
/// `probe shard`, including kill-and-resume.)
#[test]
fn multi_worker_pretraining_matches_single_worker_byte_for_byte() {
    let dir = tmp("workers");
    let shards = dir.join("shards");
    ShardWriter::new(64)
        .unwrap()
        .write(
            &NdArray::from_fn(&[200, 1], |i| (i as f32 * 0.4).sin() + (i as f32 * 0.05).cos()),
            &shards,
        )
        .unwrap();

    let run1 = dir.join("run1");
    let loss1 = run_workers(&shards, &run1, 1);
    let bytes1 = std::fs::read(run1.join("model_final.tdrl")).unwrap();
    assert!(!loss1.is_empty());

    for n in [2usize, 3] {
        let run_n = dir.join(format!("run{n}"));
        let loss_n = run_workers(&shards, &run_n, n);
        assert_eq!(loss1, loss_n, "loss history diverged at {n} workers");
        let bytes_n = std::fs::read(run_n.join("model_final.tdrl")).unwrap();
        assert_eq!(bytes1, bytes_n, "final checkpoint diverged at {n} workers");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The trained artifact is loadable and the sharded run actually learned:
/// the loss history decreases.
#[test]
fn sharded_run_produces_a_loadable_model_that_learned() {
    let dir = tmp("loadable");
    let shards = dir.join("shards");
    ShardWriter::new(64)
        .unwrap()
        .write(
            &NdArray::from_fn(&[240, 1], |i| (i as f32 * 0.4).sin()),
            &shards,
        )
        .unwrap();
    let mut cfg = probe_cfg();
    cfg.epochs = 3;
    let mut plan = ShardTrainPlan::new(&shards, dir.join("run"));
    plan.stride = 2;
    let report = run_shard_worker(&cfg, &plan).unwrap();
    assert_eq!(report.total.len(), 3);
    assert!(
        report.total.last().unwrap() < &report.total[0],
        "sharded loss did not decrease: {:?}",
        report.total
    );
    let model = TimeDrl::new(cfg);
    model.load(dir.join("run/model_final.tdrl")).unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// A dead coordinator surfaces as a typed timeout in its followers, not a
/// hang.
#[test]
fn follower_times_out_without_a_coordinator() {
    let dir = tmp("timeout");
    let shards = dir.join("shards");
    ShardWriter::new(32)
        .unwrap()
        .write(&series(100, 1, 1), &shards)
        .unwrap();
    let mut plan = ShardTrainPlan::new(&shards, dir.join("run"));
    plan.n_workers = 2;
    plan.worker = 1;
    plan.timeout_ms = 50;
    let err = run_shard_worker(&probe_cfg(), &plan).unwrap_err();
    assert!(matches!(err, TrainError::ShardTimeout { .. }), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}
