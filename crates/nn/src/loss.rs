//! Loss functions beyond the primitives on `Var`.
//!
//! TimeDRL itself needs only MSE (Eq. 6–9) and negative cosine similarity
//! with stop-gradient (Eq. 16–18); the remaining losses here serve the
//! baseline methods: NT-Xent for SimCLR/TS-TCC, triplet for T-Loss, and the
//! hierarchical instance/temporal contrast for TS2Vec.

use timedrl_tensor::{NdArray, Var};

/// SimSiam-style negative-cosine loss with stop-gradient on the target
/// (one direction of Eq. 16/17): `-cos(pred, stop_grad(target))` averaged
/// over rows. The symmetric Eq. 18 average, with the Table IX
/// stop-gradient toggle, is `timedrl::pretext::contrastive_loss`.
pub fn negative_cosine(pred: &Var, target: &Var) -> Var {
    pred.cosine_similarity_mean(&target.detach()).neg()
}

/// NT-Xent (normalized temperature-scaled cross-entropy), the SimCLR loss.
///
/// `za` and `zb` are `[N, D]` embeddings of two views of the same `N`
/// instances; row `i` of `za` is positive with row `i` of `zb`, and all
/// other `2N - 2` rows are negatives.
pub fn nt_xent(za: &Var, zb: &Var, temperature: f32) -> Var {
    let n = za.shape()[0];
    assert!(n >= 2, "NT-Xent needs at least 2 instances for negatives");
    let z = Var::concat(&[za.clone(), zb.clone()], 0); // [2N, D]
    let z_norm = l2_normalize_rows(&z);
    // Similarity matrix [2N, 2N], self-similarity masked out. The Gram
    // product reads the transposed operand in place (no copy, no node).
    let sim = z_norm.matmul_t(&z_norm).scale(1.0 / temperature);
    let mask = NdArray::from_fn(&[2 * n, 2 * n], |flat| {
        let (i, j) = (flat / (2 * n), flat % (2 * n));
        if i == j {
            -1e9
        } else {
            0.0
        }
    });
    let logits = sim.add(&Var::constant(mask));
    // Positive of row i is i+n (mod 2n).
    let targets: Vec<usize> = (0..2 * n).map(|i| (i + n) % (2 * n)).collect();
    logits.cross_entropy(&targets)
}

/// Row-wise L2 normalization of `[N, D]` embeddings.
pub fn l2_normalize_rows(z: &Var) -> Var {
    let norms = z.mul(z).sum_axis(1, true).add_scalar(1e-8).sqrt();
    z.div(&norms)
}

/// T-Loss's logistic triplet objective:
/// `-log σ(aᵀp) - Σ log σ(-aᵀn)` with several negatives, averaged.
pub fn tloss_logistic(anchor: &Var, positive: &Var, negatives: &[Var]) -> Var {
    let pos_score = anchor.mul(positive).sum_axis(1, false);
    let mut loss = pos_score.sigmoid().add_scalar(1e-8).ln().neg().mean();
    for neg in negatives {
        let neg_score = anchor.mul(neg).sum_axis(1, false);
        let term = neg_score.neg().sigmoid().add_scalar(1e-8).ln().neg().mean();
        loss = loss.add(&term);
    }
    loss
}

/// TS2Vec's instance-wise contrast at one scale: timestamps are fixed and
/// the batch dimension provides positives/negatives. `za`, `zb` are
/// `[B, T, D]` embeddings of two views; per timestep, instance `i` in view
/// a is positive with instance `i` in view b.
pub fn ts2vec_instance_contrast(za: &Var, zb: &Var, temperature: f32) -> Var {
    let (b, t) = (za.shape()[0], za.shape()[1]);
    if b < 2 {
        // No negatives available; contributes nothing (matches TS2Vec).
        return Var::scalar(0.0);
    }
    let mut total = Var::scalar(0.0);
    for step in 0..t {
        let a = za.slice(1, step, 1).reshape(&[b, za.shape()[2]]);
        let v = zb.slice(1, step, 1).reshape(&[b, zb.shape()[2]]);
        total = total.add(&nt_xent(&a, &v, temperature));
    }
    total.scale(1.0 / t as f32)
}

/// TS2Vec's temporal contrast: instances are fixed and timestamps within
/// the same series provide positives/negatives.
pub fn ts2vec_temporal_contrast(za: &Var, zb: &Var, temperature: f32) -> Var {
    let (b, t) = (za.shape()[0], za.shape()[1]);
    if t < 2 {
        return Var::scalar(0.0);
    }
    let mut total = Var::scalar(0.0);
    for inst in 0..b {
        let a = za.slice(0, inst, 1).reshape(&[t, za.shape()[2]]);
        let v = zb.slice(0, inst, 1).reshape(&[t, zb.shape()[2]]);
        total = total.add(&nt_xent(&a, &v, temperature));
    }
    total.scale(1.0 / b as f32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use timedrl_tensor::Prng;

    #[test]
    fn negative_cosine_bounds() {
        let mut rng = Prng::new(0);
        let a = Var::parameter(rng.randn(&[4, 8]));
        let loss = negative_cosine(&a, &a.clone());
        // Identical views: cosine 1 -> loss -1.
        assert!((loss.item() + 1.0).abs() < 1e-5);
    }

    #[test]
    fn negative_cosine_no_grad_to_target() {
        let mut rng = Prng::new(1);
        let a = Var::parameter(rng.randn(&[4, 8]));
        let b = Var::parameter(rng.randn(&[4, 8]));
        negative_cosine(&a, &b).backward();
        assert!(a.grad().is_some());
        assert!(b.grad().is_none(), "stop-gradient must block the target path");
    }

    #[test]
    fn nt_xent_prefers_aligned_views() {
        let mut rng = Prng::new(3);
        let za = rng.randn(&[8, 16]);
        // Aligned: second view nearly equal to first.
        let zb_aligned = za.add(&rng.randn(&[8, 16]).scale(0.01));
        let zb_random = rng.randn(&[8, 16]);
        let aligned = nt_xent(&Var::constant(za.clone()), &Var::constant(zb_aligned), 0.5).item();
        let random = nt_xent(&Var::constant(za), &Var::constant(zb_random), 0.5).item();
        assert!(aligned < random);
    }

    #[test]
    fn l2_normalize_rows_unit_norm() {
        let mut rng = Prng::new(4);
        let z = l2_normalize_rows(&Var::constant(rng.randn(&[5, 7]).scale(10.0)));
        let arr = z.to_array();
        for row in arr.data().chunks(7) {
            let n: f32 = row.iter().map(|v| v * v).sum::<f32>().sqrt();
            assert!((n - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn tloss_decreases_with_aligned_positive() {
        let mut rng = Prng::new(5);
        let a = Var::constant(rng.randn(&[4, 8]));
        let negs = vec![Var::constant(rng.randn(&[4, 8]))];
        let aligned = tloss_logistic(&a, &a.clone(), &negs).item();
        let misaligned = tloss_logistic(&a, &Var::constant(rng.randn(&[4, 8]).scale(0.0)), &negs).item();
        assert!(aligned < misaligned);
    }

    #[test]
    fn ts2vec_losses_finite_and_positive() {
        let mut rng = Prng::new(6);
        let za = Var::parameter(rng.randn(&[4, 6, 8]));
        let zb = Var::parameter(rng.randn(&[4, 6, 8]));
        let li = ts2vec_instance_contrast(&za, &zb, 0.5);
        let lt = ts2vec_temporal_contrast(&za, &zb, 0.5);
        assert!(li.item().is_finite() && li.item() > 0.0);
        assert!(lt.item().is_finite() && lt.item() > 0.0);
        li.add(&lt).backward();
        assert!(za.grad().is_some());
    }

    #[test]
    fn ts2vec_degenerate_sizes_are_zero() {
        let mut rng = Prng::new(7);
        let single_batch = Var::constant(rng.randn(&[1, 4, 8]));
        assert_eq!(ts2vec_instance_contrast(&single_batch, &single_batch, 0.5).item(), 0.0);
        let single_step = Var::constant(rng.randn(&[4, 1, 8]));
        assert_eq!(ts2vec_temporal_contrast(&single_step, &single_step, 0.5).item(), 0.0);
    }
}
