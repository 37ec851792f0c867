//! The two pretext tasks (Sections IV-B and IV-C) and their joint
//! objective (Eq. 19).

use crate::model::{Encoded, TimeDrl};
use timedrl_nn::Ctx;
use timedrl_tensor::{NdArray, Prng, Var};

/// Scalar diagnostics of one pretext-loss evaluation.
#[derive(Debug, Clone, Copy, Default)]
pub struct PretextBreakdown {
    /// Joint loss `L = L_P + λ·L_C` (Eq. 19).
    pub total: f32,
    /// Timestamp-predictive loss `L_P` (Eq. 9).
    pub predictive: f32,
    /// Instance-contrastive loss `L_C` (Eq. 18); in `[-1, 1]`.
    pub contrastive: f32,
}

/// Computes the joint TimeDRL pretext loss on a raw `[B, T, C]` batch.
///
/// The batch is optionally augmented (Table VI ablation; TimeDRL's default
/// is `Augmentation::None`), prepared once (Eq. 1), and passed through the
/// encoder **twice** — dropout randomness in `ctx` produces the two views
/// (Eqs. 10–11). Returns the differentiable total plus a scalar breakdown.
pub fn pretext_loss(
    model: &TimeDrl,
    batch: &NdArray,
    ctx: &mut Ctx,
    aug_rng: &mut Prng,
) -> (Var, PretextBreakdown) {
    let cfg = model.config();
    let augmented = cfg.augmentation.apply_batch(batch, aug_rng);
    let x_patched = model.prepare(&augmented);

    // Two stochastic views of the same input (Eqs. 10–11).
    let view1 = model.encode_patched(&x_patched, ctx);
    let view2 = model.encode_patched(&x_patched, ctx);

    let predictive = predictive_loss(model, &view1, &view2);
    let contrastive = contrastive_loss(model, &view1, &view2, ctx.training);
    let total = predictive.add(&contrastive.scale(cfg.lambda));

    let breakdown = PretextBreakdown {
        total: total.item(),
        predictive: predictive.item(),
        contrastive: contrastive.item(),
    };
    (total, breakdown)
}

/// Timestamp-predictive task (Eqs. 6–9): reconstruct the *unmasked*
/// patched input from each view's timestamp-level embeddings; average the
/// two MSEs.
///
/// Only `z_t` feeds the head, so the instance-level embedding `z_i` is
/// untouched by this loss — the disentanglement the paper emphasizes.
pub fn predictive_loss(model: &TimeDrl, view1: &Encoded, view2: &Encoded) -> Var {
    let target = &view1.x_patched;
    let l1 = model.predict_patches(&view1.timestamps()).mse_loss(target);
    let l2 = model.predict_patches(&view2.timestamps()).mse_loss(target);
    l1.add(&l2).scale(0.5)
}

/// Instance-contrastive task (Eqs. 12–18): negative-free SimSiam-style
/// alignment of the two `[CLS]` embeddings, with the asymmetric
/// prediction-head + stop-gradient pattern.
///
/// With `cfg.stop_gradient == false` (Table IX ablation) the target sides
/// keep their gradients, reproducing the collapse-prone variant.
pub fn contrastive_loss(model: &TimeDrl, view1: &Encoded, view2: &Encoded, training: bool) -> Var {
    let cfg = model.config();
    let z1 = view1.instance(cfg.pooling);
    let z2 = view2.instance(cfg.pooling);
    let p1 = model.project_instance(&z1, training);
    let p2 = model.project_instance(&z2, training);
    let target2 = if cfg.stop_gradient { z2.detach() } else { z2.clone() };
    let target1 = if cfg.stop_gradient { z1.detach() } else { z1.clone() };
    let l1 = p1.cosine_similarity_mean(&target2).neg(); // Eq. 16
    let l2 = p2.cosine_similarity_mean(&target1).neg(); // Eq. 17
    l1.add(&l2).scale(0.5) // Eq. 18
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TimeDrlConfig;
    use crate::pooling::Pooling;
    use timedrl_data::Augmentation;
    use timedrl_nn::Module;

    fn small_model() -> TimeDrl {
        let mut cfg = TimeDrlConfig::forecasting(32);
        cfg.d_model = 16;
        cfg.d_ff = 32;
        cfg.n_heads = 2;
        TimeDrl::new(cfg)
    }

    fn batch(model: &TimeDrl, n: usize, seed: u64) -> NdArray {
        let cfg = model.config();
        Prng::new(seed).randn(&[n, cfg.input_len, cfg.n_features])
    }

    #[test]
    fn loss_components_are_finite_and_composed() {
        let m = small_model();
        let x = batch(&m, 4, 0);
        let mut ctx = Ctx::train(1);
        let (total, b) = pretext_loss(&m, &x, &mut ctx, &mut Prng::new(2));
        assert!(b.total.is_finite() && b.predictive.is_finite() && b.contrastive.is_finite());
        assert!((b.total - (b.predictive + m.config().lambda * b.contrastive)).abs() < 1e-4);
        assert!(b.predictive >= 0.0, "MSE is non-negative");
        assert!((-1.0..=1.0).contains(&b.contrastive), "cosine range");
        total.backward();
    }

    #[test]
    fn predictive_loss_ignores_instance_embedding() {
        // The paper: "the instance-level embeddings z_i are not updated
        // from the MSE loss". Concretely: the gradient arriving at the
        // encoder *output* z must be zero at the [CLS] position (the head
        // reads only the z_t slice of Eq. 5). Note the CLS *input token*
        // still legitimately receives gradient through attention mixing.
        let m = small_model();
        let x = batch(&m, 3, 3);
        let x_patched = m.prepare(&x);
        let mut ctx = Ctx::eval(); // deterministic; gradient structure is what matters
        let v1 = m.encode_patched(&x_patched, &mut ctx);
        let v2 = m.encode_patched(&x_patched, &mut ctx);
        predictive_loss(&m, &v1, &v2).backward();
        let z_grad = v1.z.grad().expect("encoder output must be on the tape");
        let cls_slice = z_grad.slice(1, 0, 1).expect("cls grad slice");
        assert!(
            cls_slice.l2_norm() == 0.0,
            "z_i must receive zero predictive-loss gradient (got {})",
            cls_slice.l2_norm()
        );
        // Sanity: the timestamp positions do receive gradient.
        let rest = z_grad.slice(1, 1, z_grad.shape()[1] - 1).unwrap();
        assert!(rest.l2_norm() > 0.0);
    }

    #[test]
    fn stop_gradient_blocks_target_paths() {
        let m = small_model(); // stop_gradient: true
        let x = batch(&m, 3, 4);
        let x_patched = m.prepare(&x);
        let mut ctx = Ctx::train(5);
        let v1 = m.encode_patched(&x_patched, &mut ctx);
        let v2 = m.encode_patched(&x_patched, &mut ctx);
        let loss = contrastive_loss(&m, &v1, &v2, true);
        loss.backward();
        // All encoder parameters still get gradients through the predicted
        // side — what matters is the loss is finite and differentiable.
        assert!(loss.item().is_finite());
        let grads = m.parameters().iter().filter(|p| p.grad().is_some()).count();
        assert!(grads > 0);
    }

    #[test]
    fn without_stop_gradient_more_paths_flow() {
        // Quantitative check: disabling SG changes the gradient received by
        // the CLS token (the target side now contributes).
        let grad_norm = |sg: bool| {
            let mut cfg = TimeDrlConfig::forecasting(32);
            cfg.d_model = 16;
            cfg.d_ff = 32;
            cfg.n_heads = 2;
            cfg.stop_gradient = sg;
            let m = TimeDrl::new(cfg);
            let x = batch(&m, 3, 6);
            let x_patched = m.prepare(&x);
            let mut ctx = Ctx::train(7);
            let v1 = m.encode_patched(&x_patched, &mut ctx);
            let v2 = m.encode_patched(&x_patched, &mut ctx);
            contrastive_loss(&m, &v1, &v2, true).backward();
            m.parameters()[0].grad().map(|g| g.l2_norm()).unwrap_or(0.0)
        };
        let with_sg = grad_norm(true);
        let without_sg = grad_norm(false);
        assert!((with_sg - without_sg).abs() > 1e-7, "SG toggle must change gradients");
    }

    #[test]
    fn identical_views_give_minimal_contrastive_loss() {
        // In eval mode (no dropout) the two views coincide; the loss of
        // aligning c(z) with z itself is bounded by cosine range.
        let m = small_model();
        let x = batch(&m, 4, 8);
        let x_patched = m.prepare(&x);
        let mut ctx = Ctx::eval();
        let v1 = m.encode_patched(&x_patched, &mut ctx);
        let v2 = m.encode_patched(&x_patched, &mut ctx);
        assert_eq!(v1.z.to_array(), v2.z.to_array(), "eval views identical");
        let loss = contrastive_loss(&m, &v1, &v2, false).item();
        assert!((-1.0..=1.0).contains(&loss));
    }

    #[test]
    fn augmentation_changes_the_loss_input() {
        let mut cfg = TimeDrlConfig::forecasting(32);
        cfg.d_model = 16;
        cfg.d_ff = 32;
        cfg.n_heads = 2;
        cfg.augmentation = Augmentation::Jitter;
        let m = TimeDrl::new(cfg);
        let x = batch(&m, 3, 9);
        // Same model weights, same dropout seeds, different augmentation
        // draws -> different losses.
        let (_, b1) = pretext_loss(&m, &x, &mut Ctx::train(1), &mut Prng::new(10));
        let (_, b2) = pretext_loss(&m, &x, &mut Ctx::train(1), &mut Prng::new(11));
        assert!((b1.total - b2.total).abs() > 1e-7);
    }

    #[test]
    fn pooling_choice_feeds_contrastive_task() {
        for pooling in Pooling::ALL {
            let mut cfg = TimeDrlConfig::forecasting(32);
            cfg.d_model = 16;
            cfg.d_ff = 32;
            cfg.n_heads = 2;
            cfg.pooling = pooling;
            let m = TimeDrl::new(cfg);
            // The contrast head expects D-width input; `All` pooling widens
            // the embedding, so it is only wired for probe extraction, not
            // pre-training. Skip it here as the trainer does.
            if pooling == Pooling::All {
                continue;
            }
            let x = batch(&m, 3, 12);
            let (_, b) = pretext_loss(&m, &x, &mut Ctx::train(2), &mut Prng::new(3));
            assert!(b.total.is_finite(), "pooling {:?}", pooling);
        }
    }
}
