//! Property-based tests for the neural-network layer invariants.

use testkit::{prop, prop_assert, prop_assert_eq};
use timedrl_nn::{BatchNorm1d, Ctx, LayerNorm, Linear, Module, MultiHeadAttention};
use timedrl_tensor::{NdArray, Prng, Var};

prop! {
    #![config(cases = 24)]

    fn linear_is_affine(seed in 0u64..500, n in 1usize..5) {
        // f(a + b) - f(b) == f(a) - f(0): affine maps have constant slope.
        let mut rng = Prng::new(seed);
        let l = Linear::new(4, 3, &mut rng);
        let a = rng.randn(&[n, 4]);
        let b = rng.randn(&[n, 4]);
        let f = |x: &NdArray| l.forward(&Var::constant(x.clone())).to_array();
        let lhs = f(&a.add(&b)).sub(&f(&b));
        let rhs = f(&a).sub(&f(&NdArray::zeros(&[n, 4])));
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-4);
    }

    fn layernorm_is_shift_invariant(seed in 0u64..500, shift in -20.0f32..20.0) {
        // Adding a constant to every feature leaves the normalized output
        // unchanged (mean removal).
        let mut rng = Prng::new(seed);
        let ln = LayerNorm::new(8);
        let x = rng.randn(&[3, 8]);
        let y1 = ln.forward(&Var::constant(x.clone())).to_array();
        let y2 = ln.forward(&Var::constant(x.add_scalar(shift))).to_array();
        prop_assert!(y1.max_abs_diff(&y2) < 1e-3);
    }

    fn layernorm_is_scale_invariant(seed in 0u64..500, scale in 0.1f32..10.0) {
        let mut rng = Prng::new(seed);
        let ln = LayerNorm::new(8);
        let x = rng.randn(&[3, 8]);
        let y1 = ln.forward(&Var::constant(x.clone())).to_array();
        let y2 = ln.forward(&Var::constant(x.scale(scale))).to_array();
        prop_assert!(y1.max_abs_diff(&y2) < 1e-2);
    }

    fn batchnorm_output_statistics(seed in 0u64..500) {
        let mut rng = Prng::new(seed);
        let bn = BatchNorm1d::new(4);
        let x = rng.randn(&[64, 4]).scale(rng.uniform_in(0.5, 5.0)).add_scalar(rng.uniform_in(-5.0, 5.0));
        let y = bn.forward(&Var::constant(x), true).to_array();
        let mean = y.mean_axis(0, false);
        let var = y.var_axis(0, false);
        for c in 0..4 {
            prop_assert!(mean.data()[c].abs() < 1e-3);
            prop_assert!((var.data()[c] - 1.0).abs() < 0.05);
        }
    }

    fn attention_is_permutation_sensitive_but_shape_stable(seed in 0u64..200) {
        let mut rng = Prng::new(seed);
        let attn = MultiHeadAttention::new(8, 2, false, 0.0, &mut rng);
        let x = rng.randn(&[1, 4, 8]);
        let y = attn.forward(&Var::constant(x.clone()), &mut Ctx::eval());
        prop_assert_eq!(y.shape(), vec![1, 4, 8]);
        prop_assert!(!y.to_array().has_non_finite());
    }

    fn dropout_expectation_preserved(seed in 0u64..200, p in 0.05f32..0.8) {
        let mut ctx = Ctx::train(seed);
        let x = Var::constant(NdArray::ones(&[64, 64]));
        let y = x.dropout(p, ctx.training, &mut ctx.rng).to_array();
        // Inverted dropout: E[y] == 1 within sampling tolerance.
        prop_assert!((y.mean() - 1.0).abs() < 0.12, "mean {} at p {p}", y.mean());
    }

    fn module_parameter_counts_are_stable(seed in 0u64..100) {
        let mut rng = Prng::new(seed);
        let l = Linear::new(7, 3, &mut rng);
        prop_assert_eq!(l.num_parameters(), 7 * 3 + 3);
        prop_assert_eq!(l.parameters().len(), 2);
    }
}
