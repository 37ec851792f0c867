//! Reverse-mode automatic differentiation.
//!
//! [`Var`] is a differentiable tensor: a reference-counted node in a
//! define-by-run computation graph. Each operation eagerly computes its
//! value and records a backward closure that maps the node's output gradient
//! to gradients for each parent. [`Var::backward`] topologically sorts the
//! reachable graph and accumulates gradients leaf-ward.
//!
//! Design notes:
//! * Nodes whose inputs all have `requires_grad == false` record neither
//!   parents nor a closure, so inference-mode graphs cost nothing extra.
//! * `stop_gradient` (Eq. 16–17 of the TimeDRL paper) is [`Var::detach`],
//!   which re-roots a value as a constant leaf.
//! * Graphs are freed when the last `Var` referencing them drops; training
//!   loops simply rebuild the graph every step.

use std::cell::{Ref, RefCell};
use std::collections::HashSet;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::array::NdArray;
use crate::attention::{attention_fused, attention_fused_backward};
use crate::error::Result;
use crate::init::Prng;
use crate::matmul::{matmul, matmul_nt, matmul_tn, matmul_tn_fold};
use crate::shape::Dims;

/// `sqrt(2/pi)`, the GELU tanh-approximation scale.
const GELU_C: f32 = 0.797_884_6;
/// The GELU tanh-approximation cubic coefficient.
const GELU_A: f32 = 0.044_715;

static NEXT_ID: AtomicU64 = AtomicU64::new(0);

/// The backward rule of a graph node. Built-in ops store their saved
/// state inline in the enum — no boxed closure, so recording a node costs
/// exactly one allocation (the `Rc`). Saved tensors (`sqrt`/`exp`/softmax
/// outputs, dropout masks) move in by value; ops whose rule needs a parent
/// *input* read it through the node's parent list at backward time, which
/// is sound because node values are never mutated between forward and
/// backward. Only [`Var::custom`] pays for a boxed closure.
enum Backward {
    Add { ls: Dims, rs: Dims },
    Sub { ls: Dims, rs: Dims },
    Mul { ls: Dims, rs: Dims },
    Div { ls: Dims, rs: Dims },
    Neg,
    Scale(f32),
    AddScalar,
    Powf(f32),
    Sqrt { saved: NdArray },
    Exp { saved: NdArray },
    Ln,
    Relu,
    Sigmoid { s: NdArray },
    Tanh { t: NdArray },
    Gelu { t: NdArray },
    Matmul { ls: Dims, rs: Dims },
    MatmulNT { ls: Dims, rs: Dims },
    MatmulTN { ls: Dims, rs: Dims },
    Transpose,
    Permute { inverse: Dims },
    Reshape { from: Dims },
    BroadcastTo { from: Dims },
    Slice { full: Dims, axis: usize, start: usize, len: usize },
    Concat { axis: usize, sizes: Dims },
    Sum { from: Dims },
    SumAxis { from: Dims, axis: usize, keepdim: bool },
    MaxAxis { from: Dims, axis: usize },
    Softmax { s: NdArray, last: usize },
    CrossEntropy { probs: NdArray, targets: Vec<usize> },
    Dropout { mask: NdArray },
    Attention { scale: f32, causal: bool, mask: Option<NdArray> },
    MaeLoss { target: NdArray, n: f32 },
    Custom(Box<dyn Fn(&NdArray) -> Vec<NdArray>>),
}

/// Inline parent list. Every primitive op has one or two parents, so the
/// common cases carry them without a heap allocation; only variadic ops
/// ([`Var::concat`], [`Var::custom`]) spill to a `Vec`. One fewer
/// allocation per graph node (DESIGN.md §10).
enum Parents {
    None,
    One([Var; 1]),
    Two([Var; 2]),
    Many(Vec<Var>),
}

impl Parents {
    fn one(p: Var) -> Self {
        Parents::One([p])
    }

    fn two(a: Var, b: Var) -> Self {
        Parents::Two([a, b])
    }

    fn as_slice(&self) -> &[Var] {
        match self {
            Parents::None => &[],
            Parents::One(a) => a,
            Parents::Two(a) => a,
            Parents::Many(v) => v,
        }
    }
}

/// Inline gradient list returned by backward closures — the by-value
/// counterpart of [`Parents`]: one or two gradients ride inline, variadic
/// ops spill. An empty `spill` vec never allocates, so the per-node
/// `Vec<NdArray>` of the old signature is gone.
pub struct Grads {
    a: Option<NdArray>,
    b: Option<NdArray>,
    spill: Vec<NdArray>,
}

impl Grads {
    /// A single parent gradient.
    pub fn one(g: NdArray) -> Self {
        Self { a: Some(g), b: None, spill: Vec::new() }
    }

    /// Two parent gradients, in parent order.
    pub fn two(ga: NdArray, gb: NdArray) -> Self {
        Self { a: Some(ga), b: Some(gb), spill: Vec::new() }
    }

    /// Arbitrarily many parent gradients, in parent order.
    pub fn many(gs: Vec<NdArray>) -> Self {
        Self { a: None, b: None, spill: gs }
    }

    fn len(&self) -> usize {
        usize::from(self.a.is_some()) + usize::from(self.b.is_some()) + self.spill.len()
    }

    fn into_iter(self) -> impl Iterator<Item = NdArray> {
        self.a.into_iter().chain(self.b).chain(self.spill)
    }
}

/// Broadcast-reduces an *owned* gradient to `target`, skipping the
/// full-array copy [`NdArray::reduce_to_shape`] makes when the shapes
/// already match — the common case for every matmul gradient on the
/// training hot path.
fn reduce_owned(g: NdArray, target: &Dims) -> NdArray {
    if g.shape() == target.as_slice() {
        g
    } else {
        g.reduce_to_shape(target)
    }
}

impl Backward {
    /// Computes the parent gradients for a node with output gradient `g`.
    /// Each arm is the former boxed closure's body, verbatim; arms that
    /// need a parent's *input* value borrow it from `parents` in place.
    ///
    /// # Errors
    /// The matmul family propagates shape mismatches as
    /// [`TensorError::MatmulMismatch`](crate::TensorError::MatmulMismatch)
    /// instead of panicking mid-backward, consistent with the trainer's
    /// panic-free contract (DESIGN.md §11).
    fn apply(&self, parents: &Parents, g: &NdArray) -> Result<Grads> {
        let parent = |i: usize| parents.as_slice()[i].value();
        Ok(match self {
            Backward::Add { ls, rs } => {
                Grads::two(g.reduce_to_shape(ls), g.reduce_to_shape(rs))
            }
            Backward::Sub { ls, rs } => {
                Grads::two(g.reduce_to_shape(ls), g.neg().reduce_to_shape(rs))
            }
            Backward::Mul { ls, rs } => {
                let (a, b) = (parent(0), parent(1));
                Grads::two(g.mul(&b).reduce_to_shape(ls), g.mul(&a).reduce_to_shape(rs))
            }
            Backward::Div { ls, rs } => {
                let (a, b) = (parent(0), parent(1));
                let ga = g.div(&b).reduce_to_shape(ls);
                // d/db (a/b) = -a / b^2
                let gb = g.mul(&a.neg().div(&b.mul(&b))).reduce_to_shape(rs);
                Grads::two(ga, gb)
            }
            Backward::Neg => Grads::one(g.neg()),
            Backward::Scale(s) => Grads::one(g.scale(*s)),
            Backward::AddScalar => Grads::one(g.clone()),
            Backward::Powf(p) => Grads::one(g.mul(&parent(0).powf(p - 1.0).scale(*p))),
            Backward::Sqrt { saved } => Grads::one(g.div(&saved.scale(2.0))),
            Backward::Exp { saved } => Grads::one(g.mul(saved)),
            Backward::Ln => Grads::one(g.div(&parent(0))),
            Backward::Relu => Grads::one(
                g.zip_map(&parent(0), |gv, xv| if xv > 0.0 { gv } else { 0.0 })
                    .expect("relu grad"),
            ),
            Backward::Sigmoid { s } => {
                Grads::one(g.mul(&s.zip_map(s, |a, _| a * (1.0 - a)).expect("sigmoid grad")))
            }
            Backward::Tanh { t } => Grads::one(g.mul(&t.map(|v| 1.0 - v * v))),
            Backward::Gelu { t } => {
                // `t = tanh(C·(v + A·v³))` was saved by the forward pass.
                let dx = parent(0)
                    .zip_map(t, |v, t| {
                        0.5 * (1.0 + t) + 0.5 * v * (1.0 - t * t) * GELU_C * (1.0 + 3.0 * GELU_A * v * v)
                    })
                    .expect("gelu grad");
                Grads::one(g.mul(&dx))
            }
            Backward::Matmul { ls, rs } => {
                let (a, b) = (parent(0), parent(1));
                // dL/dA = G @ B^T ; dL/dB = A^T @ G, reduced over any
                // batch-broadcast axes. Both products run through the
                // transpose-aware kernels (DESIGN.md §12), which pack the
                // transposed operand from strides: bit-identical to the old
                // materialize-then-matmul path, minus the transposed copies.
                let ga = reduce_owned(matmul_nt(g, &b)?, ls);
                let gb = if a.rank() == 3 && b.rank() == 2 {
                    // [b,m,k]^T fold: sum over batch. Both folds are already
                    // contiguous [b*m, _] matrices, so this is one 2-D GEMM
                    // over the raw data — no reshape copies.
                    matmul_tn_fold(&a, g)?
                } else {
                    reduce_owned(matmul_tn(&a, g)?, rs)
                };
                Grads::two(ga, gb)
            }
            Backward::MatmulNT { ls, rs } => {
                let (a, b) = (parent(0), parent(1));
                // c = A @ B^T: dL/dA = G @ B ; dL/dB = G^T @ A.
                let ga = reduce_owned(matmul(g, &b)?, ls);
                let gb = if a.rank() == 3 && b.rank() == 2 {
                    // Shared (broadcast) right operand: sum over batch.
                    matmul_tn_fold(g, &a)?
                } else {
                    reduce_owned(matmul_tn(g, &a)?, rs)
                };
                Grads::two(ga, gb)
            }
            Backward::MatmulTN { ls, rs } => {
                let (a, b) = (parent(0), parent(1));
                // c = A^T @ B: dL/dA = B @ G^T ; dL/dB = A @ G.
                let ga = reduce_owned(matmul_nt(&b, g)?, ls);
                let gb = reduce_owned(matmul(&a, g)?, rs);
                Grads::two(ga, gb)
            }
            Backward::Transpose => Grads::one(g.transpose()),
            Backward::Permute { inverse } => Grads::one(g.permute(inverse)),
            Backward::Reshape { from } => Grads::one(g.reshape(from).expect("reshape grad")),
            Backward::BroadcastTo { from } => Grads::one(g.reduce_to_shape(from)),
            Backward::Slice { full, axis, start, len } => {
                let (axis, start) = (*axis, *start);
                let mut parts: Vec<NdArray> = Vec::new();
                if start > 0 {
                    let mut s = full.clone();
                    s[axis] = start;
                    parts.push(NdArray::zeros(&s));
                }
                parts.push(g.clone());
                let tail = full[axis] - start - len;
                if tail > 0 {
                    let mut s = full.clone();
                    s[axis] = tail;
                    parts.push(NdArray::zeros(&s));
                }
                let refs: Vec<&NdArray> = parts.iter().collect();
                Grads::one(NdArray::concat(&refs, axis))
            }
            Backward::Concat { axis, sizes } => {
                let mut grads = Vec::with_capacity(sizes.len());
                let mut offset = 0;
                for &sz in sizes.as_slice() {
                    grads.push(g.slice(*axis, offset, sz).expect("concat grad split"));
                    offset += sz;
                }
                Grads::many(grads)
            }
            Backward::Sum { from } => Grads::one(NdArray::full(from, g.to_scalar())),
            Backward::SumAxis { from, axis, keepdim } => {
                let g_keep = if *keepdim { g.clone() } else { g.unsqueeze(*axis) };
                Grads::one(g_keep.broadcast_to(from).expect("sum_axis grad"))
            }
            Backward::MaxAxis { from, axis } => {
                let x = parent(0);
                let axis = *axis;
                let outer: usize = from[..axis].iter().product();
                let dim = from[axis];
                let inner: usize = from[axis + 1..].iter().product();
                let mut grad = NdArray::zeros(from);
                // g is the reduced-shape gradient; iterate groups.
                for o in 0..outer {
                    for i in 0..inner {
                        let mut best = (0usize, f32::NEG_INFINITY);
                        for d in 0..dim {
                            let v = x.data()[(o * dim + d) * inner + i];
                            if v > best.1 {
                                best = (d, v);
                            }
                        }
                        grad.data_mut()[(o * dim + best.0) * inner + i] = g.data()[o * inner + i];
                    }
                }
                Grads::one(grad)
            }
            Backward::Softmax { s, last } => {
                let gs = g.mul(s);
                let dot = gs.sum_axis(*last, true);
                Grads::one(s.mul(&g.sub(&dot)))
            }
            Backward::CrossEntropy { probs, targets } => {
                let n = probs.shape()[0];
                let k = probs.shape()[1];
                let scale = g.to_scalar() / n as f32;
                let mut grad = probs.clone();
                for (i, &t) in targets.iter().enumerate() {
                    grad.data_mut()[i * k + t] -= 1.0;
                }
                Grads::one(grad.scale(scale))
            }
            Backward::Dropout { mask } => Grads::one(g.mul(mask)),
            Backward::Attention { scale, causal, mask } => {
                // Recomputes probability tiles from q/k — no saved [t, t]
                // probabilities live on the tape (DESIGN.md §17). The only
                // quadratic tensor the fused node retains is the dropout
                // mask, and only in training.
                let (q, k, v) = (parent(0), parent(1), parent(2));
                let (dq, dk, dv) =
                    attention_fused_backward(&q, &k, &v, g, *scale, *causal, mask.as_ref())?;
                Grads::many(vec![dq, dk, dv])
            }
            Backward::MaeLoss { target, n } => {
                let s = g.to_scalar() / n;
                Grads::one(
                    parent(0)
                        .zip_map(target, |a, b| if a >= b { s } else { -s })
                        .expect("mae grad"),
                )
            }
            Backward::Custom(f) => Grads::many(f(g)),
        })
    }
}

struct VarNode {
    id: u64,
    value: RefCell<NdArray>,
    grad: RefCell<Option<NdArray>>,
    requires_grad: bool,
    parents: Parents,
    backward: Option<Backward>,
}

/// A differentiable tensor node. Cheap to clone (reference-counted).
#[derive(Clone)]
pub struct Var(Rc<VarNode>);

impl std::fmt::Debug for Var {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Var")
            .field("id", &self.0.id)
            .field("shape", &self.shape())
            .field("requires_grad", &self.0.requires_grad)
            .finish()
    }
}

impl Var {
    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    fn leaf(value: NdArray, requires_grad: bool) -> Self {
        Var(Rc::new(VarNode {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            value: RefCell::new(value),
            grad: RefCell::new(None),
            requires_grad,
            parents: Parents::None,
            backward: None,
        }))
    }

    /// A trainable parameter leaf.
    pub fn parameter(value: NdArray) -> Self {
        Self::leaf(value, true)
    }

    /// A constant (non-differentiable) leaf.
    pub fn constant(value: NdArray) -> Self {
        Self::leaf(value, false)
    }

    /// A rank-0 constant.
    pub fn scalar(v: f32) -> Self {
        Self::constant(NdArray::scalar(v))
    }

    fn op(value: NdArray, parents: Parents, backward: Backward) -> Self {
        let requires_grad = parents.as_slice().iter().any(|p| p.0.requires_grad);
        if !requires_grad {
            return Self::leaf(value, false);
        }
        Var(Rc::new(VarNode {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            value: RefCell::new(value),
            grad: RefCell::new(None),
            requires_grad,
            parents,
            backward: Some(backward),
        }))
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Borrows the node's value.
    pub fn value(&self) -> Ref<'_, NdArray> {
        self.0.value.borrow()
    }

    /// Clones the node's value out.
    pub fn to_array(&self) -> NdArray {
        self.0.value.borrow().clone()
    }

    /// The node's shape (copied out; values are behind a `RefCell`).
    /// [`Dims`] stores tensor-rank shapes inline, so this never allocates.
    pub fn shape(&self) -> Dims {
        Dims::from(self.0.value.borrow().shape())
    }

    /// Scalar value of a single-element node.
    pub fn item(&self) -> f32 {
        self.0.value.borrow().to_scalar()
    }

    /// Whether gradients flow into this node.
    pub fn requires_grad(&self) -> bool {
        self.0.requires_grad
    }

    /// The accumulated gradient, if any.
    pub fn grad(&self) -> Option<NdArray> {
        self.0.grad.borrow().clone()
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&self) {
        *self.0.grad.borrow_mut() = None;
    }

    /// Mutates the accumulated gradient in place, if present — lets
    /// optimizers and gradient clipping rescale without cloning the array
    /// out and writing it back.
    pub fn update_grad(&self, f: impl FnOnce(&mut NdArray)) {
        if let Some(g) = self.0.grad.borrow_mut().as_mut() {
            f(g);
        }
    }

    /// Borrows the accumulated gradient without cloning. `None` when no
    /// gradient has been accumulated.
    pub fn grad_ref(&self) -> Option<Ref<'_, NdArray>> {
        Ref::filter_map(self.0.grad.borrow(), Option::as_ref).ok()
    }

    /// Replaces the node's value (optimizer updates on parameter leaves).
    pub fn set_value(&self, value: NdArray) {
        assert_eq!(
            self.0.value.borrow().shape(),
            value.shape(),
            "set_value must preserve shape"
        );
        *self.0.value.borrow_mut() = value;
    }

    /// Mutates the node's value in place.
    pub fn update_value(&self, f: impl FnOnce(&mut NdArray)) {
        f(&mut self.0.value.borrow_mut());
    }

    /// Re-roots this value as a constant leaf: the stop-gradient operation.
    pub fn detach(&self) -> Var {
        Self::constant(self.to_array())
    }

    /// Builds a custom differentiable operation from a precomputed `value`,
    /// its `parents`, and a closure mapping the output gradient to one
    /// gradient per parent (in order).
    ///
    /// Downstream crates use this for fused kernels (e.g. 1-D convolution)
    /// whose gradients are cheaper hand-written than composed from
    /// primitives. The closure must return exactly `parents.len()` arrays,
    /// each shaped like the corresponding parent.
    pub fn custom(
        value: NdArray,
        parents: Vec<Var>,
        backward: impl Fn(&NdArray) -> Vec<NdArray> + 'static,
    ) -> Var {
        Self::op(value, Parents::Many(parents), Backward::Custom(Box::new(backward)))
    }

    // ------------------------------------------------------------------
    // Elementwise arithmetic (broadcasting)
    // ------------------------------------------------------------------

    /// Broadcasting addition.
    pub fn add(&self, other: &Var) -> Var {
        let out = self.value().add(&other.value());
        let (ls, rs) = (self.shape(), other.shape());
        Var::op(
            out,
            Parents::two(self.clone(), other.clone()),
            Backward::Add { ls, rs },
        )
    }

    /// Broadcasting subtraction.
    pub fn sub(&self, other: &Var) -> Var {
        let out = self.value().sub(&other.value());
        let (ls, rs) = (self.shape(), other.shape());
        Var::op(
            out,
            Parents::two(self.clone(), other.clone()),
            Backward::Sub { ls, rs },
        )
    }

    /// Broadcasting multiplication.
    pub fn mul(&self, other: &Var) -> Var {
        let out = self.value().mul(&other.value());
        let (ls, rs) = (self.shape(), other.shape());
        // The backward rule reads the parent values through the node's
        // parent list: no copies saved, no extra captures. Node values are
        // never mutated between forward and backward, so this is the same
        // data the old full-tensor snapshots held.
        Var::op(out, Parents::two(self.clone(), other.clone()), Backward::Mul { ls, rs })
    }

    /// Broadcasting division.
    pub fn div(&self, other: &Var) -> Var {
        let out = self.value().div(&other.value());
        let (ls, rs) = (self.shape(), other.shape());
        Var::op(out, Parents::two(self.clone(), other.clone()), Backward::Div { ls, rs })
    }

    /// Elementwise negation.
    pub fn neg(&self) -> Var {
        Var::op(
            self.value().neg(),
            Parents::one(self.clone()),
            Backward::Neg,
        )
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f32) -> Var {
        Var::op(
            self.value().scale(s),
            Parents::one(self.clone()),
            Backward::Scale(s),
        )
    }

    /// Adds `s` to every element.
    pub fn add_scalar(&self, s: f32) -> Var {
        Var::op(
            self.value().add_scalar(s),
            Parents::one(self.clone()),
            Backward::AddScalar,
        )
    }

    /// Elementwise power `x^p` (for `x > 0` when `p` is fractional).
    pub fn powf(&self, p: f32) -> Var {
        let out = self.value().powf(p);
        Var::op(out, Parents::one(self.clone()), Backward::Powf(p))
    }

    /// Elementwise square root.
    pub fn sqrt(&self) -> Var {
        let out = self.value().sqrt();
        let saved = out.clone();
        Var::op(out, Parents::one(self.clone()), Backward::Sqrt { saved })
    }

    /// Elementwise exponential.
    pub fn exp(&self) -> Var {
        let out = self.value().exp();
        let saved = out.clone();
        Var::op(out, Parents::one(self.clone()), Backward::Exp { saved })
    }

    /// Elementwise natural log.
    pub fn ln(&self) -> Var {
        let out = self.value().ln();
        Var::op(out, Parents::one(self.clone()), Backward::Ln)
    }

    // ------------------------------------------------------------------
    // Activations
    // ------------------------------------------------------------------

    /// Rectified linear unit.
    pub fn relu(&self) -> Var {
        let out = self.value().map(|v| v.max(0.0));
        Var::op(out, Parents::one(self.clone()), Backward::Relu)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&self) -> Var {
        let out = self.value().map(|v| 1.0 / (1.0 + (-v).exp()));
        let s = out.clone();
        Var::op(out, Parents::one(self.clone()), Backward::Sigmoid { s })
    }

    /// Hyperbolic tangent.
    pub fn tanh_act(&self) -> Var {
        let out = self.value().map(f32::tanh);
        let t = out.clone();
        Var::op(out, Parents::one(self.clone()), Backward::Tanh { t })
    }

    /// Gaussian error linear unit (tanh approximation, as in BERT/PatchTST).
    pub fn gelu(&self) -> Var {
        let (t, out) = {
            let v = self.value();
            let t = v.map(|v| (GELU_C * (v + GELU_A * v * v * v)).tanh());
            let out = v.zip_map(&t, |v, t| 0.5 * v * (1.0 + t)).expect("gelu: same shape");
            (t, out)
        };
        Var::op(out, Parents::one(self.clone()), Backward::Gelu { t })
    }

    // ------------------------------------------------------------------
    // Linear algebra / shape ops
    // ------------------------------------------------------------------

    /// Matrix product (rank dispatch follows [`matmul`]).
    pub fn matmul(&self, other: &Var) -> Var {
        let out = matmul(&self.value(), &other.value()).expect("matmul: incompatible shapes");
        let (ls, rs) = (self.shape(), other.shape());
        Var::op(out, Parents::two(self.clone(), other.clone()), Backward::Matmul { ls, rs })
    }

    /// `self @ otherᵀ` with `other` passed untransposed — equivalent to
    /// `self.matmul(&other.transpose())` (bit-for-bit, including the
    /// backward pass) but never materializes the transposed copy or its
    /// graph node. Rank dispatch follows [`matmul_nt`].
    pub fn matmul_t(&self, other: &Var) -> Var {
        let out = matmul_nt(&self.value(), &other.value()).expect("matmul_t: incompatible shapes");
        let (ls, rs) = (self.shape(), other.shape());
        Var::op(out, Parents::two(self.clone(), other.clone()), Backward::MatmulNT { ls, rs })
    }

    /// `selfᵀ @ other` with `self` passed untransposed — equivalent to
    /// `self.transpose().matmul(other)` but never materializes the
    /// transposed copy or its graph node. Rank dispatch follows
    /// [`matmul_tn`]; gradients flow for the `(2,2)` and `(3,3)` rank
    /// combinations (the `(3,2)` shared-rhs form is forward-only).
    pub fn matmul_tn(&self, other: &Var) -> Var {
        let out = matmul_tn(&self.value(), &other.value()).expect("matmul_tn: incompatible shapes");
        let (ls, rs) = (self.shape(), other.shape());
        Var::op(out, Parents::two(self.clone(), other.clone()), Backward::MatmulTN { ls, rs })
    }

    /// Fused tiled attention node: `softmax(q·kᵀ·scale + mask)·v` over
    /// `[bh, t, dh]` operands via
    /// [`attention_fused`](crate::attention_fused) — never materializing
    /// the `[bh, t, t]` score tensor, forward or backward. Bit-identical
    /// (value and gradients) to the composed graph
    /// `q.matmul_t(k).scale(scale) [+ causal mask] .softmax_lastdim()
    /// [.mul(drop_mask)] .matmul(v)`; the backward recomputes probability
    /// tiles instead of reading saved probabilities. `drop_mask` is the
    /// inverted-dropout multiplier drawn by the caller (so the RNG stream
    /// matches [`Var::dropout`] exactly); it is the only `[t, t]`-sized
    /// state the node keeps, and only in training.
    pub fn attention(
        q: &Var,
        k: &Var,
        v: &Var,
        scale: f32,
        causal: bool,
        drop_mask: Option<NdArray>,
    ) -> Var {
        let out = attention_fused(&q.value(), &k.value(), &v.value(), scale, causal, drop_mask.as_ref())
            .expect("attention: incompatible shapes");
        Var::op(
            out,
            Parents::Many(vec![q.clone(), k.clone(), v.clone()]),
            Backward::Attention { scale, causal, mask: drop_mask },
        )
    }

    /// Swaps the last two axes.
    pub fn transpose(&self) -> Var {
        Var::op(
            self.value().transpose(),
            Parents::one(self.clone()),
            Backward::Transpose,
        )
    }

    /// General axis permutation.
    pub fn permute(&self, axes: &[usize]) -> Var {
        let mut inverse = Dims::zeros(axes.len());
        for (i, &a) in axes.iter().enumerate() {
            inverse[a] = i;
        }
        Var::op(
            self.value().permute(axes),
            Parents::one(self.clone()),
            Backward::Permute { inverse },
        )
    }

    /// Reshape preserving element count.
    pub fn reshape(&self, shape: &[usize]) -> Var {
        let from = self.shape();
        Var::op(
            self.value().reshape(shape).expect("reshape: element count mismatch"),
            Parents::one(self.clone()),
            Backward::Reshape { from },
        )
    }

    /// Materialized broadcast to `target`.
    pub fn broadcast_to(&self, target: &[usize]) -> Var {
        let from = self.shape();
        Var::op(
            self.value().broadcast_to(target).expect("broadcast_to: incompatible"),
            Parents::one(self.clone()),
            Backward::BroadcastTo { from },
        )
    }

    /// Half-open slice `[start, start+len)` along `axis`; the gradient
    /// scatters back into a zero array of the original shape.
    pub fn slice(&self, axis: usize, start: usize, len: usize) -> Var {
        let full = self.shape();
        let out = self.value().slice(axis, start, len).expect("slice out of bounds");
        Var::op(out, Parents::one(self.clone()), Backward::Slice { full, axis, start, len })
    }

    /// Concatenates along `axis`; gradients split back to each part.
    pub fn concat(parts: &[Var], axis: usize) -> Var {
        assert!(!parts.is_empty(), "concat of zero Vars");
        let arrays: Vec<NdArray> = parts.iter().map(|p| p.to_array()).collect();
        let refs: Vec<&NdArray> = arrays.iter().collect();
        let out = NdArray::concat(&refs, axis);
        let sizes: Dims = arrays.iter().map(|a| a.shape()[axis]).collect();
        Var::op(out, Parents::Many(parts.to_vec()), Backward::Concat { axis, sizes })
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// Sum of all elements (rank-0 result).
    pub fn sum(&self) -> Var {
        let from = self.shape();
        Var::op(NdArray::scalar(self.value().sum()), Parents::one(self.clone()), Backward::Sum { from })
    }

    /// Mean of all elements (rank-0 result).
    pub fn mean(&self) -> Var {
        let n = self.value().numel() as f32;
        self.sum().scale(1.0 / n)
    }

    /// Sum along one axis.
    pub fn sum_axis(&self, axis: usize, keepdim: bool) -> Var {
        let from = self.shape();
        Var::op(
            self.value().sum_axis(axis, keepdim),
            Parents::one(self.clone()),
            Backward::SumAxis { from, axis, keepdim },
        )
    }

    /// Mean along one axis.
    pub fn mean_axis(&self, axis: usize, keepdim: bool) -> Var {
        let dim = self.shape()[axis] as f32;
        self.sum_axis(axis, keepdim).scale(1.0 / dim)
    }

    /// Maximum along one axis; the gradient routes to the (first) argmax
    /// position of each reduced group — the standard max-pool gradient.
    pub fn max_axis(&self, axis: usize, keepdim: bool) -> Var {
        let from = self.shape();
        let out = self.value().max_axis(axis, keepdim);
        Var::op(out, Parents::one(self.clone()), Backward::MaxAxis { from, axis })
    }

    // ------------------------------------------------------------------
    // Fused neural-network ops
    // ------------------------------------------------------------------

    /// Softmax over the last axis, with the standard fused Jacobian-vector
    /// product `s * (g - sum(g*s))`.
    pub fn softmax_lastdim(&self) -> Var {
        let out = self.value().softmax_lastdim();
        let s = out.clone();
        let last = self.shape().len() - 1;
        Var::op(out, Parents::one(self.clone()), Backward::Softmax { s, last })
    }

    /// Cross-entropy of `self` (logits, shape `[N, K]`) against integer
    /// class `targets`. Returns the mean loss as a rank-0 node.
    pub fn cross_entropy(&self, targets: &[usize]) -> Var {
        let logits = self.value();
        assert_eq!(logits.rank(), 2, "cross_entropy expects [N, K] logits");
        let n = logits.shape()[0];
        let k = logits.shape()[1];
        assert_eq!(targets.len(), n, "cross_entropy target count mismatch");
        let log_probs = logits.log_softmax_lastdim();
        let mut loss = 0.0f32;
        for (i, &t) in targets.iter().enumerate() {
            assert!(t < k, "target class {t} out of range");
            loss -= log_probs.data()[i * k + t];
        }
        loss /= n as f32;
        let probs = logits.softmax_lastdim();
        drop(logits);
        Var::op(
            NdArray::scalar(loss),
            Parents::one(self.clone()),
            Backward::CrossEntropy { probs, targets: targets.to_vec() },
        )
    }

    /// Inverted dropout. During training each element is zeroed with
    /// probability `p` and survivors are scaled by `1/(1-p)`; in eval mode
    /// it is the identity. This randomness is the *only* source of view
    /// variation in TimeDRL's instance-contrastive task.
    pub fn dropout(&self, p: f32, training: bool, rng: &mut Prng) -> Var {
        assert!((0.0..1.0).contains(&p), "dropout p must be in [0, 1)");
        if !training || p == 0.0 {
            return self.clone();
        }
        let keep = 1.0 - p;
        let mask = NdArray::from_fn(&self.shape(), |_| {
            if rng.bernoulli(keep) {
                1.0 / keep
            } else {
                0.0
            }
        });
        let out = self.value().mul(&mask);
        // The mask moves into the node — no second copy of it exists.
        Var::op(out, Parents::one(self.clone()), Backward::Dropout { mask })
    }

    /// Mean-squared error against a constant target (rank-0 result).
    pub fn mse_loss(&self, target: &NdArray) -> Var {
        let t = Var::constant(target.clone());
        let diff = self.sub(&t);
        diff.mul(&diff).mean()
    }

    /// Mean absolute error against a constant target (rank-0 result).
    pub fn mae_loss(&self, target: &NdArray) -> Var {
        let t = target.clone();
        let n = self.value().numel() as f32;
        let loss = self.value().zip_map(&t, |a, b| (a - b).abs()).expect("mae shapes").mean();
        Var::op(NdArray::scalar(loss), Parents::one(self.clone()), Backward::MaeLoss { target: t, n })
    }

    /// Row-wise cosine similarity between `self` and `other`, both
    /// `[N, D]`; returns the mean similarity as a rank-0 node. TimeDRL's
    /// contrastive loss is the *negative* of this (Eq. 16–18).
    pub fn cosine_similarity_mean(&self, other: &Var) -> Var {
        const EPS: f32 = 1e-8;
        let dot = self.mul(other).sum_axis(1, false);
        let na = self.mul(self).sum_axis(1, false).add_scalar(EPS).sqrt();
        let nb = other.mul(other).sum_axis(1, false).add_scalar(EPS).sqrt();
        dot.div(&na.mul(&nb)).mean()
    }

    // ------------------------------------------------------------------
    // Backward pass
    // ------------------------------------------------------------------

    /// Runs reverse-mode differentiation from this (scalar) node, seeding
    /// with gradient 1.
    ///
    /// # Panics
    /// Panics if the node holds more than one element, or if a backward
    /// rule fails (see [`Var::try_backward`] for the fallible form).
    pub fn backward(&self) {
        self.try_backward().expect("backward failed");
    }

    /// Runs reverse-mode differentiation seeding this node with `grad`.
    ///
    /// # Panics
    /// Panics if a backward rule fails (see [`Var::try_backward_with`]).
    pub fn backward_with(&self, grad: NdArray) {
        self.try_backward_with(grad).expect("backward failed");
    }

    /// Fallible form of [`Var::backward`]: shape mismatches inside matmul
    /// backward rules surface as a typed
    /// [`TensorError`](crate::TensorError) instead of aborting a long
    /// training run mid-backward.
    ///
    /// # Errors
    /// Propagates the first backward-rule failure, leaving already-written
    /// gradients in place (callers should `zero_grad` before retrying).
    ///
    /// # Panics
    /// Panics if the node holds more than one element — that is a misuse of
    /// the API, not a data-dependent failure.
    pub fn try_backward(&self) -> Result<()> {
        assert_eq!(
            self.value().numel(),
            1,
            "backward() requires a scalar; use backward_with for other shapes"
        );
        self.try_backward_with(NdArray::full(&self.shape(), 1.0))
    }

    /// Fallible form of [`Var::backward_with`].
    ///
    /// # Errors
    /// Propagates the first backward-rule failure (see
    /// [`Var::try_backward`]).
    pub fn try_backward_with(&self, grad: NdArray) -> Result<()> {
        assert_eq!(grad.shape(), self.shape().as_slice(), "seed gradient shape mismatch");
        if !self.0.requires_grad {
            return Ok(());
        }
        let order = self.topo_order();
        {
            let mut g = self.0.grad.borrow_mut();
            match g.as_mut() {
                Some(existing) => existing.add_assign(&grad),
                None => *g = Some(grad),
            }
        }
        for node in order.iter().rev() {
            let Some(backward) = node.0.backward.as_ref() else { continue };
            // Borrow the output gradient in place for the closure — no
            // clone. The closure only touches *parent* grad cells, which
            // are distinct `RefCell`s (a node is never its own parent), so
            // holding this borrow across the call is safe. Accumulation
            // into parents is in-place (`add_assign`); the first
            // contribution moves the array into the slot.
            let out_grad = node.0.grad.borrow();
            let Some(out_grad) = out_grad.as_ref() else { continue };
            let parent_grads = backward.apply(&node.0.parents, out_grad)?;
            debug_assert_eq!(parent_grads.len(), node.0.parents.as_slice().len());
            for (parent, pg) in node.0.parents.as_slice().iter().zip(parent_grads.into_iter()) {
                if !parent.0.requires_grad {
                    continue;
                }
                let mut slot = parent.0.grad.borrow_mut();
                match slot.as_mut() {
                    Some(existing) => existing.add_assign(&pg),
                    None => *slot = Some(pg),
                }
            }
        }
        Ok(())
    }

    /// Post-order (parents before children) topological ordering of the
    /// graph reachable from `self` through grad-requiring nodes.
    fn topo_order(&self) -> Vec<Var> {
        let mut order: Vec<Var> = Vec::new();
        let mut visited: HashSet<u64> = HashSet::new();
        // Iterative post-order DFS to avoid stack overflow on deep tapes.
        enum Frame {
            Enter(Var),
            Exit(Var),
        }
        let mut stack = vec![Frame::Enter(self.clone())];
        while let Some(frame) = stack.pop() {
            match frame {
                Frame::Enter(v) => {
                    if !v.0.requires_grad || visited.contains(&v.0.id) {
                        continue;
                    }
                    visited.insert(v.0.id);
                    stack.push(Frame::Exit(v.clone()));
                    for p in v.0.parents.as_slice() {
                        stack.push(Frame::Enter(p.clone()));
                    }
                }
                Frame::Exit(v) => order.push(v),
            }
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grad_of(v: &Var) -> NdArray {
        v.grad().expect("gradient missing")
    }

    fn assert_bits_eq(a: &NdArray, b: &NdArray, what: &str) {
        assert_eq!(a.shape(), b.shape(), "{what}: shape mismatch");
        for (i, (x, y)) in a.data().iter().zip(b.data().iter()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: bit mismatch at {i}: {x} vs {y}");
        }
    }

    #[test]
    fn attention_node_matches_composed_graph_bitwise() {
        let mut rng = Prng::new(41);
        for (causal, with_drop) in [(false, false), (true, false), (false, true), (true, true)] {
            let (bh, t, dh) = (3usize, 9usize, 6usize);
            let q0 = rng.randn(&[bh, t, dh]);
            let k0 = rng.randn(&[bh, t, dh]);
            let v0 = rng.randn(&[bh, t, dh]);
            let g0 = rng.randn(&[bh, t, dh]);
            let scale = 1.0 / (dh as f32).sqrt();
            let keep = 0.8f32;
            let mask = with_drop.then(|| {
                NdArray::from_fn(&[bh, t, t], |_| {
                    if rng.bernoulli(keep) {
                        1.0 / keep
                    } else {
                        0.0
                    }
                })
            });

            // Composed graph — the seed tape's exact op chain.
            let (qc, kc, vc) =
                (Var::parameter(q0.clone()), Var::parameter(k0.clone()), Var::parameter(v0.clone()));
            let mut scores = qc.matmul_t(&kc).scale(scale);
            if causal {
                let m2 = NdArray::from_fn(&[t, t], |f| if f % t > f / t { -1e9 } else { 0.0 });
                scores = scores.add(&Var::constant(m2));
            }
            let probs = scores.softmax_lastdim();
            let attn = match &mask {
                Some(m) => probs.mul(&Var::constant(m.clone())),
                None => probs,
            };
            let composed = attn.matmul(&vc);
            composed.backward_with(g0.clone());

            // Fused node.
            let (qf, kf, vf) =
                (Var::parameter(q0), Var::parameter(k0), Var::parameter(v0));
            let fused = Var::attention(&qf, &kf, &vf, scale, causal, mask);
            fused.backward_with(g0);

            let what = format!("causal={causal} drop={with_drop}");
            assert_bits_eq(&fused.to_array(), &composed.to_array(), &format!("value {what}"));
            assert_bits_eq(&grad_of(&qf), &grad_of(&qc), &format!("dq {what}"));
            assert_bits_eq(&grad_of(&kf), &grad_of(&kc), &format!("dk {what}"));
            assert_bits_eq(&grad_of(&vf), &grad_of(&vc), &format!("dv {what}"));
        }
    }

    #[test]
    fn attention_node_without_grad_parents_is_leaf() {
        let mut rng = Prng::new(43);
        let q = Var::constant(rng.randn(&[2, 5, 4]));
        let k = Var::constant(rng.randn(&[2, 5, 4]));
        let v = Var::constant(rng.randn(&[2, 5, 4]));
        let out = Var::attention(&q, &k, &v, 0.5, true, None);
        assert!(!out.requires_grad());
    }

    #[test]
    fn add_mul_grads() {
        let x = Var::parameter(NdArray::from_slice(&[2.0, 3.0]));
        let y = Var::parameter(NdArray::from_slice(&[5.0, 7.0]));
        let z = x.mul(&y).add(&x).sum(); // z = sum(x*y + x)
        z.backward();
        assert_eq!(grad_of(&x).data(), &[6.0, 8.0]); // y + 1
        assert_eq!(grad_of(&y).data(), &[2.0, 3.0]); // x
    }

    #[test]
    fn reuse_accumulates() {
        let x = Var::parameter(NdArray::from_slice(&[3.0]));
        let z = x.mul(&x).sum(); // x^2 -> grad 2x
        z.backward();
        assert_eq!(grad_of(&x).data(), &[6.0]);
    }

    #[test]
    fn broadcast_grad_reduces() {
        let x = Var::parameter(NdArray::from_slice(&[1.0, 2.0])); // [2]
        let y = Var::parameter(NdArray::zeros(&[3, 2]));
        let z = x.add(&y).sum();
        z.backward();
        assert_eq!(grad_of(&x).data(), &[3.0, 3.0]);
        assert_eq!(grad_of(&y).shape(), &[3, 2]);
    }

    #[test]
    fn matmul_grads_match_formula() {
        let a = Var::parameter(NdArray::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap());
        let b = Var::parameter(NdArray::from_vec(&[3, 2], vec![1., 0., 0., 1., 1., 1.]).unwrap());
        let z = a.matmul(&b).sum();
        z.backward();
        // dz/dA = ones(2,2) @ B^T
        let expected_a = matmul(&NdArray::ones(&[2, 2]), &b.to_array().transpose()).unwrap();
        assert_eq!(grad_of(&a), expected_a);
        let expected_b = matmul(&a.to_array().transpose(), &NdArray::ones(&[2, 2])).unwrap();
        assert_eq!(grad_of(&b), expected_b);
    }

    #[test]
    fn matmul_t_matches_transpose_composition() {
        // Zero-free data: value AND both gradients of x.matmul_t(&w) must
        // equal the explicit x.matmul(&w.transpose()) composition.
        let a0 = NdArray::from_fn(&[3, 4], |i| (i as f32 * 0.31).sin() + 1.5);
        let b0 = NdArray::from_fn(&[5, 4], |i| (i as f32 * 0.17).cos() + 1.5);
        let (a, b) = (Var::parameter(a0.clone()), Var::parameter(b0.clone()));
        let c = a.matmul_t(&b);
        c.sum().backward();
        let (a2, b2) = (Var::parameter(a0), Var::parameter(b0));
        let c2 = a2.matmul(&b2.transpose());
        c2.sum().backward();
        assert_eq!(c.to_array(), c2.to_array());
        assert_eq!(grad_of(&a), grad_of(&a2));
        assert_eq!(grad_of(&b), grad_of(&b2));
    }

    #[test]
    fn matmul_tn_matches_transpose_composition() {
        let a0 = NdArray::from_fn(&[4, 3], |i| (i as f32 * 0.23).sin() + 1.5);
        let b0 = NdArray::from_fn(&[4, 5], |i| (i as f32 * 0.41).cos() + 1.5);
        let (a, b) = (Var::parameter(a0.clone()), Var::parameter(b0.clone()));
        let c = a.matmul_tn(&b);
        c.sum().backward();
        let (a2, b2) = (Var::parameter(a0), Var::parameter(b0));
        let c2 = a2.transpose().matmul(&b2);
        c2.sum().backward();
        assert_eq!(c.to_array(), c2.to_array());
        assert_eq!(grad_of(&a), grad_of(&a2));
        assert_eq!(grad_of(&b), grad_of(&b2));
    }

    #[test]
    fn matmul_t_batched_shared_rhs_grads() {
        // (3,2) rank pair: x [bs,m,k] times shared wᵀ [n,k]; the weight
        // gradient folds the batch. Compare against the composition.
        let x0 = NdArray::from_fn(&[2, 3, 4], |i| (i as f32 * 0.19).sin() + 1.2);
        let w0 = NdArray::from_fn(&[5, 4], |i| (i as f32 * 0.37).cos() + 1.2);
        let (x, w) = (Var::parameter(x0.clone()), Var::parameter(w0.clone()));
        x.matmul_t(&w).sum().backward();
        let (x2, w2) = (Var::parameter(x0), Var::parameter(w0));
        x2.matmul(&w2.transpose()).sum().backward();
        assert_eq!(grad_of(&x), grad_of(&x2));
        assert_eq!(grad_of(&w), grad_of(&w2));
    }

    #[test]
    fn try_backward_surfaces_matmul_mismatch() {
        // Build a graph whose backward must fail: a (3,2)-rank matmul_tn is
        // forward-only, so its dA rule hits an unsupported rank pair. The
        // error must surface as Err, not a panic.
        let a = Var::parameter(NdArray::ones(&[2, 3, 4]));
        let b = Var::parameter(NdArray::ones(&[3, 5]));
        let c = a.matmul_tn(&b); // [2,4,5] forward is fine
        assert_eq!(c.shape().as_slice(), &[2, 4, 5]);
        let err = c.sum().try_backward().unwrap_err();
        assert!(err.to_string().contains("matmul"), "unexpected error: {err}");
    }

    #[test]
    fn detach_blocks_gradient() {
        let x = Var::parameter(NdArray::from_slice(&[2.0]));
        let z = x.detach().mul(&x).sum(); // only the non-detached path flows
        z.backward();
        assert_eq!(grad_of(&x).data(), &[2.0]); // d/dx (c * x) = c = 2
    }

    #[test]
    fn slice_grad_scatters() {
        let x = Var::parameter(NdArray::from_slice(&[1.0, 2.0, 3.0, 4.0]));
        let z = x.slice(0, 1, 2).sum();
        z.backward();
        assert_eq!(grad_of(&x).data(), &[0.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn concat_grad_splits() {
        let a = Var::parameter(NdArray::from_slice(&[1.0, 2.0]));
        let b = Var::parameter(NdArray::from_slice(&[3.0]));
        let z = Var::concat(&[a.clone(), b.clone()], 0).scale(2.0).sum();
        z.backward();
        assert_eq!(grad_of(&a).data(), &[2.0, 2.0]);
        assert_eq!(grad_of(&b).data(), &[2.0]);
    }

    #[test]
    fn softmax_grad_sums_to_zero() {
        let x = Var::parameter(NdArray::from_vec(&[1, 3], vec![0.2, -0.3, 0.8]).unwrap());
        let s = x.softmax_lastdim();
        // Pick out the first component as loss.
        let z = s.slice(1, 0, 1).sum();
        z.backward();
        let g = grad_of(&x);
        // Softmax Jacobian rows sum to zero.
        assert!(g.sum().abs() < 1e-6);
    }

    #[test]
    fn cross_entropy_perfect_prediction_small_loss() {
        let logits = Var::parameter(
            NdArray::from_vec(&[2, 3], vec![10.0, 0.0, 0.0, 0.0, 10.0, 0.0]).unwrap(),
        );
        let loss = logits.cross_entropy(&[0, 1]);
        assert!(loss.item() < 1e-3);
        loss.backward();
        assert!(grad_of(&logits).l2_norm() < 1e-3);
    }

    #[test]
    fn dropout_eval_is_identity() {
        let mut rng = Prng::new(0);
        let x = Var::parameter(NdArray::ones(&[4, 4]));
        let y = x.dropout(0.5, false, &mut rng);
        assert_eq!(y.to_array(), x.to_array());
    }

    #[test]
    fn dropout_train_scales_survivors() {
        let mut rng = Prng::new(0);
        let x = Var::parameter(NdArray::ones(&[100, 100]));
        let y = x.dropout(0.5, true, &mut rng);
        let vals = y.to_array();
        for &v in vals.data() {
            assert!(v == 0.0 || (v - 2.0).abs() < 1e-6);
        }
        // Expectation preserved within tolerance.
        assert!((vals.mean() - 1.0).abs() < 0.05);
    }

    #[test]
    fn two_dropout_passes_differ() {
        let mut rng = Prng::new(1);
        let x = Var::parameter(NdArray::ones(&[8, 8]));
        let a = x.dropout(0.3, true, &mut rng).to_array();
        let b = x.dropout(0.3, true, &mut rng).to_array();
        assert_ne!(a, b, "dropout must give distinct views (TimeDRL's two-pass trick)");
    }

    #[test]
    fn cosine_similarity_of_identical_rows_is_one() {
        let a = Var::parameter(NdArray::from_vec(&[2, 3], vec![1., 2., 3., -1., 0., 2.]).unwrap());
        let sim = a.cosine_similarity_mean(&a.detach());
        assert!((sim.item() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn mse_loss_value_and_grad() {
        let x = Var::parameter(NdArray::from_slice(&[1.0, 2.0]));
        let t = NdArray::from_slice(&[0.0, 0.0]);
        let loss = x.mse_loss(&t); // (1 + 4)/2
        assert!((loss.item() - 2.5).abs() < 1e-6);
        loss.backward();
        assert_eq!(grad_of(&x).data(), &[1.0, 2.0]); // 2(x-t)/n
    }

    #[test]
    fn mae_loss_grad_is_sign() {
        let x = Var::parameter(NdArray::from_slice(&[2.0, -3.0]));
        let t = NdArray::zeros(&[2]);
        let loss = x.mae_loss(&t);
        assert!((loss.item() - 2.5).abs() < 1e-6);
        loss.backward();
        assert_eq!(grad_of(&x).data(), &[0.5, -0.5]);
    }

    #[test]
    fn deep_chain_does_not_overflow() {
        let x = Var::parameter(NdArray::from_slice(&[1.0]));
        let mut y = x.clone();
        for _ in 0..5000 {
            y = y.add_scalar(0.0);
        }
        y.sum().backward();
        assert_eq!(grad_of(&x).data(), &[1.0]);
    }

    #[test]
    fn inference_graph_records_nothing() {
        let c = Var::constant(NdArray::ones(&[2, 2]));
        let out = c.mul(&c).relu();
        assert!(!out.requires_grad());
    }

    #[test]
    fn permute_grad_roundtrips() {
        let x = Var::parameter(NdArray::from_fn(&[2, 3, 4], |i| i as f32));
        let z = x.permute(&[2, 0, 1]).scale(3.0).sum();
        z.backward();
        assert_eq!(grad_of(&x), NdArray::full(&[2, 3, 4], 3.0));
    }
}
