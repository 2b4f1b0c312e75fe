//! Reverse-mode automatic differentiation on a tape.
//!
//! A [`Tape`] records every operation of a forward pass as a node holding
//! the computed value and a backward closure. Calling [`Var::backward`] on
//! a scalar output walks the tape in reverse, propagating gradients to
//! every node and accumulating them into the [`Param`]s that participated
//! in the computation.
//!
//! The implementation is allocation-lean: node values are shared
//! (`Arc<Tensor>`) instead of cloned into every backward closure, the
//! upstream gradient is passed to each closure **by value** so unary ops
//! rewrite it in place and binary ops move it into their last child
//! instead of cloning, repeated [`Tape::param`] calls for the same
//! parameter reuse one leaf node, and the gradient scratch vector is
//! recycled across [`Var::backward`] calls on the same tape.
//!
//! Tapes are cheap to create; the intended pattern is one tape per
//! training step (or [`Tape::reset`] to reuse one tape's allocations
//! across steps):
//!
//! ```
//! use tinynn::{Tape, Tensor, Param};
//! let w = Param::new(Tensor::from_vec(1, 1, vec![3.0]));
//! let tape = Tape::new();
//! let x = tape.constant(Tensor::scalar(2.0));
//! let wv = tape.param(&w);
//! let y = x.mul(&wv);      // y = w * x
//! let loss = y.square().sum_all(); // loss = (w x)^2
//! loss.backward();
//! // d loss / d w = 2 * w * x^2 = 24
//! assert!((w.borrow().grad.item() - 24.0).abs() < 1e-4);
//! ```

use crate::param::Param;
use crate::tensor::{add_bias, Tensor};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

/// Backward closures receive the upstream gradient **by value** and may
/// consume it: mutate it in place and forward it to a child, or split it
/// into freshly computed child gradients.
type BackwardFn = Box<dyn Fn(Tensor, &mut [Option<Tensor>])>;

struct Node {
    value: Arc<Tensor>,
    backward: Option<BackwardFn>,
}

#[derive(Default)]
struct TapeInner {
    nodes: RefCell<Vec<Node>>,
    /// Leaf node id -> parameter whose gradient receives that node's grad.
    param_hooks: RefCell<HashMap<usize, Param>>,
    /// Parameter identity -> existing leaf node, so repeated
    /// `tape.param(&p)` calls share one node (and one value snapshot).
    param_ids: RefCell<HashMap<usize, usize>>,
    /// Recycled gradient buffer for `backward`, so repeated backward
    /// passes on a (reset) tape do not reallocate the slot vector.
    scratch: RefCell<Vec<Option<Tensor>>>,
}

/// A recording of one forward computation.
#[derive(Clone, Default)]
pub struct Tape {
    inner: Rc<TapeInner>,
}

/// A handle to a value on a [`Tape`].
#[derive(Clone)]
pub struct Var {
    id: usize,
    tape: Rc<TapeInner>,
}

fn accumulate(grads: &mut [Option<Tensor>], id: usize, g: Tensor) {
    match &mut grads[id] {
        Some(existing) => existing.add_assign(&g),
        slot @ None => *slot = Some(g),
    }
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded nodes (useful in tests).
    pub fn len(&self) -> usize {
        self.inner.nodes.borrow().len()
    }

    /// True if nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Clears all recorded nodes and parameter hooks while keeping the
    /// backing allocations, so a worker can reuse one tape across many
    /// training steps. Any [`Var`] created before the reset must not be
    /// used afterwards — its node id now refers to a fresh recording.
    pub fn reset(&self) {
        self.inner.nodes.borrow_mut().clear();
        self.inner.param_hooks.borrow_mut().clear();
        self.inner.param_ids.borrow_mut().clear();
    }

    fn push_arc(&self, value: Arc<Tensor>, backward: Option<BackwardFn>) -> Var {
        let mut nodes = self.inner.nodes.borrow_mut();
        let id = nodes.len();
        nodes.push(Node { value, backward });
        Var { id, tape: Rc::clone(&self.inner) }
    }

    fn push(&self, value: Tensor, backward: Option<BackwardFn>) -> Var {
        self.push_arc(Arc::new(value), backward)
    }

    /// Records a constant leaf: gradients flow into it but go nowhere.
    pub fn constant(&self, value: Tensor) -> Var {
        self.push(value, None)
    }

    /// Records a shared constant leaf without copying it — the zero-copy
    /// entry point for a tensor the caller also keeps.
    pub fn constant_arc(&self, value: Arc<Tensor>) -> Var {
        self.push_arc(value, None)
    }

    /// Records a parameter leaf; after `backward`, the gradient of this
    /// node is accumulated into `p.grad`. Calling this repeatedly with
    /// the same parameter on one tape returns the same node, so a weight
    /// used by many forward passes is snapshotted (and its gradient
    /// accumulated) once.
    pub fn param(&self, p: &Param) -> Var {
        let key = p.key();
        if let Some(&id) = self.inner.param_ids.borrow().get(&key) {
            return Var { id, tape: Rc::clone(&self.inner) };
        }
        let var = self.push(p.value(), None);
        self.inner.param_hooks.borrow_mut().insert(var.id, p.clone());
        self.inner.param_ids.borrow_mut().insert(key, var.id);
        var
    }
}

impl Var {
    /// Clone of the value stored at this node.
    pub fn value(&self) -> Tensor {
        (*self.tape.nodes.borrow()[self.id].value).clone()
    }

    /// Shared handle to the value stored at this node (no tensor copy).
    pub fn value_arc(&self) -> Arc<Tensor> {
        Arc::clone(&self.tape.nodes.borrow()[self.id].value)
    }

    /// Shape of the value at this node.
    pub fn shape(&self) -> (usize, usize) {
        self.tape.nodes.borrow()[self.id].value.shape()
    }

    /// The scalar held by a `1 x 1` node.
    pub fn item(&self) -> f32 {
        self.tape.nodes.borrow()[self.id].value.item()
    }

    fn tape(&self) -> Tape {
        Tape { inner: Rc::clone(&self.tape) }
    }

    fn same_tape(&self, other: &Var) {
        assert!(
            Rc::ptr_eq(&self.tape, &other.tape),
            "vars belong to different tapes"
        );
    }

    /// Runs reverse-mode differentiation from this scalar node.
    ///
    /// # Panics
    /// Panics if the node is not `1 x 1`.
    pub fn backward(&self) {
        assert_eq!(
            self.shape(),
            (1, 1),
            "backward() must start from a scalar (1x1) node"
        );
        self.backward_with(Tensor::scalar(1.0));
    }

    /// Reverse pass seeded with an arbitrary upstream gradient for this
    /// node (vector-Jacobian product). `backward()` is the special case
    /// `backward_with(1.0)` from a scalar. This is what lets a loss graph
    /// built over *detached* embedding values hand each embedding's
    /// gradient back to the tape that produced it.
    pub fn backward_with(&self, seed: Tensor) {
        assert_eq!(
            self.shape(),
            seed.shape(),
            "backward_with seed must match the node's shape"
        );
        let nodes = self.tape.nodes.borrow();
        let hooks = self.tape.param_hooks.borrow();
        let mut grads = self.tape.scratch.borrow_mut();
        grads.clear();
        grads.resize_with(nodes.len(), || None);
        grads[self.id] = Some(seed);
        for id in (0..=self.id).rev() {
            let Some(g) = grads[id].take() else { continue };
            if let Some(p) = hooks.get(&id) {
                p.accumulate_grad(&g);
            }
            if let Some(bw) = &nodes[id].backward {
                bw(g, &mut grads);
            }
        }
    }

    // ----- elementwise binary ops -------------------------------------

    /// Elementwise addition (identical shapes).
    pub fn add(&self, other: &Var) -> Var {
        self.same_tape(other);
        let a = self.value_arc();
        let b = other.value_arc();
        let out = a.zip(&b, |x, y| x + y);
        let (ia, ib) = (self.id, other.id);
        self.tape().push(
            out,
            Some(Box::new(move |g, grads| {
                accumulate(grads, ib, g.clone());
                accumulate(grads, ia, g);
            })),
        )
    }

    /// Elementwise subtraction (identical shapes).
    pub fn sub(&self, other: &Var) -> Var {
        self.same_tape(other);
        let a = self.value_arc();
        let b = other.value_arc();
        let out = a.zip(&b, |x, y| x - y);
        let (ia, ib) = (self.id, other.id);
        self.tape().push(
            out,
            Some(Box::new(move |g, grads| {
                accumulate(grads, ib, g.map(|x| -x));
                accumulate(grads, ia, g);
            })),
        )
    }

    /// Elementwise (Hadamard) product (identical shapes).
    pub fn mul(&self, other: &Var) -> Var {
        self.same_tape(other);
        let a = self.value_arc();
        let b = other.value_arc();
        let out = a.zip(&b, |x, y| x * y);
        let (ia, ib) = (self.id, other.id);
        self.tape().push(
            out,
            Some(Box::new(move |mut g, grads| {
                accumulate(grads, ib, g.zip(&a, |gg, x| gg * x));
                for (gg, &y) in g.data_mut().iter_mut().zip(b.data()) {
                    *gg *= y;
                }
                accumulate(grads, ia, g);
            })),
        )
    }

    /// Elementwise division (identical shapes).
    pub fn div(&self, other: &Var) -> Var {
        self.same_tape(other);
        let a = self.value_arc();
        let b = other.value_arc();
        let out = a.zip(&b, |x, y| x / y);
        let (ia, ib) = (self.id, other.id);
        self.tape().push(
            out,
            Some(Box::new(move |mut g, grads| {
                // d/db (a/b) = -a / b^2, computed in one pass
                let mut gb = g.zip(&a, |gg, x| gg * x);
                gb = gb.zip(&b, |t, y| -t / (y * y));
                accumulate(grads, ib, gb);
                for (gg, &y) in g.data_mut().iter_mut().zip(b.data()) {
                    *gg /= y;
                }
                accumulate(grads, ia, g);
            })),
        )
    }

    /// Adds a `1 x d` row vector to every row of an `n x d` matrix.
    pub fn add_row(&self, row: &Var) -> Var {
        self.same_tape(row);
        let a = self.value_arc();
        let b = row.value_arc();
        assert_eq!(b.rows(), 1, "add_row expects a 1xd right operand");
        assert_eq!(a.cols(), b.cols(), "add_row width mismatch");
        let mut out = (*a).clone();
        add_bias(out.data_mut(), b.data(), false);
        let (ia, ib) = (self.id, row.id);
        self.tape().push(
            out,
            Some(Box::new(move |g, grads| {
                // bias grad: sum over rows
                let mut gb = Tensor::zeros(1, g.cols());
                for r in 0..g.rows() {
                    for (o, &x) in gb.row_mut(0).iter_mut().zip(g.row(r)) {
                        *o += x;
                    }
                }
                accumulate(grads, ib, gb);
                accumulate(grads, ia, g);
            })),
        )
    }

    /// Fused `relu(self + row)` over an `n x d` matrix and a `1 x d` bias
    /// row — the bias-add + activation of a hidden [`crate::Linear`]
    /// layer in one tape node, one output buffer, and one backward pass.
    pub fn add_row_relu(&self, row: &Var) -> Var {
        self.same_tape(row);
        let a = self.value_arc();
        let b = row.value_arc();
        assert_eq!(b.rows(), 1, "add_row_relu expects a 1xd right operand");
        assert_eq!(a.cols(), b.cols(), "add_row_relu width mismatch");
        let mut out = (*a).clone();
        add_bias(out.data_mut(), b.data(), true);
        let y = Arc::new(out);
        let y_bw = Arc::clone(&y);
        let (ia, ib) = (self.id, row.id);
        self.tape().push_arc(
            y,
            Some(Box::new(move |mut g, grads| {
                // gate the upstream gradient in place (y > 0 <=> pre-act > 0),
                // then both children read the already-masked gradient
                for (gg, &yy) in g.data_mut().iter_mut().zip(y_bw.data()) {
                    if yy <= 0.0 {
                        *gg = 0.0;
                    }
                }
                let mut gb = Tensor::zeros(1, g.cols());
                for r in 0..g.rows() {
                    for (o, &x) in gb.row_mut(0).iter_mut().zip(g.row(r)) {
                        *o += x;
                    }
                }
                accumulate(grads, ib, gb);
                accumulate(grads, ia, g);
            })),
        )
    }

    // ----- scalar ops --------------------------------------------------

    /// Multiplies every element by a constant.
    pub fn scale(&self, c: f32) -> Var {
        let out = self.tape.nodes.borrow()[self.id].value.map(|x| x * c);
        let ia = self.id;
        self.tape().push(
            out,
            Some(Box::new(move |mut g, grads| {
                for x in g.data_mut() {
                    *x *= c;
                }
                accumulate(grads, ia, g);
            })),
        )
    }

    /// Adds a constant to every element.
    pub fn add_scalar(&self, c: f32) -> Var {
        let out = self.tape.nodes.borrow()[self.id].value.map(|x| x + c);
        let ia = self.id;
        self.tape().push(
            out,
            Some(Box::new(move |g, grads| {
                accumulate(grads, ia, g);
            })),
        )
    }

    /// Elementwise negation.
    pub fn neg(&self) -> Var {
        self.scale(-1.0)
    }

    // ----- elementwise unary ops ----------------------------------------

    /// Rectified linear unit, `max(x, 0)`. Also the hinge `[x]_+` of
    /// Eq. 18–20 in the paper.
    pub fn relu(&self) -> Var {
        let a = self.value_arc();
        let out = a.map(|x| x.max(0.0));
        let ia = self.id;
        self.tape().push(
            out,
            Some(Box::new(move |mut g, grads| {
                for (gg, &x) in g.data_mut().iter_mut().zip(a.data()) {
                    if x <= 0.0 {
                        *gg = 0.0;
                    }
                }
                accumulate(grads, ia, g);
            })),
        )
    }

    /// Hyperbolic tangent. With a scale, this is the HashNet relaxation
    /// `tanh(beta * x)` of the sign function (Section IV-F).
    pub fn tanh(&self) -> Var {
        let out = self.tape.nodes.borrow()[self.id].value.map(f32::tanh);
        let y = Arc::new(out);
        let y_bw = Arc::clone(&y);
        let ia = self.id;
        self.tape().push_arc(
            y,
            Some(Box::new(move |mut g, grads| {
                for (gg, &t) in g.data_mut().iter_mut().zip(y_bw.data()) {
                    *gg *= 1.0 - t * t;
                }
                accumulate(grads, ia, g);
            })),
        )
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&self) -> Var {
        let out = self.tape.nodes.borrow()[self.id].value.map(|x| 1.0 / (1.0 + (-x).exp()));
        let y = Arc::new(out);
        let y_bw = Arc::clone(&y);
        let ia = self.id;
        self.tape().push_arc(
            y,
            Some(Box::new(move |mut g, grads| {
                for (gg, &s) in g.data_mut().iter_mut().zip(y_bw.data()) {
                    *gg *= s * (1.0 - s);
                }
                accumulate(grads, ia, g);
            })),
        )
    }

    /// Elementwise exponential.
    pub fn exp(&self) -> Var {
        let out = self.tape.nodes.borrow()[self.id].value.map(f32::exp);
        let y = Arc::new(out);
        let y_bw = Arc::clone(&y);
        let ia = self.id;
        self.tape().push_arc(
            y,
            Some(Box::new(move |mut g, grads| {
                for (gg, &e) in g.data_mut().iter_mut().zip(y_bw.data()) {
                    *gg *= e;
                }
                accumulate(grads, ia, g);
            })),
        )
    }

    /// Elementwise natural logarithm.
    pub fn ln(&self) -> Var {
        let a = self.value_arc();
        let out = a.map(f32::ln);
        let ia = self.id;
        self.tape().push(
            out,
            Some(Box::new(move |mut g, grads| {
                for (gg, &x) in g.data_mut().iter_mut().zip(a.data()) {
                    *gg /= x;
                }
                accumulate(grads, ia, g);
            })),
        )
    }

    /// Elementwise square root (stabilized gradient at 0).
    pub fn sqrt(&self) -> Var {
        let out = self.tape.nodes.borrow()[self.id].value.map(f32::sqrt);
        let y = Arc::new(out);
        let y_bw = Arc::clone(&y);
        let ia = self.id;
        self.tape().push_arc(
            y,
            Some(Box::new(move |mut g, grads| {
                for (gg, &s) in g.data_mut().iter_mut().zip(y_bw.data()) {
                    *gg *= 0.5 / s.max(1e-12);
                }
                accumulate(grads, ia, g);
            })),
        )
    }

    /// Elementwise square.
    pub fn square(&self) -> Var {
        let a = self.value_arc();
        let out = a.map(|x| x * x);
        let ia = self.id;
        self.tape().push(
            out,
            Some(Box::new(move |mut g, grads| {
                for (gg, &x) in g.data_mut().iter_mut().zip(a.data()) {
                    *gg *= 2.0 * x;
                }
                accumulate(grads, ia, g);
            })),
        )
    }

    // ----- matrix ops ----------------------------------------------------

    /// Matrix product.
    pub fn matmul(&self, other: &Var) -> Var {
        self.same_tape(other);
        let a = self.value_arc();
        let b = other.value_arc();
        let out = a.matmul(&b);
        let (ia, ib) = (self.id, other.id);
        self.tape().push(
            out,
            Some(Box::new(move |g, grads| {
                // dA = G B^T and dB = A^T G via the packed kernels, so no
                // transpose is materialized in the backward pass.
                accumulate(grads, ia, g.matmul_transposed(&b));
                accumulate(grads, ib, a.transposed_matmul(&g));
            })),
        )
    }

    /// `self * other^T` — the attention-score op `Q K^T`. Forward is the
    /// shape-adaptive [`Tensor::matmul_nt`]; backward is `dQ = G K` and
    /// `dK = G^T Q`, without building a transposed copy.
    pub fn matmul_nt(&self, other: &Var) -> Var {
        self.same_tape(other);
        let a = self.value_arc();
        let b = other.value_arc();
        let out = a.matmul_nt(&b);
        let (ia, ib) = (self.id, other.id);
        self.tape().push(
            out,
            Some(Box::new(move |g, grads| {
                accumulate(grads, ia, g.matmul(&b));
                accumulate(grads, ib, g.transposed_matmul(&a));
            })),
        )
    }

    /// Transpose.
    pub fn transpose(&self) -> Var {
        let out = self.tape.nodes.borrow()[self.id].value.transpose();
        let ia = self.id;
        self.tape().push(
            out,
            Some(Box::new(move |g, grads| {
                accumulate(grads, ia, g.transpose());
            })),
        )
    }

    /// Row-wise softmax.
    pub fn softmax_rows(&self) -> Var {
        let out = self.tape.nodes.borrow()[self.id].value.softmax_rows();
        let y = Arc::new(out);
        let y_bw = Arc::clone(&y);
        let ia = self.id;
        self.tape().push_arc(
            y,
            Some(Box::new(move |mut g, grads| {
                // dL/dx_i = y_i * (g_i - sum_j g_j y_j), per row, in place.
                for r in 0..y_bw.rows() {
                    let dot: f32 =
                        g.row(r).iter().zip(y_bw.row(r)).map(|(&gg, &yy)| gg * yy).sum();
                    for (gg, &yy) in g.row_mut(r).iter_mut().zip(y_bw.row(r)) {
                        *gg = yy * (*gg - dot);
                    }
                }
                accumulate(grads, ia, g);
            })),
        )
    }

    // ----- reductions ------------------------------------------------------

    /// Sum of all elements, producing a `1 x 1` scalar.
    pub fn sum_all(&self) -> Var {
        let a = self.value_arc();
        let out = Tensor::scalar(a.sum());
        let (rows, cols) = a.shape();
        let ia = self.id;
        self.tape().push(
            out,
            Some(Box::new(move |g, grads| {
                accumulate(grads, ia, Tensor::full(rows, cols, g.item()));
            })),
        )
    }

    /// Mean of all elements, producing a `1 x 1` scalar.
    pub fn mean_all(&self) -> Var {
        let n = {
            let (r, c) = self.shape();
            (r * c) as f32
        };
        self.sum_all().scale(1.0 / n)
    }

    /// Column-wise sum: `n x d` -> `1 x d`.
    pub fn sum_rows(&self) -> Var {
        let a = self.value_arc();
        let mut out = Tensor::zeros(1, a.cols());
        for r in 0..a.rows() {
            for (o, &x) in out.row_mut(0).iter_mut().zip(a.row(r)) {
                *o += x;
            }
        }
        let rows = a.rows();
        let ia = self.id;
        self.tape().push(
            out,
            Some(Box::new(move |g, grads| {
                let mut gx = Tensor::zeros(rows, g.cols());
                for r in 0..rows {
                    gx.row_mut(r).copy_from_slice(g.row(0));
                }
                accumulate(grads, ia, gx);
            })),
        )
    }

    /// Column-wise mean: `n x d` -> `1 x d`. This is the `Mean` pooling
    /// read-out (Eq. 9).
    pub fn mean_rows(&self) -> Var {
        let rows = self.shape().0 as f32;
        self.sum_rows().scale(1.0 / rows)
    }

    // ----- shape ops ---------------------------------------------------------

    /// Horizontal concatenation `n x a ++ n x b -> n x (a+b)`. Used for the
    /// reverse-symmetric embedding `[W_p h, W_p h_r]` (Eq. 15).
    pub fn concat_cols(&self, other: &Var) -> Var {
        self.same_tape(other);
        let a = self.value_arc();
        let b = other.value_arc();
        let out = a.concat_cols(&b);
        let (ia, ib) = (self.id, other.id);
        let split = a.cols();
        self.tape().push(
            out,
            Some(Box::new(move |g, grads| {
                accumulate(grads, ia, g.slice_cols(0, split));
                accumulate(grads, ib, g.slice_cols(split, g.cols() - split));
            })),
        )
    }

    /// Vertical concatenation `a x d ++ b x d -> (a+b) x d`.
    pub fn concat_rows(&self, other: &Var) -> Var {
        self.same_tape(other);
        let a = self.value_arc();
        let b = other.value_arc();
        let out = a.concat_rows(&b);
        let (ia, ib) = (self.id, other.id);
        let split = a.rows();
        self.tape().push(
            out,
            Some(Box::new(move |g, grads| {
                accumulate(grads, ia, g.slice_rows(0, split));
                accumulate(grads, ib, g.slice_rows(split, g.rows() - split));
            })),
        )
    }

    /// Copy of rows `[start, start+len)` with zero-padded gradient.
    pub fn slice_rows(&self, start: usize, len: usize) -> Var {
        let a = self.value_arc();
        let out = a.slice_rows(start, len);
        let (rows, cols) = a.shape();
        let ia = self.id;
        self.tape().push(
            out,
            Some(Box::new(move |g, grads| {
                let mut gx = Tensor::zeros(rows, cols);
                for r in 0..len {
                    gx.row_mut(start + r).copy_from_slice(g.row(r));
                }
                accumulate(grads, ia, gx);
            })),
        )
    }

    /// Copy of columns `[start, start+len)` with zero-padded gradient.
    pub fn slice_cols(&self, start: usize, len: usize) -> Var {
        let a = self.value_arc();
        let out = a.slice_cols(start, len);
        let (rows, cols) = a.shape();
        let ia = self.id;
        self.tape().push(
            out,
            Some(Box::new(move |g, grads| {
                let mut gx = Tensor::zeros(rows, cols);
                for r in 0..rows {
                    gx.row_mut(r)[start..start + len].copy_from_slice(g.row(r));
                }
                accumulate(grads, ia, gx);
            })),
        )
    }

    /// Selects row `i` as a `1 x d` vector. With `i = 0` this is the
    /// lower-bound induced read-out of Eq. 13.
    pub fn select_row(&self, i: usize) -> Var {
        self.slice_rows(i, 1)
    }

    /// Gathers rows by index: the embedding-lookup primitive. The backward
    /// pass scatter-adds gradients into the embedding matrix, so repeated
    /// indices accumulate correctly.
    pub fn gather_rows(&self, indices: &[usize]) -> Var {
        let a = self.value_arc();
        let mut out = Tensor::zeros(indices.len(), a.cols());
        for (r, &ix) in indices.iter().enumerate() {
            assert!(ix < a.rows(), "gather index {ix} out of range {}", a.rows());
            out.row_mut(r).copy_from_slice(a.row(ix));
        }
        let idx: Vec<usize> = indices.to_vec();
        let (rows, cols) = a.shape();
        let ia = self.id;
        self.tape().push(
            out,
            Some(Box::new(move |g, grads| {
                let mut gx = Tensor::zeros(rows, cols);
                for (r, &ix) in idx.iter().enumerate() {
                    for (o, &x) in gx.row_mut(ix).iter_mut().zip(g.row(r)) {
                        *o += x;
                    }
                }
                accumulate(grads, ia, gx);
            })),
        )
    }

    // ----- composite helpers ----------------------------------------------

    /// Squared Euclidean distance between two vectors/matrices of equal
    /// shape, as a scalar.
    pub fn squared_distance(&self, other: &Var) -> Var {
        self.sub(other).square().sum_all()
    }

    /// Euclidean distance between two equally shaped values, as a scalar.
    pub fn distance(&self, other: &Var) -> Var {
        self.squared_distance(other).add_scalar(1e-12).sqrt()
    }

    /// Inner product of two row vectors, as a scalar.
    pub fn dot(&self, other: &Var) -> Var {
        self.mul(other).sum_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scalar_var(tape: &Tape, x: f32) -> (Param, Var) {
        let p = Param::new(Tensor::scalar(x));
        let v = tape.param(&p);
        (p, v)
    }

    #[test]
    fn add_mul_backward() {
        let tape = Tape::new();
        let (pa, a) = scalar_var(&tape, 2.0);
        let (pb, b) = scalar_var(&tape, 3.0);
        // f = (a + b) * a = a^2 + ab ; df/da = 2a + b = 7 ; df/db = a = 2
        let f = a.add(&b).mul(&a);
        f.backward();
        assert!((pa.borrow().grad.item() - 7.0).abs() < 1e-5);
        assert!((pb.borrow().grad.item() - 2.0).abs() < 1e-5);
    }

    #[test]
    fn matmul_backward_shapes_and_values() {
        let tape = Tape::new();
        let pa = Param::new(Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]));
        let pb = Param::new(Tensor::from_vec(3, 1, vec![1.0, 1.0, 1.0]));
        let a = tape.param(&pa);
        let b = tape.param(&pb);
        let f = a.matmul(&b).sum_all(); // sum of all elements of A
        f.backward();
        assert_eq!(pa.borrow().grad.shape(), (2, 3));
        assert_eq!(pb.borrow().grad.shape(), (3, 1));
        // df/dA = ones * b^T = all-ones; df/db = A^T * ones = column sums
        assert!(pa.borrow().grad.data().iter().all(|&x| (x - 1.0).abs() < 1e-5));
        assert_eq!(pb.borrow().grad.data(), &[5.0, 7.0, 9.0]);
    }

    #[test]
    fn relu_gates_gradient() {
        let tape = Tape::new();
        let p = Param::new(Tensor::from_vec(1, 3, vec![-1.0, 0.0, 2.0]));
        let v = tape.param(&p);
        v.relu().sum_all().backward();
        assert_eq!(p.borrow().grad.data(), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn fused_add_row_relu_matches_unfused() {
        let run = |fused: bool| -> (Tensor, Tensor, Tensor) {
            let tape = Tape::new();
            let px = Param::new(Tensor::from_vec(2, 3, vec![1.0, -2.0, 0.5, -0.5, 2.0, -3.0]));
            let pb = Param::new(Tensor::row_vector(&[0.25, 1.0, -1.0]));
            let x = tape.param(&px);
            let b = tape.param(&pb);
            let y = if fused { x.add_row_relu(&b) } else { x.add_row(&b).relu() };
            let out = y.value();
            y.sum_all().backward();
            let grads = (out, px.borrow().grad.clone(), pb.borrow().grad.clone());
            grads
        };
        let (yf, gxf, gbf) = run(true);
        let (yu, gxu, gbu) = run(false);
        assert_eq!(yf, yu);
        assert_eq!(gxf, gxu);
        assert_eq!(gbf, gbu);
    }

    #[test]
    fn tanh_gradient_matches_identity() {
        let tape = Tape::new();
        let p = Param::new(Tensor::scalar(0.5));
        let v = tape.param(&p);
        v.tanh().sum_all().backward();
        let expected = 1.0 - 0.5f32.tanh().powi(2);
        assert!((p.borrow().grad.item() - expected).abs() < 1e-5);
    }

    #[test]
    fn softmax_gradient_sums_to_zero() {
        // The Jacobian of softmax maps the all-ones upstream gradient to 0.
        let tape = Tape::new();
        let p = Param::new(Tensor::from_vec(1, 4, vec![0.3, -1.0, 2.0, 0.0]));
        let v = tape.param(&p);
        v.softmax_rows().sum_all().backward();
        let g = p.borrow().grad.clone();
        assert!(g.data().iter().all(|&x| x.abs() < 1e-6));
    }

    #[test]
    fn gather_accumulates_repeated_indices() {
        let tape = Tape::new();
        let p = Param::new(Tensor::from_vec(3, 2, vec![1.0; 6]));
        let v = tape.param(&p);
        v.gather_rows(&[0, 0, 2]).sum_all().backward();
        let g = p.borrow().grad.clone();
        assert_eq!(g.row(0), &[2.0, 2.0]);
        assert_eq!(g.row(1), &[0.0, 0.0]);
        assert_eq!(g.row(2), &[1.0, 1.0]);
    }

    #[test]
    fn slice_and_concat_roundtrip_grad() {
        let tape = Tape::new();
        let p = Param::new(Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let v = tape.param(&p);
        let left = v.slice_cols(0, 1);
        let right = v.slice_cols(1, 1);
        let whole = left.concat_cols(&right);
        whole.sum_all().backward();
        assert!(p.borrow().grad.data().iter().all(|&x| (x - 1.0).abs() < 1e-6));
    }

    #[test]
    fn distance_gradient() {
        let tape = Tape::new();
        let p = Param::new(Tensor::row_vector(&[3.0, 0.0]));
        let v = tape.param(&p);
        let target = tape.constant(Tensor::row_vector(&[0.0, 4.0]));
        let d = v.distance(&target); // 5
        assert!((d.item() - 5.0).abs() < 1e-5);
        d.backward();
        // grad = (p - t) / ||p - t|| = (3/5, -4/5)
        let g = p.borrow().grad.clone();
        assert!((g.get(0, 0) - 0.6).abs() < 1e-4);
        assert!((g.get(0, 1) + 0.8).abs() < 1e-4);
    }

    #[test]
    fn grad_accumulates_across_uses() {
        let tape = Tape::new();
        let (p, v) = scalar_var(&tape, 1.5);
        // f = v + v  => df/dv = 2
        v.add(&v).backward();
        assert!((p.borrow().grad.item() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn repeated_param_lookups_share_one_node() {
        let tape = Tape::new();
        let p = Param::new(Tensor::scalar(2.0));
        let a = tape.param(&p);
        let before = tape.len();
        let b = tape.param(&p);
        assert_eq!(tape.len(), before, "second lookup must not add a node");
        // gradient still accumulates across both uses: f = p * p
        a.mul(&b).backward();
        assert!((p.borrow().grad.item() - 4.0).abs() < 1e-5);
    }

    #[test]
    fn constant_arc_shares_the_buffer() {
        let tape = Tape::new();
        let t = Arc::new(Tensor::row_vector(&[1.0, 2.0]));
        let v = tape.constant_arc(Arc::clone(&t));
        assert!(Arc::ptr_eq(&t, &v.value_arc()));
    }

    #[test]
    fn reset_clears_nodes_and_hooks() {
        let tape = Tape::new();
        let p = Param::new(Tensor::scalar(1.0));
        let v = tape.param(&p);
        v.square().sum_all().backward();
        assert!(!tape.is_empty());
        tape.reset();
        assert!(tape.is_empty());
        // a fresh recording on the same tape works and re-hooks the param
        p.zero_grad();
        let v2 = tape.param(&p);
        v2.square().sum_all().backward(); // d/dp p^2 = 2
        assert!((p.borrow().grad.item() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn backward_twice_on_separate_tapes_accumulates() {
        let p = Param::new(Tensor::scalar(2.0));
        for _ in 0..2 {
            let tape = Tape::new();
            let v = tape.param(&p);
            v.square().sum_all().backward(); // d/dp = 4
        }
        assert!((p.borrow().grad.item() - 8.0).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "must start from a scalar")]
    fn backward_requires_scalar() {
        let tape = Tape::new();
        let v = tape.constant(Tensor::zeros(2, 2));
        v.backward();
    }
}
