//! Trainable parameters and parameter collections.

use crate::tensor::Tensor;
use std::cell::{Ref, RefCell, RefMut};
use std::rc::Rc;

/// Internal state of a trainable parameter.
#[derive(Debug)]
pub struct ParamData {
    /// Current value.
    pub value: Tensor,
    /// Accumulated gradient (same shape as `value`).
    pub grad: Tensor,
    /// First-moment estimate (Adam).
    pub m: Tensor,
    /// Second-moment estimate (Adam).
    pub v: Tensor,
    /// When `false`, optimizers skip this parameter. Used for the frozen
    /// pre-trained grid embeddings (Section IV-C of the paper).
    pub trainable: bool,
}

/// A shared, mutable, trainable tensor.
///
/// Cloning a `Param` clones the *handle*: both copies refer to the same
/// underlying value and gradient, which is how layers share weights with
/// the optimizer.
#[derive(Clone, Debug)]
pub struct Param(Rc<RefCell<ParamData>>);

impl Param {
    /// Wraps a tensor as a trainable parameter with zeroed state.
    pub fn new(value: Tensor) -> Self {
        let (r, c) = value.shape();
        Param(Rc::new(RefCell::new(ParamData {
            value,
            grad: Tensor::zeros(r, c),
            m: Tensor::zeros(r, c),
            v: Tensor::zeros(r, c),
            trainable: true,
        })))
    }

    /// Wraps a tensor as a frozen (non-trainable) parameter.
    pub fn frozen(value: Tensor) -> Self {
        let p = Self::new(value);
        p.0.borrow_mut().trainable = false;
        p
    }

    /// Immutable borrow of the full state.
    pub fn borrow(&self) -> Ref<'_, ParamData> {
        self.0.borrow()
    }

    /// Mutable borrow of the full state.
    pub fn borrow_mut(&self) -> RefMut<'_, ParamData> {
        self.0.borrow_mut()
    }

    /// Clone of the current value.
    pub fn value(&self) -> Tensor {
        self.0.borrow().value.clone()
    }

    /// Shape of the parameter.
    pub fn shape(&self) -> (usize, usize) {
        self.0.borrow().value.shape()
    }

    /// Resets the gradient to zero.
    pub fn zero_grad(&self) {
        self.0.borrow_mut().grad.zero_out();
    }

    /// Adds `g` into the stored gradient.
    pub fn accumulate_grad(&self, g: &Tensor) {
        self.0.borrow_mut().grad.add_assign(g);
    }

    /// Whether optimizers should update this parameter.
    pub fn is_trainable(&self) -> bool {
        self.0.borrow().trainable
    }

    /// Marks the parameter frozen or trainable.
    pub fn set_trainable(&self, trainable: bool) {
        self.0.borrow_mut().trainable = trainable;
    }

    /// True if both handles point at the same parameter.
    pub fn ptr_eq(&self, other: &Param) -> bool {
        Rc::ptr_eq(&self.0, &other.0)
    }

    /// Stable identity key for this parameter (the address of its shared
    /// state). Used by the tape to deduplicate leaf nodes.
    pub fn key(&self) -> usize {
        Rc::as_ptr(&self.0) as usize
    }
}

/// An ordered collection of parameters, used by optimizers and for
/// serialization. Order is insertion order, so save/load round-trips as
/// long as the model is constructed identically.
#[derive(Clone, Default)]
pub struct ParamSet {
    params: Vec<Param>,
}

impl ParamSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter (deduplicated by identity) and returns it.
    pub fn register(&mut self, p: Param) -> Param {
        if !self.params.iter().any(|q| q.ptr_eq(&p)) {
            self.params.push(p.clone());
        }
        p
    }

    /// Absorbs every parameter of another set.
    pub fn extend(&mut self, other: &ParamSet) {
        for p in &other.params {
            self.register(p.clone());
        }
    }

    /// Iterates over the parameters in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &Param> {
        self.params.iter()
    }

    /// Number of registered parameters.
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// True if no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Zeroes every gradient.
    pub fn zero_grad(&self) {
        for p in &self.params {
            p.zero_grad();
        }
    }

    /// Snapshot of every parameter value, in registration order. The
    /// snapshot is `Send`, so worker threads can rebuild a model replica
    /// from it (see `load_values`).
    pub fn clone_values(&self) -> Vec<Tensor> {
        self.params.iter().map(|p| p.value()).collect()
    }

    /// Overwrites every parameter value from a snapshot produced by
    /// [`ParamSet::clone_values`] on an identically constructed set.
    ///
    /// # Panics
    /// Panics on length or shape mismatch — replicas must be built from
    /// the same model configuration.
    pub fn load_values(&self, values: &[Tensor]) {
        assert_eq!(values.len(), self.params.len(), "parameter count mismatch");
        for (p, v) in self.params.iter().zip(values) {
            let mut d = p.borrow_mut();
            assert_eq!(d.value.shape(), v.shape(), "parameter shape mismatch");
            d.value = v.clone();
        }
    }

    /// Overwrites every gradient with the given tensors (registration
    /// order) — the receiving end of the reduction that
    /// [`ParamSet::take_grads`] feeds.
    ///
    /// # Panics
    /// Panics on length or shape mismatch.
    pub fn load_grads(&self, grads: Vec<Tensor>) {
        assert_eq!(grads.len(), self.params.len(), "gradient count mismatch");
        for (p, g) in self.params.iter().zip(grads) {
            let mut d = p.borrow_mut();
            assert_eq!(d.value.shape(), g.shape(), "gradient shape mismatch");
            d.grad = g;
        }
    }

    /// Moves the accumulated gradients out, leaving zeros behind, in
    /// registration order. This is how a worker's replica hands its batch
    /// gradient back to the main thread for the deterministic reduction.
    pub fn take_grads(&self) -> Vec<Tensor> {
        self.params
            .iter()
            .map(|p| {
                let mut d = p.borrow_mut();
                let (r, c) = d.value.shape();
                std::mem::replace(&mut d.grad, Tensor::zeros(r, c))
            })
            .collect()
    }

    /// Serializes all parameter values (little-endian f32) preceded by a
    /// small header so `load_bytes` can validate shapes.
    #[expect(clippy::cast_possible_truncation, reason = "counts and dims are far below 2^32")]
    pub fn save_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(b"TNN1");
        out.extend_from_slice(&(self.params.len() as u32).to_le_bytes());
        for p in &self.params {
            let d = p.borrow();
            let (r, c) = d.value.shape();
            out.extend_from_slice(&(r as u32).to_le_bytes());
            out.extend_from_slice(&(c as u32).to_le_bytes());
            for &x in d.value.data() {
                out.extend_from_slice(&x.to_le_bytes());
            }
        }
        out
    }

    /// Restores parameter values saved by [`ParamSet::save_bytes`].
    ///
    /// Returns an error string when the header, count, or any shape does
    /// not match the currently registered parameters.
    pub fn load_bytes(&self, bytes: &[u8]) -> Result<(), String> {
        self.load_impl(bytes, b"TNN1", false)
    }

    /// Serializes parameter values **and** optimizer state (the Adam
    /// first/second moments stored on each parameter), so training can
    /// roll back or resume without losing adaptive-learning-rate
    /// history. Layout mirrors [`ParamSet::save_bytes`] with a `TNS1`
    /// magic and three tensors (value, m, v) per parameter.
    #[expect(clippy::cast_possible_truncation, reason = "counts and dims are far below 2^32")]
    pub fn save_state_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(b"TNS1");
        out.extend_from_slice(&(self.params.len() as u32).to_le_bytes());
        for p in &self.params {
            let d = p.borrow();
            let (r, c) = d.value.shape();
            out.extend_from_slice(&(r as u32).to_le_bytes());
            out.extend_from_slice(&(c as u32).to_le_bytes());
            for t in [&d.value, &d.m, &d.v] {
                for &x in t.data() {
                    out.extend_from_slice(&x.to_le_bytes());
                }
            }
        }
        out
    }

    /// Restores values and optimizer moments saved by
    /// [`ParamSet::save_state_bytes`]. All-or-nothing per parameter
    /// blob: any header/shape/length mismatch is reported before any
    /// tensor of that parameter is only partially overwritten.
    pub fn load_state_bytes(&self, bytes: &[u8]) -> Result<(), String> {
        self.load_impl(bytes, b"TNS1", true)
    }

    fn load_impl(&self, bytes: &[u8], magic: &[u8; 4], with_moments: bool) -> Result<(), String> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Result<&[u8], String> {
            if *pos + n > bytes.len() {
                return Err("unexpected end of parameter blob".into());
            }
            let s = &bytes[*pos..*pos + n];
            *pos += n;
            Ok(s)
        };
        if take(&mut pos, 4)? != magic {
            return Err("bad magic in parameter blob".into());
        }
        #[expect(clippy::unwrap_used, reason = "take(4) returned exactly 4 bytes")]
        let count = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
        if count != self.params.len() {
            return Err(format!(
                "parameter count mismatch: blob has {count}, model has {}",
                self.params.len()
            ));
        }
        let tensors_per_param = if with_moments { 3usize } else { 1 };
        // Validate the whole blob before mutating anything, so a
        // truncated or corrupt blob can never leave the model in a
        // half-restored state.
        let mut scan = pos;
        for p in &self.params {
            #[expect(clippy::unwrap_used, reason = "take(4) returned exactly 4 bytes")]
            let r = u32::from_le_bytes(take(&mut scan, 4)?.try_into().unwrap()) as usize;
            #[expect(clippy::unwrap_used, reason = "take(4) returned exactly 4 bytes")]
            let c = u32::from_le_bytes(take(&mut scan, 4)?.try_into().unwrap()) as usize;
            let d = p.borrow();
            if d.value.shape() != (r, c) {
                return Err(format!(
                    "shape mismatch: blob has {r}x{c}, model has {:?}",
                    d.value.shape()
                ));
            }
            take(&mut scan, r * c * 4 * tensors_per_param)?;
        }
        if scan != bytes.len() {
            return Err("trailing bytes in parameter blob".into());
        }
        for p in &self.params {
            #[expect(clippy::unwrap_used, reason = "take(4) returned exactly 4 bytes")]
            let r = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
            #[expect(clippy::unwrap_used, reason = "take(4) returned exactly 4 bytes")]
            let c = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
            let mut d = p.borrow_mut();
            #[expect(clippy::unwrap_used, reason = "chunks_exact(4) yields 4-byte chunks")]
            let fill = |t: &mut crate::tensor::Tensor, raw: &[u8]| {
                for (i, chunk) in raw.chunks_exact(4).enumerate() {
                    t.data_mut()[i] = f32::from_le_bytes(chunk.try_into().unwrap());
                }
            };
            let raw = take(&mut pos, r * c * 4)?;
            fill(&mut d.value, raw);
            if with_moments {
                let raw = take(&mut pos, r * c * 4)?;
                fill(&mut d.m, raw);
                let raw = take(&mut pos, r * c * 4)?;
                fill(&mut d.v, raw);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_dedupes_by_identity() {
        let mut set = ParamSet::new();
        let p = Param::new(Tensor::zeros(2, 2));
        set.register(p.clone());
        set.register(p.clone());
        assert_eq!(set.len(), 1);
        let q = Param::new(Tensor::zeros(2, 2));
        set.register(q);
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn shared_handle_sees_updates() {
        let p = Param::new(Tensor::zeros(1, 2));
        let q = p.clone();
        p.borrow_mut().value.set(0, 1, 7.0);
        assert_eq!(q.value().get(0, 1), 7.0);
    }

    #[test]
    fn save_load_roundtrip() {
        let mut set = ParamSet::new();
        let a = set.register(Param::new(Tensor::from_vec(1, 3, vec![1.0, 2.0, 3.0])));
        let b = set.register(Param::new(Tensor::from_vec(2, 1, vec![-1.0, 4.5])));
        let blob = set.save_bytes();

        a.borrow_mut().value.zero_out();
        b.borrow_mut().value.zero_out();
        set.load_bytes(&blob).unwrap();
        assert_eq!(a.value().data(), &[1.0, 2.0, 3.0]);
        assert_eq!(b.value().data(), &[-1.0, 4.5]);
    }

    #[test]
    fn load_rejects_wrong_shape() {
        let mut set = ParamSet::new();
        set.register(Param::new(Tensor::zeros(1, 3)));
        let blob = set.save_bytes();

        let mut other = ParamSet::new();
        other.register(Param::new(Tensor::zeros(3, 1)));
        assert!(other.load_bytes(&blob).is_err());
    }

    #[test]
    fn frozen_flag() {
        let p = Param::frozen(Tensor::zeros(1, 1));
        assert!(!p.is_trainable());
        p.set_trainable(true);
        assert!(p.is_trainable());
    }
}
