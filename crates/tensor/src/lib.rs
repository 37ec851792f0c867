//! # timedrl-tensor
//!
//! A from-scratch, dependency-light tensor + reverse-mode autograd engine
//! for the TimeDRL (ICDE 2024) reproduction.
//!
//! The crate provides three layers:
//!
//! 1. [`NdArray`] — a contiguous row-major f32 n-dimensional array with
//!    broadcasting, reductions, slicing, and matrix multiplication.
//! 2. [`Var`] — a differentiable tensor node; operations build a
//!    define-by-run tape and [`Var::backward`] accumulates gradients.
//! 3. [`Prng`] — a seeded RNG powering initializers, dropout masks, and
//!    every synthetic data generator in the workspace, keeping all
//!    experiments bit-reproducible.
//!
//! ```
//! use timedrl_tensor::{NdArray, Var};
//!
//! let x = Var::parameter(NdArray::from_slice(&[1.0, 2.0, 3.0]));
//! let loss = x.mul(&x).sum(); // sum(x^2)
//! loss.backward();
//! assert_eq!(x.grad().unwrap().data(), &[2.0, 4.0, 6.0]);
//! ```

#![warn(missing_docs)]

mod array;
mod attention;
pub mod bufpool;
mod error;
pub mod gradcheck;
mod init;
mod matmul;
pub mod serialize;
pub mod shape;
mod var;

pub use array::NdArray;
pub use attention::{attention_fused, attention_fused_backward, attention_reference};
pub use error::{Result, TensorError};
pub use init::Prng;
pub use matmul::{matmul, matmul_nt, matmul_reference, matmul_tn};
pub use serialize::{
    decode_arrays, encode_arrays, load_parameters, read_arrays, read_file, save_parameters,
    write_arrays, write_file_atomic, ByteReader, KIND_ARRAYS, KIND_MODEL, KIND_TRAIN_STATE,
};
pub use var::Var;
