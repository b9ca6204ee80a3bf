//! Dense dtype-generic tensors (`Tensor<E>`, `E` ∈ {`f64`, `f32`}) with
//! reverse-mode automatic differentiation.
//!
//! This crate is the computational substrate of the YOLLO reproduction: a
//! minimal tensor library providing the operators the paper's model needs —
//! matrix multiplication, 2-D convolution, softmax, reductions, gathering —
//! together with a tape-based autodiff [`Graph`] that computes exact
//! gradients for all of them.
//!
//! # Dtypes
//!
//! Every tensor, graph and kernel is generic over a sealed [`Element`]
//! trait with exactly two instantiations. **`f64` is the default type
//! parameter and the bitwise reference**: plain `Tensor` means
//! `Tensor<f64>`, all determinism/equivalence suites run against it, and
//! training only ever uses it. **`f32` is the inference fast path**: cast
//! weights once with [`Tensor::cast`] and the same kernels run at double
//! the vector width (~2× on the large blocked matmul). Casts are always
//! explicit; there are no mixed-dtype ops. See DESIGN.md § Dtype policy.
//!
//! # Threading model
//!
//! The autodiff tape is **single-threaded**: [`Graph`] is built on
//! `RefCell` and is `!Sync`, ops are recorded and replayed in order, and no
//! tape state ever crosses a thread. Parallelism is **intra-op**: large
//! tensor operations (matmul, im2col/col2im, elementwise maps and
//! reductions) fan their output buffer out over a scoped worker pool
//! ([`parallel`]) and join before returning, so callers — including the
//! tape's backward closures — never observe a thread.
//!
//! The pool width defaults to [`std::thread::available_parallelism`] and
//! can be overridden with the `YOLLO_THREADS` environment variable;
//! `YOLLO_THREADS=1` forces every op onto its serial reference path. Small
//! tensors skip the pool entirely (see [`parallel::PAR_ELEMWISE_MIN`] and
//! [`parallel::PAR_MATMUL_MIN_FLOPS`]), keeping scalar-heavy code fast.
//!
//! Matrix multiplication runs through a cache-blocked kernel
//! ([`matmul_blocked`]) that packs panels of the right-hand operand for
//! contiguous streaming; [`matmul_naive`] retains the textbook
//! triple loop as the correctness reference that the equivalence property
//! tests pin the blocked/parallel paths against. Convolutions can reuse
//! column buffers across calls via the `im2col_into` / `col2im_into`
//! variants. The tape-free serving pass has its own f32 GEMM,
//! [`f32_matmul_packed`], over weights prepacked into [`F32Panels`], with a
//! runtime-detected AVX2+FMA register tile; the tape keeps
//! [`matmul_blocked`], whose summation order the f64 contracts pin.
//!
//! # Telemetry
//!
//! The hot entry points (matmul, im2col, conv2d, tape push/backward, pool
//! fan-out) are instrumented with `yollo-obs` counters, latency histograms
//! and trace spans (`tensor.matmul`, `tensor.pool.worker`, …), switched
//! at runtime by the `YOLLO_OBS` environment variable. Switched off, each
//! probe is one relaxed atomic load; the `obs_overhead` integration test
//! holds an instrumented matmul in that state to the bare kernel's speed.
//!
//! # Quick example
//!
//! ```
//! use yollo_tensor::{Graph, Tensor};
//!
//! let g = Graph::new();
//! let x = g.leaf(Tensor::from_vec(vec![1.0, 2.0], &[2]));
//! let w = g.leaf(Tensor::from_vec(vec![3.0, 4.0], &[2]));
//! let y = (x * w).sum_all(); // y = 1*3 + 2*4 = 11
//! assert_eq!(y.value().scalar(), 11.0);
//! y.backward();
//! assert_eq!(x.grad().as_slice(), &[3.0, 4.0]); // dy/dx = w
//! ```

mod check;
mod conv;
mod element;
mod error;
mod graph;
mod ops;
mod packed;
pub mod parallel;
mod quant;
mod shape;
mod tensor;

pub use check::{check_gradients, GradCheck};
pub use conv::{col2im, col2im_into, im2col, im2col_into, Conv2dSpec, Pool2dSpec};
pub use element::Element;
pub use error::TensorError;
pub use graph::{Graph, Var, VarId};
pub use packed::{f32_matmul_packed, F32Panels};
pub use quant::{
    im2row_nhwc, q8_conv_nhwc, q8_kernel_is_avx2, q8_matmul, q8_matmul_dequant,
    quantize_activations, quantize_one, symmetric_scale, Q8Scratch, Q8Weights, Q8_MAX, Q8_PANEL,
};
pub use shape::{broadcast_shapes, Shape};
pub use tensor::{
    block_reduce, matmul_blocked, matmul_blocked_batched, matmul_naive, matmul_nt,
    matmul_nt_scratch, matmul_tn, matmul_tn_scratch, Tensor,
};

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, TensorError>;
