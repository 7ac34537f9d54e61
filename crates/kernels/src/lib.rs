//! Table-driven 8-bit arithmetic kernels and std-thread parallel tensor
//! primitives.
//!
//! Every 8-bit number format in this workspace (posit⟨8,0⟩, FP8 E4M3,
//! FP8 E5M2, Q4.4 fixed point) has at most 256 values, so any binary
//! operation fits in a 64 KiB exhaustive table. This crate builds those
//! tables lazily from the bit-exact scalar implementations in
//! `nga-core`/`nga-softfloat`/`nga-fixed` and layers batched tensor
//! kernels (dot, matmul, im2col convolution) on top, with optional
//! `std::thread::scope` row parallelism — no external dependencies.
//!
//! Every u8 matmul runs one generic loop, parameterised by the op it
//! applies per multiply-accumulate step. [`ArithCtx`] picks one of three
//! [`KernelTier`]s so benchmarks can A/B them:
//!
//! * [`KernelTier::Scalar`] — decode/compute/encode every element
//!   through the reference scalar ops.
//! * [`KernelTier::Table`] — one 64 KiB lookup per multiply/add.
//! * [`KernelTier::Parallel`] — lookup tables plus scoped-thread row
//!   bands.
//!
//! The quantized-inference path gets the same treatment via
//! [`MacTable`]: a 256 KiB signed multiply-accumulate table per
//! [`nga_approx::ApproxMultiplier`], replacing a branch-and-widen per MAC
//! with one indexed load.
//!
//! Status reporting uses `nga-obs`'s one event alphabet, re-exported
//! here: the posit, IEEE and fixed-point cores raise [`Event8`] directly,
//! [`Format8`] passes it through, and the status tiers count it into
//! [`StatusCounters`], the same counter every trace scope carries.

#![forbid(unsafe_code)]

mod ctx;
mod format8;
mod kernel;
mod parallel;
mod table;
mod tensor;

pub use ctx::ArithCtx;
pub use format8::Format8;
pub use kernel::KernelTier;
pub use nga_obs::{Event8, StatusCounters};
pub use parallel::{for_each_band, num_threads};
pub use table::{
    add_event_table, add_table, mac_table, mul_event_table, mul_table, BinaryTable, LutOp,
    MacTable, StatusOp,
};
pub use tensor::{
    conv2d_f32, dot_f32, im2col, matmul8, matmul8_parallel, matmul8_scalar, matmul8_tables,
    matmul_f32, matmul_f32_parallel,
};
