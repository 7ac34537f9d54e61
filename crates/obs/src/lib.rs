//! Deterministic observability for the arithmetic workspace.
//!
//! The paper's whole evaluation is *counting*: operations per inference,
//! events per sweep, LUT traffic per layer. This crate is the one place
//! those counts accumulate — a dependency-free metrics layer with three
//! deliberate properties:
//!
//! * **Deterministic.** Counters are monotonic saturating `u64` sums keyed
//!   by scope path in a sorted map; merging is commutative, so row-banded
//!   parallel kernels report the same totals as serial ones and
//!   [`TraceReport::to_json`] is byte-reproducible across runs
//!   (`scripts/check.sh` diffs two back-to-back emissions).
//! * **No ambient state.** Nothing here reads the environment or the
//!   clock (the `no-env-time` lint covers this crate); wall-clock timing
//!   stays in `nga-bench` and the tools. A trace records *what* was
//!   computed, never *when*.
//! * **One event alphabet.** [`Event8`] is the 7-bit status alphabet
//!   every 8-bit format's events translate into (NaR/NaN, inexact, IEEE
//!   overflow/underflow/div-by-zero, saturation, wrap), and
//!   [`StatusCounters`] is its one counter: the kernels' status tiers
//!   return it, and every scope's [`OpCounts::status`] is one.
//!
//! # Model
//!
//! A [`Span`] is an RAII scope guard. Spans nest per thread: a span opened
//! while another is active gets the parent's path plus `/name`, giving
//! hierarchical paths like `nn:forward/conv2d/matmul_f32:parallel`.
//! [`record`] adds to the [`OpCounts`] of the innermost active span on the
//! current thread; [`record_at`] targets an absolute path (used by
//! long-lived owners like `ArithCtx` whose ops may run under other
//! spans). [`snapshot`] freezes the global registry into a sorted
//! [`TraceReport`].
//!
//! ```
//! let root = nga_obs::span("demo");
//! {
//!     let _child = nga_obs::span("matmul");
//!     nga_obs::record(|c| {
//!         c.muls = c.muls.saturating_add(8);
//!         c.adds = c.adds.saturating_add(8);
//!     });
//! }
//! nga_obs::record_at(root.path(), |c| c.status.record(nga_obs::Event8::INEXACT));
//! let report = nga_obs::snapshot();
//! assert_eq!(report.get("demo/matmul").map(|c| c.muls), Some(8));
//! assert_eq!(report.get("demo").map(|c| c.status.inexact()), Some(1));
//! let json = report.to_json("quick");
//! assert!(json.contains("\"demo/matmul\""));
//! ```

#![forbid(unsafe_code)]

mod counters;
mod registry;
mod report;
mod status;

pub use counters::OpCounts;
pub use registry::{record, record_at, snapshot, span, Span};
pub use report::{ScopeRow, TraceReport};
pub use status::{Event8, StatusCounters};
