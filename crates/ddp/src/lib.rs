//! Distributed data-parallel engine for the gradient-compression study.
//!
//! Two complementary halves:
//!
//! * [`sim`] — a discrete-event **timing** simulator of one training
//!   iteration with the system optimizations of PyTorch DDP: gradient
//!   bucketing, communication/computation overlap on a separate stream,
//!   the γ contention factor, ring/tree all-reduce, and
//!   sequential-vs-overlapped gradient compression (§3.1). This is the
//!   stand-in for the paper's AWS testbed; the benches sample it (with
//!   calibrated jitter) to produce "measured" curves.
//! * a real **data plane**: `p` worker threads compress actual gradients
//!   and aggregate them through the collectives of `gcs-cluster`,
//!   reproducing exactly the semantics of the centralized reference
//!   driver in `gcs-compress`.
//!
//! The data plane is one bucket schedule (the private `schedule` module):
//! units of (bucket, round) flow through a ready queue and an in-order
//! FIFO window of in-flight collectives. It has three parameters — the
//! **link** (inline on the caller's thread, or a `CommEngine` thread with
//! `depth` collectives in flight), **stream chunking** (whole payloads or
//! `c`-element wire spans) and the **arms** (the compressor each bucket
//! uses). The public front doors choose them:
//!
//! * [`exec`] — blocking, inline-link exchanges: per-layer
//!   ([`exec::exchange_gradients`], [`exec::exchange_gradients_among`])
//!   and bucketed ([`exec::exchange_gradients_bucketed`],
//!   [`exec::exchange_gradients_with_plan_timed`] over a [`exec::BucketPlan`]);
//! * [`pipeline`] — [`PipelinedEngine`], the comm-thread link with
//!   optional streaming;
//! * [`adaptive`] — [`AdaptiveEngine`], an inline link whose arms follow
//!   the adaptive controller.
//!
//! They stay public because the end-to-end benchmark and the
//! bit-exactness suites (pipelined == sequential, streaming == chunked,
//! sim == TCP, single-arm adaptive == sequential) call them.
//!
//! # Example
//!
//! ```
//! use gcs_compress::registry::MethodConfig;
//! use gcs_ddp::sim::{simulate_iteration, SimConfig};
//!
//! let cfg = SimConfig::new(gcs_models::presets::resnet50(), 16)
//!     .batch_per_worker(64)
//!     .method(MethodConfig::SyncSgd);
//! let breakdown = simulate_iteration(&cfg);
//! assert!(breakdown.total_s > 0.0);
//! ```

#![forbid(unsafe_code)]

pub mod adaptive;
pub mod exec;
pub mod pipeline;
mod schedule;
pub mod sim;
pub mod trace;
pub mod wire;

pub use adaptive::{AdaptiveEngine, SwitchRecord};
pub use exec::BucketTiming;
pub use pipeline::{PipelineConfig, PipelinedEngine};
pub use trace::{RunEvent, RunEventKind};
