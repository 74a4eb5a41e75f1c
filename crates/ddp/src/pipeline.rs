//! Pipelined bucket exchange: comm/compute overlap in the real data plane.
//!
//! The blocking front doors in [`crate::exec`] run the exchange schedule
//! on an inline link: while bytes are on the wire the CPU idles, and
//! while the CPU encodes the wire idles. [`PipelinedEngine`] runs the same
//! schedule with its collectives on a dedicated comm thread:
//!
//! ```text
//!  encode thread (caller)          comm thread (gcs_cluster::CommEngine)
//!  ──────────────────────          ────────────────────────────────────
//!  pack+encode bucket 0  ──job──▶  collective(bucket 0)
//!  pack+encode bucket 1  ──job──▶  collective(bucket 1)
//!  absorb bucket 0 ◀──reply──────  ...
//!  pack+encode bucket 2  ──job──▶
//!  ...
//! ```
//!
//! The job queue is a *bounded* channel of depth
//! [`PipelineConfig::depth`] (default 2 — classic double buffering), so
//! the encode thread can run at most `depth` collectives ahead before it
//! must complete the oldest. Completions are always consumed **in
//! submission order** (the in-order absorb invariant): the schedule keeps
//! a FIFO of in-flight collectives and only ever waits on the front,
//! which is also the job the comm thread finishes first.
//!
//! # Bit-exactness
//!
//! The comm thread calls the same collectives the inline link does, and
//! the schedule applies the same arithmetic to what lands, so pipelined
//! output is bit-identical to `exchange_gradients_bucketed` for every
//! method in the registry (asserted in `tests/pipeline_bitexact.rs`).
//!
//! Setting [`PipelineConfig::chunk_elems`] switches summable reductions
//! to the staggered chunked ring, which cuts time-to-first-byte on large
//! buckets but accumulates each element in a chunk-dependent order — use
//! it for throughput experiments, not when comparing bits against the
//! sequential engine.
//!
//! # Streaming mode
//!
//! Setting [`PipelineConfig::stream_chunk_elems`]` = Some(c)` moves the
//! overlap *inside* each bucket: the compressor's chunked surface
//! ([`Compressor::encode_chunk`] / [`Compressor::decode_chunk`]) emits
//! the wire image as ordered `c`-element chunks, each submitted as its
//! own collective, so encode of chunk *i+1* overlaps the wire time of
//! chunk *i* and decode starts as soon as chunk 0 lands — the exposed
//! term drops from `encode + comm` to roughly `max(encode, comm)`
//! (`NetworkModel::streamed`). Summable spans reproduce the staggered
//! chunked ring's segment schedule exactly, so streaming output is
//! **bit-identical** to `chunk_elems = Some(c)` pipelining on the same
//! inputs (asserted for the full registry in
//! `tests/streaming_bitexact.rs`). Gather chunk counts derive from the
//! scheme's analytic `compressed_bytes` so every rank agrees on the
//! schedule even when actual wire bytes differ.

use gcs_cluster::{CommEngine, WorkerHandle};
use gcs_compress::driver::{switch_scheme, ResidualPolicy, SwitchOutcome};
use gcs_compress::Compressor;
use gcs_tensor::Tensor;

use crate::exec::{BucketTiming, Result};
use crate::schedule::{run_schedule, Link, PlanCache};

/// Tuning knobs for [`PipelinedEngine`].
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Bucket capacity in bytes (of uncompressed f32 gradient, > 0).
    /// PyTorch DDP defaults to 25 MiB; small models end up with one
    /// bucket and no overlap, so benches use ~1 MiB buckets.
    pub bucket_bytes: usize,
    /// Bound on in-flight collectives (job-queue depth, ≥ 1). Depth 1
    /// degenerates to the sequential schedule (submit, wait, absorb);
    /// depth 2 is double buffering.
    pub depth: usize,
    /// `Some(c)`: use the staggered chunked ring with `c`-element segments
    /// for summable reductions. `None` (default): plain ring,
    /// bit-identical to the sequential engine.
    pub chunk_elems: Option<usize>,
    /// `Some(c)`: stream each bucket through the compressor's chunked
    /// encode/decode surface in `c`-element wire chunks, overlapping
    /// encode/decode with the wire *inside* the bucket (see the module
    /// docs). Takes precedence over [`chunk_elems`](Self::chunk_elems);
    /// output is bit-identical to `chunk_elems = Some(c)`. `None`
    /// (default): whole-bucket payloads.
    pub stream_chunk_elems: Option<usize>,
    /// Present packed buckets to the compressor as near-square matrices
    /// (see [`BucketPlan::matricized`](crate::exec::BucketPlan::matricized))
    /// instead of flat vectors. Needed for PowerSGD-class methods to
    /// actually compress buckets; off by default to match the flat
    /// sequential/reference semantics.
    pub matricize: bool,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            bucket_bytes: 25 * 1024 * 1024,
            depth: 2,
            chunk_elems: None,
            stream_chunk_elems: None,
            matricize: false,
        }
    }
}

/// A worker-side pipelined exchange engine: encode path on the calling
/// thread, collectives on a dedicated comm thread, connected by a bounded
/// channel. See the module docs for the thread layout and invariants.
pub struct PipelinedEngine<C: Compressor> {
    comm: CommEngine,
    compressor: C,
    cfg: PipelineConfig,
    plans: PlanCache,
    /// Per-bucket timing probes of the most recent exchange. In a
    /// pipelined schedule `comm_s` is mostly the *exposed* (wait-blocked)
    /// communication time — overlap hides the rest, which is precisely
    /// the quantity an adaptive policy should react to.
    timings: Vec<BucketTiming>,
}

impl<C: Compressor> PipelinedEngine<C> {
    /// Moves `worker` onto a dedicated comm thread and wraps `compressor`
    /// in the pipelined schedule.
    ///
    /// # Errors
    ///
    /// Returns [`CompressError::InvalidConfig`](gcs_compress::CompressError)
    /// if `cfg.bucket_bytes == 0`, and an error if `cfg.depth == 0` or the
    /// comm thread cannot be spawned.
    pub fn new(worker: WorkerHandle, compressor: C, cfg: PipelineConfig) -> Result<Self> {
        let plans = PlanCache::new(cfg.bucket_bytes, cfg.matricize)?;
        Ok(PipelinedEngine {
            comm: CommEngine::spawn(worker, cfg.depth)?,
            compressor,
            cfg,
            plans,
            timings: Vec::new(),
        })
    }

    /// Seconds the comm thread has spent executing collectives since this
    /// engine was created (monotone). The delta around an
    /// [`exchange`](Self::exchange) is the wire-busy time of that step;
    /// subtracting it from the summed `exposed_wait_s` probes separates
    /// genuine wire time from pipeline stalls.
    pub fn comm_busy_seconds(&self) -> f64 {
        self.comm.busy_seconds()
    }

    /// Per-bucket timing probes of the most recent [`exchange`](Self::exchange).
    pub fn last_timings(&self) -> &[BucketTiming] {
        &self.timings
    }

    /// The scheme-switch point of the pipelined plane: replaces the
    /// engine's compressor with `new` at a step boundary, moving (or
    /// documented-resetting) every bucket's error-feedback residual per
    /// `policy`. Returns the old compressor and one [`SwitchOutcome`] per
    /// bucket of the current plan. Must only be called between exchanges
    /// — the engine never holds in-flight collectives across
    /// [`exchange`](Self::exchange) calls, so that boundary is always
    /// safe.
    ///
    /// # Errors
    ///
    /// Propagates residual-reconciliation protocol errors.
    pub fn swap_compressor(
        &mut self,
        mut new: C,
        policy: ResidualPolicy,
    ) -> Result<(C, Vec<SwitchOutcome>)> {
        let outcomes = (0..self.plans.num_buckets())
            .map(|bucket| switch_scheme(&mut self.compressor, &mut new, bucket, policy))
            .collect::<gcs_compress::Result<_>>()?;
        Ok((std::mem::replace(&mut self.compressor, new), outcomes))
    }

    /// Stops the comm thread and returns the worker handle and compressor.
    pub fn into_parts(self) -> (WorkerHandle, C) {
        (self.comm.shutdown(), self.compressor)
    }

    /// Runs one full compressed bucket exchange, overlapping each bucket's
    /// collective with the next bucket's encode. Returns the decoded
    /// aggregated gradients in layer order — bit-identical (with the
    /// default plain ring) to `exchange_gradients_bucketed` on the same
    /// inputs.
    ///
    /// # Errors
    ///
    /// Propagates compression and transport errors.
    pub fn exchange(&mut self, grads: &[Tensor]) -> Result<Vec<Tensor>> {
        let (plan, _) = self.plans.plan_for(grads);
        let link = Link::Comm {
            engine: &self.comm,
            depth: self.cfg.depth,
            chunk_elems: self.cfg.chunk_elems,
        };
        let arms = std::slice::from_mut(&mut self.compressor);
        let stream = self.cfg.stream_chunk_elems;
        let (out, timings) = run_schedule(link, stream, arms, |_| 0, grads, plan)?;
        self.timings = timings;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::exchange_gradients_bucketed;
    use gcs_cluster::SimCluster;
    use gcs_compress::registry::MethodConfig;

    fn make_grads(rank: usize, shapes: &[Vec<usize>]) -> Vec<Tensor> {
        shapes
            .iter()
            .enumerate()
            .map(|(l, s)| Tensor::randn(s.clone(), 90 + (rank * 131 + l) as u64))
            .collect()
    }

    fn assert_pipeline_matches_sequential(method: MethodConfig, bucket_bytes: usize) {
        let shapes = vec![vec![40usize, 3], vec![64], vec![9, 7], vec![128], vec![5]];
        let p = 4;
        let sequential = SimCluster::run(p, |w| {
            let mut c = method.build().unwrap();
            let grads = make_grads(w.rank(), &shapes);
            exchange_gradients_bucketed(&w, &mut c, &grads, bucket_bytes).unwrap()
        });
        let pipelined = SimCluster::run(p, |w| {
            let c = method.build().unwrap();
            let grads = make_grads(w.rank(), &shapes);
            let cfg = PipelineConfig {
                bucket_bytes,
                depth: 2,
                chunk_elems: None,
                stream_chunk_elems: None,
                matricize: false,
            };
            let mut eng = PipelinedEngine::new(w, c, cfg).unwrap();
            // Two steps through one engine: the cached plan and recycled
            // buffers must not change results.
            let first = eng.exchange(&grads).unwrap();
            let second = eng.exchange(&grads).unwrap();
            let _ = eng.into_parts();
            (first, second)
        });
        for (seq, (pipe1, pipe2)) in sequential.iter().zip(&pipelined) {
            for ((s, p1), p2) in seq.iter().zip(pipe1).zip(pipe2) {
                let sb: Vec<u32> = s.data().iter().map(|x| x.to_bits()).collect();
                let p1b: Vec<u32> = p1.data().iter().map(|x| x.to_bits()).collect();
                assert_eq!(sb, p1b, "{method:?} step 1 deviates");
                // Stateless methods repeat exactly; stateful ones (error
                // feedback, warm start) evolve — but both engines see the
                // same state trajectory, so only step 1 of a fresh engine
                // is comparable. Still, step 2 must be finite and sized.
                assert_eq!(p2.numel(), s.numel());
                assert!(p2.data().iter().all(|x| x.is_finite()));
            }
        }
    }

    #[test]
    fn pipeline_matches_sequential_syncsgd_multi_bucket() {
        assert_pipeline_matches_sequential(MethodConfig::SyncSgd, 600);
    }

    #[test]
    fn pipeline_matches_sequential_powersgd() {
        assert_pipeline_matches_sequential(MethodConfig::PowerSgd { rank: 2 }, 600);
    }

    #[test]
    fn pipeline_matches_sequential_topk_gather_path() {
        assert_pipeline_matches_sequential(MethodConfig::TopK { ratio: 0.25 }, 600);
    }

    #[test]
    fn pipeline_matches_sequential_single_bucket() {
        assert_pipeline_matches_sequential(MethodConfig::SignSgd, usize::MAX);
    }

    #[test]
    fn matricized_pipeline_matches_matricized_sequential() {
        // Matricized buckets change what the compressor sees (a near-square
        // matrix instead of a flat vector) but not the engine schedule, so
        // pipelined and sequential must still agree bit for bit.
        use crate::exec::{exchange_gradients_with_plan_timed, BucketPlan};
        let shapes = vec![vec![40usize, 3], vec![64], vec![9, 7]];
        for method in [
            MethodConfig::PowerSgd { rank: 2 },
            MethodConfig::TopK { ratio: 0.25 },
        ] {
            let outs = SimCluster::run(4, |w| {
                let c = method.build().unwrap();
                let grads = make_grads(w.rank(), &shapes);
                let cfg = PipelineConfig {
                    bucket_bytes: 600,
                    depth: 2,
                    chunk_elems: None,
                    stream_chunk_elems: None,
                    matricize: true,
                };
                let mut eng = PipelinedEngine::new(w, c, cfg).unwrap();
                let out = eng.exchange(&grads).unwrap();
                let (w, _) = eng.into_parts();
                let mut c2 = method.build().unwrap();
                let mut plan = BucketPlan::matricized(&grads, 600);
                let (seq, _) =
                    exchange_gradients_with_plan_timed(&w, &mut c2, &grads, &mut plan).unwrap();
                (out, seq)
            });
            for (pipe, seq) in outs {
                for (p, s) in pipe.iter().zip(&seq) {
                    assert_eq!(
                        p.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                        s.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                        "{method:?}: matricized pipelined deviates from sequential"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_bucket_bytes_is_a_config_error() {
        let outs = SimCluster::run(2, |w| {
            let c = MethodConfig::SyncSgd.build().unwrap();
            let cfg = PipelineConfig {
                bucket_bytes: 0,
                ..PipelineConfig::default()
            };
            PipelinedEngine::new(w, c, cfg).map(|_| ())
        });
        for r in outs {
            assert!(
                matches!(
                    r,
                    Err(crate::exec::ExecError::Compress(
                        gcs_compress::CompressError::InvalidConfig(_)
                    ))
                ),
                "{r:?}"
            );
        }
    }

    #[test]
    fn depth_one_degenerates_to_sequential() {
        let shapes = vec![vec![32usize], vec![48], vec![16]];
        let outs = SimCluster::run(3, |w| {
            let c = MethodConfig::SyncSgd.build().unwrap();
            let grads = make_grads(w.rank(), &shapes);
            let cfg = PipelineConfig {
                bucket_bytes: 200,
                depth: 1,
                chunk_elems: None,
                stream_chunk_elems: None,
                matricize: false,
            };
            let mut eng = PipelinedEngine::new(w, c, cfg).unwrap();
            let out = eng.exchange(&grads).unwrap();
            let (w, _) = eng.into_parts();
            let mut c2 = MethodConfig::SyncSgd.build().unwrap();
            let grads2 = make_grads(w.rank(), &shapes);
            let seq = exchange_gradients_bucketed(&w, &mut c2, &grads2, 200).unwrap();
            (out, seq)
        });
        for (pipe, seq) in outs {
            for (p, s) in pipe.iter().zip(&seq) {
                assert_eq!(
                    p.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    s.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn chunked_ring_option_stays_close_to_plain() {
        // Chunked reductions reorder the per-element accumulation, so
        // expect f32-noise-level differences, not equality.
        let shapes = vec![vec![300usize], vec![200]];
        let outs = SimCluster::run(4, |w| {
            let c = MethodConfig::SyncSgd.build().unwrap();
            let grads = make_grads(w.rank(), &shapes);
            let cfg = PipelineConfig {
                bucket_bytes: usize::MAX,
                depth: 2,
                chunk_elems: Some(64),
                stream_chunk_elems: None,
                matricize: false,
            };
            let mut eng = PipelinedEngine::new(w, c, cfg).unwrap();
            let out = eng.exchange(&grads).unwrap();
            let (w, _) = eng.into_parts();
            let mut c2 = MethodConfig::SyncSgd.build().unwrap();
            let seq = exchange_gradients_bucketed(&w, &mut c2, &grads, usize::MAX).unwrap();
            (out, seq)
        });
        for (pipe, seq) in outs {
            for (p, s) in pipe.iter().zip(&seq) {
                for (a, b) in p.data().iter().zip(s.data()) {
                    assert!((a - b).abs() <= 1e-4 * b.abs().max(1.0), "{a} vs {b}");
                }
            }
        }
    }

    /// The controller's dependency-free `LinkModel` must price collectives
    /// exactly like the cluster's `NetworkModel` — the whole point of the
    /// online Equation-1 estimate is that it agrees with the cost layer.
    #[test]
    fn link_model_matches_network_model() {
        use gcs_cluster::cost::NetworkModel;
        use gcs_compress::adaptive::LinkModel;
        for &incast in &[0.0f64, 0.3, 0.7] {
            let net = NetworkModel::new(15e-6, 1.25e9).with_incast(incast);
            let mut link = LinkModel::new(15e-6, 1.25e9).unwrap();
            link.incast = incast;
            for &bytes in &[1_000usize, 1_000_000, 100_000_000] {
                for &p in &[1usize, 2, 4, 16, 64] {
                    let ring_net = net.ring_all_reduce(bytes, p);
                    let ring_link = link.ring_all_reduce(bytes as f64, p);
                    assert!(
                        (ring_net - ring_link).abs() <= 1e-15 * ring_net.abs().max(1.0),
                        "ring mismatch: {ring_net} vs {ring_link} (bytes={bytes}, p={p})"
                    );
                    let gather_net = net.all_gather(bytes, p);
                    let gather_link = link.all_gather(bytes as f64, p);
                    assert!(
                        (gather_net - gather_link).abs() <= 1e-15 * gather_net.abs().max(1.0),
                        "gather mismatch: {gather_net} vs {gather_link} (bytes={bytes}, p={p})"
                    );
                    // The overlap-aware Equation 1 must agree too.
                    for &chunks in &[1usize, 2, 8, 64] {
                        let enc = 1e-9 * bytes as f64;
                        let s_net = net.streamed(enc, ring_net, chunks);
                        let s_link = link.streamed(enc, ring_link, chunks);
                        assert!(
                            (s_net - s_link).abs() <= 1e-15 * s_net.abs().max(1.0),
                            "streamed mismatch: {s_net} vs {s_link} (chunks={chunks})"
                        );
                    }
                }
            }
        }
    }

    /// Streaming overlap must make the controller's estimates drop toward
    /// `max(encdec, comm)` — the signal that lets it prefer cheaper
    /// schemes when the wire, not the CPU, is the bottleneck.
    #[test]
    fn streaming_chunks_lower_adaptive_estimates() {
        use gcs_compress::adaptive::{AdaptiveConfig, Controller};
        use gcs_compress::registry::MethodConfig;
        let arms = vec![MethodConfig::SyncSgd, MethodConfig::TopK { ratio: 0.05 }];
        let elems = vec![gcs_tensor::Shape::new(vec![1_000_000])];
        let serial =
            Controller::new(AdaptiveConfig::new(arms.clone()).unwrap(), &elems, 8).unwrap();
        let streamed = Controller::new(
            AdaptiveConfig::new(arms).unwrap().streaming_chunks(32),
            &elems,
            8,
        )
        .unwrap();
        for arm in 0..2 {
            let t_serial = serial.estimate(0, arm);
            let t_streamed = streamed.estimate(0, arm);
            assert!(
                t_streamed < t_serial,
                "arm {arm}: streamed {t_streamed} must beat serial {t_serial}"
            );
        }
    }

    #[test]
    fn pipeline_timing_probes_count_wire_traffic() {
        let shapes = vec![vec![256usize], vec![200]];
        let outs = SimCluster::run(2, |w| {
            let c = MethodConfig::SyncSgd.build().unwrap();
            let grads = make_grads(w.rank(), &shapes);
            let cfg = PipelineConfig {
                bucket_bytes: 256 * 4,
                depth: 2,
                chunk_elems: None,
                stream_chunk_elems: None,
                matricize: false,
            };
            let mut eng = PipelinedEngine::new(w, c, cfg).unwrap();
            eng.exchange(&grads).unwrap();
            eng.last_timings().to_vec()
        });
        for timings in outs {
            assert_eq!(timings.len(), 2);
            let mut bytes: Vec<u64> = timings.iter().map(|t| t.ring_bytes).collect();
            bytes.sort_unstable();
            assert_eq!(bytes, vec![200 * 4, 256 * 4]);
            for t in &timings {
                assert_eq!(t.ring_rounds, 1);
                assert_eq!(t.gather_rounds, 0);
                assert!(t.encode_s >= 0.0 && t.comm_s >= 0.0 && t.decode_s >= 0.0);
            }
        }
    }

    #[test]
    fn swap_compressor_at_step_boundary_carries_residual() {
        use gcs_compress::driver::ResidualPolicy;
        use gcs_compress::topk::TopK;
        use gcs_compress::Compressor;
        let shapes = vec![vec![128usize], vec![96]];
        let outs = SimCluster::run(2, |w| {
            let c: Box<dyn Compressor> = Box::new(TopK::new(0.25).unwrap().error_feedback(true));
            let grads = make_grads(w.rank(), &shapes);
            let cfg = PipelineConfig {
                bucket_bytes: 128 * 4,
                depth: 2,
                chunk_elems: None,
                stream_chunk_elems: None,
                matricize: false,
            };
            let mut eng = PipelinedEngine::new(w, c, cfg).unwrap();
            eng.exchange(&grads).unwrap();
            let replacement = MethodConfig::EfSignSgd.build().unwrap();
            let (_old, outcomes) = eng
                .swap_compressor(replacement, ResidualPolicy::Carry)
                .unwrap();
            let out = eng.exchange(&grads).unwrap();
            (outcomes, out)
        });
        for (outcomes, out) in outs {
            // Top-K at ratio 0.25 leaves a residual in every bucket; the
            // carry must move it into the replacement scheme.
            assert_eq!(outcomes.len(), 2);
            assert!(outcomes.iter().all(|o| o.carried));
            assert!(outcomes.iter().all(|o| o.residual_norm > 0.0));
            assert!(out.iter().all(|t| t.data().iter().all(|x| x.is_finite())));
        }
    }
}
