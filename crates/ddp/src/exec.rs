//! Real-execution data-parallel engine: the blocking front doors.
//!
//! Runs `p` worker threads over the `gcs-cluster` channel mesh. Each
//! worker owns a compressor instance and real per-layer gradients; the
//! round protocol of `gcs-compress` is driven through *actual
//! collectives*:
//!
//! * summable payloads (all-reducible methods) travel through the ring
//!   all-reduce on their `f32` content;
//! * everything else is serialized and all-gathered, then aggregated
//!   locally on every worker — exactly what PyTorch implementations of
//!   SignSGD/Top-K must do.
//!
//! Every function here runs the crate's one exchange schedule (see the
//! [crate docs](crate)) on an inline link: each collective completes on
//! the calling thread before the next unit is encoded. The per-layer
//! entry points use a plan of one bucket per layer, in the layer's own
//! shape and forward order; the bucketed ones pack layers into flat
//! [`BucketPlan`] buckets. The engine is validated against the
//! centralized reference driver in `gcs_compress::driver` (identical
//! outputs for every method).

use gcs_cluster::WorkerHandle;
use gcs_compress::registry::MethodConfig;
use gcs_compress::{CompressError, Compressor};
use gcs_tensor::{Shape, Tensor};

use crate::schedule::{run_schedule, Link};

/// Errors from the distributed engine: compression or transport.
#[derive(Debug)]
pub enum ExecError {
    /// A compression-protocol error.
    Compress(CompressError),
    /// A transport/collective error.
    Cluster(gcs_cluster::ClusterError),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Compress(e) => write!(f, "compression error: {e}"),
            ExecError::Cluster(e) => write!(f, "cluster error: {e}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<CompressError> for ExecError {
    fn from(e: CompressError) -> Self {
        ExecError::Compress(e)
    }
}

impl From<gcs_cluster::ClusterError> for ExecError {
    fn from(e: gcs_cluster::ClusterError) -> Self {
        ExecError::Cluster(e)
    }
}

/// Result alias for the engine.
pub type Result<T> = std::result::Result<T, ExecError>;

/// A [`CompressError::Protocol`] engine error.
pub(crate) fn protocol(msg: impl Into<String>) -> ExecError {
    CompressError::Protocol(msg.into()).into()
}

/// Runs one full compressed gradient exchange for `grads` (this worker's
/// per-layer gradients) and returns the decoded aggregated gradients in
/// layer order. Collectives are issued round-major — all layers do round
/// 0, then all do round 1 — matching how DDP issues one collective per
/// bucket per phase.
///
/// # Errors
///
/// Propagates compression and transport errors.
pub fn exchange_gradients<C: Compressor>(
    worker: &WorkerHandle,
    compressor: &mut C,
    grads: &[Tensor],
) -> Result<Vec<Tensor>> {
    per_layer(Link::inline(worker, None), compressor, grads)
}

/// [`exchange_gradients`] over a shrunk ring: only the (sorted, live)
/// `members` participate, and summable aggregation renormalizes by the
/// live member count. This is what a surviving worker switches to after a
/// dead-rank event.
///
/// `members` must be sorted ascending, contain this worker's rank, and
/// name only valid ranks — the same contract as
/// [`WorkerHandle::all_reduce_sum_among`].
///
/// # Errors
///
/// Propagates compression and transport errors.
pub fn exchange_gradients_among<C: Compressor>(
    worker: &WorkerHandle,
    compressor: &mut C,
    grads: &[Tensor],
    members: &[usize],
) -> Result<Vec<Tensor>> {
    per_layer(Link::inline(worker, Some(members)), compressor, grads)
}

fn per_layer<C: Compressor>(link: Link<'_>, c: &mut C, grads: &[Tensor]) -> Result<Vec<Tensor>> {
    let mut plan = BucketPlan::per_layer(grads);
    run_schedule(link, None, std::slice::from_mut(c), |_| 0, grads, &mut plan).map(|(out, _)| out)
}

/// The bucket partition of a gradient set plus the persistent buffers the
/// bucketed exchange needs: the flat pack buffer and recycled wire
/// buffers.
///
/// DDP computes its bucket assignment once at model construction and
/// reuses it every iteration; recomputing the partition (and reallocating
/// the pack buffer) per step is pure rework. Build a plan once with
/// [`BucketPlan::new`] and drive [`exchange_gradients_with_plan_timed`]
/// with it every step.
#[derive(Debug)]
pub struct BucketPlan {
    /// Layer indices per bucket, filled in backward (reverse-layer) order
    /// the way DDP sees gradients become ready.
    buckets: Vec<Vec<usize>>,
    /// Shape each packed bucket is presented to the compressor with:
    /// `[elems]` by default, `[d, elems/d]` (d the largest divisor ≤
    /// √elems) for [`BucketPlan::matricized`] plans, or the layer's own
    /// shape for per-layer plans.
    shapes: Vec<Shape>,
    /// Element count of every layer (used to detect layout changes).
    layer_elems: Vec<usize>,
    /// Persistent flat pack buffer, circulated through [`BucketPlan::pack`]
    /// / [`BucketPlan::reclaim`].
    pack: Vec<f32>,
    /// Recycled gather-path serialization buffers.
    pub(crate) wire_pool: Vec<Vec<u8>>,
    /// Recycled streamed-span f32 buffers.
    pub(crate) float_pool: Vec<Vec<f32>>,
}

impl BucketPlan {
    /// Partitions `grads` into flat buckets of at most `bucket_bytes`
    /// bytes (a layer larger than the cap gets a bucket of its own),
    /// filling in backward order to mirror DDP.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_bytes == 0`.
    pub fn new(grads: &[Tensor], bucket_bytes: usize) -> Self {
        Self::build(grads, bucket_bytes, false)
    }

    /// Like [`BucketPlan::new`], but presents each packed bucket to the
    /// compressor as a near-square matrix `[d, elems/d]` (d the largest
    /// divisor of the bucket's element count that is ≤ its square root)
    /// instead of a flat vector.
    ///
    /// Shape-sensitive compressors need this: a flat bucket matricizes to
    /// `(1, n)`, which collapses PowerSGD to rank 1 with an n-element
    /// factor — no compression at all. PyTorch's PowerSGD DDP hook
    /// likewise views each bucket as a matrix before factorizing.
    /// Flat packing stays the default because it matches the layer-wise
    /// reference driver on concatenated gradients exactly.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_bytes == 0`.
    pub fn matricized(grads: &[Tensor], bucket_bytes: usize) -> Self {
        Self::build(grads, bucket_bytes, true)
    }

    pub(crate) fn build(grads: &[Tensor], bucket_bytes: usize, matricize: bool) -> Self {
        assert!(bucket_bytes > 0, "bucket size must be positive");
        let mut buckets: Vec<Vec<usize>> = Vec::new();
        let mut open = 0usize; // bytes already in the last bucket
        for idx in (0..grads.len()).rev() {
            let b = grads[idx].numel() * 4;
            match buckets.last_mut() {
                Some(layers) if open == 0 || open + b <= bucket_bytes => layers.push(idx),
                _ => {
                    buckets.push(vec![idx]);
                    open = 0;
                }
            }
            open += b;
        }
        let shapes = buckets
            .iter()
            .map(|layers| {
                let n = layers.iter().map(|&i| grads[i].numel()).sum();
                match largest_divisor_le_sqrt(n) {
                    d if matricize && d > 1 => Shape::new(vec![d, n / d]),
                    _ => Shape::new(vec![n]),
                }
            })
            .collect();
        Self::from_buckets(grads, buckets, shapes)
    }

    /// One bucket per layer, in forward order, each in the layer's own
    /// shape: the layout of the per-layer exchange.
    pub(crate) fn per_layer(grads: &[Tensor]) -> Self {
        let buckets = (0..grads.len()).map(|i| vec![i]).collect();
        let shapes = grads.iter().map(|g| g.shape().clone()).collect();
        Self::from_buckets(grads, buckets, shapes)
    }

    fn from_buckets(grads: &[Tensor], buckets: Vec<Vec<usize>>, shapes: Vec<Shape>) -> Self {
        let max_elems = shapes.iter().map(Shape::numel).max().unwrap_or(0);
        BucketPlan {
            buckets,
            shapes,
            layer_elems: grads.iter().map(Tensor::numel).collect(),
            pack: Vec::with_capacity(max_elems),
            wire_pool: Vec::new(),
            float_pool: Vec::new(),
        }
    }

    /// Number of buckets in the plan.
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Total element count of `bucket`.
    pub fn elems(&self, bucket: usize) -> usize {
        self.shapes[bucket].numel()
    }

    /// The shape `bucket` is presented to the compressor with.
    pub fn bucket_shape(&self, bucket: usize) -> &Shape {
        &self.shapes[bucket]
    }

    /// Whether this plan was built for gradients with the same per-layer
    /// element counts as `grads`.
    pub fn matches(&self, grads: &[Tensor]) -> bool {
        let layout = grads.iter().map(Tensor::numel);
        self.layer_elems.iter().copied().eq(layout)
    }

    /// Packs `bucket`'s layers into one flat tensor, reusing the plan's
    /// pack buffer. Hand the tensor back via [`BucketPlan::reclaim`] after
    /// encoding so the allocation circulates.
    ///
    /// # Errors
    ///
    /// Returns a protocol error if the plan was built for a different
    /// gradient layout (bucket shape no longer matches the element count).
    pub(crate) fn pack(&mut self, grads: &[Tensor], bucket: usize) -> Result<Tensor> {
        let mut flat = std::mem::take(&mut self.pack);
        flat.clear();
        flat.reserve(self.elems(bucket));
        for &i in &self.buckets[bucket] {
            flat.extend_from_slice(grads[i].data());
        }
        let packed = Tensor::from_shape_vec(self.shapes[bucket].clone(), flat);
        Ok(packed.map_err(CompressError::from)?)
    }

    /// Returns a spent pack tensor's allocation to the plan.
    pub(crate) fn reclaim(&mut self, packed: Option<Tensor>) {
        if let Some(flat) = packed {
            self.pack = flat.into_vec();
        }
    }

    /// Scatters decoded flat buckets (`flats[b]` for bucket `b`) back to
    /// per-layer tensors shaped like `grads`.
    ///
    /// # Errors
    ///
    /// Returns a protocol error when a bucket is missing or too short to
    /// cover its layers.
    pub(crate) fn scatter(
        &self,
        grads: &[Tensor],
        flats: Vec<Option<Tensor>>,
    ) -> Result<Vec<Tensor>> {
        let mut out = vec![None; grads.len()];
        for (layers, flat) in self.buckets.iter().zip(flats) {
            let Some(flat) = flat else { continue };
            // A one-layer bucket hands its buffer to the layer uncopied.
            if let [i] = layers[..] {
                let t = Tensor::from_shape_vec(grads[i].shape().clone(), flat.into_vec());
                out[i] = Some(t.map_err(CompressError::from)?);
                continue;
            }
            let mut rest = flat.data();
            for &i in layers {
                let Some((head, tail)) = rest.split_at_checked(grads[i].numel()) else {
                    break;
                };
                let t = Tensor::from_shape_vec(grads[i].shape().clone(), head.to_vec());
                out[i] = Some(t.map_err(CompressError::from)?);
                rest = tail;
            }
        }
        let missing = |i| protocol(format!("layer {i} is missing from the decoded buckets"));
        let out = out.into_iter().enumerate();
        out.map(|(i, t)| t.ok_or_else(|| missing(i))).collect()
    }
}

/// Runs the exchange at **bucket granularity**, the way PyTorch DDP comm
/// hooks actually see gradients: layers are packed (in backward order)
/// into flat buckets of at most `bucket_bytes`, each bucket is compressed
/// and aggregated as one tensor, and the decoded buckets are scattered
/// back to per-layer gradients.
///
/// Bucketing amortizes per-collective latency and — because the
/// compressor sees one long flat vector — sidesteps the per-layer encode
/// overhead §4.2 complains about. It is also the only way to use
/// non-layer-wise methods (Table 1's Random-K row) inside DDP.
///
/// Builds a fresh [`BucketPlan`] per call; steady-state drivers should
/// build the plan once and call [`exchange_gradients_with_plan_timed`].
///
/// # Errors
///
/// Propagates compression and transport errors.
///
/// # Panics
///
/// Panics if `bucket_bytes == 0`.
pub fn exchange_gradients_bucketed<C: Compressor>(
    worker: &WorkerHandle,
    compressor: &mut C,
    grads: &[Tensor],
    bucket_bytes: usize,
) -> Result<Vec<Tensor>> {
    let mut plan = BucketPlan::new(grads, bucket_bytes);
    exchange_gradients_with_plan_timed(worker, compressor, grads, &mut plan).map(|(out, _)| out)
}

/// Per-bucket wall-clock breakdown of one exchange, from monotonic timers
/// around the encode / collective / absorb phases — the raw signal the
/// adaptive controller's measured mode consumes.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BucketTiming {
    /// Bucket index.
    pub bucket: usize,
    /// Seconds spent encoding (all rounds, including packing and streamed
    /// chunk emission).
    pub encode_s: f64,
    /// Seconds spent in the cluster collective (all rounds): handing each
    /// payload to it and waiting for it to land. Inline this is the whole
    /// blocking collective; on the comm thread it is the submit plus the
    /// blocked wait.
    pub comm_s: f64,
    /// Seconds spent absorbing and decoding, including the local mean or
    /// `aggregate` of what the collective returned.
    pub decode_s: f64,
    /// Seconds the caller was *blocked* on an in-flight collective with
    /// no local work to overlap it (comm-thread engines only; an inline
    /// link folds all wire time into `comm_s`).
    pub exposed_wait_s: f64,
    /// Bytes this worker contributed to ring all-reduce rounds (the f32
    /// wire image for summable payloads; FP16 pays full f32 bytes because
    /// Half payloads are decoded to f32 before the ring).
    pub ring_bytes: u64,
    /// Number of ring rounds.
    pub ring_rounds: u32,
    /// Bytes this worker contributed to all-gather rounds (serialized
    /// payload length).
    pub gather_bytes: u64,
    /// Number of gather rounds.
    pub gather_rounds: u32,
}

/// [`exchange_gradients_bucketed`] driven by a prebuilt [`BucketPlan`],
/// returning a [`BucketTiming`] per bucket alongside the decoded
/// gradients. The partition, pack buffer, and wire buffers all persist
/// across steps.
///
/// # Errors
///
/// Returns [`CompressError::Protocol`] if `plan` was built for a
/// different gradient layout, and propagates compression and transport
/// errors.
pub fn exchange_gradients_with_plan_timed<C: Compressor>(
    worker: &WorkerHandle,
    compressor: &mut C,
    grads: &[Tensor],
    plan: &mut BucketPlan,
) -> Result<(Vec<Tensor>, Vec<BucketTiming>)> {
    let arms = std::slice::from_mut(compressor);
    run_schedule(Link::inline(worker, None), None, arms, |_| 0, grads, plan)
}

/// Largest divisor of `n` that is at most `√n` (1 for primes and `n ≤ 3`).
fn largest_divisor_le_sqrt(n: usize) -> usize {
    (2..)
        .take_while(|d| d * d <= n)
        .filter(|&d| n.is_multiple_of(d))
        .last()
        .unwrap_or(1)
}

/// Convenience harness: runs `exchange_gradients` across `p` in-process
/// worker threads where worker `w` contributes `grads_per_worker[w]`, with
/// a fresh compressor built from `method` on every worker. Returns each
/// worker's decoded gradients.
///
/// # Errors
///
/// Propagates the first worker error encountered.
///
/// # Panics
///
/// Panics if `grads_per_worker` is empty or a worker thread panics.
pub fn data_parallel_exchange(
    method: &MethodConfig,
    grads_per_worker: &[Vec<Tensor>],
) -> Result<Vec<Vec<Tensor>>> {
    assert!(!grads_per_worker.is_empty(), "need at least one worker");
    let p = grads_per_worker.len();
    let results = gcs_cluster::SimCluster::run(p, |worker| {
        let mut compressor = method.build()?;
        let grads = &grads_per_worker[worker.rank()];
        exchange_gradients(&worker, &mut compressor, grads)
    });
    results.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_compress::driver::all_reduce_compressed;
    use gcs_tensor::stats::relative_l2_error;

    fn make_grads(workers: usize, layers: &[Vec<usize>], seed: u64) -> Vec<Vec<Tensor>> {
        (0..workers)
            .map(|w| {
                layers
                    .iter()
                    .enumerate()
                    .map(|(l, shape)| Tensor::randn(shape.clone(), seed + (w * 131 + l) as u64))
                    .collect()
            })
            .collect()
    }

    /// The real engine must agree with the centralized reference driver.
    fn assert_matches_reference(method: MethodConfig, workers: usize) {
        // FP16 sums in a different order over the ring than the reference's
        // sequential re-rounding accumulation, so allow half-precision
        // headroom there; everything else must agree to f32 noise.
        let tol = if method == MethodConfig::Fp16 {
            2e-3
        } else {
            1e-4
        };
        let layers = vec![vec![6usize, 10], vec![33], vec![4, 4, 3, 3]];
        let grads = make_grads(workers, &layers, 42);
        let distributed = data_parallel_exchange(&method, &grads).expect("engine runs");

        // Reference: one compressor per worker, centralized aggregation,
        // layer by layer.
        let mut reference_workers: Vec<_> = (0..workers)
            .map(|_| method.build().expect("builds"))
            .collect();
        for (layer, _) in layers.iter().enumerate() {
            let layer_grads: Vec<Tensor> = grads.iter().map(|g| g[layer].clone()).collect();
            let ref_out =
                all_reduce_compressed(&mut reference_workers, layer, &layer_grads).unwrap();
            for w in 0..workers {
                let err = relative_l2_error(&ref_out[w], &distributed[w][layer]);
                assert!(
                    err < tol,
                    "{method:?} worker {w} layer {layer}: engine deviates from reference ({err})"
                );
            }
        }
    }

    #[test]
    fn engine_matches_reference_syncsgd() {
        assert_matches_reference(MethodConfig::SyncSgd, 4);
    }

    #[test]
    fn engine_matches_reference_fp16() {
        assert_matches_reference(MethodConfig::Fp16, 4);
    }

    #[test]
    fn engine_matches_reference_powersgd() {
        assert_matches_reference(MethodConfig::PowerSgd { rank: 2 }, 3);
    }

    #[test]
    fn engine_matches_reference_topk() {
        assert_matches_reference(MethodConfig::TopK { ratio: 0.2 }, 4);
    }

    #[test]
    fn engine_matches_reference_signsgd() {
        assert_matches_reference(MethodConfig::SignSgd, 5);
    }

    #[test]
    fn engine_matches_reference_randomk() {
        assert_matches_reference(MethodConfig::RandomK { ratio: 0.25 }, 4);
    }

    #[test]
    fn engine_matches_reference_terngrad() {
        assert_matches_reference(MethodConfig::TernGrad, 3);
    }

    #[test]
    fn engine_matches_reference_qsgd() {
        assert_matches_reference(MethodConfig::Qsgd { levels: 15 }, 3);
    }

    #[test]
    fn engine_matches_reference_onebit() {
        assert_matches_reference(MethodConfig::OneBit, 3);
    }

    #[test]
    fn engine_matches_reference_sketch() {
        assert_matches_reference(MethodConfig::Sketch { block: 4 }, 4);
    }

    #[test]
    fn engine_matches_reference_atomo() {
        assert_matches_reference(MethodConfig::Atomo { rank: 2 }, 2);
    }

    #[test]
    fn syncsgd_engine_computes_exact_mean() {
        let grads = make_grads(4, &[vec![17]], 7);
        let outs = data_parallel_exchange(&MethodConfig::SyncSgd, &grads).unwrap();
        let mut mean = Tensor::zeros([17]);
        for g in &grads {
            mean.add_assign(&g[0]).unwrap();
        }
        mean.scale(0.25);
        for w in outs {
            assert!(relative_l2_error(&mean, &w[0]) < 1e-6);
        }
    }

    #[test]
    fn workers_agree_on_decoded_gradients() {
        for method in [
            MethodConfig::PowerSgd { rank: 2 },
            MethodConfig::SignSgd,
            MethodConfig::TopK { ratio: 0.5 },
        ] {
            let grads = make_grads(4, &[vec![8, 8]], 11);
            let outs = data_parallel_exchange(&method, &grads).unwrap();
            for w in 1..4 {
                assert_eq!(outs[0], outs[w], "{method:?} diverged across workers");
            }
        }
    }

    #[test]
    fn bucketed_exchange_matches_exact_mean_for_syncsgd() {
        let grads = make_grads(3, &[vec![6usize, 4], vec![9], vec![5, 5]], 31);
        let outs = gcs_cluster::SimCluster::run(3, |worker| {
            let mut c = MethodConfig::SyncSgd.build().unwrap();
            exchange_gradients_bucketed(&worker, &mut c, &grads[worker.rank()], 64).unwrap()
        });
        // Exact mean, layer by layer, regardless of bucket boundaries.
        for layer in 0..3 {
            let mut mean = Tensor::zeros(grads[0][layer].shape().clone());
            for g in &grads {
                mean.add_assign(&g[layer]).unwrap();
            }
            mean.scale(1.0 / 3.0);
            for out in &outs {
                assert!(
                    relative_l2_error(&mean, &out[layer]) < 1e-5,
                    "layer {layer}"
                );
            }
        }
    }

    #[test]
    fn bucketed_exchange_works_for_all_method_classes() {
        for method in [
            MethodConfig::Fp16,
            MethodConfig::PowerSgd { rank: 2 },
            MethodConfig::SignSgd,
            MethodConfig::RandomK { ratio: 0.5 }, // not layer-wise: needs buckets
        ] {
            let grads = make_grads(2, &[vec![4usize, 4], vec![7]], 37);
            let outs = gcs_cluster::SimCluster::run(2, |worker| {
                let mut c = method.build().unwrap();
                exchange_gradients_bucketed(&worker, &mut c, &grads[worker.rank()], 48).unwrap()
            });
            assert_eq!(outs[0], outs[1], "{method:?} diverged");
            for (out, g) in outs[0].iter().zip(&grads[0]) {
                assert_eq!(out.shape(), g.shape());
                assert!(out.data().iter().all(|x| x.is_finite()));
            }
        }
    }

    #[test]
    fn giant_bucket_equals_whole_model_flat() {
        // With an unbounded bucket, bucketed syncSGD equals the per-layer
        // engine's result exactly.
        let grads = make_grads(2, &[vec![3usize, 3], vec![5]], 41);
        let bucketed = gcs_cluster::SimCluster::run(2, |worker| {
            let mut c = MethodConfig::SyncSgd.build().unwrap();
            exchange_gradients_bucketed(&worker, &mut c, &grads[worker.rank()], usize::MAX).unwrap()
        });
        let layered = data_parallel_exchange(&MethodConfig::SyncSgd, &grads).unwrap();
        for (a, b) in bucketed[0].iter().zip(&layered[0]) {
            assert!(relative_l2_error(a, b) < 1e-6);
        }
    }

    #[test]
    fn among_exchange_full_membership_matches_plain_exchange() {
        let grads = make_grads(3, &[vec![4usize, 5], vec![7]], 17);
        let members = [0usize, 1, 2];
        let outs = gcs_cluster::SimCluster::run(3, |worker| {
            let mut plain = MethodConfig::TopK { ratio: 0.4 }.build().unwrap();
            let a = exchange_gradients(&worker, &mut plain, &grads[worker.rank()]).unwrap();
            let mut among = MethodConfig::TopK { ratio: 0.4 }.build().unwrap();
            let b = exchange_gradients_among(&worker, &mut among, &grads[worker.rank()], &members)
                .unwrap();
            (a, b)
        });
        for (a, b) in &outs {
            assert_eq!(a, b, "full-membership among path must be bit-identical");
        }
    }

    #[test]
    fn among_exchange_averages_over_live_members_only() {
        // 4 workers, rank 2 is "dead": survivors exchange among {0, 1, 3}
        // and must compute the exact mean over exactly those three.
        let grads = make_grads(4, &[vec![9usize]], 23);
        let members = [0usize, 1, 3];
        let outs = gcs_cluster::SimCluster::run(4, |worker| {
            if worker.rank() == 2 {
                return None;
            }
            let mut c = MethodConfig::SyncSgd.build().unwrap();
            Some(
                exchange_gradients_among(&worker, &mut c, &grads[worker.rank()], &members).unwrap(),
            )
        });
        let mut mean = Tensor::zeros([9]);
        for &m in &members {
            mean.add_assign(&grads[m][0]).unwrap();
        }
        mean.scale(1.0 / members.len() as f32);
        for (rank, out) in outs.iter().enumerate() {
            match out {
                None => assert_eq!(rank, 2),
                Some(layers) => {
                    assert!(
                        relative_l2_error(&mean, &layers[0]) < 1e-6,
                        "survivor {rank} must average over live members only"
                    );
                }
            }
        }
    }

    #[test]
    fn among_exchange_gather_path_uses_live_members_only() {
        // SignSGD takes the gather/aggregate path; majority vote must be
        // over the survivors' payloads only.
        let grads = make_grads(4, &[vec![3usize, 4]], 29);
        let members = [0usize, 2, 3];
        let outs = gcs_cluster::SimCluster::run(4, |worker| {
            if worker.rank() == 1 {
                return None;
            }
            let mut c = MethodConfig::SignSgd.build().unwrap();
            Some(
                exchange_gradients_among(&worker, &mut c, &grads[worker.rank()], &members).unwrap(),
            )
        });
        let survivors: Vec<_> = outs.iter().flatten().collect();
        assert_eq!(survivors.len(), 3);
        for s in &survivors[1..] {
            assert_eq!(*s, survivors[0], "survivors must agree bit-exactly");
        }
        // Reference: centralized driver over only the member gradients.
        let mut refs: Vec<_> = members
            .iter()
            .map(|_| MethodConfig::SignSgd.build().unwrap())
            .collect();
        let member_grads: Vec<Tensor> = members.iter().map(|&m| grads[m][0].clone()).collect();
        let ref_out = all_reduce_compressed(&mut refs, 0, &member_grads).unwrap();
        assert!(relative_l2_error(&ref_out[0], &survivors[0][0]) < 1e-5);
    }

    #[test]
    fn mismatched_plan_is_a_protocol_error() {
        // A plan built for layer sizes [4, 6] no longer describes [6, 4].
        let outs = gcs_cluster::SimCluster::run(2, |worker| {
            let mut plan = BucketPlan::new(&[Tensor::zeros([4]), Tensor::zeros([6])], 64);
            let grads = [Tensor::zeros([6]), Tensor::zeros([4])];
            let mut c = MethodConfig::SyncSgd.build().unwrap();
            exchange_gradients_with_plan_timed(&worker, &mut c, &grads, &mut plan).map(|_| ())
        });
        for r in outs {
            assert!(
                matches!(r, Err(ExecError::Compress(CompressError::Protocol(_)))),
                "{r:?}"
            );
        }
    }

    #[test]
    fn multi_iteration_powersgd_keeps_state_per_worker() {
        // Drive two iterations through the threaded engine; warm start and
        // error feedback must not corrupt cross-iteration state.
        let layers = vec![vec![12usize, 12]];
        let g1 = make_grads(3, &layers, 21);
        let g2 = make_grads(3, &layers, 22);
        let p = 3;
        let outs = gcs_cluster::SimCluster::run(p, |worker| {
            let mut c = MethodConfig::PowerSgd { rank: 2 }.build().unwrap();
            let a = exchange_gradients(&worker, &mut c, &g1[worker.rank()]).unwrap();
            let b = exchange_gradients(&worker, &mut c, &g2[worker.rank()]).unwrap();
            (a, b)
        });
        for w in 1..p {
            assert_eq!(outs[0], outs[w]);
        }
    }
}
