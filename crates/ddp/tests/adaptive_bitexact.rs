//! A single-arm adaptive engine is the plain bucketed exchange plus a
//! decision broadcast: over consecutive steps its gradients must equal,
//! bit for bit, `exchange_gradients_with_plan_timed` on a matricized plan
//! of the same bucket size. Covers a two-round ring scheme (PowerSGD,
//! whose error feedback and warm start carry state across steps) and a
//! gather scheme (Top-K).

use gcs_cluster::SimCluster;
use gcs_compress::adaptive::AdaptiveConfig;
use gcs_compress::registry::MethodConfig;
use gcs_ddp::exec::{exchange_gradients_with_plan_timed, BucketPlan};
use gcs_ddp::AdaptiveEngine;
use gcs_tensor::Tensor;

const WORLD: usize = 3;
const STEPS: usize = 4;
/// Splits the model below into two buckets: {layer 2, layer 1}, {layer 0}.
const BUCKET_BYTES: usize = 1024;

fn make_grads(rank: usize, step: usize) -> Vec<Tensor> {
    [vec![24usize, 16], vec![40], vec![12, 12]]
        .iter()
        .enumerate()
        .map(|(l, s)| Tensor::randn(s.clone(), 7 + (step * 997 + rank * 131 + l) as u64))
        .collect()
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|x| x.to_bits()).collect()
}

fn assert_single_arm_matches_plan_exchange(method: MethodConfig) {
    let outs = SimCluster::run(WORLD, |w| {
        let cfg = AdaptiveConfig::new(vec![method.clone()]).unwrap();
        let mut adaptive = AdaptiveEngine::new(cfg, BUCKET_BYTES).unwrap();
        let mut c = method.build().unwrap();
        let mut plan = BucketPlan::matricized(&make_grads(w.rank(), 0), BUCKET_BYTES);
        assert_eq!(plan.num_buckets(), 2);
        (0..STEPS)
            .map(|step| {
                let grads = make_grads(w.rank(), step);
                let a = adaptive.exchange(&w, &grads).unwrap();
                let (b, _) =
                    exchange_gradients_with_plan_timed(&w, &mut c, &grads, &mut plan).unwrap();
                (a, b)
            })
            .collect::<Vec<_>>()
    });
    for (rank, steps) in outs.iter().enumerate() {
        for (step, (adaptive, plain)) in steps.iter().enumerate() {
            for (layer, (a, b)) in adaptive.iter().zip(plain).enumerate() {
                assert_eq!(
                    bits(a),
                    bits(b),
                    "{method:?} rank {rank} step {step} layer {layer}: adaptive deviates"
                );
            }
        }
    }
}

#[test]
fn single_arm_powersgd_matches_plan_exchange() {
    assert_single_arm_matches_plan_exchange(MethodConfig::PowerSgd { rank: 2 });
}

#[test]
fn single_arm_topk_matches_plan_exchange() {
    assert_single_arm_matches_plan_exchange(MethodConfig::TopK { ratio: 0.25 });
}
