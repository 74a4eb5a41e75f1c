//! Adaptive data plane: the per-bucket scheme-switching engine driven by
//! [`gcs_compress::adaptive::Controller`].
//!
//! The engine holds one compressor per controller arm and runs the
//! crate's one exchange schedule (see the [crate docs](crate)) on an inline
//! link, with each bucket on its currently-assigned arm. Every rank holds
//! the same assignment, so the schedule issues the same collectives in the
//! same order on every rank even when arms differ in round count.
//!
//! Decision flow per step:
//!
//! 1. every rank feeds its exchange's [`BucketTiming`] probes as
//!    [`Observation`]s into its local controller copy;
//! 2. rank 0 runs the policy ([`Controller::end_step`]) and broadcasts
//!    the serialized decisions — *always*, even when empty, so a pinned
//!    single-arm baseline pays the identical per-step overhead and the
//!    adaptive-vs-fixed comparison stays fair;
//! 3. followers [`Controller::apply`] the broadcast;
//! 4. every rank executes the scheme switches at the bucket boundary via
//!    [`switch_scheme`], carrying (or documented-resetting) the
//!    error-feedback residual.

use crate::exec::{BucketPlan, BucketTiming, Result};
use crate::schedule::{run_schedule, Link, PlanCache};
use gcs_cluster::WorkerHandle;
use gcs_compress::adaptive::{
    decode_decisions, encode_decisions, AdaptiveConfig, Controller, Decision, Observation,
};
use gcs_compress::driver::{switch_scheme, ResidualPolicy, SwitchOutcome};
use gcs_compress::Compressor;
use gcs_tensor::Tensor;

/// One executed scheme switch: the controller's decision plus what
/// happened to the error-feedback residual at the boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchRecord {
    /// The decision that triggered the switch.
    pub decision: Decision,
    /// The residual carry/reset outcome.
    pub outcome: SwitchOutcome,
}

/// Data-parallel engine with per-bucket adaptive scheme selection.
pub struct AdaptiveEngine {
    cfg: AdaptiveConfig,
    residual_policy: ResidualPolicy,
    /// One compressor per arm; per-bucket state inside each is keyed by
    /// bucket index.
    compressors: Vec<Box<dyn Compressor>>,
    /// Replay script for deterministic re-runs (None = live policy).
    script: Option<Vec<Decision>>,
    plans: PlanCache,
    controller: Option<Controller>,
    timings: Vec<BucketTiming>,
    switches: Vec<SwitchRecord>,
}

impl AdaptiveEngine {
    /// Creates an engine with the given controller config and bucket
    /// size. The controller itself is constructed lazily at the first
    /// exchange, when the gradient layout and world size are known.
    ///
    /// # Errors
    ///
    /// Returns [`CompressError::InvalidConfig`](gcs_compress::CompressError)
    /// when an arm fails to build or `bucket_bytes` is zero.
    pub fn new(cfg: AdaptiveConfig, bucket_bytes: usize) -> Result<Self> {
        let plans = PlanCache::new(bucket_bytes, true)?;
        let compressors = cfg.arms.iter().map(|m| m.build());
        let compressors = compressors.collect::<gcs_compress::Result<_>>()?;
        Ok(AdaptiveEngine {
            cfg,
            residual_policy: ResidualPolicy::Carry,
            compressors,
            script: None,
            plans,
            controller: None,
            timings: Vec::new(),
            switches: Vec::new(),
        })
    }

    /// Sets the residual policy applied at scheme switches.
    #[must_use]
    pub fn residual_policy(mut self, policy: ResidualPolicy) -> Self {
        self.residual_policy = policy;
        self
    }

    /// Replays a recorded decision trace instead of running the live
    /// policy (see [`Controller::scripted`]). Must be set before the
    /// first exchange.
    #[must_use]
    pub fn scripted(mut self, script: Vec<Decision>) -> Self {
        self.script = Some(script);
        self
    }

    /// The controller, once the first exchange has initialized it.
    pub fn controller(&self) -> Option<&Controller> {
        self.controller.as_ref()
    }

    /// Timing probes of the most recent exchange.
    pub fn last_timings(&self) -> &[BucketTiming] {
        &self.timings
    }

    /// Every scheme switch executed so far, with residual outcomes.
    pub fn switches(&self) -> &[SwitchRecord] {
        &self.switches
    }

    /// Runs one full adaptive gradient exchange: exchanges every bucket on
    /// its current arm, then runs the end-of-step decision protocol
    /// (observe, rank-0 policy + broadcast, residual-carrying switches).
    ///
    /// # Errors
    ///
    /// Propagates compression and transport errors.
    pub fn exchange(&mut self, worker: &WorkerHandle, grads: &[Tensor]) -> Result<Vec<Tensor>> {
        let (plan, fresh) = self.plans.plan_for(grads);
        if fresh {
            // A layout change orphans all per-bucket compressor state.
            self.compressors.iter_mut().for_each(|c| c.reset());
            self.switches.clear();
            self.controller = None;
        }
        let controller = match &mut self.controller {
            Some(controller) => controller,
            slot => slot.insert(start_controller(&self.cfg, &self.script, plan, worker)?),
        };
        let link = Link::inline(worker, None);
        let arm_of = |b| controller.arm_of(b);
        let (out, timings) = run_schedule(link, None, &mut self.compressors, arm_of, grads, plan)?;

        // Feed the probes back (every rank keeps its controller copy
        // warm; only rank 0's estimates drive decisions).
        for t in &timings {
            controller.observe(Observation {
                bucket: t.bucket,
                arm: controller.arm_of(t.bucket),
                encode_s: t.encode_s,
                comm_s: t.comm_s,
                decode_s: t.decode_s,
                ring_bytes: t.ring_bytes,
                ring_rounds: t.ring_rounds,
                gather_bytes: t.gather_bytes,
                gather_rounds: t.gather_rounds,
            });
        }
        self.timings = timings;

        // End-of-step decision protocol.
        let decisions = if worker.rank() == 0 {
            let ds = controller.end_step();
            worker.broadcast(0, Some(&encode_decisions(&ds)?))?;
            ds
        } else {
            let frame = worker.broadcast(0, None)?;
            let ds = decode_decisions(&frame)?;
            controller.apply(&ds)?;
            ds
        };
        self.execute_switches(&decisions)?;
        Ok(out)
    }

    /// Executes compressor-level scheme switches for `decisions`,
    /// carrying residuals per the configured policy.
    fn execute_switches(&mut self, decisions: &[Decision]) -> Result<()> {
        for d in decisions {
            // Same-arm and out-of-range decisions are no-ops.
            let pair = [d.from as usize, d.to as usize];
            let Ok([old, new]) = self.compressors.get_disjoint_mut(pair) else {
                continue;
            };
            let outcome = switch_scheme(old, new, d.bucket as usize, self.residual_policy)?;
            self.switches.push(SwitchRecord {
                decision: d.clone(),
                outcome,
            });
        }
        Ok(())
    }
}

/// Builds the controller for `plan`'s buckets and runs the
/// initial-assignment broadcast: rank 0 decides, everyone else replays.
fn start_controller(
    cfg: &AdaptiveConfig,
    script: &Option<Vec<Decision>>,
    plan: &BucketPlan,
    worker: &WorkerHandle,
) -> Result<Controller> {
    let shapes: Vec<gcs_tensor::Shape> = (0..plan.num_buckets())
        .map(|b| plan.bucket_shape(b).clone())
        .collect();
    let mut controller = match script {
        Some(script) => Controller::scripted(cfg.clone(), &shapes, worker.world(), script.clone())?,
        None => Controller::new(cfg.clone(), &shapes, worker.world())?,
    };
    if worker.rank() == 0 {
        let ds = controller.tune_initial();
        worker.broadcast(0, Some(&encode_decisions(&ds)?))?;
    } else {
        let frame = worker.broadcast(0, None)?;
        controller.apply_initial(&decode_decisions(&frame)?)?;
    }
    Ok(controller)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_cluster::SimCluster;
    use gcs_compress::adaptive::{DecisionInputs, LinkModel};
    use gcs_compress::registry::MethodConfig;

    fn arms() -> Vec<MethodConfig> {
        vec![
            MethodConfig::SyncSgd,
            MethodConfig::PowerSgd { rank: 4 },
            MethodConfig::TopK { ratio: 0.01 },
        ]
    }

    fn grads_for(rank: usize, seed: u64) -> Vec<Tensor> {
        vec![
            Tensor::randn([64, 32], seed + rank as u64 * 131),
            Tensor::randn([48, 48], seed + 7 + rank as u64 * 131),
        ]
    }

    #[test]
    fn adaptive_engine_leaves_syncsgd_on_modelled_slow_link() {
        let p = 4;
        let results = SimCluster::run(p, move |worker| {
            let cfg = AdaptiveConfig::new(arms())
                .unwrap()
                .link(LinkModel::from_gbps(15e-6, 0.05).unwrap());
            let mut engine = AdaptiveEngine::new(cfg, 16 * 1024).unwrap();
            let grads = grads_for(worker.rank(), 11);
            for _ in 0..3 {
                let out = engine.exchange(&worker, &grads)?;
                for g in &out {
                    assert!(g.data().iter().all(|x| x.is_finite()));
                }
            }
            let controller = engine.controller().expect("initialized");
            let assignment: Vec<usize> = (0..controller.num_buckets())
                .map(|b| controller.arm_of(b))
                .collect();
            Ok::<_, crate::exec::ExecError>((assignment, controller.trace().to_vec()))
        });
        let outs: Vec<_> = results
            .into_iter()
            .collect::<Result<Vec<_>>>()
            .expect("all ranks succeed");
        // At 50 Mbps the uncompressed baseline loses to both compressed
        // arms for every bucket; the controller must have moved off it
        // (which arm wins depends on bucket size — tiny buckets favour
        // Top-K's 160-byte gather over PowerSGD's two ring rounds).
        for (assignment, _) in &outs {
            assert!(
                assignment.iter().all(|&a| a != 0),
                "assignment {assignment:?}"
            );
        }
        // Decision traces are identical across ranks.
        for (_, trace) in &outs[1..] {
            assert_eq!(trace, &outs[0].1);
        }
    }

    #[test]
    fn fixed_single_arm_baseline_never_switches() {
        let results = SimCluster::run(2, move |worker| {
            let cfg = AdaptiveConfig::new(vec![MethodConfig::PowerSgd { rank: 2 }])
                .unwrap()
                .link(LinkModel::from_gbps(15e-6, 0.5).unwrap());
            let mut engine = AdaptiveEngine::new(cfg, 8 * 1024).unwrap();
            let grads = grads_for(worker.rank(), 23);
            for _ in 0..4 {
                engine.exchange(&worker, &grads)?;
            }
            Ok::<_, crate::exec::ExecError>(engine.switches().len())
        });
        for r in results {
            assert_eq!(r.expect("runs"), 0);
        }
    }

    #[test]
    fn measured_mode_probes_and_stays_consistent_across_ranks() {
        let results = SimCluster::run(3, move |worker| {
            let cfg = AdaptiveConfig::new(arms())
                .unwrap()
                .inputs(DecisionInputs::Measured)
                .warmup_steps(3)
                .link(LinkModel::from_gbps(15e-6, 1.0).unwrap());
            let mut engine = AdaptiveEngine::new(cfg, 16 * 1024).unwrap();
            let grads = grads_for(worker.rank(), 5);
            for _ in 0..6 {
                let out = engine.exchange(&worker, &grads)?;
                for g in &out {
                    assert!(g.data().iter().all(|x| x.is_finite()));
                }
            }
            let c = engine.controller().expect("initialized");
            let assignment: Vec<usize> = (0..c.num_buckets()).map(|b| c.arm_of(b)).collect();
            Ok::<_, crate::exec::ExecError>((assignment, c.trace().len()))
        });
        let outs: Vec<_> = results
            .into_iter()
            .collect::<Result<Vec<_>>>()
            .expect("all ranks succeed");
        // All ranks agree on the final assignment and saw the same
        // number of decisions (warm-up probes included).
        for out in &outs[1..] {
            assert_eq!(out, &outs[0]);
        }
        assert!(outs[0].1 > 0, "warm-up must have probed");
    }

    #[test]
    fn timings_report_positive_wire_traffic() {
        let results = SimCluster::run(2, move |worker| {
            let cfg = AdaptiveConfig::new(vec![MethodConfig::SyncSgd]).unwrap();
            let mut engine = AdaptiveEngine::new(cfg, 16 * 1024).unwrap();
            let grads = grads_for(worker.rank(), 3);
            engine.exchange(&worker, &grads)?;
            Ok::<_, crate::exec::ExecError>(engine.last_timings().to_vec())
        });
        for r in results {
            let timings = r.expect("runs");
            assert!(!timings.is_empty());
            for t in &timings {
                assert!(t.ring_rounds == 1 && t.ring_bytes > 0, "{t:?}");
                assert_eq!(t.gather_rounds, 0);
                assert!(t.encode_s >= 0.0 && t.comm_s >= 0.0 && t.decode_s >= 0.0);
            }
        }
    }
}
