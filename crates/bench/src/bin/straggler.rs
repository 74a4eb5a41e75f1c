//! Straggler benchmark: iteration time with one worker slowed 1–8x, per
//! compression method, plus a deterministic exercise of the fault plane.
//!
//! Two halves:
//!
//! 1. **Model timings** (written to `BENCH_straggler.json`): for every
//!    tracked method, the α–β performance model's iteration breakdown is
//!    extended with a synchronous-straggler term — with one worker slowed
//!    `s`x, every collective waits on its backward pass, so the critical
//!    path grows by `(s − 1) · t_comp`:
//!    `T(s) = T(1) + (s − 1) · t_comp`. These are pure functions of the
//!    configuration, so the tracked JSON is bit-identical across runs.
//! 2. **Fault-plane exercise** (wall timings printed, never written): a
//!    real `SimCluster` job runs ring all-reduces under a seeded
//!    delay-jitter [`FaultPlan`] while rank 0 sleeps per iteration to
//!    emulate the straggler. The JSON records only the seed-deterministic
//!    part: the injected event count and the summed injected delay.
//!
//! Run with `cargo run -p gcs-bench --bin straggler --release`. Set
//! `GCS_BENCH_SMOKE=1` for a seconds-long CI smoke run (tiny sizes; the
//! tracked JSON is not rewritten).

use std::time::{Duration, Instant};

use gcs_cluster::{FaultKind, FaultPlan, SimCluster};
use gcs_compress::registry::MethodConfig;
use gcs_core::perf::predict_iteration;
use gcs_ddp::sim::SimConfig;
use gcs_models::presets;
use serde_json::{json, Value};

/// Straggler slowdown factors (1x = healthy baseline).
const SLOWDOWNS: [f64; 6] = [1.0, 2.0, 3.0, 4.0, 6.0, 8.0];

/// Fault-plan master seed for the fault-plane exercise. Fixed so the
/// event sequence — and therefore the JSON's fault section — is identical
/// across runs.
const FAULT_SEED: u64 = 0x5712A_661E5;

/// Methods tracked in the report, spanning every aggregation class.
fn methods() -> Vec<MethodConfig> {
    vec![
        MethodConfig::SyncSgd,
        MethodConfig::Fp16,
        MethodConfig::PowerSgd { rank: 4 },
        MethodConfig::TopK { ratio: 0.01 },
        MethodConfig::SignSgd,
        MethodConfig::Qsgd { levels: 15 },
        MethodConfig::RandomK { ratio: 0.25 },
    ]
}

fn method_name(m: &MethodConfig) -> String {
    m.build()
        .map(|c| c.properties().name)
        .unwrap_or_else(|_| format!("{m:?}"))
}

/// Model-predicted iteration times vs. straggler slowdown for one method.
///
/// A synchronous data-parallel iteration gates every collective on the
/// slowest worker's backward pass, so slowing one worker `s`x stretches
/// the critical path by `(s − 1) · t_comp` regardless of how the healthy
/// iteration overlaps compute and communication.
fn straggler_rows(workers: usize) -> Vec<Value> {
    let mut rows = Vec::new();
    for method in methods() {
        let cfg = SimConfig::new(presets::resnet50(), workers).method(method.clone());
        let p = predict_iteration(&cfg);
        let iters: Vec<Value> = SLOWDOWNS
            .iter()
            .map(|&s| {
                let total = p.total_s + (s - 1.0) * p.t_comp_s;
                json!({
                    "slowdown": s,
                    "iteration_ms": total * 1e3,
                    "vs_healthy": total / p.total_s,
                })
            })
            .collect();
        println!(
            "{:<24} healthy {:>7.1} ms  8x-straggler {:>7.1} ms",
            method_name(&method),
            p.total_s * 1e3,
            (p.total_s + 7.0 * p.t_comp_s) * 1e3,
        );
        rows.push(json!({
            "method": method_name(&method),
            "workers": workers,
            "healthy_ms": p.total_s * 1e3,
            "t_comp_ms": p.t_comp_s * 1e3,
            "t_encdec_ms": p.t_encdec_s * 1e3,
            "t_comm_ms": p.t_comm_s * 1e3,
            "points": iters,
        }));
    }
    rows
}

/// Runs real ring all-reduces under a seeded delay-jitter plan with rank 0
/// sleeping `slow_factor`-proportional time per iteration. Returns the
/// measured wall time per iteration (printed, not written) and the
/// seed-deterministic fault summary.
fn fault_plane_exercise(smoke: bool) -> Value {
    let (elems, iters, unit_us) = if smoke {
        (4 * 1024, 2, 50)
    } else {
        (256 * 1024, 8, 500)
    };
    let world = 4;
    let plan = FaultPlan::new(FAULT_SEED).delay_jitter(Duration::from_micros(200));
    let mut summary = Vec::new();
    for &s in &SLOWDOWNS {
        let started = Instant::now();
        let (_, events) = SimCluster::run_with_faults(world, plan.clone(), |w| {
            let mut buf: Vec<f32> = (0..elems)
                .map(|i| (i % 97) as f32 + w.rank() as f32)
                .collect();
            for _ in 0..iters {
                if w.rank() == 0 {
                    // The straggler: extra "backward" time before joining.
                    std::thread::sleep(Duration::from_micros(((s - 1.0) * unit_us as f64) as u64));
                }
                w.all_reduce_sum(&mut buf).expect("all_reduce_sum");
            }
        });
        let wall = started.elapsed();
        let delays = events
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::Delay { .. }))
            .count();
        let injected_us: u64 = events
            .iter()
            .map(|e| match e.kind {
                FaultKind::Delay { extra } => extra.as_micros() as u64,
                _ => 0,
            })
            .sum();
        println!(
            "fault plane slowdown {s:.0}x  wall {:>8.2} ms  {delays} delays injected ({injected_us} us total)",
            wall.as_secs_f64() * 1e3,
        );
        // Only the seed-deterministic fields go into the report.
        summary.push(json!({
            "slowdown": s,
            "delay_events": delays,
            "injected_delay_us": injected_us,
        }));
    }
    json!({
        "seed": FAULT_SEED,
        "world": world,
        "elems": elems,
        "iters_per_run": iters,
        "runs": summary,
    })
}

fn main() {
    println!("straggler benchmark (model timings are deterministic; wall timings printed only)");
    let smoke = gcs_bench::smoke_mode();
    let workers = 16;
    let rows = straggler_rows(workers);
    let faults = fault_plane_exercise(smoke);

    let metadata = gcs_bench::bench_metadata(smoke, Vec::new());
    let report = json!({
        "bench": "straggler",
        "model": "resnet50",
        "smoke": smoke,
        "workers": workers,
        "slowdowns": SLOWDOWNS.to_vec(),
        "metadata": metadata,
        "methods": rows,
        "fault_plane": faults,
    });
    gcs_bench::write_report("BENCH_straggler.json", smoke, &report);
}
