//! Transport backend comparison: the identical sequential bucketed
//! exchange over the in-process [`SimCluster`] channels and over the
//! real loopback [`TcpCluster`] sockets, writing `BENCH_transport.json`
//! at the repo root.
//!
//! Every row carries a `transport` identity key (`sim` / `tcp`) so the
//! regression gate (`scripts/bench_compare.py`) never diffs a channel
//! row against a socket row: the two backends have categorically
//! different wall-clock profiles (memcpy vs syscalls + wire framing),
//! and only like-for-like pairs are meaningful.
//!
//! Each row splits one `run` into two timings, each reported as the
//! best (minimum) over the timed iterations — on a small shared host the
//! central value of a sub-millisecond timing swings with scheduling:
//!
//! - `exchange_ms` — the bucketed exchange alone, timed inside the worker
//!   closure from a barrier (so a rank that formed its links first does
//!   not count the wait for its peers), as the max over ranks;
//! - `setup_ms` — the rest of `SimCluster::run` / `TcpCluster::run`:
//!   spawning the workers and, on TCP, forming the socket mesh, plus the
//!   per-rank gradient and compressor construction, the barrier and the
//!   join.
//!
//! The exchanged results are asserted bit-identical across backends on
//! every iteration — this bench doubles as a continuous cross-backend
//! consistency probe, not just a stopwatch.
//!
//! Run with `cargo run -p gcs-bench --bin transport --release`. Set
//! `GCS_BENCH_SMOKE=1` for a seconds-long CI smoke run.

use gcs_cluster::{SimCluster, TcpCluster, WorkerHandle};
use gcs_compress::registry::MethodConfig;
use gcs_ddp::exec::exchange_gradients_bucketed;
use gcs_tensor::Tensor;
use serde_json::{json, Value};
use std::time::Instant;

struct BenchParams {
    worlds: Vec<usize>,
    layer_shapes: Vec<Vec<usize>>,
    iters: usize,
}

fn params(smoke: bool) -> BenchParams {
    if smoke {
        BenchParams {
            worlds: vec![2],
            layer_shapes: vec![vec![6, 10], vec![33]],
            iters: 1,
        }
    } else {
        BenchParams {
            worlds: vec![2, 4],
            layer_shapes: vec![vec![64, 64], vec![256], vec![32, 3, 3, 3]],
            iters: 9,
        }
    }
}

// Smoke keeps the full method set (the structure gate matches rows by
// coarse (method, transport) identity); only sizes and repeats shrink.
fn methods() -> Vec<MethodConfig> {
    vec![
        MethodConfig::SyncSgd,
        MethodConfig::Fp16,
        MethodConfig::TopK { ratio: 0.2 },
        MethodConfig::Qsgd { levels: 15 },
        MethodConfig::PowerSgd { rank: 2 },
    ]
}

fn make_grads(rank: usize, shapes: &[Vec<usize>]) -> Vec<Tensor> {
    shapes
        .iter()
        .enumerate()
        .map(|(l, s)| Tensor::randn(s.clone(), 42 + (rank * 131 + l) as u64))
        .collect()
}

/// One rank's exchange result and how long the exchange itself took (ms).
type Timed = (Vec<Tensor>, f64);

fn exchange(w: &WorkerHandle, method: &MethodConfig, shapes: &[Vec<usize>]) -> Timed {
    let mut c = method.build().expect("method builds");
    let grads = make_grads(w.rank(), shapes);
    w.barrier().expect("barrier");
    let t = Instant::now();
    let out = exchange_gradients_bucketed(w, &mut c, &grads, usize::MAX).expect("exchange");
    (out, t.elapsed().as_secs_f64() * 1e3)
}

fn bits(outs: &[Timed]) -> Vec<u32> {
    outs.iter()
        .flat_map(|(ts, _)| ts)
        .flat_map(|t| t.data().iter().map(|v| v.to_bits()))
        .collect()
}

/// Times one `run` (ms) and splits it into `(exchange, setup)`: the
/// slowest rank's exchange, and the remainder of the run.
fn split_ms(run: impl FnOnce() -> Vec<Timed>) -> (Vec<Timed>, f64, f64) {
    let t = Instant::now();
    let outs = run();
    let total_ms = t.elapsed().as_secs_f64() * 1e3;
    let exchange_ms = outs.iter().map(|(_, ms)| *ms).fold(0.0, f64::max);
    (outs, exchange_ms, total_ms - exchange_ms)
}

fn best(v: Vec<f64>) -> f64 {
    v.into_iter().fold(f64::INFINITY, f64::min)
}

fn main() {
    let smoke = gcs_bench::smoke_mode();
    let bp = params(smoke);
    println!(
        "transport backend benchmark{}",
        if smoke { " (smoke)" } else { "" }
    );

    let mut rows = Vec::new();
    for method in methods() {
        let name = gcs_bench::method_name(&method);
        for &p in &bp.worlds {
            // [exchange, setup] samples per transport; iteration 0 warms
            // up (first-touch page faults, lazily built state) untimed.
            let mut sim_ms = [Vec::new(), Vec::new()];
            let mut tcp_ms = [Vec::new(), Vec::new()];
            for it in 0..=bp.iters {
                let (sim, sim_ex, sim_setup) =
                    split_ms(|| SimCluster::run(p, |w| exchange(&w, &method, &bp.layer_shapes)));
                let (tcp, tcp_ex, tcp_setup) = split_ms(|| {
                    TcpCluster::run(p, |w| exchange(&w, &method, &bp.layer_shapes))
                        .expect("tcp mesh forms on loopback")
                });
                if it > 0 {
                    sim_ms[0].push(sim_ex);
                    sim_ms[1].push(sim_setup);
                    tcp_ms[0].push(tcp_ex);
                    tcp_ms[1].push(tcp_setup);
                }

                assert_eq!(
                    bits(&sim),
                    bits(&tcp),
                    "{name} p={p}: tcp deviates from sim"
                );
            }
            let [sim_ex, sim_setup] = sim_ms.map(best);
            let [tcp_ex, tcp_setup] = tcp_ms.map(best);
            println!(
                "{name:<12} p={p:<2}  exchange sim {sim_ex:>7.3}ms tcp {tcp_ex:>7.3}ms  \
                 setup sim {sim_setup:>7.3}ms tcp {tcp_setup:>7.3}ms  (bit-identical)"
            );
            for (transport, exchange_ms, setup_ms) in
                [("sim", sim_ex, sim_setup), ("tcp", tcp_ex, tcp_setup)]
            {
                rows.push(json!({
                    "method": name,
                    "transport": transport,
                    "p": p,
                    "exchange_ms": exchange_ms,
                    "setup_ms": setup_ms,
                }));
            }
        }
    }

    let metadata = gcs_bench::bench_metadata(smoke, Vec::new());
    let report: Value = json!({
        "bench": "transport",
        "smoke": smoke,
        "metadata": metadata,
        "rows": rows,
    });
    gcs_bench::write_report("BENCH_transport.json", smoke, &report);
}
