//! End-to-end data-parallel training benchmark.
//!
//! Runs one workload for a fixed time as repeated episodes (fresh
//! cluster, engine and model, trained for a fixed number of steps), checks
//! the outputs, and prints one JSON result line:
//!
//! ```text
//! trainbench --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` alternates
//! traced and untraced episodes and reports the per-layer metrics, the
//! tracing overhead, and writes the spans as Chrome trace-event JSON under
//! `out/`. See `README.md` for the metric definitions.

mod procfs;
mod spans;
mod stats;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use gcs_train::task::Task;

use spans::json_string;
use workload::{Cluster, Episode, EpisodeSpec, Shape, Workload, FULL, WORKERS};

const USAGE: &str = "usage: trainbench --workload <name> --seed <n> --seconds <n> --trace <0|1>";
/// Repetitions of each kernel micro-timing in a traced run.
const KERNEL_REPS: usize = 15;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value}; one of {}", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, got {value}")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// A named metric value.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn ms(s: f64) -> f64 {
    s * 1e3
}

fn med(xs: impl IntoIterator<Item = f64>) -> f64 {
    stats::median(&xs.into_iter().collect::<Vec<_>>()).unwrap_or(f64::NAN)
}

/// The steps after the first of every episode in `eps`.
fn steady<'a>(eps: &'a [&'a Episode]) -> impl Iterator<Item = &'a workload::StepRec> + 'a {
    eps.iter().flat_map(|e| e.steps.iter().skip(1))
}

/// The episodes a run's steady-state timings come from: the faster half
/// by steady wall time. Interference from the host only adds time and
/// comes in bursts of seconds, and from one episode to the next the
/// program page-faults a different number of fresh gradient-sized
/// buffers per step. The slower half carries most of both, and with them
/// most of the spread between runs.
fn timed<'a>(eps: &[&'a Episode]) -> Vec<&'a Episode> {
    stats::faster_half(eps, |e| e.steady_s)
        .into_iter()
        .copied()
        .collect()
}

/// Steady samples per second over `eps`: every rank's samples over rank
/// 0's steady wall seconds.
fn samples_per_s(shape: &Shape, eps: &[&Episode]) -> f64 {
    let samples = (WORKERS * shape.batch * (shape.steps - 1) * eps.len()) as f64;
    samples / eps.iter().map(|e| e.steady_s).sum::<f64>()
}

/// Steady-state wall timings pool the steps of the [`timed`] episodes, so
/// the 90th percentile has at least ten steps beyond it. CPU time per step
/// pools every episode: time the host takes away is not charged to the
/// process, so there the selection only adds noise. Set-up time is the
/// median over every episode.
fn end_to_end(
    shape: &Shape,
    eps: &[&Episode],
    loss_final: f64,
    peak_rss_kib: Option<u64>,
) -> Vec<Metric> {
    let timed = timed(eps);
    let steps: Vec<f64> = steady(&timed).map(|s| s.step_s).collect();
    let pct = |q| stats::percentile(&steps, q).map_or(f64::NAN, ms);
    let cpu_s: f64 = eps.iter().map(|e| e.cpu_s).sum();
    let steady_steps = (eps.len() * (shape.steps - 1)) as f64;
    vec![
        Metric {
            name: "samples_per_s",
            value: samples_per_s(shape, &timed),
            unit: "1/s",
        },
        Metric {
            name: "step_ms.p50",
            value: pct(50.0),
            unit: "ms",
        },
        Metric {
            name: "step_ms.p90",
            value: pct(90.0),
            unit: "ms",
        },
        Metric {
            name: "cpu_ms_per_step",
            value: ms(cpu_s / steady_steps),
            unit: "ms",
        },
        Metric {
            name: "setup_s",
            value: med(eps.iter().map(|e| e.setup_s)),
            unit: "s",
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss_kib.map_or(f64::NAN, |kib| kib as f64 / 1024.0),
            unit: "MB",
        },
        Metric {
            name: "loss_final",
            value: loss_final,
            unit: "nats",
        },
    ]
}

/// Kernel and single-worker timings a traced run adds.
struct Baselines {
    single_step_s: Vec<f64>,
    gemm_s: Vec<f64>,
    topk_s: Vec<f64>,
}

fn per_layer(
    workload: Workload,
    shape: &Shape,
    traced: &[&Episode],
    untraced: &[&Episode],
    base: &Baselines,
    grad_bytes: f64,
) -> Vec<Metric> {
    let steps: Vec<&workload::StepRec> = steady(traced).collect();
    let m = |f: &dyn Fn(&workload::StepRec) -> f64| med(steps.iter().map(|s| f(s)));
    let step_med = m(&|s| s.step_s);
    let wire_busy = m(&|s| s.probe.wire_busy_s);
    let eq1 =
        m(&|s| s.grad_s + s.opt_s + s.probe.encode_s + s.probe.decode_s + s.probe.wire_busy_s);
    let wire_bytes = m(&|s| s.probe.wire_bytes() as f64);
    let exposed_sum: f64 = steps.iter().map(|s| s.probe.exposed_s).sum();
    let busy_sum: f64 = steps.iter().map(|s| s.probe.wire_busy_s).sum();
    let per_step = |count: fn(&Episode) -> u64| {
        med(traced
            .iter()
            .map(|e| count(e) as f64 / (shape.steps - 1) as f64))
    };
    let comm_model = workload
        .link_model()
        .map_or(0.0, |net| m(&|s| s.probe.comm_model_s(&net)));
    let comm_residual = if workload.link_model().is_some() {
        100.0 * (wire_busy - comm_model) / wire_busy
    } else {
        0.0
    };
    let first = traced.first();
    vec![
        Metric {
            name: "train.grad_ms",
            value: ms(m(&|s| s.grad_s)),
            unit: "ms",
        },
        Metric {
            name: "train.opt_ms",
            value: ms(m(&|s| s.opt_s)),
            unit: "ms",
        },
        Metric {
            name: "train.single_worker_step_ms",
            value: ms(med(base.single_step_s.iter().skip(1).copied())),
            unit: "ms",
        },
        Metric {
            name: "ddp.exchange_ms",
            value: ms(m(&|s| s.exchange_s)),
            unit: "ms",
        },
        Metric {
            name: "ddp.exposed_wait_ms",
            value: ms(m(&|s| s.probe.exposed_s)),
            unit: "ms",
        },
        Metric {
            name: "ddp.hidden_wire_share",
            value: 1.0 - exposed_sum / busy_sum,
            unit: "share",
        },
        Metric {
            name: "adaptive.decision_ms",
            value: ms(m(&|s| s.exchange_s - s.probe.stages_s)),
            unit: "ms",
        },
        Metric {
            name: "adaptive.switches",
            value: first.map_or(f64::NAN, |e| e.switches as f64),
            unit: "count",
        },
        Metric {
            name: "adaptive.assignment",
            value: first.map_or(f64::NAN, |e| e.assignment as f64),
            unit: "code",
        },
        Metric {
            name: "compress.encode_ms",
            value: ms(m(&|s| s.probe.encode_s)),
            unit: "ms",
        },
        Metric {
            name: "compress.decode_ms",
            value: ms(m(&|s| s.probe.decode_s)),
            unit: "ms",
        },
        Metric {
            name: "compress.wire_bytes_per_step",
            value: wire_bytes,
            unit: "bytes",
        },
        Metric {
            name: "compress.ratio",
            value: grad_bytes / wire_bytes,
            unit: "ratio",
        },
        Metric {
            name: "cluster.wire_busy_ms",
            value: ms(wire_busy),
            unit: "ms",
        },
        Metric {
            name: "cluster.bytes_sent",
            value: per_step(|e| e.bytes_sent),
            unit: "bytes",
        },
        Metric {
            name: "cluster.messages_sent",
            value: per_step(|e| e.messages_sent),
            unit: "count",
        },
        Metric {
            name: "cluster.mesh_setup_ms",
            value: ms(med(traced.iter().map(|e| e.mesh_s))),
            unit: "ms",
        },
        Metric {
            name: "tensor.gemm_ms",
            value: ms(med(base.gemm_s.iter().copied())),
            unit: "ms",
        },
        Metric {
            name: "tensor.topk_ms",
            value: ms(med(base.topk_s.iter().copied())),
            unit: "ms",
        },
        Metric {
            name: "model.eq1_ms",
            value: ms(eq1),
            unit: "ms",
        },
        Metric {
            name: "model.eq1_residual_pct",
            value: 100.0 * (step_med - eq1) / step_med,
            unit: "%",
        },
        Metric {
            name: "cluster.comm_model_ms",
            value: ms(comm_model),
            unit: "ms",
        },
        Metric {
            name: "cluster.comm_residual_pct",
            value: comm_residual,
            unit: "%",
        },
        Metric {
            name: "process.minor_faults_per_step",
            value: med(untraced
                .iter()
                .map(|e| e.minor_faults as f64 / (shape.steps - 1) as f64)),
            unit: "count",
        },
        Metric {
            name: "trace.overhead_pct",
            value: 100.0
                * (1.0
                    - samples_per_s(shape, &timed(traced))
                        / samples_per_s(shape, &timed(untraced))),
            unit: "%",
        },
    ]
}

fn metrics_json(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_string(m.name),
            json_number(m.value),
            json_string(m.unit)
        );
    }
    out.push('}');
    out
}

/// JSON has no NaN or infinity; an unmeasurable value prints as null.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("trainbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host0 = procfs::host_ticks();
    // Resolve the kernel tuning before anything is timed: a cold cache
    // measures here, once per process.
    let tuning = gcs_tensor::autotune::choice();
    let shape = FULL;
    let (task, eval, init) = shape.problem();
    let loss_initial = eval.full_loss(&init);
    let epoch = Instant::now();
    let spec = |cluster, traced, index| EpisodeSpec {
        workload: args.workload,
        cluster,
        shape: &shape,
        task: &task,
        init: &init,
        seed: args.seed,
        traced,
        epoch,
        index,
    };
    let mut errors: Vec<String> = Vec::new();

    let mut episodes: Vec<(bool, Episode)> = Vec::new();
    let (mut attempted, mut failed) = (0usize, 0usize);
    let start = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let mut index = 0;
    let mut peak_rss_kib = None;
    loop {
        let traced = args.trace && index % 2 == 1;
        let have = |t: bool| episodes.iter().any(|(tr, _)| *tr == t);
        let done = start.elapsed() >= budget && have(false) && (!args.trace || have(true));
        // A run that fails every episode stops once its time is up.
        if done || (start.elapsed() >= budget && index >= 2 && episodes.is_empty()) {
            break;
        }
        attempted += shape.steps;
        match workload::run_episode(&spec(args.workload.cluster(), traced, index)) {
            Ok(e) => {
                if episodes.is_empty() {
                    // Later episodes add allocator fragmentation that
                    // depends on thread timing, not on the program.
                    peak_rss_kib = procfs::peak_rss_kib();
                }
                episodes.push((traced, e));
            }
            Err(e) => {
                failed += shape.steps;
                errors.push(format!("episode {index}: {e}"));
            }
        }
        index += 1;
    }
    let measured_s = start.elapsed().as_secs_f64();

    // Outside the timed runs: TCP must reproduce the in-process run bit
    // for bit.
    let reference = (args.workload.cluster() == Cluster::Tcp)
        .then(|| workload::run_episode(&spec(Cluster::Sim(None), false, index)).map(|e| e.digest));

    // Output checks: every episode of one seed ends on the same
    // parameters and decision trace, and training made progress.
    let mut loss_final = f64::NAN;
    if let Some((_, first)) = episodes.first() {
        loss_final = eval.full_loss(&first.params);
        let mut bad = Vec::new();
        for (i, (_, e)) in episodes.iter().enumerate().skip(1) {
            if e.digest != first.digest {
                bad.push(format!("episode {i} parameters differ from episode 0"));
            } else if e.decisions != first.decisions {
                bad.push(format!(
                    "episode {i} adaptive decision trace differs from episode 0"
                ));
            }
        }
        if !(loss_final.is_finite() && loss_final < loss_initial) {
            bad.push(format!(
                "loss_final {loss_final} is not finite and below the initial {loss_initial}"
            ));
        }
        match &reference {
            Some(Ok(d)) if *d != first.digest => bad.push(format!(
                "TCP parameters {:016x} differ from the in-process run {d:016x}",
                first.digest
            )),
            Some(Err(e)) => bad.push(format!("in-process reference run: {e}")),
            _ => {}
        }
        if !bad.is_empty() {
            failed = attempted;
            errors.extend(bad);
        }
    } else {
        errors.push("no episode completed".into());
    }

    let untraced: Vec<&Episode> = episodes
        .iter()
        .filter(|(t, _)| !t)
        .map(|(_, e)| e)
        .collect();
    let traced: Vec<&Episode> = episodes
        .iter()
        .filter(|(t, _)| *t)
        .map(|(_, e)| e)
        .collect();
    let mut trace_file = String::new();
    let metrics = if args.trace {
        let (rows, cols) = workload::largest_bucket(&init);
        let base = Baselines {
            single_step_s: workload::single_worker_steps(&shape, &task, &init, args.seed),
            gemm_s: workload::gemm_seconds(rows, cols, KERNEL_REPS),
            topk_s: workload::topk_seconds(rows * cols, KERNEL_REPS),
        };
        trace_file = write_trace(&args, &traced);
        let grad_bytes = 4.0 * init.iter().map(|t| t.numel()).sum::<usize>() as f64;
        per_layer(args.workload, &shape, &traced, &untraced, &base, grad_bytes)
    } else {
        end_to_end(&shape, &untraced, loss_final, peak_rss_kib)
    };

    for e in &errors {
        eprintln!("trainbench: {e}");
    }
    let steal = match (host0, procfs::host_ticks()) {
        (Some(a), Some(b)) => b.steal_share_since(&a),
        _ => f64::NAN,
    };
    let timed_steps = timed(&untraced).len() * (shape.steps - 1);
    let arms: Vec<String> = Workload::adaptive_arms()
        .iter()
        .map(|m| m.to_string())
        .collect();
    let info = [
        ("workload", json_string(args.workload.name())),
        ("seed", args.seed.to_string()),
        ("trace", (args.trace as u8).to_string()),
        ("episodes", episodes.len().to_string()),
        ("steps_per_episode", shape.steps.to_string()),
        ("workers", WORKERS.to_string()),
        ("batch_per_worker", shape.batch.to_string()),
        ("measured_s", json_number(measured_s)),
        ("steady_steps_per_episode", (shape.steps - 1).to_string()),
        ("timed_steps", timed_steps.to_string()),
        (
            "steps_beyond_p90",
            (timed_steps - (0.9 * timed_steps as f64).ceil() as usize).to_string(),
        ),
        ("steal_share", json_number(steal)),
        (
            "cpu_model",
            json_string(&procfs::cpu_model().unwrap_or_default()),
        ),
        (
            "available_parallelism",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        (
            "kernel_table",
            json_string(gcs_tensor::kernels::active().name),
        ),
        (
            "kernel_threads",
            gcs_tensor::pool::global().width().to_string(),
        ),
        ("gemm_tile", json_string(tuning.gemm_tile.name())),
        ("wire_chunk_elems", tuning.wire_chunk_elems.to_string()),
        ("autotune_provenance", json_string(tuning.provenance)),
        ("loss_initial", json_number(loss_initial)),
        (
            "digest",
            json_string(
                &episodes
                    .first()
                    .map_or(String::new(), |(_, e)| format!("{:016x}", e.digest)),
            ),
        ),
        ("adaptive_arms", json_string(&arms.join(","))),
        ("trace_file", json_string(&trace_file)),
        ("errors", errors.len().to_string()),
    ];
    let info: Vec<String> = info
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_string(k)))
        .collect();
    println!("{{\"trainbench\": {{{}}}}}", info.join(", "));
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        errors.is_empty(),
        metrics_json(&metrics)
    );
    ExitCode::SUCCESS
}

/// Writes the traced episodes' spans under `out/` next to this package
/// and returns the path, or an empty string if it could not be written.
fn write_trace(args: &Args, traced: &[&Episode]) -> String {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!(
        "trace-{}-seed{}.json",
        args.workload.name(),
        args.seed
    ));
    let spans = spans::merge(traced.iter().map(|e| e.spans.clone()).collect());
    let json = spans::chrome_trace(
        &spans,
        &[
            ("workload", args.workload.name().to_string()),
            ("seed", args.seed.to_string()),
        ],
    );
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json)) {
        Ok(()) => path.display().to_string(),
        Err(e) => {
            eprintln!("trainbench: writing {}: {e}", path.display());
            String::new()
        }
    }
}
