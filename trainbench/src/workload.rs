//! The workloads and the training episode that drives them: real
//! data-parallel steps (`minibatch_grad` → engine exchange → `Sgd::step`)
//! on one worker thread per rank, timed from outside the program.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use gcs_cluster::cost::NetworkModel;
use gcs_cluster::{NetEmu, SimCluster, TcpCluster, TcpOptions, TrafficCounter, WorkerHandle};
use gcs_compress::adaptive::{AdaptiveConfig, Decision, LinkModel};
use gcs_compress::registry::MethodConfig;
use gcs_compress::Compressor;
use gcs_ddp::exec::{exchange_gradients_bucketed, exchange_gradients_with_plan_timed, BucketPlan};
use gcs_ddp::{AdaptiveEngine, BucketTiming, PipelineConfig, PipelinedEngine};
use gcs_tensor::Tensor;
use gcs_train::optim::Sgd;
use gcs_train::task::{MlpClassification, Task};

use crate::procfs;
use crate::spans::{Recorder, Span};

/// Worker threads (ranks) per cluster.
pub const WORKERS: usize = 2;
/// Bucket cap of every bucketed engine: the first-layer weight gets a
/// bucket of its own and the three small tensors share the other.
const BUCKET_BYTES: usize = 1 << 20;
/// Emulated link of the `emu-*` workloads: per-hop latency and bandwidth.
const EMU_LATENCY_US: f64 = 25.0;
const EMU_GBPS: f64 = 0.2;
/// Top-K keep fraction.
const TOPK_RATIO: f64 = 0.01;
/// PowerSGD rank.
const POWERSGD_RANK: usize = 4;
/// Seed of the task's data (class centers, samples, labels) and of the
/// initial parameters.
const DATA_SEED: u64 = 0x5eed;

/// Size of the training task and of one episode.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Input dimension of the MLP.
    pub dim: usize,
    /// Hidden units.
    pub hidden: usize,
    /// Output classes.
    pub classes: usize,
    /// Training samples the minibatches are drawn from.
    pub samples: usize,
    /// Samples of the fixed evaluation set behind `loss_final`.
    pub eval_samples: usize,
    /// Minibatch per worker.
    pub batch: usize,
    /// Optimizer steps per episode.
    pub steps: usize,
    /// SGD learning rate.
    pub lr: f32,
}

/// The benchmark's task: ≈2.1 M parameters, 8.4 MB of f32 gradient.
pub const FULL: Shape = Shape {
    dim: 1024,
    hidden: 2048,
    classes: 16,
    samples: 4096,
    eval_samples: 256,
    batch: 8,
    steps: 30,
    lr: 0.001,
};

impl Shape {
    /// The benchmark's problem: the training task, the evaluation set and
    /// the initial parameters. All three are fixed; the run's seed draws
    /// only the minibatches, so runs of different seeds train the same
    /// problem and their final losses are comparable.
    pub fn problem(&self) -> (MlpClassification, MlpClassification, Vec<Tensor>) {
        let task = |n| MlpClassification::new(self.dim, self.hidden, self.classes, n, DATA_SEED);
        let train = task(self.samples);
        let init = train.init_params(DATA_SEED);
        (train, task(self.eval_samples), init)
    }
}

/// One benchmark workload: an engine, a compression method and a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Pipelined engine, PowerSGD rank 4, in-process channels.
    SimPowerSgd,
    /// Sequential bucketed exchange, syncSGD, loopback TCP.
    TcpSyncSgd,
    /// Pipelined engine, Top-K 1 %, paced emulated link.
    EmuTopK,
    /// Adaptive engine over {syncSGD, PowerSGD, Top-K}, paced link.
    EmuAdaptive,
}

impl Workload {
    /// Every workload the benchmark can run (`BENCHMARK.json` lists the
    /// last three; see `README.md`).
    pub const ALL: [Workload; 4] = [
        Workload::SimPowerSgd,
        Workload::TcpSyncSgd,
        Workload::EmuTopK,
        Workload::EmuAdaptive,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SimPowerSgd => "sim-powersgd",
            Workload::TcpSyncSgd => "tcp-syncsgd",
            Workload::EmuTopK => "emu-topk",
            Workload::EmuAdaptive => "emu-adaptive",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The cluster the workload runs on.
    pub fn cluster(self) -> Cluster {
        match self {
            Workload::SimPowerSgd => Cluster::Sim(None),
            Workload::TcpSyncSgd => Cluster::Tcp,
            Workload::EmuTopK | Workload::EmuAdaptive => {
                Cluster::Sim(Some(NetEmu::from_gbps(EMU_LATENCY_US, EMU_GBPS)))
            }
        }
    }

    /// The α–β model of the workload's link, where the link is emulated
    /// (the in-process and loopback links have no α and β to predict from).
    pub fn link_model(self) -> Option<NetworkModel> {
        match self.cluster() {
            Cluster::Sim(Some(_)) => Some(NetworkModel::from_gbps(EMU_LATENCY_US * 1e-6, EMU_GBPS)),
            _ => None,
        }
    }

    /// Arms of the adaptive controller (index order = assignment code).
    pub fn adaptive_arms() -> Vec<MethodConfig> {
        vec![
            MethodConfig::SyncSgd,
            MethodConfig::PowerSgd {
                rank: POWERSGD_RANK,
            },
            MethodConfig::TopK { ratio: TOPK_RATIO },
        ]
    }
}

/// Where the ranks of an episode exchange bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cluster {
    /// In-process channels, optionally paced by a link emulator.
    Sim(Option<NetEmu>),
    /// Loopback TCP sockets (mesh formed per episode).
    Tcp,
}

/// Engine-internal split of one exchange, read from the layers' public
/// probes after the call.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Probe {
    /// Σ encode seconds over buckets.
    pub encode_s: f64,
    /// Σ decode seconds over buckets.
    pub decode_s: f64,
    /// Σ seconds the caller was blocked on the wire.
    pub exposed_s: f64,
    /// Seconds the wire (comm thread or blocking collective) was busy.
    pub wire_busy_s: f64,
    /// Σ encode + collective + decode seconds as the engine timed them.
    pub stages_s: f64,
    /// Bytes this rank contributed to all-reduce rounds.
    pub ring_bytes: u64,
    /// All-reduce rounds.
    pub ring_rounds: u64,
    /// Bytes this rank contributed to all-gather rounds.
    pub gather_bytes: u64,
    /// All-gather rounds.
    pub gather_rounds: u64,
}

impl Probe {
    /// Sums bucket probes. `rounds` fills in the round count for engines
    /// whose probes leave it at zero.
    fn from_timings(timings: &[BucketTiming], rounds: usize) -> Probe {
        let mut p = Probe::default();
        for t in timings {
            p.encode_s += t.encode_s;
            p.decode_s += t.decode_s;
            p.exposed_s += t.exposed_wait_s;
            p.stages_s += t.encode_s + t.comm_s + t.decode_s;
            p.ring_bytes += t.ring_bytes;
            p.gather_bytes += t.gather_bytes;
            let or_rounds = |counted: u32, bytes: u64| match (counted, bytes) {
                (0, 0) => 0,
                (0, _) => rounds as u64,
                (n, _) => u64::from(n),
            };
            p.ring_rounds += or_rounds(t.ring_rounds, t.ring_bytes);
            p.gather_rounds += or_rounds(t.gather_rounds, t.gather_bytes);
        }
        p
    }

    /// Sums probes of an engine that blocks on every collective: all of
    /// its wire time is exposed.
    fn blocking(timings: &[BucketTiming]) -> Probe {
        let mut p = Probe::from_timings(timings, 1);
        p.exposed_s = timings.iter().map(|t| t.comm_s).sum();
        p.wire_busy_s = p.exposed_s;
        p
    }

    /// Bytes this rank put on the wire for the exchange.
    pub fn wire_bytes(&self) -> u64 {
        self.ring_bytes + self.gather_bytes
    }

    /// α–β prediction of the exchange's collectives on `net`.
    pub fn comm_model_s(&self, net: &NetworkModel) -> f64 {
        // Both terms are linear in bytes, so a round-averaged size
        // predicts the sum over rounds exactly.
        let per = |bytes: u64, rounds: u64, f: &dyn Fn(usize) -> f64| {
            if rounds == 0 {
                0.0
            } else {
                rounds as f64 * f((bytes / rounds) as usize)
            }
        };
        per(self.ring_bytes, self.ring_rounds, &|b| {
            net.ring_all_reduce(b, WORKERS)
        }) + per(self.gather_bytes, self.gather_rounds, &|b| {
            net.all_gather(b, WORKERS)
        })
    }
}

/// A rank's exchange engine.
enum Engine {
    /// `exchange_gradients_bucketed`, the multi-process worker's path.
    Sequential {
        worker: WorkerHandle,
        compressor: Box<dyn Compressor>,
    },
    Pipelined {
        engine: Box<PipelinedEngine<Box<dyn Compressor>>>,
        traffic: Arc<TrafficCounter>,
        rounds: usize,
    },
    Adaptive {
        worker: WorkerHandle,
        engine: Box<AdaptiveEngine>,
    },
}

impl Engine {
    fn new(
        workload: Workload,
        worker: WorkerHandle,
        traffic: Option<Arc<TrafficCounter>>,
    ) -> Result<Engine, String> {
        let method = match workload {
            Workload::SimPowerSgd => MethodConfig::PowerSgd {
                rank: POWERSGD_RANK,
            },
            Workload::EmuTopK => MethodConfig::TopK { ratio: TOPK_RATIO },
            Workload::TcpSyncSgd => {
                return Ok(Engine::Sequential {
                    worker,
                    compressor: MethodConfig::SyncSgd.build().map_err(|e| e.to_string())?,
                })
            }
            Workload::EmuAdaptive => {
                let link = LinkModel::from_gbps(EMU_LATENCY_US * 1e-6, EMU_GBPS)
                    .map_err(|e| e.to_string())?;
                let cfg = AdaptiveConfig::new(Workload::adaptive_arms())
                    .map_err(|e| e.to_string())?
                    .link(link);
                let engine = AdaptiveEngine::new(cfg, BUCKET_BYTES).map_err(|e| e.to_string())?;
                return Ok(Engine::Adaptive {
                    worker,
                    engine: Box::new(engine),
                });
            }
        };
        let traffic = traffic.ok_or("the pipelined engine needs an in-process cluster")?;
        let compressor = method.build().map_err(|e| e.to_string())?;
        let rounds = compressor.properties().rounds;
        let cfg = PipelineConfig {
            bucket_bytes: BUCKET_BYTES,
            matricize: true,
            ..PipelineConfig::default()
        };
        let engine = PipelinedEngine::new(worker, compressor, cfg).map_err(|e| e.to_string())?;
        Ok(Engine::Pipelined {
            engine: Box::new(engine),
            traffic,
            rounds,
        })
    }

    fn traffic(&self) -> &TrafficCounter {
        match self {
            Engine::Sequential { worker, .. } | Engine::Adaptive { worker, .. } => worker.traffic(),
            Engine::Pipelined { traffic, .. } => traffic,
        }
    }

    /// One exchange. With `probe`, also reads the engine's timing probes;
    /// the sequential path then runs the timed twin of the same schedule.
    fn exchange(
        &mut self,
        grads: &[Tensor],
        probe: Option<&mut Probe>,
    ) -> Result<Vec<Tensor>, String> {
        let err = |e: gcs_ddp::exec::ExecError| e.to_string();
        match self {
            Engine::Sequential { worker, compressor } => match probe {
                None => exchange_gradients_bucketed(worker, compressor, grads, BUCKET_BYTES)
                    .map_err(err),
                Some(probe) => {
                    let mut plan = BucketPlan::new(grads, BUCKET_BYTES);
                    let (out, timings) =
                        exchange_gradients_with_plan_timed(worker, compressor, grads, &mut plan)
                            .map_err(err)?;
                    *probe = Probe::blocking(&timings);
                    Ok(out)
                }
            },
            Engine::Pipelined { engine, rounds, .. } => {
                let busy0 = engine.comm_busy_seconds();
                let out = engine.exchange(grads).map_err(err)?;
                if let Some(probe) = probe {
                    *probe = Probe::from_timings(engine.last_timings(), *rounds);
                    probe.wire_busy_s = engine.comm_busy_seconds() - busy0;
                }
                Ok(out)
            }
            Engine::Adaptive { worker, engine } => {
                let out = engine.exchange(worker, grads).map_err(err)?;
                if let Some(probe) = probe {
                    *probe = Probe::blocking(engine.last_timings());
                }
                Ok(out)
            }
        }
    }

    /// Arm per bucket as decimal digits `arm + 1` (bucket 0 first), the
    /// executed switches and the decision trace; zeros and empty for
    /// engines without a controller.
    fn controller_state(&self) -> (u64, usize, Vec<Decision>) {
        let Engine::Adaptive { engine, .. } = self else {
            return (0, 0, Vec::new());
        };
        let Some(c) = engine.controller() else {
            return (0, engine.switches().len(), Vec::new());
        };
        let code = (0..c.num_buckets()).fold(0u64, |acc, b| acc * 10 + c.arm_of(b) as u64 + 1);
        (code, engine.switches().len(), c.trace().to_vec())
    }
}

/// Timings of one step on one rank.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StepRec {
    /// Whole step.
    pub step_s: f64,
    /// `minibatch_grad` (traced episodes only).
    pub grad_s: f64,
    /// Engine exchange (traced episodes only).
    pub exchange_s: f64,
    /// `Sgd::step` (traced episodes only).
    pub opt_s: f64,
    /// Engine probes (traced episodes only).
    pub probe: Probe,
}

/// What one episode measured: a fresh cluster, engine and model trained
/// for `Shape::steps` steps.
#[derive(Debug)]
pub struct Episode {
    /// Cluster-run call until every rank finished its first step.
    pub setup_s: f64,
    /// Cluster-run call until every rank entered its closure.
    pub mesh_s: f64,
    /// Rank 0's steps, the first (set-up) step included.
    pub steps: Vec<StepRec>,
    /// Rank 0's wall seconds from the end of step 0 to the end of the last.
    pub steady_s: f64,
    /// Process CPU seconds over rank 0's steady window.
    pub cpu_s: f64,
    /// Process minor page faults over rank 0's steady window.
    pub minor_faults: u64,
    /// Bytes rank 0 sent over its steady window.
    pub bytes_sent: u64,
    /// Messages rank 0 sent over its steady window.
    pub messages_sent: u64,
    /// Rank 0's final parameters (every rank's are checked equal).
    pub params: Vec<Tensor>,
    /// Digest of the final parameters.
    pub digest: u64,
    /// Adaptive arm per bucket at the end (see `Engine::controller_state`).
    pub assignment: u64,
    /// Executed adaptive scheme switches.
    pub switches: usize,
    /// Adaptive decision trace.
    pub decisions: Vec<Decision>,
    /// Spans of every rank (traced episodes only).
    pub spans: Vec<Span>,
}

/// Why an episode produced no result. Every variant is a typed failure
/// counted against the steps the episode attempted.
#[derive(Debug, Clone, PartialEq)]
pub enum EpisodeError {
    /// The cluster could not be formed.
    Cluster(String),
    /// A rank could not build its engine.
    Engine { rank: usize, msg: String },
    /// A step failed on a rank.
    Step {
        rank: usize,
        step: usize,
        msg: String,
    },
    /// Ranks ended with different parameters.
    Diverged { rank: usize },
    /// A worker panicked.
    Panicked(String),
}

impl std::fmt::Display for EpisodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EpisodeError::Cluster(msg) => write!(f, "cluster: {msg}"),
            EpisodeError::Engine { rank, msg } => write!(f, "rank {rank} engine: {msg}"),
            EpisodeError::Step { rank, step, msg } => write!(f, "rank {rank} step {step}: {msg}"),
            EpisodeError::Diverged { rank } => {
                write!(
                    f,
                    "rank {rank} ended with parameters that differ from rank 0"
                )
            }
            EpisodeError::Panicked(msg) => write!(f, "worker panicked: {msg}"),
        }
    }
}

/// Per-rank outcome, folded into an [`Episode`].
struct RankOut {
    entry: Instant,
    first_done: Instant,
    steps: Vec<StepRec>,
    steady_s: f64,
    cpu_s: f64,
    minor_faults: u64,
    bytes_sent: u64,
    messages_sent: u64,
    params: Vec<Tensor>,
    controller: (u64, usize, Vec<Decision>),
    spans: Vec<Span>,
}

/// Everything an episode reads.
pub struct EpisodeSpec<'a> {
    /// Which engine and method.
    pub workload: Workload,
    /// Where the ranks run (normally `workload.cluster()`).
    pub cluster: Cluster,
    /// Task and episode size.
    pub shape: &'a Shape,
    /// The training task.
    pub task: &'a MlpClassification,
    /// Initial parameters (shared by every rank).
    pub init: &'a [Tensor],
    /// The run's seed; minibatches derive from it.
    pub seed: u64,
    /// Record spans and read probes.
    pub traced: bool,
    /// Span time origin.
    pub epoch: Instant,
    /// Episode index (span lane).
    pub index: usize,
}

/// Seed of the minibatch `rank` draws at `step`.
pub fn minibatch_seed(seed: u64, step: usize, rank: usize) -> u64 {
    splitmix(splitmix(seed) ^ ((step as u64) << 16) ^ rank as u64)
}

fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over the bit patterns of every parameter.
pub fn digest(params: &[Tensor]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in params.iter().flat_map(|t| t.data()) {
        for b in x.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn train_rank(
    spec: &EpisodeSpec<'_>,
    call: Instant,
    worker: WorkerHandle,
    traffic: Option<Arc<TrafficCounter>>,
) -> Result<RankOut, EpisodeError> {
    let entry = Instant::now();
    let rank = worker.rank();
    let mut rec = Recorder::new(spec.epoch, rank, spec.index);
    let mut engine = Engine::new(spec.workload, worker, traffic)
        .map_err(|msg| EpisodeError::Engine { rank, msg })?;
    let ready = Instant::now();
    if spec.traced {
        rec.push("cluster.mesh", call, entry, None, None);
        rec.push("ddp.engine_new", entry, ready, None, None);
    }
    let mut params = spec.init.to_vec();
    let mut opt = Sgd::new(spec.shape.lr);
    let mut steps = Vec::with_capacity(spec.shape.steps);
    let (mut first_done, mut cpu0, mut faults0, mut bytes0, mut msgs0) = (ready, 0.0, 0, 0, 0);
    let mut last_done = ready;
    for step in 0..spec.shape.steps {
        let fail = |msg: String| EpisodeError::Step { rank, step, msg };
        let t0 = Instant::now();
        let grads = spec.task.minibatch_grad(
            &params,
            spec.shape.batch,
            minibatch_seed(spec.seed, step, rank),
        );
        let t1 = Instant::now();
        let mut probe = Probe::default();
        let mean = engine
            .exchange(&grads, spec.traced.then_some(&mut probe))
            .map_err(fail)?;
        let t2 = Instant::now();
        opt.step(&mut params, &mean)
            .map_err(|e| fail(e.to_string()))?;
        let t3 = Instant::now();
        let secs = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64();
        let mut rec_step = StepRec {
            step_s: secs(t0, t3),
            ..StepRec::default()
        };
        if spec.traced {
            rec_step.grad_s = secs(t0, t1);
            rec_step.exchange_s = secs(t1, t2);
            rec_step.opt_s = secs(t2, t3);
            rec_step.probe = probe;
            let s = rec.push("train.step", t0, t3, None, Some(step));
            rec.push("train.grad", t0, t1, Some(s), Some(step));
            rec.push("ddp.exchange", t1, t2, Some(s), Some(step));
            rec.push("train.opt", t2, t3, Some(s), Some(step));
        }
        steps.push(rec_step);
        last_done = t3;
        if step == 0 {
            first_done = t3;
            if rank == 0 {
                cpu0 = procfs::cpu_seconds().unwrap_or(0.0);
                faults0 = procfs::minor_faults().unwrap_or(0);
            }
            bytes0 = engine.traffic().bytes_sent();
            msgs0 = engine.traffic().messages_sent();
        }
    }
    let (cpu_s, minor_faults) = if rank == 0 {
        (
            procfs::cpu_seconds().unwrap_or(0.0) - cpu0,
            procfs::minor_faults().unwrap_or(0).saturating_sub(faults0),
        )
    } else {
        (0.0, 0)
    };
    Ok(RankOut {
        entry,
        first_done,
        steps,
        steady_s: last_done.duration_since(first_done).as_secs_f64(),
        cpu_s,
        minor_faults,
        bytes_sent: engine.traffic().bytes_sent() - bytes0,
        messages_sent: engine.traffic().messages_sent() - msgs0,
        params,
        controller: engine.controller_state(),
        spans: rec.into_spans(),
    })
}

fn run_cluster<R: Send>(
    cluster: Cluster,
    f: impl Fn(WorkerHandle, Option<Arc<TrafficCounter>>) -> R + Sync,
) -> Result<Vec<R>, String> {
    match cluster {
        Cluster::Sim(netem) => {
            let sim = SimCluster::new_with_netem(WORKERS, netem);
            let traffic = sim.traffic().to_vec();
            Ok(sim.run_workers(|h| {
                let t = Arc::clone(&traffic[h.rank()]);
                f(h, Some(t))
            }))
        }
        Cluster::Tcp => TcpCluster::run_with(WORKERS, TcpOptions::default(), |h| f(h, None))
            .map(|run| run.outputs)
            .map_err(|e| e.to_string()),
    }
}

/// Runs one episode: forms the cluster, trains every rank for
/// `shape.steps` steps and checks that the ranks agree.
pub fn run_episode(spec: &EpisodeSpec<'_>) -> Result<Episode, EpisodeError> {
    let call = Instant::now();
    let outs = catch_unwind(AssertUnwindSafe(|| {
        run_cluster(spec.cluster, |worker, traffic| {
            train_rank(spec, call, worker, traffic)
        })
    }))
    .map_err(|payload| {
        EpisodeError::Panicked(
            payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_default(),
        )
    })?
    .map_err(EpisodeError::Cluster)?
    .into_iter()
    .collect::<Result<Vec<RankOut>, EpisodeError>>()?;
    let digests: Vec<u64> = outs.iter().map(|o| digest(&o.params)).collect();
    if let Some(rank) = digests.iter().position(|&d| d != digests[0]) {
        return Err(EpisodeError::Diverged { rank });
    }
    let since_call = |t: Instant| t.duration_since(call).as_secs_f64();
    let setup_s = outs
        .iter()
        .map(|o| since_call(o.first_done))
        .fold(0.0, f64::max);
    let mesh_s = outs.iter().map(|o| since_call(o.entry)).fold(0.0, f64::max);
    let mut spans = Vec::new();
    let mut outs = outs.into_iter();
    let Some(r0) = outs.next() else {
        return Err(EpisodeError::Cluster("no ranks ran".into()));
    };
    spans.push(r0.spans);
    spans.extend(outs.map(|o| o.spans));
    let (assignment, switches, decisions) = r0.controller;
    Ok(Episode {
        setup_s,
        mesh_s,
        steps: r0.steps,
        steady_s: r0.steady_s,
        cpu_s: r0.cpu_s,
        minor_faults: r0.minor_faults,
        bytes_sent: r0.bytes_sent,
        messages_sent: r0.messages_sent,
        digest: digests[0],
        params: r0.params,
        assignment,
        switches,
        decisions,
        spans: crate::spans::merge(spans),
    })
}

/// Step seconds of the same task on one worker with no exchange.
pub fn single_worker_steps(
    shape: &Shape,
    task: &MlpClassification,
    init: &[Tensor],
    seed: u64,
) -> Vec<f64> {
    let mut params = init.to_vec();
    let mut opt = Sgd::new(shape.lr);
    (0..shape.steps)
        .map(|step| {
            let t0 = Instant::now();
            let grads = task.minibatch_grad(&params, shape.batch, minibatch_seed(seed, step, 0));
            opt.step(&mut params, &grads)
                .expect("gradients match parameters");
            t0.elapsed().as_secs_f64()
        })
        .collect()
}

/// The largest bucket the engines exchange, as the matrix PowerSGD
/// factorizes: `(rows, cols)`.
pub fn largest_bucket(init: &[Tensor]) -> (usize, usize) {
    let plan = BucketPlan::matricized(init, BUCKET_BYTES);
    let b = (0..plan.num_buckets())
        .max_by_key(|&b| plan.elems(b))
        .expect("a model has at least one bucket");
    let dims = plan.bucket_shape(b).dims();
    (dims[0], dims.get(1).copied().unwrap_or(1))
}

/// Seconds per call of the pooled GEMM at PowerSGD's `P = M·Q` shape on
/// the largest bucket.
pub fn gemm_seconds(rows: usize, cols: usize, reps: usize) -> Vec<f64> {
    use gcs_tensor::matrix::{matmul_pooled, MatrixRef};
    let m = Tensor::randn([rows, cols], 11);
    let q = Tensor::randn([cols, POWERSGD_RANK], 12);
    let mut p = vec![0.0f32; rows * POWERSGD_RANK];
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            matmul_pooled(
                gcs_tensor::pool::global(),
                MatrixRef::new(m.data(), rows, cols).expect("shape matches data"),
                MatrixRef::new(q.data(), cols, POWERSGD_RANK).expect("shape matches data"),
                &mut p,
            )
            .expect("dims agree");
            std::hint::black_box(&mut p);
            t0.elapsed().as_secs_f64()
        })
        .collect()
}

/// Seconds per call of the pooled Top-K selection Top-K's encoder runs on
/// the largest bucket.
pub fn topk_seconds(elems: usize, reps: usize) -> Vec<f64> {
    let data = Tensor::randn([elems], 13);
    let k = ((elems as f64 * TOPK_RATIO).round() as usize).clamp(1, elems);
    let mut mags = Vec::new();
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            let sel = gcs_tensor::select::top_k_abs_pooled(
                gcs_tensor::pool::global(),
                std::hint::black_box(data.data()),
                k,
                &mut mags,
            );
            std::hint::black_box(sel);
            t0.elapsed().as_secs_f64()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A task small enough for debug-build tests.
    const TINY: Shape = Shape {
        dim: 16,
        hidden: 24,
        classes: 4,
        samples: 64,
        eval_samples: 32,
        batch: 4,
        steps: 6,
        lr: 0.05,
    };

    fn episode(workload: Workload, seed: u64) -> Episode {
        let (task, _, init) = TINY.problem();
        run_episode(&EpisodeSpec {
            workload,
            cluster: Cluster::Sim(None),
            shape: &TINY,
            task: &task,
            init: &init,
            seed,
            traced: true,
            epoch: Instant::now(),
            index: 0,
        })
        .expect("episode runs")
    }

    #[test]
    fn same_seed_repeats_counts_and_loss_exactly() {
        for workload in Workload::ALL {
            let (a, b) = (episode(workload, 5), episode(workload, 5));
            assert_eq!(a.digest, b.digest, "{}", workload.name());
            assert_eq!(
                (a.bytes_sent, a.messages_sent),
                (b.bytes_sent, b.messages_sent)
            );
            assert_eq!(a.decisions, b.decisions);
            assert_eq!(a.switches, b.switches);
            let wire = |e: &Episode| {
                e.steps
                    .iter()
                    .map(|s| s.probe.wire_bytes())
                    .collect::<Vec<_>>()
            };
            assert_eq!(wire(&a), wire(&b));
            let (_, eval, _) = TINY.problem();
            assert_eq!(
                eval.full_loss(&a.params).to_bits(),
                eval.full_loss(&b.params).to_bits()
            );
        }
    }

    #[test]
    fn another_seed_draws_other_minibatches() {
        let (task, _, init) = TINY.problem();
        for step in 0..3 {
            for rank in 0..WORKERS {
                let g =
                    |seed| task.minibatch_grad(&init, TINY.batch, minibatch_seed(seed, step, rank));
                assert_eq!(digest(&g(5)), digest(&g(5)));
                assert_ne!(digest(&g(5)), digest(&g(6)), "step {step} rank {rank}");
            }
        }
        assert_ne!(minibatch_seed(5, 0, 1), minibatch_seed(5, 1, 0));
        assert_ne!(
            episode(Workload::SimPowerSgd, 5).digest,
            episode(Workload::SimPowerSgd, 6).digest
        );
    }

    #[test]
    fn tcp_reproduces_the_in_process_run() {
        let (task, _, init) = TINY.problem();
        let digest = |cluster, traced| {
            run_episode(&EpisodeSpec {
                workload: Workload::TcpSyncSgd,
                cluster,
                shape: &TINY,
                task: &task,
                init: &init,
                seed: 9,
                traced,
                epoch: Instant::now(),
                index: 0,
            })
            .expect("episode runs")
            .digest
        };
        let sim = digest(Cluster::Sim(None), false);
        assert_eq!(digest(Cluster::Tcp, false), sim);
        assert_eq!(digest(Cluster::Tcp, true), sim);
    }

    #[test]
    fn traced_episode_fills_probes_and_spans() {
        let e = episode(Workload::EmuTopK, 3);
        assert_eq!(e.steps.len(), TINY.steps);
        assert!(e
            .steps
            .iter()
            .all(|s| s.probe.gather_bytes > 0 && s.probe.gather_rounds == 1));
        // Two ranks × (mesh + engine + 4 per step).
        assert_eq!(e.spans.len(), WORKERS * (2 + 4 * TINY.steps));
        assert!(e.bytes_sent > 0 && e.messages_sent > 0);
    }

    #[test]
    fn comm_model_sums_rounds_linearly() {
        let net = NetworkModel::new(1e-3, 1e6);
        let p = Probe {
            ring_bytes: 2000,
            ring_rounds: 2,
            gather_bytes: 500,
            gather_rounds: 1,
            ..Probe::default()
        };
        let want = 2.0 * net.ring_all_reduce(1000, WORKERS) + net.all_gather(500, WORKERS);
        assert!((p.comm_model_s(&net) - want).abs() < 1e-15);
        assert_eq!(Probe::default().comm_model_s(&net), 0.0);
    }
}
