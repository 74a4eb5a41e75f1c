//! The one exchange schedule behind every engine in this crate.
//!
//! An exchange is a set of **units**, one per (bucket, round). A unit is
//! encoded, shipped through one collective per wire span, and absorbed
//! when its spans land. The schedule is a pure function of the bucket plan
//! and the FIFO completion order, so every rank issues the same
//! collectives in the same order, which is what pairs them across ranks:
//!
//! * a ready queue of units starts as `[(b, 0)]` in bucket order;
//! * popping a unit encodes it and submits its spans in order, first
//!   completing the oldest in-flight span whenever the window is full;
//! * completing a unit's last span absorbs it and queues `(b, round+1)`,
//!   or, after the bucket's final round, runs its `finish` at once so
//!   trailing decompression overlaps other buckets' wire time.
//!
//! A unit's next round is queued only after its own completion, the
//! dependency `encode_round` needs. Because every round-0 unit is queued
//! before any round-1 unit, collectives are always issued round-major.
//!
//! Three parameters tell the engines apart:
//!
//! * **link** ([`Link`]): inline on the caller's [`WorkerHandle`], where a
//!   collective completes inside its submit (window 1, optionally over the
//!   live `members` of a degraded ring), or the [`CommEngine`] thread with
//!   a window of `depth` in-flight collectives;
//! * **stream chunking** (`stream_chunk_elems`): `None` ships one whole
//!   payload per unit; `Some(c)` streams the unit through the
//!   compressor's chunked surface in `c`-element wire spans;
//! * **arms**: the compressors and the arm each bucket uses. Fixed engines
//!   pass one compressor; the adaptive engine passes its controller's
//!   assignment.
//!
//! Summable payloads ride the ring all-reduce on their f32 image and are
//! divided by the participant count; everything else is serialized,
//! all-gathered and reduced by the compressor's own `aggregate`. The
//! arithmetic is the same on every link, so the engines agree bit for bit.

use std::collections::VecDeque;
use std::time::Instant;

use gcs_cluster::{CommEngine, Frame, PendingGather, PendingReduce, WorkerHandle};
use gcs_compress::chunked::{
    wire_chunk_spans, ChunkData, ChunkSink, ChunkedDecode, ChunkedHeader, PayloadShell,
};
use gcs_compress::{CompressError, Compressor, Payload};
use gcs_tensor::Tensor;

use crate::exec::{protocol, BucketPlan, BucketTiming, Result};

/// Where a schedule's collectives run.
#[derive(Clone, Copy)]
pub(crate) enum Link<'a> {
    /// On the calling thread. `members` restricts every collective to the
    /// sorted live ranks of a degraded ring, and summable means divide by
    /// their count instead of the world size.
    Inline {
        worker: &'a WorkerHandle,
        members: Option<&'a [usize]>,
    },
    /// On the comm thread, with at most `depth` collectives in flight.
    /// `chunk_elems` selects the staggered chunked ring for whole summable
    /// payloads; streamed spans always ride the plain ring.
    Comm {
        engine: &'a CommEngine,
        depth: usize,
        chunk_elems: Option<usize>,
    },
}

impl<'a> Link<'a> {
    /// The inline link, over all ranks or only the live `members`.
    pub(crate) fn inline(worker: &'a WorkerHandle, members: Option<&'a [usize]>) -> Self {
        Link::Inline { worker, members }
    }

    /// Ranks taking part in each collective.
    fn participants(&self) -> usize {
        match self {
            Link::Inline { worker, members } => members.map_or(worker.world(), <[usize]>::len),
            Link::Comm { engine, .. } => engine.world(),
        }
    }

    /// Starts the collective for one span: the ring for an f32 image (the
    /// chunked ring, if configured, only for a `whole` payload), the
    /// all-gather for serialized bytes.
    fn send(&self, image: Image, whole: bool) -> Result<Wire> {
        Ok(match (*self, image) {
            (Link::Inline { worker, members }, Image::Ring(mut data)) => {
                match members {
                    Some(m) => worker.all_reduce_sum_among(&mut data, m)?,
                    None => worker.all_reduce_sum(&mut data)?,
                }
                Wire::Reduced(data)
            }
            (Link::Inline { worker, members }, Image::Bytes(bytes)) => {
                let frames = match members {
                    Some(m) => worker.all_gather_bytes_among(&bytes, m)?,
                    None => worker.all_gather_bytes(&bytes)?,
                };
                Wire::Gathered(frames, bytes)
            }
            (
                Link::Comm {
                    engine,
                    chunk_elems: c,
                    ..
                },
                Image::Ring(data),
            ) => Wire::Reduce(engine.start_all_reduce_sum(data, c.filter(|_| whole))?),
            (Link::Comm { engine, .. }, Image::Bytes(bytes)) => {
                Wire::Gather(engine.start_all_gather(bytes)?)
            }
        })
    }
}

/// What one span puts on the wire.
enum Image {
    /// An f32 image for the ring all-reduce.
    Ring(Vec<f32>),
    /// Serialized bytes for the all-gather.
    Bytes(Vec<u8>),
}

/// A submitted collective: landed already (inline) as the summed f32
/// image or every rank's frame plus the sent buffer for recycling, or
/// pending on the comm thread.
enum Wire {
    Reduced(Vec<f32>),
    Gathered(Vec<Frame>, Vec<u8>),
    Reduce(PendingReduce),
    Gather(PendingGather),
}

impl Wire {
    /// Blocks until the collective lands as `Reduced` or `Gathered`.
    fn wait(self) -> Result<Wire> {
        Ok(match self {
            Wire::Reduce(pending) => Wire::Reduced(pending.wait()?),
            Wire::Gather(pending) => pending.wait().map(|(f, b)| Wire::Gathered(f, b))?,
            landed => landed,
        })
    }
}

/// One in-flight span: wire span `[lo, hi)` of unit `(bucket, round)`.
/// A whole payload is the single span of its unit, and `shell` rebuilds it
/// when it is summable.
struct Inflight {
    unit: (usize, usize),
    span: (usize, usize),
    last: bool,
    shell: Option<PayloadShell>,
    wire: Wire,
}

/// Runs one exchange of `grads` over `plan`: bucket `b` uses compressor
/// `arms[arm_of(b)]`. Returns the decoded gradients in layer order and one
/// [`BucketTiming`] per bucket.
///
/// # Errors
///
/// Returns [`CompressError::Protocol`] when `plan` was built for another
/// gradient layout or a bucket names a missing arm, and propagates
/// compression and transport errors.
pub(crate) fn run_schedule<C: Compressor>(
    link: Link<'_>,
    stream_chunk_elems: Option<usize>,
    arms: &mut [C],
    arm_of: impl Fn(usize) -> usize,
    grads: &[Tensor],
    plan: &mut BucketPlan,
) -> Result<(Vec<Tensor>, Vec<BucketTiming>)> {
    if !plan.matches(grads) {
        return Err(protocol("bucket plan does not match the gradient layout"));
    }
    let nb = plan.num_buckets();
    let arm: Vec<usize> = (0..nb).map(arm_of).collect();
    if let Some(bad) = arm.iter().find(|&&a| a >= arms.len()) {
        let n = arms.len();
        return Err(protocol(format!("bucket assigned to arm {bad} of {n}")));
    }
    let window = match link {
        Link::Inline { .. } => 1,
        Link::Comm { depth, .. } => depth.max(1),
    };
    let mut s = Schedule {
        link,
        window,
        stream_chunk_elems,
        rounds: arm.iter().map(|&a| arms[a].properties().rounds).collect(),
        arms,
        arm,
        plan,
        timings: vec![BucketTiming::default(); nb],
        ready: (0..nb).map(|b| (b, 0)).collect(),
        inflight: VecDeque::new(),
        decodes: (0..nb).map(|_| None).collect(),
        flats: (0..nb).map(|_| None).collect(),
    };
    loop {
        match s.ready.pop_front() {
            Some((bucket, round)) => s.start_unit(grads, bucket, round)?,
            None if s.inflight.is_empty() => break,
            None => s.complete_front()?,
        }
    }
    for (bucket, t) in s.timings.iter_mut().enumerate() {
        t.bucket = bucket;
    }
    Ok((s.plan.scatter(grads, s.flats)?, s.timings))
}

/// The state of one [`run_schedule`] call.
struct Schedule<'a, C> {
    link: Link<'a>,
    /// In-flight spans allowed before the oldest must complete.
    window: usize,
    stream_chunk_elems: Option<usize>,
    arms: &'a mut [C],
    /// Arm index per bucket.
    arm: Vec<usize>,
    /// Round count per bucket (that of its arm).
    rounds: Vec<usize>,
    plan: &'a mut BucketPlan,
    timings: Vec<BucketTiming>,
    ready: VecDeque<(usize, usize)>,
    inflight: VecDeque<Inflight>,
    /// Active chunked decode per bucket (streamed units only).
    decodes: Vec<Option<ChunkedDecode>>,
    flats: Vec<Option<Tensor>>,
}

impl<C: Compressor> Schedule<'_, C> {
    /// Encodes unit `(bucket, round)` and submits its spans in order.
    fn start_unit(&mut self, grads: &[Tensor], bucket: usize, round: usize) -> Result<()> {
        let t0 = Instant::now();
        let packed = (round == 0)
            .then(|| self.plan.pack(grads, bucket))
            .transpose()?;
        let c = &mut self.arms[self.arm[bucket]];
        let Some(chunk_elems) = self.stream_chunk_elems else {
            let payload = match &packed {
                Some(flat) => c.encode(bucket, flat),
                None => c.encode_round(bucket, round),
            };
            self.plan.reclaim(packed);
            let (shell, image) = match PayloadShell::split(payload?) {
                Ok((shell, data)) => (Some(shell), Image::Ring(data)),
                Err(payload) => {
                    let mut bytes = self.plan.wire_pool.pop().unwrap_or_default();
                    payload.write_bytes(&mut bytes);
                    (None, Image::Bytes(bytes))
                }
            };
            self.timings[bucket].encode_s += t0.elapsed().as_secs_f64();
            self.make_room()?;
            return self.submit((bucket, round), (0, 0), true, shell, image);
        };
        let enc = c.begin_chunked_encode(bucket, round, packed.as_ref());
        self.plan.reclaim(packed);
        let mut enc = enc?;
        let header = enc.header().clone();
        let world = self.link.participants();
        self.decodes[bucket] = Some(c.begin_chunked_decode(bucket, round, &header, world)?);
        // Gather chunk counts must be rank-agreed even when actual byte
        // counts differ (DGC, variance): derive them from the analytic,
        // shape-determined size (summable spans ignore it).
        let analytic = c.compressed_bytes(self.plan.bucket_shape(bucket));
        let spans = wire_chunk_spans(&header, chunk_elems, analytic);
        self.timings[bucket].encode_s += t0.elapsed().as_secs_f64();
        let n = spans.len();
        for (j, (lo, hi)) in spans.into_iter().enumerate() {
            self.make_room()?;
            let t1 = Instant::now();
            let c = &mut self.arms[self.arm[bucket]];
            let image = match header {
                ChunkedHeader::Summable { .. } => {
                    let mut buf = self.plan.float_pool.pop().unwrap_or_default();
                    c.encode_chunk(bucket, &mut enc, lo, hi, ChunkSink::F32(&mut buf))?;
                    Image::Ring(buf)
                }
                ChunkedHeader::Gather { .. } => {
                    let mut bytes = self.plan.wire_pool.pop().unwrap_or_default();
                    c.encode_chunk(bucket, &mut enc, lo, hi, ChunkSink::Bytes(&mut bytes))?;
                    Image::Bytes(bytes)
                }
            };
            self.timings[bucket].encode_s += t1.elapsed().as_secs_f64();
            // Each span rides its own plain ring: bit-identical to the
            // staggered chunked ring's segment.
            self.submit((bucket, round), (lo, hi), j + 1 == n, None, image)?;
        }
        Ok(())
    }

    /// Completes in-flight spans until one more fits the window.
    fn make_room(&mut self) -> Result<()> {
        while self.inflight.len() >= self.window {
            self.complete_front()?;
        }
        Ok(())
    }

    /// Puts one span on the link and queues it for completion.
    fn submit(
        &mut self,
        unit: (usize, usize),
        span: (usize, usize),
        last: bool,
        shell: Option<PayloadShell>,
        image: Image,
    ) -> Result<()> {
        let t = Instant::now();
        let wire = self.link.send(image, shell.is_some())?;
        self.timings[unit.0].comm_s += t.elapsed().as_secs_f64();
        self.inflight.push_back(Inflight {
            unit,
            span,
            last,
            shell,
            wire,
        });
        Ok(())
    }

    /// Waits for the oldest in-flight span and absorbs it (the in-order
    /// absorb invariant). On a unit's last span, queues the bucket's next
    /// round or runs its `finish`.
    fn complete_front(&mut self) -> Result<()> {
        let Some(front) = self.inflight.pop_front() else {
            return Ok(());
        };
        let ((bucket, round), (lo, hi), last) = (front.unit, front.span, front.last);
        let timing = &mut self.timings[bucket];
        let blocking = matches!(front.wire, Wire::Reduce(_) | Wire::Gather(_));
        let t0 = Instant::now();
        let landed = front.wire.wait()?;
        let waited = t0.elapsed().as_secs_f64();
        timing.comm_s += waited;
        timing.exposed_wait_s += if blocking { waited } else { 0.0 };
        let t1 = Instant::now();
        let c = &mut self.arms[self.arm[bucket]];
        match (landed, self.decodes[bucket].as_mut()) {
            (Wire::Reduced(mut data), dec) => {
                timing.ring_bytes += 4 * data.len() as u64;
                timing.ring_rounds += u32::from(last);
                let n = self.link.participants() as f32;
                data.iter_mut().for_each(|x| *x /= n);
                match (dec, front.shell) {
                    (Some(dec), _) => {
                        c.decode_chunk(bucket, dec, lo, hi, ChunkData::F32(&data))?;
                        data.clear();
                        self.plan.float_pool.push(data);
                    }
                    (None, Some(shell)) => c.absorb(bucket, round, shell.assemble(data))?,
                    (None, None) => return Err(protocol(format!("bucket {bucket}: no shell"))),
                }
            }
            (Wire::Gathered(frames, mut bytes), dec) => {
                timing.gather_bytes += bytes.len() as u64;
                timing.gather_rounds += u32::from(last);
                if let Some(dec) = dec {
                    let views: Vec<&[u8]> = frames.iter().map(|f| f.as_slice()).collect();
                    c.decode_chunk(bucket, dec, lo, hi, ChunkData::Frames(&views))?;
                } else {
                    let payloads = frames.iter().map(|f| Payload::from_bytes(f));
                    let payloads = payloads.collect::<gcs_compress::Result<Vec<_>>>()?;
                    c.absorb(bucket, round, c.aggregate(round, &payloads)?)?;
                }
                bytes.clear();
                self.plan.wire_pool.push(bytes);
            }
            _ => return Err(protocol("collective did not land")),
        }
        if last {
            if let Some(dec) = self.decodes[bucket].take() {
                c.finish_chunked_decode(bucket, round, dec)?;
            }
            if round + 1 < self.rounds[bucket] {
                self.ready.push_back((bucket, round + 1));
            } else {
                self.flats[bucket] = Some(c.finish(bucket, self.plan.bucket_shape(bucket))?);
            }
        }
        self.timings[bucket].decode_s += t1.elapsed().as_secs_f64();
        Ok(())
    }
}

/// The bucket plan an engine reuses across steps, rebuilt only when the
/// gradient layout changes. Engines build one at construction, which is
/// where the bucket size is validated.
pub(crate) struct PlanCache {
    bucket_bytes: usize,
    matricize: bool,
    plan: Option<BucketPlan>,
}

impl PlanCache {
    /// An empty cache for `bucket_bytes`-sized buckets, matricized or flat.
    ///
    /// # Errors
    ///
    /// Returns [`CompressError::InvalidConfig`] if `bucket_bytes` is zero.
    pub(crate) fn new(bucket_bytes: usize, matricize: bool) -> Result<Self> {
        if bucket_bytes == 0 {
            let e = CompressError::InvalidConfig("bucket_bytes must be positive".into());
            return Err(e.into());
        }
        Ok(PlanCache {
            bucket_bytes,
            matricize,
            plan: None,
        })
    }

    /// The plan for `grads`' layout, and whether it was just (re)built.
    pub(crate) fn plan_for(&mut self, grads: &[Tensor]) -> (&mut BucketPlan, bool) {
        let fresh = !self.plan.as_ref().is_some_and(|p| p.matches(grads));
        if fresh {
            self.plan = None;
        }
        let (bytes, matricize) = (self.bucket_bytes, self.matricize);
        let plan = self
            .plan
            .get_or_insert_with(|| BucketPlan::build(grads, bytes, matricize));
        (plan, fresh)
    }

    /// Buckets of the current plan (0 before the first exchange).
    pub(crate) fn num_buckets(&self) -> usize {
        self.plan.as_ref().map_or(0, BucketPlan::num_buckets)
    }
}
