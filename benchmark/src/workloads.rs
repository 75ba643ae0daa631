//! The six workloads. Each follows the full set-up path, proves its
//! outputs, warms up, and then measures for `--seconds` of wall clock.
//!
//! What the shared end-to-end metrics mean per workload:
//!
//! | workload | `throughput_per_s` | `latency_p50_us` / `latency_p99_us` |
//! |---|---|---|
//! | `dense_batch`, `conv_batch`, `xfmr_batch` | rows/s at the batch size | batch-1 row latency |
//! | `decode` | tokens/s, 4 sessions offline | gap between streamed tokens |
//! | `serve_open` | OK answers/s on the 8000 req/s rung | latency from due time at 1000 req/s |
//! | `engine_wave` | rows/s through the engine | round trip of a 32-row wave |

use crate::gates::{bit_equal, plan_agrees, ref_err};
use crate::inputs::{
    stream_seed, ModelSpec, SplitMix64, Stream, CONV, DECODER, DECODE_DIM, DENSE, GEN_TOKENS,
    PROMPT_TOKENS, TINY, XFMR,
};
use crate::layers::{
    engine_lone, gemm_layer, gemm_shape, http_json_layers, pool_counts, pool_layer, pool_width,
    setup_layers, single_layers,
};
use crate::loadgen::{max_rate_ok, poisson_schedule, run_rung, Rung, RATES};
use crate::report::Outcome;
use crate::setup::{build_repeated, Built};
use crate::stats::{median, Timeline};
use crate::trace::{Trace, Tracer};
use crate::BenchError;
use ant_bench::antd::{Daemon, DaemonConfig};
use ant_bench::http::{read_response, write_request};
use ant_bench::json::Json;
use ant_bench::promcheck;
use ant_runtime::{BatchPolicy, CompiledPlan, DecodeSession, Engine, EngineStats, RequestId};
use ant_tensor::Tensor;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// What one invocation was asked to do.
#[derive(Debug, Clone)]
pub struct Cfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Smoke-test mode: one set-up repetition.
    pub quick: bool,
    pub out_dir: PathBuf,
}

/// A finished run: its numbers and, when traced, its spans.
pub struct Run {
    pub outcome: Outcome,
    pub trace: Trace,
}

/// Distinct request rows a workload rotates through.
const ROWS: usize = 64;
/// Latencies a phase keeps per slice: several times what today's
/// fastest direct phase produces (4 k calls/s over a 1 s slice).
const SLICE_CAP: usize = 1 << 14;
/// Client threads and connections: at most `nproc`, at most two.
fn clients() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

struct Ctx<'a> {
    cfg: &'a Cfg,
    out: Outcome,
    trace: Trace,
    tracing: bool,
    epoch: Instant,
}

impl Ctx<'_> {
    fn tracer(&self, tid: u32) -> Tracer {
        if self.tracing {
            Tracer::on(self.epoch, tid)
        } else {
            Tracer::off()
        }
    }

    fn artifact_path(&self, workload: &str) -> Result<PathBuf, BenchError> {
        let dir = self.cfg.out_dir.join("tmp");
        std::fs::create_dir_all(&dir)?;
        Ok(dir.join(format!("{workload}-{}.antm", std::process::id())))
    }

    /// Books the units a phase attempted and failed.
    fn count(&mut self, attempted: u64, failed: u64) {
        self.out.attempted += attempted;
        self.out.failed += failed;
    }

    /// The workload's set-up, repeated, with `setup_s` its median.
    /// `extra` runs inside each timed repetition (see `build_repeated`).
    fn setup<X>(
        &mut self,
        workload: &str,
        spec: &ModelSpec,
        extra: impl FnMut(&Built) -> Result<X, BenchError>,
    ) -> Result<(Built, X), BenchError> {
        let path = self.artifact_path(workload)?;
        let reps = if self.cfg.trace || self.cfg.quick {
            1
        } else {
            3
        };
        let (built, x, setup_s, reps) = build_repeated(spec, self.cfg.seed, &path, reps, extra)?;
        self.out.set("setup_s", setup_s);
        self.out.set("bench.setup_reps", reps as f64);
        Ok((built, x))
    }

    /// `engine.*` counters of a phase, from the engine's own stats.
    fn engine_counters(&mut self, before: EngineStats, after: EngineStats) {
        let batches = after.batches - before.batches;
        let decode_batches = after.decode_batches - before.decode_batches;
        let out = &mut self.out;
        out.set("engine.batches", batches as f64);
        out.set(
            "engine.mean_batch",
            (after.completed - before.completed) as f64 / batches.max(1) as f64,
        );
        out.set("engine.largest_batch", after.largest_batch as f64);
        out.set(
            "engine.decode_mean_batch",
            (after.decode_tokens - before.decode_tokens) as f64 / decode_batches.max(1) as f64,
        );
        out.set("engine.restarts", after.restarts as f64);
        out.set("engine.poisoned", after.poisoned as f64);
    }
}

/// Runs `workload` under `cfg`.
pub fn run(workload: &str, cfg: &Cfg) -> Result<Run, BenchError> {
    let mut ctx = Ctx {
        cfg,
        out: Outcome::default(),
        trace: Trace::default(),
        tracing: false,
        epoch: Instant::now(),
    };
    match workload {
        "dense_batch" => batch_workload(workload, &DENSE, &mut ctx)?,
        "conv_batch" => batch_workload(workload, &CONV, &mut ctx)?,
        "xfmr_batch" => batch_workload(workload, &XFMR, &mut ctx)?,
        "decode" => decode_workload(&mut ctx)?,
        "serve_open" => serve_workload(&mut ctx)?,
        "engine_wave" => wave_workload(&mut ctx)?,
        other => return Err(format!("unknown workload {other:?}").into()),
    }
    let _ = std::fs::remove_file(ctx.artifact_path(workload)?);
    Ok(Run {
        outcome: ctx.out,
        trace: ctx.trace,
    })
}

/// Runs the workload's timed pass. Untraced runs measure for
/// `--seconds`. Traced runs measure a third of that with spans off,
/// then a third with spans on: the difference is the tracing overhead,
/// and the traced pass feeds the per-layer numbers.
fn timed(
    ctx: &mut Ctx,
    mut pass: impl FnMut(&mut Ctx, f64) -> Result<(), BenchError>,
) -> Result<(), BenchError> {
    if !ctx.cfg.trace {
        return pass(ctx, ctx.cfg.seconds);
    }
    let secs = ctx.cfg.seconds / 3.0;
    pass(ctx, secs)?;
    let untraced = ctx.out.get("throughput_per_s");
    let (tasks0, parks0) = pool_counts();
    ctx.tracing = true;
    ctx.epoch = Instant::now();
    pass(ctx, secs)?;
    ctx.tracing = false;
    let traced = ctx.out.get("throughput_per_s");
    let (tasks1, parks1) = pool_counts();
    ctx.out.set("pool.tasks", tasks1 - tasks0);
    ctx.out.set("pool.parks", parks1 - parks0);
    ctx.out.set("bench.untraced_primary", untraced);
    ctx.out.set("bench.traced_primary", traced);
    ctx.out
        .set("bench.trace_overhead_share", 1.0 - traced / untraced);
    ctx.out
        .set("bench.span_coverage_share", ctx.trace.coverage());
    ctx.out.set("bench.spans", ctx.trace.spans.len() as f64);
    ctx.out.set("bench.spans_dropped", ctx.trace.dropped as f64);
    Ok(())
}

// ---------------------------------------------------------------------
// Workloads 1–3: a plan called directly, batched then one row at a time
// ---------------------------------------------------------------------

struct PlanDrive {
    plan: CompiledPlan,
    rows: Tensor,
    expected: Vec<f32>,
}

/// One timed phase: its samples, and how many units came out wrong.
struct PhaseOut {
    timeline: Timeline,
    failed: u64,
}

impl PhaseOut {
    fn units(&self) -> u64 {
        self.timeline.samples() * self.timeline.units
    }
}

impl PlanDrive {
    /// Calls `forward_rows` at `batch` for `secs`, rotating through the
    /// request rows and checking every answer bit for bit.
    fn phase(
        &mut self,
        batch: usize,
        secs: f64,
        span: &'static str,
        tr: &mut Tracer,
    ) -> Result<PhaseOut, BenchError> {
        let in_f = self.rows.dims()[1];
        let out_f = self.expected.len() / ROWS;
        let x = self.rows.as_slice();
        let dur = Duration::from_secs_f64(secs);
        let mut timeline = Timeline::new(dur.as_nanos() as u64, batch as u64, SLICE_CAP);
        let (mut failed, mut call) = (0u64, 0u64);
        let mut out = Vec::new();
        let start = Instant::now();
        loop {
            let t = Instant::now();
            if t.duration_since(start) >= dur {
                break;
            }
            let c = call as usize % (ROWS / batch);
            tr.begin("request", call);
            tr.span(span, call, || {
                self.plan
                    .forward_rows(&x[c * batch * in_f..][..batch * in_f], batch, &mut out)
            })?;
            let end = Instant::now();
            let ok = tr.span("check", call, || {
                bit_equal(&out, &self.expected[c * batch * out_f..][..batch * out_f])
            });
            tr.end();
            timeline.push((end - start).as_nanos() as u64, (end - t).as_nanos() as u64);
            failed += if ok { 0 } else { batch as u64 };
            call += 1;
        }
        Ok(PhaseOut { timeline, failed })
    }
}

fn batch_workload(name: &str, spec: &ModelSpec, ctx: &mut Ctx) -> Result<(), BenchError> {
    let seed = ctx.cfg.seed;
    let (mut built, ()) = ctx.setup(name, spec, |_| Ok(()))?;

    let rows = spec.rows(ROWS, seed);
    let expected = plan_agrees(
        &mut built.plan,
        &mut built.reference,
        &rows,
        spec.batch,
        &mut ctx.out,
    )?;
    if !ctx.out.gates_passed() {
        return Ok(());
    }

    // One thread: with the pool's worker in play the two-thread
    // speed-up flips between 1.0× and 1.25× for seconds at a time on a
    // two-vCPU VM (the worker parks on a condvar between layers and an
    // idle vCPU is slow to wake), which made these numbers spread two
    // to five times wider across runs. The pool's share is reported
    // per layer instead (`pool.speedup_*`).
    let mut drive = PlanDrive {
        plan: built.plan.clone().with_threads(1),
        rows,
        expected,
    };
    // Warm-up: both shapes, so Scratch reaches its high-water mark.
    drive.phase(spec.batch, 0.3, "warm", &mut Tracer::off())?;
    drive.phase(1, 0.2, "warm", &mut Tracer::off())?;

    let batch = spec.batch;
    timed(ctx, |ctx, secs| {
        let mut tr = ctx.tracer(0);
        let a = drive.phase(batch, secs * 2.0 / 3.0, "plan.forward_rows.batch", &mut tr)?;
        let b = drive.phase(1, secs / 3.0, "plan.forward_rows.b1", &mut tr)?;
        ctx.trace.absorb(tr);
        ctx.count(a.units() + b.units(), a.failed + b.failed);
        ctx.out.phase("batch", &a.timeline);
        ctx.out.phase("batch1", &b.timeline);
        let (rate, lat) = (a.timeline.best().rate, b.timeline.best());
        ctx.out.set("throughput_per_s", rate);
        ctx.out.set("latency_p50_us", lat.p50_us);
        ctx.out.set("e2e.latency_p99_us", lat.p99_us);
        ctx.out.set("e2e.rows_per_s", rate);
        ctx.out.set("e2e.row_p50_us", lat.p50_us);
        ctx.out.set("plan.row_p99_us", lat.p99_us);
        ctx.out.set("plan.forward_batch_us", a.timeline.mean_us());
        ctx.out.set("plan.forward_b1_us", b.timeline.mean_us());
        Ok(())
    })?;

    if ctx.cfg.trace {
        setup_layers(spec, &built, seed, &mut ctx.out)?;
        let shape = gemm_shape(&built.reference);
        gemm_layer(
            shape,
            batch * shape.m_per_row,
            shape.m_per_row,
            seed,
            &mut ctx.out,
        );
        pool_layer(&mut ctx.out);
        let head = Tensor::from_vec(
            drive.rows.as_slice()[..batch * spec.in_features].to_vec(),
            &[batch, spec.in_features],
        )?;
        let whole_us = ctx.out.get("plan.forward_batch_us");
        single_layers(&mut built.reference, &head, 1, whole_us, &mut ctx.out)?;
        // The same calls with the pool at its full width.
        let mut pooled = PlanDrive {
            plan: built.plan.clone(),
            rows: drive.rows.clone(),
            expected: drive.expected.clone(),
        };
        let a = pooled.phase(batch, 1.0, "pooled", &mut Tracer::off())?;
        let b = pooled.phase(1, 0.5, "pooled", &mut Tracer::off())?;
        ctx.out.set(
            "pool.speedup_batch",
            a.timeline.best().rate / ctx.out.get("e2e.rows_per_s"),
        );
        ctx.out.set(
            "pool.speedup_b1",
            ctx.out.get("e2e.row_p50_us") / b.timeline.best().p50_us,
        );
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Workload 4: autoregressive decode, offline and streamed
// ---------------------------------------------------------------------

const MAX_TOKENS: usize = PROMPT_TOKENS + GEN_TOKENS;
const OFFLINE_SESSIONS: usize = 4;
/// Streamed steps compared against the direct reference in the gate
/// (the timed phase goes on to check every token).
const STREAM_GATE_STEPS: usize = 16;

struct DecodeDrive {
    plan: CompiledPlan,
    /// One prompt per offline session, `[PROMPT_TOKENS × dim]` each.
    prompts: Vec<Vec<f32>>,
    /// Per prompt, the `GEN_TOKENS + 1` rows a lone session produces:
    /// row 0 is the prefill's last row, row `i` decode step `i`. Each
    /// row is the next step's input (token t+1 needs token t).
    expected: Vec<Vec<f32>>,
}

fn last_row(rows: &[f32]) -> &[f32] {
    &rows[rows.len() - DECODE_DIM..]
}

impl DecodeDrive {
    fn want(&self, prompt: usize, step: usize) -> &[f32] {
        &self.expected[prompt][step * DECODE_DIM..][..DECODE_DIM]
    }

    /// One lone session per prompt: the reference every batched and
    /// streamed token is compared with. Returns the mean cache fill
    /// over the generation steps and the median lone step time.
    fn generate_reference(&mut self) -> Result<(f64, f64), BenchError> {
        let mut out = Vec::new();
        let (mut fill, mut step_us) = (Vec::new(), Vec::new());
        for prompt in &self.prompts {
            let mut session = self.plan.open_session(MAX_TOKENS)?;
            self.plan.prefill(&mut session, prompt, &mut out)?;
            let mut rows = last_row(&out).to_vec();
            for _ in 0..GEN_TOKENS {
                let x = last_row(&rows).to_vec();
                let t = Instant::now();
                self.plan.decode_steps(&mut [&mut session], &x, &mut out)?;
                step_us.push(t.elapsed().as_nanos() as f64 / 1e3);
                fill.push(session.tokens() as f64 / MAX_TOKENS as f64);
                rows.extend_from_slice(&out);
            }
            self.expected.push(rows);
        }
        Ok((
            fill.iter().sum::<f64>() / fill.len() as f64,
            median(&step_us),
        ))
    }

    /// Offline: `OFFLINE_SESSIONS` sessions stepped together through
    /// `decode_steps`, cycle after cycle, every token checked.
    fn offline(&mut self, secs: f64, tr: &mut Tracer) -> Result<PhaseOut, BenchError> {
        let dur = Duration::from_secs_f64(secs);
        let mut timeline = Timeline::new(dur.as_nanos() as u64, OFFLINE_SESSIONS as u64, SLICE_CAP);
        let (mut failed, mut cycle) = (0u64, 0u64);
        let mut out = Vec::new();
        let start = Instant::now();
        'cycles: while start.elapsed() < dur {
            tr.begin("cycle", cycle);
            let mut sessions = Vec::with_capacity(OFFLINE_SESSIONS);
            let mut x = Vec::with_capacity(OFFLINE_SESSIONS * DECODE_DIM);
            for p in 0..OFFLINE_SESSIONS {
                let mut s = tr.span("plan.open_session", cycle, || {
                    self.plan.open_session(MAX_TOKENS)
                })?;
                tr.span("plan.prefill", cycle, || {
                    self.plan.prefill(&mut s, &self.prompts[p], &mut out)
                })?;
                x.extend_from_slice(last_row(&out));
                sessions.push(s);
            }
            for step in 1..=GEN_TOKENS {
                let t = Instant::now();
                if t.duration_since(start) >= dur {
                    tr.end();
                    break 'cycles;
                }
                let mut refs: Vec<&mut DecodeSession> = sessions.iter_mut().collect();
                tr.span("plan.decode_steps", cycle, || {
                    self.plan.decode_steps(&mut refs, &x, &mut out)
                })?;
                let end = Instant::now();
                for p in 0..OFFLINE_SESSIONS {
                    let got = &out[p * DECODE_DIM..][..DECODE_DIM];
                    failed += u64::from(!bit_equal(got, self.want(p, step)));
                }
                x.clone_from(&out);
                timeline.push((end - start).as_nanos() as u64, (end - t).as_nanos() as u64);
            }
            tr.end();
            cycle += 1;
        }
        Ok(PhaseOut { timeline, failed })
    }
}

/// What one streaming client saw.
struct StreamLog {
    /// Time from `open_session` to the first token, per session.
    ttft: Timeline,
    /// Gap between consecutive tokens of a session.
    itl: Timeline,
    tokens: u64,
    failed: u64,
}

/// One closed-loop streaming client: open → prefill → `GEN_TOKENS` ×
/// (decode → wait) → close, from `start` until `deadline`. The loop is
/// closed because token t+1 needs token t.
fn stream_client(
    engine: &Engine,
    drive: &DecodeDrive,
    client: usize,
    stride: usize,
    (start, deadline): (Instant, Instant),
    tr: &mut Tracer,
) -> Result<StreamLog, String> {
    let err = |e: ant_runtime::RuntimeError| e.to_string();
    let since = |t: Instant| (t - start).as_nanos() as u64;
    let phase_ns = (deadline - start).as_nanos() as u64;
    let mut log = StreamLog {
        ttft: Timeline::new(phase_ns, 1, 256),
        itl: Timeline::new(phase_ns, 1, SLICE_CAP),
        tokens: 0,
        failed: 0,
    };
    let mut cycle = 0usize;
    while Instant::now() < deadline {
        let p = (cycle * stride + client) % drive.prompts.len();
        let req = (cycle * stride + client) as u64;
        let opened = Instant::now();
        tr.begin("session", req);
        let sid = tr
            .span("engine.open_session", req, || {
                engine.open_session(MAX_TOKENS)
            })
            .map_err(err)?;
        tr.begin("engine.prefill", req);
        let id = tr
            .span("engine.submit", req, || {
                engine.submit_prefill(sid, &drive.prompts[p])
            })
            .map_err(err)?;
        let mut row = tr
            .span("engine.wait", req, || engine.wait(id))
            .map_err(err)?;
        tr.end();
        let mut prev = Instant::now();
        log.ttft
            .push(since(prev), (prev - opened).as_nanos() as u64);
        log.failed += u64::from(!bit_equal(&row, drive.want(p, 0)));
        log.tokens += 1;
        for step in 1..=GEN_TOKENS {
            if prev >= deadline {
                break;
            }
            tr.begin("engine.decode_step", req);
            let id = tr
                .span("engine.submit", req, || engine.submit_decode(sid, &row))
                .map_err(err)?;
            row = tr
                .span("engine.wait", req, || engine.wait(id))
                .map_err(err)?;
            tr.end();
            let now = Instant::now();
            log.itl.push(since(now), (now - prev).as_nanos() as u64);
            prev = now;
            log.failed += u64::from(!bit_equal(&row, drive.want(p, step)));
            log.tokens += 1;
        }
        tr.span("engine.close_session", req, || engine.close_session(sid));
        tr.end();
        cycle += 1;
    }
    Ok(log)
}

fn decode_workload(ctx: &mut Ctx) -> Result<(), BenchError> {
    let seed = ctx.cfg.seed;
    let spec = &DECODER;
    let (mut built, ()) = ctx.setup("decode", spec, |_| Ok(()))?;

    let prompts = crate::inputs::gaussian(
        OFFLINE_SESSIONS,
        spec.in_features,
        stream_seed(seed, Stream::Prompts),
    );
    let mut drive = DecodeDrive {
        plan: built.plan.clone(),
        prompts: prompts
            .as_slice()
            .chunks(spec.in_features)
            .map(<[f32]>::to_vec)
            .collect(),
        expected: Vec::new(),
    };

    // Gate 1: the packed causal path quantizes K/V rows through the KV
    // codec, which the fake-quant `Sequential` knows nothing of, so the
    // reference here is the packed full-sequence causal forward:
    // prefill plus teacher-forced decode steps must reproduce its rows.
    let (mut out, mut full) = (Vec::new(), Vec::new());
    let prompt = &drive.prompts[0];
    drive.plan.forward_rows(prompt, 1, &mut full)?;
    let split = (PROMPT_TOKENS - STREAM_GATE_STEPS) * DECODE_DIM;
    let mut session = drive.plan.open_session(MAX_TOKENS)?;
    let kv_reserved = session.kv_bytes();
    drive
        .plan
        .prefill(&mut session, &prompt[..split], &mut out)?;
    let mut got = out.clone();
    for token in prompt[split..].chunks(DECODE_DIM) {
        drive
            .plan
            .decode_steps(&mut [&mut session], token, &mut out)?;
        got.extend_from_slice(&out);
    }
    ref_err(&got, &full, PROMPT_TOKENS).gate(
        "incremental decode vs the full-sequence causal forward, by token",
        PROMPT_TOKENS,
        &mut ctx.out,
    );
    drop(session);
    let first = Tensor::from_vec(prompt.clone(), &[1, spec.in_features])?;

    // Gate 2: four sessions stepped together vs each alone, bit-equal.
    let (used_share, step_s1_us) = drive.generate_reference()?;
    let probe = drive.offline(0.3, &mut Tracer::off())?;
    ctx.out.check(probe.failed == 0, || {
        format!(
            "{} of {} batched decode rows differ from lone-session rows",
            probe.failed,
            probe.units()
        )
    });

    // Gate 3: streamed through the engine vs direct, first 16 steps.
    let engine = Engine::new(drive.plan.clone(), BatchPolicy::default());
    let one = stream_once(&engine, &drive)?;
    ctx.out.check(one == 0, || {
        format!("{one} of the first {STREAM_GATE_STEPS} streamed tokens differ from direct decode")
    });
    if !ctx.out.gates_passed() {
        return Ok(());
    }

    ctx.out.set("kv.reserved_bytes", kv_reserved as f64);
    ctx.out
        .set("kv.bytes_per_token", kv_reserved as f64 / MAX_TOKENS as f64);
    ctx.out.set("kv.used_share", used_share);
    ctx.out.set("plan.decode_step_s1_us", step_s1_us);

    let n_clients = clients();
    timed(ctx, |ctx, secs| {
        let mut tr = ctx.tracer(0);
        let a = drive.offline(secs * 0.4, &mut tr)?;
        ctx.trace.absorb(tr);
        ctx.count(a.units(), a.failed);
        ctx.out.phase("offline", &a.timeline);
        let tokens_per_s = a.timeline.best().rate;
        ctx.out.set("throughput_per_s", tokens_per_s);
        ctx.out.set("e2e.tokens_per_s", tokens_per_s);
        ctx.out.set("plan.decode_step_s4_us", a.timeline.mean_us());

        let before = engine.stats();
        let stream_for = Duration::from_secs_f64(secs * 0.6);
        let start = Instant::now();
        let mut tracers: Vec<Tracer> = (0..n_clients).map(|c| ctx.tracer(c as u32 + 1)).collect();
        let logs: Vec<Result<StreamLog, String>> = std::thread::scope(|s| {
            let workers: Vec<_> = tracers
                .iter_mut()
                .enumerate()
                .map(|(c, tr)| {
                    let (engine, drive) = (&engine, &drive);
                    s.spawn(move || {
                        stream_client(engine, drive, c, n_clients, (start, start + stream_for), tr)
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("streaming client panicked"))
                .collect()
        });
        for tr in tracers {
            ctx.trace.absorb(tr);
        }
        let mut ttft = Timeline::new(stream_for.as_nanos() as u64, 1, 0);
        let mut itl = ttft.clone();
        for log in logs {
            let log = log?;
            ctx.count(log.tokens, log.failed);
            ttft.merge(log.ttft);
            itl.merge(log.itl);
        }
        ctx.out.phase("streamed", &itl);
        ctx.out.phase("streamed.ttft", &ttft);
        let gaps = itl.best();
        ctx.out.set("latency_p50_us", gaps.p50_us);
        ctx.out.set("e2e.latency_p99_us", gaps.p99_us);
        ctx.out.set("e2e.itl_p50_us", gaps.p50_us);
        ctx.out.set("e2e.itl_p99_us", gaps.p99_us);
        // A session a run: too few first tokens to slice.
        ctx.out.set("e2e.ttft_p50_us", ttft.pooled_us(0.50));
        ctx.engine_counters(before, engine.stats());
        Ok(())
    })?;

    if ctx.cfg.trace {
        let spans = ctx.trace.summary();
        let mean_us = |name: &str| spans.get(name).map_or(0.0, |s| s.mean_us());
        ctx.out
            .set("kv.open_session_us", mean_us("plan.open_session"));
        ctx.out.set("plan.prefill_us", mean_us("plan.prefill"));
        ctx.out.set("engine.submit_us", mean_us("engine.submit"));
        setup_layers(spec, &built, seed, &mut ctx.out)?;
        let shape = gemm_shape(&built.reference);
        gemm_layer(shape, OFFLINE_SESSIONS, 1, seed, &mut ctx.out);
        pool_layer(&mut ctx.out);
        let whole_us = ctx.out.get("plan.prefill_us");
        single_layers(
            &mut built.reference,
            &first,
            pool_width(),
            whole_us,
            &mut ctx.out,
        )?;
        let lone = ctx.out.get("e2e.itl_p50_us");
        ctx.out.set("engine.lone_rt_us", lone);
        ctx.out
            .set("engine.window_share", (lone - step_s1_us) / lone);
    }
    Ok(())
}

/// One streamed session of `STREAM_GATE_STEPS` steps; returns how many
/// of its tokens differ from the direct reference.
fn stream_once(engine: &Engine, drive: &DecodeDrive) -> Result<u64, BenchError> {
    let sid = engine.open_session(MAX_TOKENS)?;
    let mut row = engine.wait(engine.submit_prefill(sid, &drive.prompts[0])?)?;
    let mut wrong = u64::from(!bit_equal(&row, drive.want(0, 0)));
    for step in 1..=STREAM_GATE_STEPS {
        row = engine.wait(engine.submit_decode(sid, &row)?)?;
        wrong += u64::from(!bit_equal(&row, drive.want(0, step)));
    }
    engine.close_session(sid);
    Ok(wrong)
}

// ---------------------------------------------------------------------
// Workload 5: antd behind an open-loop Poisson load
// ---------------------------------------------------------------------

const MODEL_NAME: &str = "tiny";

/// One keep-alive connection and what it has seen.
struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    /// Answers by class: 200, 429, 5xx.
    statuses: [u64; 3],
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, BenchError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            stream,
            statuses: [0; 3],
        })
    }

    /// One exchange: `wire` out, a response in, the body's `output`
    /// compared bit for bit with `want`. Any I/O or parse error is a
    /// failed request.
    fn infer(&mut self, wire: &[u8], want: &[f32], req: u64, tr: &mut Tracer) -> bool {
        tr.begin("request", req);
        let sent = tr.span("http.write_request", req, || self.stream.write_all(wire));
        let resp = tr.span("http.read_response", req, || {
            read_response(&mut self.reader)
        });
        let ok = tr.span("check", req, || {
            let (Ok(()), Ok(resp)) = (sent, resp) else {
                return false;
            };
            match resp.status {
                200 => self.statuses[0] += 1,
                429 => self.statuses[1] += 1,
                500..=599 => self.statuses[2] += 1,
                _ => {}
            }
            resp.status == 200 && output_of(&resp.body_str()).is_some_and(|o| bit_equal(&o, want))
        });
        tr.end();
        ok
    }
}

/// The `output` row of an infer answer.
fn output_of(body: &str) -> Option<Vec<f32>> {
    Json::parse(body)
        .ok()?
        .get("output")?
        .as_arr()?
        .iter()
        .map(|v| v.as_f64().map(|n| n as f32))
        .collect()
}

/// `GET path` on a fresh connection; the body when answered 200.
fn http_get(addr: SocketAddr, path: &str) -> Result<String, BenchError> {
    let mut conn = Conn::open(addr)?;
    write_request(&mut conn.stream, "GET", path, None)?;
    let resp = read_response(&mut conn.reader)?;
    if resp.status != 200 {
        return Err(format!("GET {path} answered {}", resp.status).into());
    }
    Ok(resp.body_str())
}

/// Engine counters scraped from the daemon's own `/metrics`.
fn scrape_engine(addr: SocketAddr) -> Result<(f64, f64, f64), BenchError> {
    let samples = promcheck::validate(&http_get(addr, "/metrics")?)?;
    let value = |name: &str| {
        samples
            .iter()
            .find(|s| s.name == name)
            .map_or(0.0, |s| s.value)
    };
    // Smallest bucket bound that already holds every batch.
    let total = value("ant_engine_batch_size_count");
    let largest = samples
        .iter()
        .filter(|s| s.name == "ant_engine_batch_size_bucket" && s.value >= total)
        .filter_map(|s| {
            let le = s.labels.split("le=\"").nth(1)?.split('"').next()?;
            le.parse::<f64>().ok()
        })
        .fold(f64::INFINITY, f64::min);
    Ok((
        value("ant_engine_requests_total"),
        value("ant_engine_batches_total"),
        if largest.is_finite() { largest } else { 0.0 },
    ))
}

fn serve_workload(ctx: &mut Ctx) -> Result<(), BenchError> {
    let seed = ctx.cfg.seed;
    let spec = &TINY;
    let mut start_ms = 0.0;
    let (mut built, daemon) = ctx.setup("serve_open", spec, |built| {
        let t = Instant::now();
        let daemon = Daemon::start(DaemonConfig {
            models: vec![(MODEL_NAME.to_string(), built.path.clone())],
            ..DaemonConfig::default()
        })?;
        start_ms = t.elapsed().as_secs_f64() * 1e3;
        Ok(daemon)
    })?;
    ctx.out.set("antd.start_ms", start_ms);
    let addr = daemon.local_addr();

    let rows = spec.rows(ROWS, seed);
    let expected = plan_agrees(
        &mut built.plan,
        &mut built.reference,
        &rows,
        32,
        &mut ctx.out,
    )?;
    let out_f = expected.len() / ROWS;
    let infer_path = format!("/v1/models/{MODEL_NAME}/infer");
    let wires: Vec<Vec<u8>> = rows
        .as_slice()
        .chunks(spec.in_features)
        .map(|row| {
            let input = row.iter().map(|v| Json::Num(f64::from(*v))).collect();
            let body = Json::Obj(vec![("input".into(), Json::Arr(input))]).render();
            let mut wire = Vec::new();
            write_request(
                &mut wire,
                "POST",
                &infer_path,
                Some(("application/json", body.as_bytes())),
            )
            .expect("writing to a Vec cannot fail");
            wire
        })
        .collect();
    let want = |i: usize| &expected[(i % ROWS) * out_f..][..out_f];

    // Gate: antd's answers vs the direct plan output, bit-equal.
    let mut conns: Vec<Conn> = (0..clients())
        .map(|_| Conn::open(addr))
        .collect::<Result<_, _>>()?;
    for (i, wire) in wires.iter().enumerate() {
        let ok = conns[0].infer(wire, want(i), i as u64, &mut Tracer::off());
        ctx.out.check(ok, || {
            format!("antd's answer to row {i} differs from the direct plan")
        });
    }
    if !ctx.out.gates_passed() {
        return Ok(());
    }
    // Warm-up: closed loop on every connection.
    let warm_until = Instant::now() + Duration::from_millis(300);
    std::thread::scope(|s| {
        for conn in &mut conns {
            let (wires, want) = (&wires, &want);
            s.spawn(move || {
                let mut i = 0;
                while Instant::now() < warm_until {
                    conn.infer(&wires[i % ROWS], want(i), 0, &mut Tracer::off());
                    i += 1;
                }
            });
        }
    });

    let mut rng = SplitMix64::new(stream_seed(seed, Stream::Arrivals));
    let mut ladder: Vec<Rung> = Vec::new();
    let mut scraped = (0.0, 0.0, 0.0);
    timed(ctx, |ctx, secs| {
        let before = scrape_engine(addr)?;
        conns.iter_mut().for_each(|c| c.statuses = [0; 3]);
        let duration = Duration::from_secs_f64(secs / RATES.len() as f64);
        ladder.clear();
        let mut tracers: Vec<Tracer> = (0..conns.len()).map(|c| ctx.tracer(c as u32 + 1)).collect();
        for rate in RATES {
            let schedule = poisson_schedule(f64::from(rate), duration.as_nanos() as u64, &mut rng);
            let rung = run_rung(
                rate,
                &schedule,
                duration,
                &mut conns,
                &mut tracers,
                |conn, i, tr| conn.infer(&wires[i % ROWS], want(i), i as u64, tr),
            );
            ctx.count(rung.log.sent, rung.log.failed);
            ctx.out.phase(&format!("r{rate}"), &rung.log.answered);
            ladder.push(rung);
        }
        for tr in tracers {
            ctx.trace.absorb(tr);
        }
        let after = scrape_engine(addr)?;
        scraped = (after.0 - before.0, after.1 - before.1, after.2);
        let (r1000, top) = (&ladder[2], &ladder[RATES.len() - 1]);
        let lat = r1000.log.answered.best();
        ctx.out
            .set("throughput_per_s", top.log.answered.best().rate);
        ctx.out.set("latency_p50_us", lat.p50_us);
        ctx.out.set("e2e.latency_p99_us", lat.p99_us);
        Ok(())
    })?;

    for rung in &ladder {
        let r = rung.rate;
        // Whole-rung readings: on an overloaded rung latency climbs
        // from slice to slice, so no single slice stands for it.
        let answered = &rung.log.answered;
        ctx.out
            .set(&format!("antd.r{r}.p50_us"), answered.pooled_us(0.50));
        ctx.out
            .set(&format!("antd.r{r}.p99_us"), answered.pooled_us(0.99));
        ctx.out.set(&format!("antd.r{r}.ok_share"), rung.ok_share());
    }
    let sum = |f: fn(&Rung) -> u64| ladder.iter().map(f).sum::<u64>() as f64;
    ctx.out
        .set("e2e.max_rate_ok", f64::from(max_rate_ok(&ladder)));
    ctx.out.set("loadgen.late_p99_us", ladder[2].late_p99_us());
    ctx.out.set("loadgen.sent", sum(|r| r.log.sent));
    ctx.out.set("loadgen.ok", sum(|r| r.log.ok));
    ctx.out.set("loadgen.failed", sum(|r| r.log.failed));
    ctx.out.set("loadgen.dropped", sum(|r| r.dropped));
    let status = |k: usize| conns.iter().map(|c| c.statuses[k]).sum::<u64>() as f64;
    ctx.out.set("antd.resp_200", status(0));
    ctx.out.set("antd.resp_429", status(1));
    ctx.out.set("antd.resp_5xx", status(2));
    ctx.out.set("engine.batches", scraped.1);
    ctx.out
        .set("engine.mean_batch", scraped.0 / scraped.1.max(1.0));
    ctx.out.set("engine.largest_batch", scraped.2);

    if ctx.cfg.trace {
        // An idle round trip that touches no engine.
        let mut idle = Vec::new();
        let conn = &mut conns[0];
        for _ in 0..200 {
            let t = Instant::now();
            write_request(&mut conn.stream, "GET", "/healthz", None)?;
            read_response(&mut conn.reader)?;
            idle.push(t.elapsed().as_nanos() as f64 / 1e3);
        }
        ctx.out.set("antd.rtt_idle_us", median(&idle));
        setup_layers(spec, &built, seed, &mut ctx.out)?;
        let shape = gemm_shape(&built.reference);
        gemm_layer(shape, 32, 1, seed, &mut ctx.out);
        pool_layer(&mut ctx.out);
        // The same rows called directly: what engine and antd add.
        let mut drive = PlanDrive {
            plan: built.plan.clone(),
            rows: rows.clone(),
            expected: expected.clone(),
        };
        let b1_us = drive
            .phase(1, 0.2, "direct", &mut Tracer::off())?
            .timeline
            .mean_us();
        ctx.out.set("plan.forward_b1_us", b1_us);
        let row = &rows.as_slice()[..spec.in_features];
        let head = Tensor::from_vec(row.to_vec(), &[1, spec.in_features])?;
        single_layers(
            &mut built.reference,
            &head,
            pool_width(),
            b1_us,
            &mut ctx.out,
        )?;
        engine_lone(drive.plan, row, b1_us, &mut ctx.out)?;
        ctx.out.set(
            "antd.infer_overhead_us",
            ctx.out.get("antd.r250.p50_us") - ctx.out.get("engine.lone_rt_us"),
        );
        http_json_layers(&mut ctx.out);
    }

    drop(conns);
    daemon.shutdown();
    daemon.join();
    Ok(())
}

// ---------------------------------------------------------------------
// Workload 6: full waves through an in-process engine
// ---------------------------------------------------------------------

fn wave_workload(ctx: &mut Ctx) -> Result<(), BenchError> {
    let seed = ctx.cfg.seed;
    let spec = &TINY;
    let (mut built, ()) = ctx.setup("engine_wave", spec, |_| Ok(()))?;

    let policy = BatchPolicy::default();
    let wave = policy.max_batch;
    let rows = spec.rows(ROWS, seed);
    let expected = plan_agrees(
        &mut built.plan,
        &mut built.reference,
        &rows,
        wave,
        &mut ctx.out,
    )?;
    let (in_f, out_f) = (spec.in_features, expected.len() / ROWS);
    let engine = Engine::new(built.plan.clone(), policy);

    // A wave is `wave` rows (= max_batch, so the batch fills at once and
    // the gather window never waits): submitted in one go, collected in
    // one go, every answer checked.
    let x = rows.as_slice();
    let row_of = |w: u64, i: usize| (w as usize * wave + i) % ROWS;
    let submit_wave = |w: u64, tr: &mut Tracer| -> Result<Vec<RequestId>, BenchError> {
        tr.span("engine.submit_all", w, || {
            (0..wave)
                .map(|i| Ok(engine.submit(&x[row_of(w, i) * in_f..][..in_f])?))
                .collect()
        })
    };
    let collect_wave = |w: u64, ids: &[RequestId], tr: &mut Tracer| -> Result<u64, BenchError> {
        tr.span("engine.wait_all", w, || {
            let mut wrong = 0u64;
            for (i, id) in ids.iter().enumerate() {
                let got = engine.wait(*id)?;
                wrong += u64::from(!bit_equal(&got, &expected[row_of(w, i) * out_f..][..out_f]));
            }
            Ok(wrong)
        })
    };
    let run_wave = |w: u64, tr: &mut Tracer| -> Result<u64, BenchError> {
        let ids = submit_wave(w, tr)?;
        collect_wave(w, &ids, tr)
    };

    // Gate: the engine's answers vs the direct plan output, bit-equal.
    for w in 0..(ROWS / wave) as u64 {
        let wrong = run_wave(w, &mut Tracer::off())?;
        ctx.out.check(wrong == 0, || {
            format!("{wrong} engine answers of wave {w} differ from the direct plan")
        });
    }
    if !ctx.out.gates_passed() {
        return Ok(());
    }
    let warm = Instant::now();
    while warm.elapsed() < Duration::from_millis(300) {
        run_wave(0, &mut Tracer::off())?;
    }

    timed(ctx, |ctx, secs| {
        let before = engine.stats();
        let dur = Duration::from_secs_f64(secs);
        let mut tr = ctx.tracer(0);
        let mut timeline = Timeline::new(dur.as_nanos() as u64, wave as u64, 4 * SLICE_CAP);
        let (mut failed, mut w) = (0u64, 0u64);
        let start = Instant::now();
        // Two waves in flight: the next is submitted before the last is
        // collected, so the engine's worker always finds a full batch
        // queued and never sleeps. With one wave in flight both threads
        // sleep once per wave, and rows/s then halves or doubles for
        // minutes at a time with how quickly the host wakes an idle
        // vCPU — a property of the VM, not of the engine.
        let mut submitted = Instant::now();
        let mut in_flight = submit_wave(0, &mut tr)?;
        loop {
            let t = Instant::now();
            tr.begin("wave", w);
            let next = if t.duration_since(start) < dur {
                Some(submit_wave(w + 1, &mut tr)?)
            } else {
                None
            };
            failed += collect_wave(w, &in_flight, &mut tr)?;
            tr.end();
            let end = Instant::now();
            timeline.push(
                (end - start).as_nanos() as u64,
                (end - submitted).as_nanos() as u64,
            );
            w += 1;
            match next {
                Some(ids) => (submitted, in_flight) = (t, ids),
                None => break,
            }
        }
        ctx.trace.absorb(tr);
        ctx.count(w * wave as u64, failed);
        ctx.out.phase("waves", &timeline);
        let best = timeline.best();
        ctx.out.set("throughput_per_s", best.rate);
        ctx.out.set("latency_p50_us", best.p50_us);
        ctx.out.set("e2e.latency_p99_us", best.p99_us);
        ctx.out.set("e2e.rows_per_s", best.rate);
        ctx.engine_counters(before, engine.stats());
        Ok(())
    })?;

    if ctx.cfg.trace {
        setup_layers(spec, &built, seed, &mut ctx.out)?;
        let shape = gemm_shape(&built.reference);
        gemm_layer(shape, wave, 1, seed, &mut ctx.out);
        pool_layer(&mut ctx.out);
        // The same rows called directly: what the engine adds on top.
        let mut drive = PlanDrive {
            plan: built.plan.clone(),
            rows: rows.clone(),
            expected: expected.clone(),
        };
        let a = drive.phase(wave, 0.3, "direct", &mut Tracer::off())?;
        let b = drive.phase(1, 0.2, "direct", &mut Tracer::off())?;
        let (batch_us, b1_us) = (a.timeline.mean_us(), b.timeline.mean_us());
        ctx.out.set("plan.forward_batch_us", batch_us);
        ctx.out.set("plan.forward_b1_us", b1_us);
        let head = Tensor::from_vec(x[..wave * in_f].to_vec(), &[wave, in_f])?;
        single_layers(
            &mut built.reference,
            &head,
            pool_width(),
            batch_us,
            &mut ctx.out,
        )?;
        engine_lone(drive.plan, &x[..in_f], b1_us, &mut ctx.out)?;
        // Per-row submit cost inside a full wave, from the spans.
        let submit_all = ctx
            .trace
            .summary()
            .get("engine.submit_all")
            .map_or(0.0, |s| s.mean_us());
        ctx.out.set("engine.submit_us", submit_all / wave as f64);
    }
    Ok(())
}
