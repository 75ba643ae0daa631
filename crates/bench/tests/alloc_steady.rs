//! Steady-state zero-allocation contract of the serving hot path.
//!
//! This integration test installs the counting global allocator
//! ([`ant_bench::alloc::CountingAlloc`]) for its whole process and pins
//! the runtime's strongest perf invariant: once a compiled plan's
//! [`ant_runtime::Scratch`] arena has warmed up,
//! [`ant_runtime::CompiledPlan::forward_rows`] serves requests with
//! **zero** heap allocations — for dense, conv, and attention plans
//! alike, at both batch-1 and batched shapes.
//!
//! Counts are scoped to the measuring thread (and, through
//! [`ant_bench::alloc::AllocScope`], the pool workers a call drives), so
//! the proofs hold however libtest schedules the sibling tests. The
//! telemetry registry, by contrast, is process-wide, and two windows
//! below count its forward records exactly — so every test that runs
//! forwards does so holding [`forwards`].
//!
//! The same windows also prove the telemetry contract: per-layer
//! metrics and span records are being written *during* the
//! zero-allocation window — recording really is allocation-free.

#[global_allocator]
static ALLOC: ant_bench::alloc::CountingAlloc = ant_bench::alloc::CountingAlloc;

use ant_bench::alloc::{alloc_count, is_counting, AllocScope};
use ant_nn::model::{deep_mlp, small_cnn, transformer_block, Sequential};
use ant_nn::qat::{quantize_model, QuantSpec};
use ant_runtime::CompiledPlan;
use ant_tensor::dist::{sample_tensor, Distribution};

/// Serialises the tests' forward passes: whoever holds it is the only
/// thread of this process recording into the global telemetry registry,
/// which is what lets a window assert *exactly* its own forward count.
/// (Model building and quantization record nothing and stay parallel.)
fn forwards() -> std::sync::MutexGuard<'static, ()> {
    static FORWARDS: std::sync::Mutex<()> = std::sync::Mutex::new(());
    // A sibling that failed while holding it has already reported.
    FORWARDS.lock().unwrap_or_else(|e| e.into_inner())
}

fn models() -> Vec<(&'static str, Sequential, usize)> {
    let mut out = Vec::new();
    for (name, mut model, features) in [
        ("mlp", deep_mlp(16, 10, 24, 6, 5), 16usize),
        ("cnn", small_cnn(4, 5), 144),
        ("attention", transformer_block(6, 16, 4, 5), 96),
    ] {
        let calib = sample_tensor(
            Distribution::Gaussian {
                mean: 0.0,
                std: 1.0,
            },
            &[64, features],
            7,
        );
        quantize_model(&mut model, &calib, QuantSpec::default()).unwrap();
        out.push((name, model, features));
    }
    out
}

fn workloads() -> Vec<(&'static str, CompiledPlan, usize)> {
    models()
        .into_iter()
        .map(|(name, model, features)| {
            // threads=1 keeps the partitioning deterministic (and inline)
            // so the allocation count is exact regardless of machine
            // width.
            let plan = CompiledPlan::from_quantized_strict(&model)
                .unwrap()
                .with_threads(1);
            (name, plan, features)
        })
        .collect()
}

#[test]
fn steady_state_forward_rows_allocates_nothing() {
    assert!(is_counting(), "counting allocator must be installed");
    const BATCH: usize = 8;
    let workloads = workloads();
    let _forwards = forwards();
    for (name, mut plan, features) in workloads {
        let x = sample_tensor(
            Distribution::Gaussian {
                mean: 0.0,
                std: 1.0,
            },
            &[BATCH, features],
            11,
        );
        let mut out = Vec::new();
        // Warmup: drive every scratch buffer (both batch shapes) to its
        // high-water mark.
        for _ in 0..3 {
            plan.forward_rows(x.as_slice(), BATCH, &mut out).unwrap();
            plan.forward_rows(&x.as_slice()[..features], 1, &mut out)
                .unwrap();
        }
        plan.forward_rows(x.as_slice(), BATCH, &mut out).unwrap();
        let warm = out.clone();
        // Telemetry snapshot taken *outside* the counted window (the
        // snapshot itself allocates; recording must not).
        let obs_before = ant_obs::global().snapshot();
        // Steady state: not one allocation across many requests.
        let before = alloc_count();
        for _ in 0..50 {
            plan.forward_rows(&x.as_slice()[..features], 1, &mut out)
                .unwrap();
            plan.forward_rows(x.as_slice(), BATCH, &mut out).unwrap();
        }
        let allocs = alloc_count() - before;
        assert_eq!(
            allocs, 0,
            "{name}: {allocs} steady-state allocations in 100 requests"
        );
        // And the answers did not go stale while we were busy not
        // allocating.
        assert_eq!(out, warm, "{name}: steady-state output drifted");
        // The zero-allocation window above ran with metrics and spans
        // live: every forward call and every layer execution must have
        // landed in the registry, or the tentpole claim ("recording
        // never allocates") was vacuously tested against a dead path.
        {
            let delta = ant_obs::global().snapshot().delta_since(&obs_before);
            let hist_count = |family: &str| -> u64 {
                match delta.get(family, None) {
                    Some(series) => match &series.value {
                        ant_obs::Value::Histogram(h) => h.count(),
                        _ => panic!("{family} is not a histogram"),
                    },
                    None => panic!("{name}: no {family} series recorded in the window"),
                }
            };
            assert_eq!(
                hist_count("ant_forward_time_ns"),
                100,
                "{name}: every forward call in the zero-alloc window must be timed"
            );
            let layer_calls: u64 = ant_runtime::obs::LAYER_KINDS
                .iter()
                .filter_map(|kind| delta.get("ant_layer_time_ns", Some(kind.as_str())))
                .map(|series| match &series.value {
                    ant_obs::Value::Histogram(h) => h.count(),
                    _ => panic!("ant_layer_time_ns is not a histogram"),
                })
                .sum();
            assert!(
                layer_calls >= 100,
                "{name}: per-layer timings missing from the zero-alloc window ({layer_calls})"
            );
            // Spans too: the fixed-capacity rings were being written
            // during the window (span readback allocates, recording
            // does not — which is exactly what the window proved).
            let spans = ant_obs::snapshot_spans();
            assert!(
                spans.iter().any(|s| s.name == "forward"),
                "{name}: no forward spans retained"
            );
            assert!(
                spans.iter().any(|s| s.name.starts_with("layer.")),
                "{name}: no per-layer spans retained"
            );
        }
    }
}

#[test]
fn steady_state_decode_steps_allocate_nothing() {
    // The decode-phase twin of the contract above: once a session's
    // packed KV cache is open (all bytes preallocated) and the scratch
    // arena is warm, every further decode step — quantize the new K/V
    // row into the cache, attend over the packed history, project —
    // runs without touching the allocator, with telemetry live.
    assert!(is_counting(), "counting allocator must be installed");
    let (seq, dim) = (8usize, 16usize);
    let mut model = ant_nn::model::decoder_block(seq, dim, 2, 27);
    let calib = sample_tensor(
        Distribution::Gaussian {
            mean: 0.0,
            std: 1.0,
        },
        &[24, seq * dim],
        7,
    );
    quantize_model(&mut model, &calib, QuantSpec::default()).unwrap();
    let mut plan = CompiledPlan::from_quantized_strict(&model)
        .unwrap()
        .with_threads(1);
    const STEPS: usize = 50;
    let capacity = 8 + STEPS;
    let mut a = plan.open_session(capacity).unwrap();
    let mut b = plan.open_session(capacity).unwrap();
    let tokens = sample_tensor(
        Distribution::Gaussian {
            mean: 0.0,
            std: 1.0,
        },
        &[2 * capacity, dim],
        17,
    );
    let tokens = tokens.as_slice();
    let mut out = Vec::new();
    let _forwards = forwards();
    // Warmup: prefill both sessions, then a few steps at both batch
    // shapes (coalesced pair and single session) to reach every scratch
    // high-water mark.
    plan.prefill(&mut a, &tokens[..2 * dim], &mut out).unwrap();
    plan.prefill(&mut b, &tokens[..3 * dim], &mut out).unwrap();
    for t in 3..6 {
        plan.decode_steps(
            &mut [&mut a, &mut b],
            &tokens[t * 2 * dim..(t * 2 + 2) * dim],
            &mut out,
        )
        .unwrap();
        plan.decode_steps(&mut [&mut a], &tokens[t * dim..(t + 1) * dim], &mut out)
            .unwrap();
    }
    let kv_before = a.kv_bytes();
    let obs_before = ant_obs::global().snapshot();
    // Steady state: not one allocation per decode step, either shape.
    let before = alloc_count();
    for i in 0..STEPS / 2 {
        let t = 8 + i;
        plan.decode_steps(
            &mut [&mut a, &mut b],
            &tokens[t * 2 * dim..(t * 2 + 2) * dim],
            &mut out,
        )
        .unwrap();
        plan.decode_steps(&mut [&mut b], &tokens[t * dim..(t + 1) * dim], &mut out)
            .unwrap();
    }
    let allocs = alloc_count() - before;
    assert_eq!(
        allocs, 0,
        "decode: {allocs} steady-state allocations in {STEPS} steps"
    );
    // The cache footprint is fixed at open — appending tokens must not
    // have grown it.
    assert_eq!(a.kv_bytes(), kv_before, "decode: KV cache grew per step");
    // Telemetry was live through the window: every decode step is a
    // timed forward with per-layer records.
    {
        let delta = ant_obs::global().snapshot().delta_since(&obs_before);
        let forwards = match &delta
            .get("ant_forward_time_ns", None)
            .expect("decode steps must be timed")
            .value
        {
            ant_obs::Value::Histogram(h) => h.count(),
            _ => panic!("ant_forward_time_ns is not a histogram"),
        };
        assert_eq!(
            forwards as usize, STEPS,
            "every decode step in the zero-alloc window must be timed"
        );
        let attn_layers = delta
            .get("ant_layer_time_ns", Some("packed_attn"))
            .map(|series| match &series.value {
                ant_obs::Value::Histogram(h) => h.count(),
                _ => panic!("ant_layer_time_ns is not a histogram"),
            })
            .unwrap_or(0);
        assert!(
            attn_layers >= STEPS as u64,
            "causal attention layer timings missing from the window ({attn_layers})"
        );
    }
}

#[test]
fn steady_state_holds_with_mmap_borrowed_panels() {
    // Same contract as above, but the plan's weight images are borrowed
    // straight from a mapped v2 artifact instead of owned buffers: the
    // storage refactor must not smuggle allocations (or copies) into the
    // hot path.
    assert!(is_counting(), "counting allocator must be installed");
    use ant_runtime::{MappedArtifact, ModelArtifact};
    const BATCH: usize = 8;
    let models = models();
    let _forwards = forwards();
    for (name, model, features) in models {
        let path = std::env::temp_dir().join(format!(
            "ant-alloc-steady-{}-{name}.antm",
            std::process::id()
        ));
        ModelArtifact::from_model(&model)
            .unwrap()
            .save_path(&path)
            .unwrap();
        let mapped = MappedArtifact::open(&path).unwrap();
        if cfg!(all(unix, target_endian = "little")) {
            assert!(mapped.is_zero_copy(), "{name}: mapped load copied");
        }
        let mut plan = mapped.compile_strict().unwrap().with_threads(1);
        assert!(
            plan.borrowed_layer_count() > 0,
            "{name}: no borrowed weight images"
        );
        let x = sample_tensor(
            Distribution::Gaussian {
                mean: 0.0,
                std: 1.0,
            },
            &[BATCH, features],
            11,
        );
        let mut out = Vec::new();
        for _ in 0..3 {
            plan.forward_rows(x.as_slice(), BATCH, &mut out).unwrap();
            plan.forward_rows(&x.as_slice()[..features], 1, &mut out)
                .unwrap();
        }
        let before = alloc_count();
        for _ in 0..50 {
            plan.forward_rows(&x.as_slice()[..features], 1, &mut out)
                .unwrap();
            plan.forward_rows(x.as_slice(), BATCH, &mut out).unwrap();
        }
        let allocs = alloc_count() - before;
        assert_eq!(
            allocs, 0,
            "{name}: {allocs} steady-state allocations with borrowed panels"
        );
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn warmup_allocations_are_one_time() {
    assert!(is_counting());
    let (_, mut plan, features) = workloads().pop().unwrap();
    let x = sample_tensor(
        Distribution::Gaussian {
            mean: 0.0,
            std: 1.0,
        },
        &[4, features],
        13,
    );
    let mut out = Vec::new();
    let _forwards = forwards();
    plan.forward_rows(x.as_slice(), 4, &mut out).unwrap();
    let after_first = alloc_count();
    plan.forward_rows(x.as_slice(), 4, &mut out).unwrap();
    // The second identical call re-touches every buffer the first one
    // grew; any allocation here would grow without bound under traffic.
    assert_eq!(alloc_count(), after_first, "second call allocated");
}

#[test]
fn sibling_thread_allocations_are_not_counted() {
    // The scoping contract itself: what another thread allocates while
    // this one measures — libtest's sibling tests, in practice — never
    // shows up in this thread's tally, and does show up in its own.
    assert!(is_counting());
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Barrier;
    // A barrier, not a channel: waiting on it never allocates, so the
    // hand-offs themselves stay out of both tallies.
    let gate = Barrier::new(2);
    let sibling_allocs = AtomicU64::new(0);
    std::thread::scope(|s| {
        s.spawn(|| {
            gate.wait();
            let before = alloc_count();
            for i in 0..100usize {
                std::hint::black_box(vec![0u8; 64 + i]);
            }
            sibling_allocs.store(alloc_count() - before, Ordering::SeqCst);
            gate.wait();
        });
        let scope = AllocScope::thread();
        let before = alloc_count();
        // The two rendezvous force the sibling's burst to fall entirely
        // inside this thread's window.
        gate.wait();
        gate.wait();
        assert_eq!(alloc_count() - before, 0, "a sibling's burst was counted");
        assert_eq!(scope.allocs(), 0, "a thread scope counted a sibling");
    });
    let sibling_allocs = sibling_allocs.load(Ordering::SeqCst);
    assert!(
        sibling_allocs >= 100,
        "sibling saw {sibling_allocs} of its own"
    );
}

#[test]
fn pool_scope_counts_its_workers_and_only_them() {
    assert!(is_counting());
    use std::sync::atomic::{AtomicUsize, Ordering};
    let pool = ant_runtime::WorkerPool::new(3);
    let scope = AllocScope::with_pool(&pool);
    let before = alloc_count();
    // Three tasks that each wait for the other two to have started, so
    // each of the pool's three threads runs exactly one — and allocates
    // exactly once.
    let started = AtomicUsize::new(0);
    pool.run(3, &|_| {
        started.fetch_add(1, Ordering::SeqCst);
        while started.load(Ordering::SeqCst) < 3 {
            std::thread::yield_now();
        }
        std::hint::black_box(vec![0u8; 4096]);
    });
    assert_eq!(alloc_count() - before, 1, "the caller ran one task");
    assert_eq!(scope.allocs(), 3, "the scope covers the two workers too");
    assert!(scope.bytes() >= 3 * 4096);
}

#[test]
fn steady_state_pooled_forward_rows_allocates_nothing() {
    // The zero-allocation contract on the *pooled* path: a batch large
    // enough that every GEMM fans out over a dedicated two-thread pool,
    // so the pair kernel's staging buffer, the fused writeback and the
    // dispatch itself run on a worker as well as on this thread — and
    // the scope counts both.
    assert!(is_counting());
    const BATCH: usize = 64;
    let features = 64usize;
    let mut model = deep_mlp(features, 10, 256, 3, 5);
    let calib = sample_tensor(
        Distribution::Gaussian {
            mean: 0.0,
            std: 1.0,
        },
        &[32, features],
        7,
    );
    quantize_model(&mut model, &calib, QuantSpec::default()).unwrap();
    let pool = std::sync::Arc::new(ant_runtime::WorkerPool::new(2));
    let mut plan = CompiledPlan::from_quantized_strict(&model)
        .unwrap()
        .with_pool(std::sync::Arc::clone(&pool))
        .with_threads(2);
    assert!(
        ant_runtime::gemm::partition(BATCH, 256, 256, 2) != (1, 1),
        "the hidden layers must actually dispatch"
    );
    let x = sample_tensor(
        Distribution::Gaussian {
            mean: 0.0,
            std: 1.0,
        },
        &[BATCH, features],
        11,
    );
    let mut out = Vec::new();
    let _forwards = forwards();
    for _ in 0..3 {
        plan.forward_rows(x.as_slice(), BATCH, &mut out).unwrap();
    }
    let warm = out.clone();
    let scope = AllocScope::with_pool(&pool);
    for _ in 0..50 {
        plan.forward_rows(x.as_slice(), BATCH, &mut out).unwrap();
    }
    assert_eq!(
        scope.allocs(),
        0,
        "pooled steady state allocated ({} bytes)",
        scope.bytes()
    );
    assert_eq!(out, warm, "pooled steady-state output drifted");
}
