//! The repo benchmark. Three ways in (see `README.md`):
//!
//! * `--workload NAME --seed N --seconds S --trace 0|1` — one workload
//!   in this process; the last stdout line is the result object the
//!   driver reads;
//! * no `--workload` — the suite: every workload in a fresh process
//!   each, untraced then traced, merged into one result file;
//! * `compare A.json B.json` — two result files judged by the bounds.

mod compare;
mod gates;
mod inputs;
mod layers;
mod loadgen;
mod report;
mod setup;
mod stats;
mod trace;
mod workloads;

use ant_bench::json::Json;
use report::{Outcome, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::Cfg;

/// Any failure of the benchmark itself (not of a gate).
pub type BenchError = Box<dyn std::error::Error>;

/// `run_seconds` of `BENCHMARK.json`, and the default seed.
const DEFAULT_SECONDS: f64 = 15.0;
const DEFAULT_SEED: u64 = 17;
const SCHEMA: &str = "ant-benchmark-v1";

const USAGE: &str = "usage:
  run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
  run.sh [--seed N] [--seconds S] [--runs K] [--quick] [--out DIR]
  run.sh compare A.json B.json
workloads: dense_batch conv_batch xfmr_batch decode serve_open engine_wave";

struct Args {
    workload: Option<String>,
    cfg: Cfg,
    runs: usize,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        cfg: Cfg {
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            trace: false,
            quick: false,
            out_dir: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
        },
        runs: 1,
    };
    let mut seconds_given = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            parsed.cfg.quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => {
                parsed.workload = Some(value.clone());
            }
            "--workload" => return Err(format!("unknown workload {value:?}")),
            "--seed" => parsed.cfg.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.cfg.seconds = value.parse().map_err(|_| bad())?;
                seconds_given = true;
                if !(parsed.cfg.seconds > 0.0 && parsed.cfg.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                parsed.cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--runs" => parsed.runs = value.parse().map_err(|_| bad())?,
            "--out" => parsed.cfg.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if parsed.cfg.quick && !seconds_given {
        parsed.cfg.seconds = DEFAULT_SECONDS / 10.0;
    }
    Ok(parsed)
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checked-out commit, read from `.git` files (no subprocess);
/// "unknown" outside a git checkout.
fn git_commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: PathBuf| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let Some(name) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(git.join(name))
        .or_else(|| {
            let packed = read(git.join("packed-refs"))?;
            let line = packed.lines().find(|l| l.ends_with(name))?;
            Some(line.split(' ').next()?.to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// What a result must record to be comparable with another.
fn env_json() -> Json {
    #[cfg(target_arch = "x86_64")]
    let avx2 = std::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    let avx2 = false;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::Obj(vec![
        ("git_commit".into(), Json::Str(git_commit())),
        ("nproc".into(), Json::Num(nproc as f64)),
        ("avx2".into(), Json::Bool(avx2)),
        ("rustc".into(), Json::Str(env!("ANT_BENCH_RUSTC").into())),
        // The path dependencies are built with their default features.
        ("features".into(), Json::Str("obs,chaos".into())),
    ])
}

fn run_json(workload: &str, cfg: &Cfg, o: &Outcome) -> Json {
    let phases = o
        .phases
        .iter()
        .map(|p| {
            Json::Obj(vec![
                ("name".into(), Json::Str(p.name.clone())),
                ("seconds".into(), Json::Num(p.seconds)),
                ("samples".into(), Json::Num(p.samples as f64)),
                (
                    "slices".into(),
                    Json::Arr(
                        p.slices
                            .iter()
                            .map(|s| {
                                Json::Obj(vec![
                                    ("rate".into(), Json::Num(s.rate)),
                                    ("p50_us".into(), Json::Num(s.p50_us)),
                                    ("p99_us".into(), Json::Num(s.p99_us)),
                                    ("samples".into(), Json::Num(s.samples as f64)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    let (attempted, failed) = o.counts();
    Json::Obj(vec![
        ("workload".into(), Json::Str(workload.into())),
        ("seed".into(), Json::Num(cfg.seed as f64)),
        ("seconds".into(), Json::Num(cfg.seconds)),
        ("trace".into(), Json::Num(f64::from(u8::from(cfg.trace)))),
        ("correct".into(), Json::Bool(o.correct())),
        ("attempted".into(), Json::Num(attempted as f64)),
        ("failed".into(), Json::Num(failed as f64)),
        (
            "fail_share".into(),
            Json::Num(failed as f64 / attempted as f64),
        ),
        (
            "gate_failures".into(),
            Json::Arr(o.gate_failures.iter().cloned().map(Json::Str).collect()),
        ),
        ("phases".into(), Json::Arr(phases)),
        ("metrics".into(), o.metrics_json(cfg.trace)),
    ])
}

fn result_doc(runs: Vec<Json>) -> Json {
    Json::Obj(vec![
        ("schema".into(), Json::Str(SCHEMA.into())),
        ("env".into(), env_json()),
        ("runs".into(), Json::Arr(runs)),
    ])
}

fn run_file(cfg: &Cfg, workload: &str) -> PathBuf {
    cfg.out_dir.join(format!(
        "{workload}-seed{}-trace{}.json",
        cfg.seed,
        u8::from(cfg.trace)
    ))
}

/// One workload in this process.
fn run_one(workload: &str, cfg: &Cfg) -> Result<bool, BenchError> {
    std::fs::create_dir_all(&cfg.out_dir)?;
    let mut run = workloads::run(workload, cfg)?;
    run.outcome.set("peak_rss_mb", peak_rss_mb());
    let o = &run.outcome;
    println!(
        "== {workload}  seed {}  {} s  trace {}",
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    for p in &o.phases {
        println!(
            "phase {:<14} {:>7.2} s  n = {}",
            p.name, p.seconds, p.samples
        );
    }
    print!("{}", o.table(cfg.trace));
    if cfg.trace {
        let rows: Vec<Vec<String>> = run
            .trace
            .summary()
            .iter()
            .map(|(name, s)| {
                vec![
                    name.to_string(),
                    s.count.to_string(),
                    format!("{:.3}", s.mean_us()),
                    format!("{:.3}", s.self_ns as f64 / 1e6),
                    format!("{:.3}", s.total_ns as f64 / 1e6),
                ]
            })
            .collect();
        let headers = ["span", "count", "mean_us", "self_ms", "total_ms"];
        print!("{}", ant_bench::render_table(&headers, &rows));
    }
    for failure in &o.gate_failures {
        println!("GATE FAILED: {failure}");
    }
    println!(
        "attempted {}  failed {}  correct {}",
        o.attempted,
        o.failed,
        o.correct()
    );
    std::fs::write(
        run_file(cfg, workload),
        result_doc(vec![run_json(workload, cfg, o)]).render(),
    )?;
    if cfg.trace {
        let path = cfg.out_dir.join(format!("trace-{workload}.json"));
        std::fs::write(path, run.trace.chrome_json(200_000))?;
    }
    println!("{}", o.result_line(cfg.trace));
    Ok(o.correct())
}

/// Every workload, each in a fresh process: `runs` untraced runs, then
/// (unless `--quick`) one traced run; merged into one result file.
fn run_suite(args: &Args) -> Result<bool, BenchError> {
    let cfg = &args.cfg;
    std::fs::create_dir_all(&cfg.out_dir)?;
    let exe = std::env::current_exe()?;
    let mut runs = Vec::new();
    let mut all_correct = true;
    for workload in WORKLOADS {
        let traced = if cfg.quick {
            vec![false]
        } else {
            vec![false, true]
        };
        for trace in traced {
            for _ in 0..if trace { 1 } else { args.runs.max(1) } {
                let child_cfg = Cfg {
                    trace,
                    ..cfg.clone()
                };
                let mut cmd = std::process::Command::new(&exe);
                cmd.args(["--workload", workload])
                    .args(["--seed", &cfg.seed.to_string()])
                    .args(["--seconds", &cfg.seconds.to_string()])
                    .args(["--trace", if trace { "1" } else { "0" }])
                    .arg("--out")
                    .arg(&cfg.out_dir);
                if cfg.quick {
                    cmd.arg("--quick");
                }
                all_correct &= cmd.status()?.success();
                let text = std::fs::read_to_string(run_file(&child_cfg, workload))?;
                let doc = Json::parse(&text)?;
                runs.extend(
                    doc.get("runs")
                        .and_then(Json::as_arr)
                        .unwrap_or(&[])
                        .to_vec(),
                );
            }
        }
    }
    let path = cfg.out_dir.join(format!("suite-seed{}.json", cfg.seed));
    std::fs::write(&path, result_doc(runs).render())?;
    println!("wrote {}", path.display());
    Ok(all_correct)
}

fn run_compare(a: &str, b: &str) -> Result<ExitCode, BenchError> {
    let load =
        |p: &str| -> Result<Json, BenchError> { Ok(Json::parse(&std::fs::read_to_string(p)?)?) };
    let (a, b) = (load(a)?, load(b)?);
    if let Some(why) = compare::env_mismatch(&a, &b) {
        eprintln!("refusing to compare: {why}");
        return Ok(ExitCode::from(2));
    }
    let (table, any_worse) = compare::compare(&a, &b);
    print!("{table}");
    Ok(if any_worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.as_slice() {
        [cmd, a, b] if cmd == "compare" => run_compare(a, b),
        _ => match parse_args(&args) {
            Err(why) => {
                eprintln!("{why}\n{USAGE}");
                return ExitCode::from(2);
            }
            Ok(parsed) => match &parsed.workload {
                Some(w) => run_one(w, &parsed.cfg),
                None => run_suite(&parsed),
            }
            .map(|ok| {
                if ok {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }),
        },
    };
    result.unwrap_or_else(|e| {
        eprintln!("benchmark failed: {e}");
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_arguments_parse() {
        let a = parse_args(&args("--workload decode --seed 9 --seconds 15 --trace 1")).unwrap();
        assert_eq!(a.workload.as_deref(), Some("decode"));
        assert_eq!((a.cfg.seed, a.cfg.seconds, a.cfg.trace), (9, 15.0, true));
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--trace 2")).is_err());
        assert!(parse_args(&args("--seconds 0")).is_err());
        assert!(parse_args(&args("--seed")).is_err());
        let quick = parse_args(&args("--quick")).unwrap();
        assert_eq!(quick.cfg.seconds, DEFAULT_SECONDS / 10.0);
        assert!(quick.workload.is_none());
    }

    #[test]
    fn default_seconds_is_the_declared_run_length() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS)
        );
    }

    /// The smoke test: a whole workload, traced and untraced, in a
    /// fraction of a second (the tiny model keeps a debug build quick).
    #[test]
    fn engine_wave_smoke_run_reports_every_metric() {
        let dir =
            Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("out/test-{}", std::process::id()));
        for trace in [false, true] {
            let cfg = Cfg {
                seed: 5,
                seconds: 0.3,
                trace,
                quick: true,
                out_dir: dir.clone(),
            };
            let run = workloads::run("engine_wave", &cfg).unwrap();
            let o = &run.outcome;
            assert!(o.correct(), "{:?}", o.gate_failures);
            assert!(o.attempted > 0);
            if trace {
                assert!(o.get("engine.lone_rt_us") > 0.0);
                assert!(o.get("plan.linear_us") > 0.0);
                assert!(!run.trace.spans.is_empty());
                assert!(o.get("bench.span_coverage_share") > 0.5);
            } else {
                // `peak_rss_mb` is read by `run_one`, at process exit.
                for d in report::END_TO_END
                    .iter()
                    .filter(|d| d.name != "peak_rss_mb")
                {
                    assert!(o.get(d.name) > 0.0, "{} is 0", d.name);
                }
                assert!(run.trace.spans.is_empty());
            }
        }
        let _ = std::fs::remove_dir_all(dir);
    }
}
