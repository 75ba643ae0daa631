//! `compare A.json B.json`: one row per workload × end-to-end metric,
//! B judged against A (the base) by the metric's own bound.

use crate::report::{Better, MetricDef, END_TO_END, WORKLOADS};
use crate::stats::{median, quartile_spread};
use ant_bench::json::Json;
use ant_bench::render_table;

/// How B reads against A on one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The run-to-run spread is wider than the bound and the runs
    /// overlap: the data cannot tell.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges B's runs against A's. Medians are compared by the bound;
/// where either side's quartile spread exceeds the bound the row is
/// unresolved unless every run of one side beats every run of the
/// other.
pub fn judge(a: &[f64], b: &[f64], def: &MetricDef) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    if a.is_empty() || b.is_empty() || ma == 0.0 {
        return Verdict::Unresolved;
    }
    let worse_by = match def.better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    let beats = |x: f64, y: f64| match def.better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    if quartile_spread(a).max(quartile_spread(b)) > def.bound {
        let all = |f: &dyn Fn(f64, f64) -> bool| b.iter().all(|&y| a.iter().all(|&x| f(y, x)));
        return if all(&beats) {
            Verdict::Better
        } else if worse_by > def.bound && all(&|y, x| beats(x, y)) {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > def.bound {
        Verdict::Worse
    } else if worse_by < -def.bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// The environment fields two results must share to be comparable.
const ENV_KEYS: [&str; 4] = ["nproc", "avx2", "rustc", "features"];

/// Why two result files cannot be compared, if they cannot.
pub fn env_mismatch(a: &Json, b: &Json) -> Option<String> {
    ENV_KEYS.iter().find_map(|key| {
        let field = |doc: &Json| doc.get("env").and_then(|e| e.get(key)).map(Json::render);
        let (va, vb) = (field(a), field(b));
        (va.is_none() || va != vb).then(|| {
            format!(
                "results differ in {key}: {} vs {}",
                va.as_deref().map_or("missing", str::trim),
                vb.as_deref().map_or("missing", str::trim)
            )
        })
    })
}

/// The untraced values of `metric` on `workload`, one per run.
fn values(doc: &Json, workload: &str, metric: &str) -> Vec<f64> {
    doc.get("runs")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter(|r| {
            r.get("workload").and_then(Json::as_str) == Some(workload)
                && r.get("trace").and_then(Json::as_f64) == Some(0.0)
        })
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// The comparison table and whether any row is `worse`.
pub fn compare(a: &Json, b: &Json) -> (String, bool) {
    let mut rows = Vec::new();
    let mut any_worse = false;
    for workload in WORKLOADS {
        for def in &END_TO_END {
            let (va, vb) = (values(a, workload, def.name), values(b, workload, def.name));
            if va.is_empty() && vb.is_empty() {
                continue;
            }
            let verdict = judge(&va, &vb, def);
            any_worse |= verdict == Verdict::Worse;
            let (ma, mb) = (median(&va), median(&vb));
            rows.push(vec![
                workload.to_string(),
                def.name.to_string(),
                format!("{ma:.4}"),
                format!("{mb:.4}"),
                format!("{:.4} (B/A, base A = {ma:.4} {})", mb / ma, def.unit),
                format!("{} by {:.0}%", def.better.as_str(), def.bound * 100.0),
                format!("{}/{}", va.len(), vb.len()),
                verdict.as_str().to_string(),
            ]);
        }
    }
    let table = render_table(
        &[
            "workload", "metric", "A", "B", "ratio", "bound", "runs", "verdict",
        ],
        &rows,
    );
    (table, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: MetricDef = MetricDef {
        name: "latency",
        unit: "us",
        better: Better::Lower,
        bound: 0.05,
    };
    const HIGHER: MetricDef = MetricDef {
        name: "rate",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.05,
    };

    #[test]
    fn medians_are_judged_by_the_bound() {
        assert_eq!(judge(&[100.0], &[104.0], &LOWER), Verdict::Same);
        assert_eq!(judge(&[100.0], &[106.0], &LOWER), Verdict::Worse);
        assert_eq!(judge(&[100.0], &[94.0], &LOWER), Verdict::Better);
        assert_eq!(judge(&[100.0], &[94.0], &HIGHER), Verdict::Worse);
        assert_eq!(judge(&[100.0], &[106.0], &HIGHER), Verdict::Better);
        assert_eq!(judge(&[], &[1.0], &LOWER), Verdict::Unresolved);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_the_runs_do_not_overlap() {
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(
            judge(&noisy, &[95.0, 130.0, 85.0], &LOWER),
            Verdict::Unresolved
        );
        assert_eq!(judge(&noisy, &[70.0, 60.0, 75.0], &LOWER), Verdict::Better);
        assert_eq!(
            judge(&noisy, &[170.0, 160.0, 175.0], &LOWER),
            Verdict::Worse
        );
    }

    fn doc(nproc: f64, value: f64) -> Json {
        Json::parse(&format!(
            r#"{{"env": {{"nproc": {nproc}, "avx2": true, "rustc": "r", "features": "obs"}},
                "runs": [
                  {{"workload": "decode", "trace": 0,
                    "metrics": {{"latency_p50_us": {{"value": {value}, "unit": "us"}}}}}},
                  {{"workload": "decode", "trace": 1,
                    "metrics": {{"latency_p50_us": {{"value": 1, "unit": "us"}}}}}}
                ]}}"#
        ))
        .unwrap()
    }

    #[test]
    fn compare_reads_untraced_runs_and_flags_worse() {
        let (table, worse) = compare(&doc(2.0, 100.0), &doc(2.0, 150.0));
        assert!(worse);
        assert!(table.contains("decode") && table.contains("worse"));
        assert_eq!(table.lines().count(), 3, "one row: traced runs are ignored");
        let (_, worse) = compare(&doc(2.0, 100.0), &doc(2.0, 101.0));
        assert!(!worse);
    }

    #[test]
    fn differing_environments_are_refused() {
        assert_eq!(env_mismatch(&doc(2.0, 1.0), &doc(2.0, 2.0)), None);
        let why = env_mismatch(&doc(2.0, 1.0), &doc(4.0, 1.0)).unwrap();
        assert!(why.contains("nproc"), "{why}");
        assert!(env_mismatch(&Json::Obj(vec![]), &doc(2.0, 1.0)).is_some());
    }
}
