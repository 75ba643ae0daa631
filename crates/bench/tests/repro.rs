//! `antc repro` in process: the exact tables (Tables II, III and VII),
//! Fig. 1, the ablations and the posit comparison, their claims, the
//! `--out` record and the report names. The simulator and accuracy
//! reports need an optimized build to run in reasonable time; CI's
//! release reproduction job runs all of them.

use ant_bench::antc::{run, CliError};
use ant_bench::json::Json;

fn args(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| s.to_string()).collect()
}

#[test]
fn fast_reports_hold_as_declared_and_record_every_claim() {
    let mut path = std::env::temp_dir();
    path.push(format!("repro-test-{}.json", std::process::id()));
    let out = path.to_str().unwrap();
    let fast = ["tab02", "tab03", "tab07", "fig01", "ablation", "posit"];
    let mut argv = vec!["repro"];
    argv.extend(fast);
    argv.extend(["--out", out]);

    // `Ok` means every claim's outcome matched its declaration.
    let report = run(&args(&argv)).unwrap();
    assert!(report.contains("1110         3      1.50        12      0     12"));
    assert!(report.contains("claim tab02.flint4_values: 0,1,2,3,4,5,6,7,64,32,16,24,8,10,12,14"));
    assert!(report.contains("claim tab03.decoder_equals_codec: 504 of 504 codes agree"));
    assert!(!report.contains("MISMATCH"), "{report}");
    assert!(
        report.ends_with("repro: 6 report(s), 5 claim(s), each as declared\n"),
        "{report}"
    );

    let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    std::fs::remove_file(&path).unwrap();
    let reports = doc.get("reports").and_then(Json::as_arr).unwrap();
    let ids: Vec<&str> = reports.iter().filter_map(Json::as_str).collect();
    assert_eq!(ids, fast);
    let claims = doc.get("claims").and_then(Json::as_arr).unwrap();
    assert_eq!(claims.len(), 5);
    for claim in claims {
        for key in ["name", "paper", "measured", "bound", "holds"] {
            assert!(claim.get(key).is_some(), "{key} missing from {claim:?}");
        }
        let holds = claim.get("holds").and_then(Json::as_bool);
        assert_eq!(holds, claim.get("expected").and_then(Json::as_bool));
        assert_eq!(holds, Some(true), "{claim:?}");
    }
}

#[test]
fn every_report_id_is_accepted_and_an_unknown_one_is_a_usage_error() {
    let ids = [
        "fig01", "fig10", "fig11", "fig12", "fig13", "fig14", "tab01", "tab02", "tab03", "tab04",
        "tab05", "tab06", "tab07", "ablation", "posit",
    ];
    // Names are checked before any report runs, so each known id is
    // passed over and the unknown one after it is the error.
    for id in ids {
        match run(&args(&["repro", id, "fig99"])) {
            Err(CliError::Usage(msg)) => {
                assert!(msg.starts_with("unknown report 'fig99'"), "{id}: {msg}")
            }
            other => panic!("{id}: {other:?}"),
        }
    }
    for bad in [&["repro", "fig02"][..], &["repro", "--batch", "64"]] {
        match run(&args(bad)) {
            Err(CliError::Usage(_)) => {}
            other => panic!("{bad:?}: {other:?}"),
        }
    }
}
