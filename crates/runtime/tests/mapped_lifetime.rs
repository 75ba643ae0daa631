//! Lifetime and sharing guarantees of the mmap-borrowed `.antm` path.
//!
//! The ownership contract under test: a [`MappedArtifact`]'s pages are
//! kept alive by *whoever borrows them* (the `Arc<Mmap>` owner threaded
//! through every borrowed store), so
//!
//! * a compiled plan stays valid after the artifact handle is dropped,
//! * any number of concurrent plans share the same read-only mapping
//!   (weights are not duplicated per plan), and
//! * a second process serving the same file shares the pages with the
//!   first: the mapping contributes no meaningful `Private_Dirty` memory
//!   (checked against `/proc/self/smaps`).

use ant_nn::model::{small_cnn, transformer_block};
use ant_nn::qat::{quantize_model, QuantSpec};
use ant_runtime::{MappedArtifact, ModelArtifact};
use ant_tensor::dist::{sample_tensor, Distribution};
use ant_tensor::Tensor;
use std::path::PathBuf;

fn gaussian(dims: &[usize], seed: u64) -> Tensor {
    sample_tensor(
        Distribution::Gaussian {
            mean: 0.0,
            std: 1.0,
        },
        dims,
        seed,
    )
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ant-mapped-{}-{name}.antm", std::process::id()))
}

/// Quantizes a small CNN and saves it as an artifact at `path`.
fn write_cnn_artifact(path: &PathBuf, seed: u64) {
    let mut model = small_cnn(4, seed);
    let calib = gaussian(&[24, 144], seed.wrapping_add(1));
    quantize_model(&mut model, &calib, QuantSpec::default()).unwrap();
    ModelArtifact::from_model(&model)
        .unwrap()
        .save_path(path)
        .unwrap();
    // Flush writeback so the smaps-based tests below measure this
    // process's copy-on-write, not leftover page-cache dirtiness from
    // having just written the file.
    std::fs::File::open(path).unwrap().sync_all().unwrap();
}

#[test]
fn plan_outlives_the_artifact_handle() {
    let path = temp_path("outlive");
    write_cnn_artifact(&path, 3);
    let x = gaussian(&[2, 144], 7);

    let mapped = MappedArtifact::open(&path).unwrap();
    let mut plan = mapped.compile_strict().unwrap();
    let before = plan.forward(&x).unwrap();
    drop(mapped);
    // The file can even disappear from the filesystem: the mapping (and
    // the plan borrowing it) is kept alive by the kernel until unmapped.
    std::fs::remove_file(&path).unwrap();
    let after = plan.forward(&x).unwrap();
    assert_eq!(before.as_slice(), after.as_slice());
}

#[test]
fn concurrent_plans_share_one_mapping() {
    let path = temp_path("share");
    // Attention's PANL list is its four projection images (q, k, v, o),
    // all of them executed.
    let mut model = transformer_block(4, 8, 3, 21);
    let calib = gaussian(&[24, 32], 11);
    quantize_model(&mut model, &calib, QuantSpec::default()).unwrap();
    ModelArtifact::from_model(&model)
        .unwrap()
        .save_path(&path)
        .unwrap();

    let mapped = MappedArtifact::open(&path).unwrap();
    let x = gaussian(&[3, 32], 17);
    let mut reference = mapped.compile_strict().unwrap();
    let want: Vec<f32> = reference.forward(&x).unwrap().as_slice().to_vec();

    // Eight plans compiled from the same handle, serving on worker
    // threads while the main thread drops the handle mid-flight.
    let mut handles = Vec::new();
    for _ in 0..8 {
        let mut plan = mapped.compile_strict().unwrap();
        assert!(plan.borrowed_layer_count() > 0, "plans must borrow");
        let x = x.clone();
        let want = want.clone();
        handles.push(std::thread::spawn(move || {
            for _ in 0..20 {
                let got = plan.forward(&x).unwrap();
                assert_eq!(got.as_slice(), &want[..]);
            }
        }));
    }
    drop(mapped);
    std::fs::remove_file(&path).ok();
    for h in handles {
        h.join().unwrap();
    }
}

/// Child-process mode for [`two_processes_share_pages_rss_stays_flat`]:
/// serve the artifact and report how much of the mapping is
/// private-dirty. Activated via env var so the test binary can re-exec
/// itself as the second process.
fn child_serve_and_report(path: &str) -> ! {
    let mapped = MappedArtifact::open(path).unwrap();
    assert!(mapped.is_zero_copy(), "child: mapped load copied");
    let mut plan = mapped.compile_strict().unwrap();
    let x = gaussian(&[2, 144], 7);
    plan.forward(&x).unwrap();
    let dirty = mapping_private_dirty_kb(mapped.mapped_bytes().as_ptr() as usize);
    println!("PRIVATE_DIRTY_KB={dirty}");
    std::process::exit(0);
}

/// Sums the `Private_Dirty` of the `/proc/self/smaps` entry containing
/// `addr` (linux only; returns 0 elsewhere so callers can gate).
fn mapping_private_dirty_kb(addr: usize) -> u64 {
    let smaps = match std::fs::read_to_string("/proc/self/smaps") {
        Ok(s) => s,
        Err(_) => return 0,
    };
    let mut in_target = false;
    for line in smaps.lines() {
        if let Some((range, _)) = line.split_once(' ') {
            if let Some((lo, hi)) = range.split_once('-') {
                if let (Ok(lo), Ok(hi)) =
                    (usize::from_str_radix(lo, 16), usize::from_str_radix(hi, 16))
                {
                    in_target = lo <= addr && addr < hi;
                }
            }
        }
        if in_target {
            if let Some(rest) = line.strip_prefix("Private_Dirty:") {
                return rest
                    .trim()
                    .trim_end_matches(" kB")
                    .trim()
                    .parse()
                    .unwrap_or(0);
            }
        }
    }
    0
}

#[test]
#[cfg(target_os = "linux")]
fn two_processes_share_pages_rss_stays_flat() {
    // Re-exec dispatch: when the env var is set, this *test process* is
    // the child (the harness runs the test function in both, but the
    // child exits inside child_serve_and_report before reaching here).
    if let Ok(path) = std::env::var("ANT_MAPPED_LIFETIME_CHILD") {
        child_serve_and_report(&path);
    }
    let path = temp_path("two-proc");
    write_cnn_artifact(&path, 3);

    // Parent serves the mapping...
    let mapped = MappedArtifact::open(&path).unwrap();
    assert!(mapped.is_zero_copy());
    let mut plan = mapped.compile_strict().unwrap();
    plan.forward(&gaussian(&[2, 144], 7)).unwrap();
    let parent_dirty = mapping_private_dirty_kb(mapped.mapped_bytes().as_ptr() as usize);

    // ...while a second process opens the same file. MAP_PRIVATE
    // read-only pages are shared until written; neither process should
    // dirty the weight pages at all.
    let out = std::process::Command::new(std::env::current_exe().unwrap())
        .arg("two_processes_share_pages_rss_stays_flat")
        .arg("--exact")
        .arg("--nocapture")
        .env("ANT_MAPPED_LIFETIME_CHILD", path.to_str().unwrap())
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "child failed: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The harness prints "test name ... " without a newline before the
    // test body runs, so the marker may appear mid-line: split, don't
    // scan line starts.
    let child_dirty: u64 = stdout
        .split("PRIVATE_DIRTY_KB=")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .expect("child report")
        .parse()
        .unwrap();
    // The artifact is ~10s of KiB; a copied load would dirty all of it
    // in both processes. Shared clean pages keep Private_Dirty at (or
    // within one page of) zero.
    assert!(
        parent_dirty <= 8,
        "parent dirtied {parent_dirty} kB of the mapping"
    );
    assert!(
        child_dirty <= 8,
        "child dirtied {child_dirty} kB of the mapping"
    );
    std::fs::remove_file(&path).ok();
}
