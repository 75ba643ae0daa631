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
//!   (checked against `/proc/self/smaps`), and
//! * saving over a served path replaces the file instead of rewriting
//!   the mapped inode, so a compiled plan keeps its bits.

use ant_nn::model::{deep_mlp, small_cnn, transformer_block, Sequential};
use ant_nn::qat::{quantize_model, QuantSpec};
use ant_runtime::mmap::private_dirty_kb;
use ant_runtime::{CompiledPlan, MappedArtifact, ModelArtifact};
use ant_tensor::dist::{sample_tensor, Distribution};
use ant_tensor::Tensor;
use std::path::{Path, PathBuf};

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

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// A quantized model calibrated on Gaussian rows of its input width.
fn quantized(mut model: Sequential, features: usize, seed: u64) -> Sequential {
    let calib = gaussian(&[24, features], seed.wrapping_add(1));
    quantize_model(&mut model, &calib, QuantSpec::default()).unwrap();
    model
}

fn save(model: &Sequential, path: &Path) {
    let artifact = ModelArtifact::from_model(model).unwrap();
    artifact.save_path(path).unwrap();
}

/// Quantizes a small CNN and saves it as an artifact at `path`. The save
/// syncs before it renames, so the smaps-based tests below measure this
/// process's copy-on-write, not page-cache dirtiness from the write.
fn write_cnn_artifact(path: &Path, seed: u64) {
    save(&quantized(small_cnn(4, seed), 144, seed), path);
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
    save(&quantized(transformer_block(4, 8, 3, 21), 32, 10), &path);

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

#[test]
fn saving_over_a_live_mapping_leaves_the_compiled_plan_unchanged() {
    let path = temp_path("overwrite");
    write_cnn_artifact(&path, 3);
    let x = gaussian(&[2, 144], 7);
    let mapped = MappedArtifact::open(&path).unwrap();
    let mapped_len = mapped.mapped_bytes().len();
    let mut plan = mapped.compile().unwrap();
    assert!(plan.borrowed_layer_count() > 0, "the plan must borrow");
    let want = bits(&plan.forward(&x).unwrap());

    // A same-shape model from another seed: rewritten in place, the
    // mapping would show its weights to the old plan.
    let other = quantized(small_cnn(4, 5), 144, 5);
    save(&other, &path);
    assert_eq!(bits(&plan.forward(&x).unwrap()), want, "plan saw new bytes");
    let mut fresh = MappedArtifact::open(&path).unwrap().compile().unwrap();
    let got = bits(&fresh.forward(&x).unwrap());
    let mut direct = CompiledPlan::from_quantized(&other).unwrap();
    assert_eq!(got, bits(&direct.forward(&x).unwrap()));
    assert_ne!(got, want, "fresh open is stale");

    // A smaller model: truncated in place, the old plan's reads past the
    // new end of file would be SIGBUS.
    save(&quantized(deep_mlp(8, 4, 8, 1, 9), 8, 9), &path);
    assert!(std::fs::metadata(&path).unwrap().len() < mapped_len as u64);
    assert_eq!(bits(&plan.forward(&x).unwrap()), want, "plan saw new bytes");
    let fresh = MappedArtifact::open(&path).unwrap().compile().unwrap();
    assert_eq!(fresh.in_features(), Some(8), "fresh open is stale");
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_save_whose_rename_fails_returns_err_and_leaves_no_sibling() {
    // The target is a non-empty directory: the sibling is written and
    // synced, then the rename over the target fails.
    let dir = temp_path("rename-fails");
    let target = dir.join("model.antm");
    std::fs::create_dir_all(target.join("occupied")).unwrap();
    let model = quantized(deep_mlp(8, 4, 8, 1, 9), 8, 9);
    let saved = ModelArtifact::from_model(&model)
        .unwrap()
        .save_path(&target);
    assert!(saved.is_err(), "a rename over a directory must fail");
    let names: Vec<_> = (std::fs::read_dir(&dir).unwrap())
        .map(|e| e.unwrap().file_name())
        .collect();
    assert_eq!(names, ["model.antm"], "a failed save left a sibling behind");
    std::fs::remove_dir_all(&dir).unwrap();
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
    let dirty = private_dirty_kb(mapped.mapped_bytes()).unwrap_or(0);
    println!("PRIVATE_DIRTY_KB={dirty}");
    std::process::exit(0);
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
    let parent_dirty = private_dirty_kb(mapped.mapped_bytes()).unwrap_or(0);

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
