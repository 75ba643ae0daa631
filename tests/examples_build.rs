//! Rot guards for the targets that plain `cargo test` never compiles:
//! the examples. Without these, `cargo build --examples` can silently
//! break while the test suite stays green. The serving example is
//! additionally *run*: it self-checks >1000 batched requests against the
//! reference forward, so a silent numerics regression in the runtime
//! fails here.
//!
//! Each test shells out to `cargo` against this workspace. A dedicated
//! target directory avoids deadlocking on the build lock held by the
//! outer `cargo test` invocation.

use std::path::PathBuf;
use std::process::Command;

fn workspace_root() -> PathBuf {
    // CARGO_MANIFEST_DIR of the `ant` package is the workspace root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn nested_cargo(args: &[&str]) {
    let root = workspace_root();
    let target = root.join("target").join("rot-check");
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let output = Command::new(cargo)
        .args(args)
        .current_dir(&root)
        .env("CARGO_TARGET_DIR", &target)
        .output()
        .expect("failed to spawn cargo");
    assert!(
        output.status.success(),
        "`cargo {}` failed:\n{}",
        args.join(" "),
        String::from_utf8_lossy(&output.stderr)
    );
}

#[test]
fn examples_still_build() {
    nested_cargo(&["build", "--examples"]);
}

#[test]
fn serve_quantized_smoke_runs() {
    // The example asserts zero mismatches between the packed engine and
    // the fake-quantized reference over its full request stream.
    nested_cargo(&["run", "--example", "serve_quantized"]);
}
