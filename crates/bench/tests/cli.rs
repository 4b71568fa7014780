//! The bench bins' failure contract: an output path that cannot be written
//! is a usage error (exit 2, `<bin>: <path>: <error>` on stderr), not a
//! panic after the whole run. `figure1` creates its output before the
//! sweep, so this costs no sweep.

use std::process::Command;

#[test]
fn an_unwritable_output_path_exits_2_without_panicking() {
    let out = Command::new(env!("CARGO_BIN_EXE_figure1"))
        .args(["--out", "/nonexistent/x.json"])
        .output()
        .expect("figure1 starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stderr.contains("figure1: /nonexistent/x.json: "), "{stderr}");
}
