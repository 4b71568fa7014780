//! The bench bins' failure contract: an output path that cannot be written
//! is a usage error (exit 2, `<bin>: <path>: <error>` on stderr), not a
//! panic after the whole run.

use std::process::Command;

#[test]
fn an_unwritable_output_path_exits_2_without_panicking() {
    for flag in ["--json", "--csv"] {
        let out = Command::new(env!("CARGO_BIN_EXE_figure1"))
            .args(["--smoke", flag, "/nonexistent/x.out"])
            .output()
            .expect("figure1 starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag}: {stderr}");
        assert!(!stderr.contains("panicked"), "{flag}: {stderr}");
        assert!(stderr.contains("figure1: /nonexistent/x.out: "), "{flag}: {stderr}");
    }
}
