//! The experiments binary runs nothing on an argument it does not know: it
//! prints the usage to stderr and exits with status 2.

use std::process::Command;

/// Runs the binary with `args`, returning its exit code, stdout and stderr.
fn experiments(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("the experiments binary starts");
    let text = |bytes: Vec<u8>| String::from_utf8(bytes).expect("utf-8 output");
    (out.status.code(), text(out.stdout), text(out.stderr))
}

#[test]
fn unknown_table_names_are_rejected() {
    let (code, stdout, stderr) = experiments(&["bogus"]);
    assert_eq!(code, Some(2));
    assert!(stdout.is_empty(), "nothing may run: {stdout}");
    assert!(
        stderr.contains("\"bogus\"") && stderr.contains("usage:"),
        "{stderr}"
    );
}

#[test]
fn misspelt_flags_are_rejected_before_any_table_runs() {
    let (code, stdout, stderr) = experiments(&["--qiuck", "t1"]);
    assert_eq!(code, Some(2));
    assert!(stdout.is_empty(), "t1 must not run at full size: {stdout}");
    assert!(
        stderr.contains("\"--qiuck\"") && stderr.contains("usage:"),
        "{stderr}"
    );
}
