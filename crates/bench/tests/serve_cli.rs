//! The serve binary refuses a radius whose doubled reach `2r + 1` overflows
//! `u32` on every query path, before any context is elected or cached.

use std::io::{Read, Write};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// How long a session may run before the test kills it and fails.
const TIMEOUT: Duration = Duration::from_secs(60);

/// Pipes `session` into `serve --family grid --n 100` and returns its exit
/// code and stdout, killing the child if it outlives [`TIMEOUT`].
fn serve(session: &str) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--family", "grid", "--n", "100"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("the serve binary starts");
    child
        .stdin
        .take()
        .expect("stdin is piped")
        .write_all(session.as_bytes())
        .expect("the session is written");
    let started = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("the child can be polled") {
            break status;
        }
        if started.elapsed() > TIMEOUT {
            let _ = child.kill();
            let _ = child.wait();
            panic!("serve did not finish the session within {TIMEOUT:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stdout = String::new();
    child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_string(&mut stdout)
        .expect("utf-8 output");
    (status.code(), stdout)
}

#[test]
fn radii_whose_doubled_reach_overflows_are_refused() {
    let (code, stdout) = serve(
        "domset r=2147483648 alg=order\n\
         cover r=2147483648\n\
         domset r=2147483648 alg=seq\n\
         domset r=2147483648 alg=ksv\n\
         info\n\
         quit\n",
    );
    assert_eq!(code, Some(0), "{stdout}");
    let replies: Vec<&str> = stdout.lines().skip(1).collect();
    assert_eq!(replies.len(), 6, "{stdout}");
    for reply in &replies[..4] {
        assert_eq!(*reply, "err r=2147483648 is out of range", "{stdout}");
    }
    assert!(
        replies[4].starts_with("ok info") && replies[4].contains(" contexts=0 "),
        "{stdout}"
    );
    assert_eq!(replies[5], "ok bye", "{stdout}");
}
