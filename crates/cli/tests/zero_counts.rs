//! A zero worker, batch or queue count is a malformed value: both CLIs reject
//! it in argument parsing with the usage message and exit code 2, as
//! they reject every other malformed value, instead of panicking or
//! starting a server that can never answer. So is a `znn-train` spec
//! whose net has more than one input or output node: its built-in
//! dataset makes one input volume and one target.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Runs `bin` with `args` and returns its exit code and stderr, failing
/// the test if it does not exit within a minute.
fn run(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let mut child = Command::new(bin)
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn binary");
    let start = Instant::now();
    while child.try_wait().expect("poll child").is_none() {
        if start.elapsed() > Duration::from_secs(60) {
            child.kill().expect("kill child");
            child.wait().expect("reap child");
            panic!("{bin} {args:?} did not exit within 60 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("collect output");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

fn assert_rejected(bin: &str, args: &[&str]) {
    let (code, stderr) = run(bin, args);
    assert_eq!(code, Some(2), "{args:?}: stderr {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: stderr {stderr}");
    assert!(stderr.contains("usage:"), "{args:?}: stderr {stderr}");
}

#[test]
fn zero_counts_exit_2_with_usage() {
    let train = env!("CARGO_BIN_EXE_znn-train");
    let serve = env!("CARGO_BIN_EXE_znn-serve");
    assert_rejected(train, &["--workers", "0", "--out", "2", "--rounds", "1"]);
    assert_rejected(serve, &["--batch", "0", "--requests", "2"]);
    assert_rejected(serve, &["--workers", "0", "--requests", "2"]);
    assert_rejected(serve, &["--queue", "0", "--requests", "2"]);
}

#[test]
fn multi_input_or_output_spec_exits_2_with_usage() {
    let train = env!("CARGO_BIN_EXE_znn-train");
    let specs = [
        ("inputs", "input width=3\nconv width=1 kernel=3,3,3\ntransfer fn=relu\n"),
        ("outputs", "input width=1\nconv width=2 kernel=3,3,3\ntransfer fn=relu\n"),
    ];
    for (name, text) in specs {
        let path = std::env::temp_dir().join(format!("znn-multi-{name}-{}.znn", std::process::id()));
        std::fs::write(&path, text).expect("write spec");
        let spec = path.to_str().expect("utf-8 temp path");
        assert_rejected(train, &["--spec", spec, "--out", "2", "--rounds", "1"]);
        std::fs::remove_file(&path).expect("remove spec");
    }
}
