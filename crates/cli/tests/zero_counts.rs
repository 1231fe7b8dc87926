//! A zero worker, batch or queue count is a malformed value: both CLIs reject
//! it in argument parsing with the usage message and exit code 2, as
//! they reject every other malformed value, instead of panicking or
//! starting a server that can never answer. So is a `znn-train` spec
//! whose net has more than one input or output node: its built-in
//! dataset makes one input volume and one target. With well-formed
//! arguments, both run their built-in demo spec to exit 0.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Runs `bin` with `args` and returns its exit code, stdout and stderr,
/// failing the test if it does not exit within a minute.
fn run(bin: &str, args: &[&str]) -> (Option<i32>, String, String) {
    let mut child = Command::new(bin)
        .args(args)
        .stdout(Stdio::piped())
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
    let text = |bytes: &[u8]| String::from_utf8_lossy(bytes).into_owned();
    (out.status.code(), text(&out.stdout), text(&out.stderr))
}

fn assert_rejected(bin: &str, args: &[&str]) {
    let (code, _, stderr) = run(bin, args);
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

#[test]
fn built_in_demos_run_to_exit_0() {
    let serve = env!("CARGO_BIN_EXE_znn-serve");
    let args = ["--workers", "2", "--requests", "36", "--rate", "500"];
    let (code, stdout, stderr) = run(serve, &args);
    assert_eq!(code, Some(0), "znn-serve: stderr {stderr}");
    // whatever admission sheds under host load, every admitted request
    // completes
    let counts = stdout
        .lines()
        .find_map(|l| l.strip_prefix("serve: submitted "))
        .unwrap_or_else(|| panic!("znn-serve printed no counts: {stdout}"));
    let n: Vec<&str> = counts.split(", ").map(|c| c.rsplit(' ').next().unwrap()).collect();
    assert_eq!(n.len(), 3, "{counts}");
    assert_eq!(n[0], "36", "{counts}");
    assert_eq!(n[1], n[2], "admitted != completed: {counts}");

    let train = env!("CARGO_BIN_EXE_znn-train");
    let (code, stdout, stderr) = run(train, &["--out", "4", "--rounds", "3", "--workers", "2"]);
    assert_eq!(code, Some(0), "znn-train: stderr {stderr}");
    assert!(stdout.contains("training completed, final loss"), "{stdout}");
}
