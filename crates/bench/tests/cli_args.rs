//! The command-line binaries reject an argument that is not valid UTF-8
//! with their usage message and exit 1, instead of panicking.

#![cfg(unix)]

use std::ffi::OsString;
use std::os::unix::ffi::OsStringExt;
use std::process::Command;

fn rejects_non_utf8(binary: &str, leading: &[&str]) {
    let output = Command::new(binary)
        .args(leading)
        .arg(OsString::from_vec(vec![0xff]))
        .output()
        .expect("binary starts");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{binary}: {stderr}");
    assert!(stderr.contains("not valid UTF-8"), "{binary}: {stderr}");
    assert!(stderr.contains("usage: "), "{binary}: {stderr}");
}

#[test]
fn non_utf8_arguments_print_the_usage_and_exit_1() {
    rejects_non_utf8(env!("CARGO_BIN_EXE_reproduce"), &[]);
    rejects_non_utf8(env!("CARGO_BIN_EXE_reproduce"), &["table1"]);
    rejects_non_utf8(env!("CARGO_BIN_EXE_engine_batch"), &["--smoke"]);
    rejects_non_utf8(env!("CARGO_BIN_EXE_brel_serve"), &["--listen"]);
}
