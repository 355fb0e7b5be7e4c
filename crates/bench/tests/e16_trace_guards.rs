//! E16 refuses to score traces that measure nothing, driven through the
//! `omn-scn` binary on temporary `--trace` files:
//!
//! * a header-only file has no contacts, so the run exits 2 with an error
//!   naming the file instead of printing a perfect-freshness table;
//! * a one-record file spans less than one refresh period, so only the
//!   initial version exists and the freshness cells print `n/a`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Header and first record of the vendored Reality fixture's format.
const HEADER: &str = "timestamp,id_a,id_b\n";
const RECORD: &str = "1096852500,110,103\n";

/// Writes `contents` to a per-process temporary file and returns its path.
fn temp_trace(name: &str, contents: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("omn-e16-{}-{name}", std::process::id()));
    std::fs::write(&path, contents).expect("write temp trace");
    path
}

fn run_e16(trace: &Path) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_omn-scn"))
        .args([
            "run",
            "e16",
            "--seeds",
            "11",
            "--no-wall",
            "--trace-format",
            "reality",
        ])
        .arg("--trace")
        .arg(trace)
        .output()
        .expect("spawn omn-scn");
    std::fs::remove_file(trace).expect("remove temp trace");
    out
}

#[test]
fn header_only_trace_exits_2_naming_the_file() {
    let path = temp_trace("empty.txt", HEADER);
    let out = run_e16(&path);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains(&path.display().to_string()) && stderr.contains("no contacts"),
        "stderr: {stderr}"
    );
    assert!(!stdout.contains("freshness campaign"), "stdout: {stdout}");
    assert!(!stdout.contains("NaN"), "stdout: {stdout}");
}

#[test]
fn single_version_trace_prints_na_freshness() {
    let path = temp_trace("one.txt", &format!("{HEADER}{RECORD}"));
    let out = run_e16(&path);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let rows: Vec<&str> = stdout
        .lines()
        .skip_while(|l| !l.contains("freshness campaign"))
        .filter(|l| l.starts_with("real ") || l.starts_with("fitted synthetic "))
        .collect();
    assert_eq!(rows.len(), 4, "stdout: {stdout}");
    for row in rows {
        let cells: Vec<&str> = row
            .split("  ")
            .map(str::trim)
            .filter(|c| !c.is_empty())
            .collect();
        assert_eq!(cells[2..4], ["n/a", "n/a"], "row: {row}");
    }
}
