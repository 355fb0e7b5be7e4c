//! Golden-file plumbing shared by the golden test suites.
//!
//! Each scenario spec names the golden file its headline numbers are
//! pinned by (`[output] golden = …`); [`golden_name`] resolves that name
//! from the committed spec, so the tests and the spec can never disagree
//! about where a campaign's numbers live. Values are written with full
//! bit patterns ([`line()`]), compared by [`check_golden`], and
//! (re-)recorded with `OMN_BLESS_GOLDEN=1`; `OMN_REQUIRE_GOLDEN=1` (CI)
//! turns a missing golden file into a hard failure.

use std::fmt::Write as _;
use std::path::PathBuf;

use crate::scenario::{embedded, parse};

/// Appends one pinned scalar: label, human-readable value, exact bit
/// pattern.
///
/// # Panics
///
/// Never — writing to a `String` is infallible.
pub fn line(out: &mut String, label: &str, v: f64) {
    writeln!(out, "{label} {v:.12} bits={:016x}", v.to_bits()).unwrap();
}

/// The on-disk path of a named golden file (under
/// `crates/bench/tests/golden/`).
#[must_use]
pub fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// The golden file name the committed spec `id` (e.g. `"e14"`) declares
/// via `[output] golden = …`, with the `.txt` extension appended.
///
/// # Panics
///
/// Panics when `id` names no embedded spec, the spec fails to parse, or
/// it declares no golden — all harness bugs: every golden test pins a
/// committed spec that names its golden file.
#[must_use]
pub fn golden_name(id: &str) -> String {
    let text = embedded(id).unwrap_or_else(|| panic!("no embedded spec `{id}`"));
    let spec = parse(text).unwrap_or_else(|err| panic!("specs/{id}.scn: {err}"));
    let golden = spec
        .output
        .golden
        .unwrap_or_else(|| panic!("specs/{id}.scn declares no `[output] golden`"));
    format!("{golden}.txt")
}

/// Compares `rendered` against the committed golden file, or records it
/// when `OMN_BLESS_GOLDEN` is set.
///
/// # Panics
///
/// Panics on a mismatch, or — under `OMN_REQUIRE_GOLDEN` — when the
/// golden file has not been recorded.
pub fn check_golden(name: &str, rendered: &str) {
    let path = golden_path(name);
    if std::env::var_os("OMN_BLESS_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir golden");
        std::fs::write(&path, rendered).expect("write golden");
        return;
    }
    match std::fs::read_to_string(&path) {
        Ok(expected) => assert_eq!(
            expected, rendered,
            "golden mismatch for {name}; if the change is intentional, \
             re-record with OMN_BLESS_GOLDEN=1"
        ),
        Err(_) if std::env::var_os("OMN_REQUIRE_GOLDEN").is_some() => panic!(
            "golden file {name} is missing and OMN_REQUIRE_GOLDEN is set; \
             record it with OMN_BLESS_GOLDEN=1 and commit it"
        ),
        Err(_) => {
            eprintln!("note: golden file {name} not recorded yet (OMN_BLESS_GOLDEN=1 to pin)")
        }
    }
}
