//! Runs the complete reconstructed evaluation (E1-E19) in order.
//!
//! Every experiment executes through the scenario compiler: `run_all`
//! walks the embedded `specs/eNN.scn` set, compiles each spec (with the
//! CLI overrides folded in) and dispatches the plan to its campaign
//! driver.
//!
//! Seed replications run in parallel (at most one worker per core, merged in seed
//! order — byte-identical to serial). `--seeds a,b,c` overrides the seed
//! set; `--nodes a,b,c` overrides E15's node-count sweep; `--trace path`
//! (with optional `--trace-format name`) points E16 at one dataset file.
//!
//! A panicking experiment does not take the campaign down with it: each
//! experiment runs under `catch_unwind`, the campaign continues, and the
//! run ends with a per-experiment timing summary. Any failure makes the
//! process exit nonzero, so CI still catches it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

use omn_bench::scenario::{compile_str, execute, EMBEDDED};

/// Renders a panic payload the way the default hook would.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "<non-string panic payload>"
    }
}

fn main() -> ExitCode {
    let overrides = omn_bench::cli_init();
    let mut timings: Vec<(&str, f64, bool)> = Vec::new();
    let mut failed: Vec<&str> = Vec::new();
    for &(name, text) in EMBEDDED {
        let start = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| match compile_str(text, &overrides) {
            Ok(plan) => execute(&plan),
            Err(err) => panic!("specs/{name}.scn: {err}"),
        }));
        let secs = start.elapsed().as_secs_f64();
        let ok = outcome.is_ok();
        if let Err(payload) = outcome {
            println!(
                "\n!!! {name} FAILED after {secs:.1} s: {}",
                panic_message(&*payload)
            );
            failed.push(name);
        }
        timings.push((name, secs, ok));
    }

    println!("\n=== campaign summary ===");
    for (name, secs, ok) in &timings {
        println!(
            "{name:<4} {secs:>8.1} s  {}",
            if *ok { "ok" } else { "FAILED" }
        );
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        println!(
            "\n{} experiment(s) failed: {}",
            failed.len(),
            failed.join(", ")
        );
        ExitCode::FAILURE
    }
}
