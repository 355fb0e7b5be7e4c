//! `omn-scn` — the scenario-compiler CLI: lint, plan, and run `.scn`
//! specs. `omn-scn run eNN` is how one experiment runs.
//!
//! ```text
//! omn-scn check <path|dir> …    parse + compile every spec; exit 1 on error
//! omn-scn plan <file|name>      print the compiled campaign plan
//! omn-scn run <file|name> [..]  compile and execute one spec
//! omn-scn list                  list the embedded specs
//! ```
//!
//! Positional paths come right after the subcommand; everything from the
//! first `--flag` on is the standard override set (`--seeds`, `--nodes`,
//! `--no-wall`, …), applied with the usual `CLI > spec > default`
//! precedence. `plan` and `run` also accept an embedded spec name (`e01`
//! … `e19`) instead of a file path.

use std::path::{Path, PathBuf};
use std::process::exit;

use omn_bench::scenario::{compile_str, embedded, execute, EMBEDDED};
use omn_bench::{cli_init_from, usage, CliOverrides};

const HELP: &str = "usage: omn-scn <subcommand> [paths…] [flags…]\n\
  check <path|dir> …    parse + compile every spec (exit 1 on any error)\n\
  plan  <file|name>     print the compiled campaign plan\n\
  run   <file|name> […]  compile and execute one spec\n\
  list                  list the specs embedded in this binary";

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("{HELP}");
        exit(2);
    }
    let cmd = args.remove(0);
    // Positionals lead; the tail from the first `--flag` on is overrides.
    let split = args
        .iter()
        .position(|a| a.starts_with("--"))
        .unwrap_or(args.len());
    let flags = args.split_off(split);
    let paths = args;
    match cmd.as_str() {
        "check" => check(&paths, flags),
        "plan" => plan(&paths, flags),
        "run" => run(&paths, flags),
        "list" => list(&paths),
        other => {
            eprintln!("error: unknown subcommand `{other}`\n{HELP}");
            exit(2);
        }
    }
}

/// Loads a spec argument: a file path, or the name of an embedded spec.
fn load(arg: &str) -> Result<String, String> {
    let path = Path::new(arg);
    if path.is_file() {
        return std::fs::read_to_string(path).map_err(|e| format!("{arg}: {e}"));
    }
    match embedded(arg) {
        Some(text) => Ok(text.to_owned()),
        None => Err(format!(
            "{arg}: no such file, and no embedded spec of that name \
             (try `omn-scn list`)"
        )),
    }
}

/// Expands a `check` argument: a directory becomes its sorted `*.scn`
/// entries, anything else stays itself.
fn expand(arg: &str) -> Result<Vec<PathBuf>, String> {
    let path = Path::new(arg);
    if !path.is_dir() {
        return Ok(vec![path.to_path_buf()]);
    }
    let mut found: Vec<PathBuf> = std::fs::read_dir(path)
        .map_err(|e| format!("{arg}: {e}"))?
        .filter_map(Result::ok)
        .map(|entry| entry.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "scn"))
        .collect();
    found.sort();
    if found.is_empty() {
        return Err(format!("{arg}: no .scn files in directory"));
    }
    Ok(found)
}

fn check(paths: &[String], flags: Vec<String>) {
    if paths.is_empty() {
        eprintln!("error: check needs at least one spec file or directory\n{HELP}");
        exit(2);
    }
    let overrides = cli_init_from(flags);
    let mut bad = 0usize;
    for arg in paths {
        let files = match expand(arg) {
            Ok(files) => files,
            Err(msg) => {
                println!("error: {msg}");
                bad += 1;
                continue;
            }
        };
        for file in files {
            let shown = file.display();
            match std::fs::read_to_string(&file) {
                Err(e) => {
                    println!("error: {shown}: {e}");
                    bad += 1;
                }
                Ok(text) => match compile_str(&text, &overrides) {
                    Ok(plan) => println!(
                        "ok: {shown} (scenario {}, {} points)",
                        plan.spec.name,
                        plan.points.len()
                    ),
                    Err(err) => {
                        println!("error: {shown}: {err}");
                        bad += 1;
                    }
                },
            }
        }
    }
    if bad > 0 {
        eprintln!("{bad} spec(s) failed to compile");
        exit(1);
    }
}

fn plan(paths: &[String], flags: Vec<String>) {
    let [arg] = paths else {
        eprintln!("error: plan takes exactly one spec file or embedded name\n{HELP}");
        exit(2);
    };
    let overrides = cli_init_from(flags);
    let text = load(arg).unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        exit(1);
    });
    match compile_str(&text, &overrides) {
        Ok(plan) => print!("{}", plan.render_summary()),
        Err(err) => {
            eprintln!("error: {arg}: {err}");
            exit(1);
        }
    }
}

fn run(paths: &[String], flags: Vec<String>) {
    let [arg] = paths else {
        eprintln!("error: run takes exactly one spec file or embedded name\n{HELP}");
        exit(2);
    };
    let overrides = cli_init_from(flags);
    let text = load(arg).unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        exit(1);
    });
    match compile_str(&text, &overrides) {
        Ok(plan) => execute(&plan),
        Err(err) => {
            eprintln!("error: {arg}: {err}");
            exit(1);
        }
    }
}

fn list(paths: &[String]) {
    if !paths.is_empty() {
        eprintln!("error: list takes no arguments\n{HELP}");
        exit(2);
    }
    let overrides = CliOverrides::default();
    for (name, text) in EMBEDDED {
        match compile_str(text, &overrides) {
            Ok(plan) => println!(
                "{name}  {} — {}",
                plan.spec.campaign,
                plan.spec.title.as_deref().unwrap_or("(untitled)")
            ),
            Err(err) => println!("{name}  (broken embedded spec: {err})"),
        }
    }
    // `usage()` is the flag reference shared with `run_all`.
    println!("\noverride flags (plan/run/check): {}", usage());
}
