//! `omn_perf` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path omn_perf/Cargo.toml -- --workload all [--trace 1]
//! omn_perf --workload NAME [--seed S] [--seconds N] [--trace 0|1]
//! omn_perf agree A.json B.json [--spec BENCHMARK.json]
//! ```
//!
//! The benchmark is a package of its own (with an empty `[workspace]`), so
//! it builds against the crates as path dependencies and leaves the
//! repository's workspace and lock file alone. It drives every layer
//! through public APIs only: [`ContactSource`], `FreshnessSimulator::{
//! select_roles_streamed, make_scheme, run_streamed}`, [`RefreshScheme`],
//! `JointSimulator::run`, `run_firehose` and `omn_node::codec`.
//!
//! One workload runs per process. It runs seed-runs (seeds `S, S+1, …`,
//! default `S` = 11) for about `--seconds` (default 15) and prints, last,
//! one JSON line `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`. `--workload all` re-invokes the binary once per workload,
//! one after another, echoes their output and writes the result lines to
//! `target/omn_perf/results.json`; `agree` compares two such files
//! against the bounds in `BENCHMARK.json`. Every configuration pins
//! `OracleMode::Campaign` whatever `OMN_ORACLE` says.
//!
//! # Workloads
//!
//! | name | what | why |
//! |---|---|---|
//! | `stream-10k` | E15 at 10⁴ nodes: `scale_config(10_000)` (200 shards, 1 day), E15's sweep config (8 members, 4 h period, estimated planning, 6 h rebuilds), hierarchical scheme, serial source | The golden regime: the tree protocol rebuilds and transmits, and per-contact time splits about source 20 % / scheme 25 % / kernel the rest. |
//! | `stream-100k` | E15 at 10⁵ nodes: 2000 shards, 6 h | The 2000-way heap merge and a 10⁵-node warm-up graph dominate while the tree scheme idles (0 tx); set-up and memory are large. |
//! | `firehose-10k` | E18 firehose: `run_firehose` over `scale_config(10_000)`, epidemic, root 0, members 1..=8, one executor worker | The only workload through `omn-node`'s executor, channels and wire codec; the DES kernel and `RefreshScheme` are bypassed. |
//! | `joint-16bps` | E19's 16 B/s rung: infocom-like trace, load 1200, budget 2, 256 B frames, queue 64, LRU, query-first | Caching, refresh, slot budgets, byte capacities and transmission queues all do work (seed 11: 2118 byte-deferred caching hops, 44 queued frames, 27 drained). |
//! | `joint-unlimited` | the same world with an unlimited link | The same caching and refresh work, but the byte path never denies or queues: a change that speeds deny/queue at the cost of grant shows here. |
//!
//! A stream seed-run is the role warm-up (set-up) and then the run phase
//! twice over the same inputs; its run wall takes every piece of `2^16`
//! contacts at the faster of the two passes (see `fastest_pieces_wall`),
//! which drops the bursts of interference a shared machine injects. A
//! firehose seed-run is two `run_firehose` passes, the faster counting;
//! set-up is spawn plus teardown (a pass's wall minus
//! `FirehoseReport.elapsed`), sampled again by eight silent runs. A joint
//! seed-run builds the trace, catalog and query workload (set-up), then
//! runs `JointSimulator::run`; ten seed-runs are discarded first.
//!
//! # Threads and processes
//!
//! The benchmark is sized for two cores (`nproc` = 2 where it was
//! written). The DES workloads run on one thread: the serial k-way merge,
//! no generator threads. The firehose uses one executor worker plus the
//! supervisor, which is the calling thread: two. `--workload all` waits on
//! each child before starting the next, so one process generates load at
//! a time and `peak_rss_mb` (`VmHWM`) is per workload.
//!
//! # Metrics
//!
//! End to end (`--trace 0`): `contacts_per_s` (median over seed-runs of
//! contacts ÷ run wall), `run_s` (median run wall of one seed-run),
//! `setup_s` (median set-up: role warm-up, network spawn + teardown, or
//! trace + catalog + queries) and `peak_rss_mb` (`VmHWM` when the first
//! seed-run's first run phase ends: what set-up plus one run needs, before
//! later passes add allocator fragmentation). Each is defined and
//! nonzero on every workload, so three further numbers are per-layer
//! metrics or printed notes instead: the p90 of seed-run wall
//! (`run.p90_s`; only joint-* has ten seed-runs beyond it), the
//! firehose's wire `msgs_per_s` (`node.msgs_per_s`), and `failed_ratio`,
//! which is the result line's `failed ÷ attempted` and which `agree`
//! holds to an absolute bound of 0. `failed` counts oracle violations,
//! lost or undecodable frames, channel errors and output-check
//! mismatches; `attempted` counts contacts over every run phase.
//!
//! Per layer (`--trace 1`, layer = crate), and the end-to-end metric each
//! should move:
//!
//! * `omn-contacts` — `contacts.source.busy_s` and
//!   `contacts.source.ns_per_contact` (the `TimedSource` wrapper) move
//!   `contacts_per_s` on stream-100k most, then stream-10k and
//!   firehose-10k, and nothing on joint-*. `contacts.warmup.busy_s` moves
//!   `setup_s` on stream-*; `contacts.peak_resident` moves `peak_rss_mb`
//!   on stream-*; `contacts.tracegen_s` moves `setup_s` on joint-*.
//! * `omn-core` — `core.scheme.busy_s`, `.calls`, `.ns_per_call` (the
//!   `TimedScheme` wrapper around `&mut dyn RefreshScheme`) move
//!   `contacts_per_s` on stream-10k; on stream-100k the tree is idle but
//!   still called per contact. `core.joint.run_s` spans
//!   `JointSimulator::run`; with `core.transmissions`,
//!   `core.joint.budget_deferred`, `core.joint.byte_deferred` and
//!   `core.joint.grant_ratio` (tx ÷ (tx + deferred), both layers) it moves
//!   `run_s` on joint-*.
//! * `omn-caching` — `caching.catalog_s` (`Catalog::uniform` +
//!   `QueryWorkload::zipf`) moves `setup_s` on joint-*;
//!   `caching.success_ratio` must repeat exactly.
//! * `omn-sim` — `sim.kernel.self_s` = traced run − source − scheme
//!   (engine, `ContactDriver`, timers, oracles, metrics) moves
//!   `contacts_per_s` on stream-*. `sim.oracle.share` = 1 − run(Off) ÷
//!   run(Campaign), from one extra oracle-off pass per DES seed-run.
//!   `sim.link.enqueued`, `.drained`, `.dropped`, `.drain_ratio` and
//!   `.peak_depth` are nonzero on joint-16bps and zero on joint-unlimited.
//! * `omn-node` — `node.spawn_s` moves `setup_s`; `node.self_s` =
//!   `elapsed` − source busy and `node.codec.ns_per_roundtrip` (an
//!   encode + decode loop over Summary and Refresh frames) move
//!   `contacts_per_s` and `run_s` on firehose-10k. `node.msgs_per_contact`
//!   and `node.bytes_per_msg` describe the traffic.
//! * harness — `alloc.per_contact` and `alloc.bytes_per_contact` (a
//!   counting global allocator, on only during traced run phases) move
//!   `contacts_per_s` and `run_s` everywhere. `trace.overhead` = traced ÷
//!   untraced single-pass wall − 1.
//!
//! Counts come from the first seed-run, so they repeat exactly for a
//! `--seed`; times are medians over seed-runs. The traced pass keeps its
//! spans in memory and writes `target/omn_perf/<workload>.spans.jsonl`
//! at exit: id, parent, seed-run, name, start and end in ns, nested
//! workload → seed-run → `setup.*` | `run.*`, with the per-call layers as
//! aggregate leaves `{calls, busy_ns}` under `run`.
//!
//! # Output checks
//!
//! Every pass of a seed-run (repeat, traced, oracle-off) must reproduce
//! the first bit for bit. At seed 11 the stream points must equal the
//! outputs pinned in `checks.rs`, and the joint rungs the `bw16_*` /
//! `unlimited_*` lines of the `e19` golden. The firehose must receive
//! every frame it sent, with no decode or channel error, and announce
//! every contact its source yielded (3,058,410 at seed 11). At any seed
//! the first joint-unlimited seed-run must equal E14's slot counting, and
//! every run must be oracle-clean.
//!
//! # Firehose message counts
//!
//! The firehose floods free-running: how many Summary and Refresh frames
//! a contact triggers depends on how far the executor lags the
//! supervisor, so message totals vary run to run (7.9–8.4 M at seed 11,
//! 2.60–2.75 per contact). Its contact count is fixed by the seed, so
//! `contacts_per_s` is its fixed-work metric; `node.msgs_per_s` is
//! reported beside it.
//!
//! # What the traces say about E15's "halving"
//!
//! E15's table shows serial throughput halving from ~165 k contacts/s at
//! 10⁴ nodes to ~82 k at 10⁵, but that wall covers the role warm-up and
//! five seeds run as threads contending for two cores. Measured alone
//! (seed 11, a 2-vCPU VM), the run phase sustains 1.3–1.5 M contacts/s at
//! 10⁴ and 1.1–1.4 M at 10⁵ — 10–20 % lower, not half. The 2000-way merge
//! does cost more per pull than the 200-way one (`TimedSource`: 170–240 →
//! 245–310 ns per contact), and the tree scheme costs 200–380 ns per call
//! at 10⁴, where it rebuilds and sends, and 180–220 ns at 10⁵, where it
//! idles.
//! What grows is set-up: the 3 h warm-up re-pull and 10⁵-node graph take
//! 3.1–4.3 s per seed against 0.36–0.56 s at 10⁴, about a third of a 10⁵
//! seed's wall, and five 510 MiB seeds contend for memory bandwidth as
//! well as cores.
//!
//! # Noise and bounds
//!
//! On the shared 2-vCPU VM the benchmark was written on, other tenants
//! slow everything by 30–45 % in bursts of one to twenty seconds, and the
//! uncontended speed itself drifts over minutes: by 5–15 % on most
//! workloads and at times by 2× on joint-*. Medians over many seed-runs
//! (joint-*) and the faster of two passes (piece by piece on stream-*,
//! whole on firehose-10k) remove the bursts; the drift remains. Across ten
//! seeds the quartile spread of the times was 5–10 % of their median in
//! calm periods and up to 35 % in slow ones, and of `peak_rss_mb` under
//! 6 %, so `BENCHMARK.json` bounds the times at 25 % and memory at 20 %.
//!
//! # Deferred
//!
//! Spans inside the program (a `PhaseClock` on `SimWorld`), the split
//! inside `JointSimulator::run` (its kernel time is not separated from
//! its layers, so `sim.kernel.self_s` reads 0 there), scaling of the
//! parallel pipeline (needs more than two cores), and retiring
//! `bench_trend` in favour of this benchmark (touches CI).
//!
//! [`ContactSource`]: omn_contacts::ContactSource
//! [`RefreshScheme`]: omn_core::scheme::RefreshScheme

mod agree;
mod alloc;
mod checks;
mod json;
mod layers;
mod metrics;
mod spans;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use crate::metrics::Metric;
use crate::workloads::{Opts, Workload};

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str =
    "usage: omn_perf [--workload NAME|all] [--seed S] [--seconds N] [--trace 0|1] [--out FILE]
       omn_perf agree A.json B.json [--spec BENCHMARK.json]
workloads: stream-10k stream-100k firehose-10k joint-16bps joint-unlimited";

/// Parsed command line of a measuring run.
#[derive(Debug, PartialEq)]
struct Cli {
    /// `None` runs every workload, one child process each.
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Where `--workload all` writes its results file.
    out: PathBuf,
}

impl Cli {
    fn parse(args: &[String]) -> Result<Cli, String> {
        let mut cli = Cli {
            workload: None,
            seed: checks::PIN_SEED,
            seconds: 15,
            trace: false,
            out: PathBuf::from("target/omn_perf/results.json"),
        };
        let mut it = args.iter().peekable();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    cli.workload = match name.as_str() {
                        "all" => None,
                        _ => Some(
                            Workload::parse(name)
                                .ok_or_else(|| format!("unknown workload `{name}`"))?,
                        ),
                    };
                }
                "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    cli.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(1..=3600).contains(&cli.seconds) {
                        return Err("--seconds must be 1..=3600".to_owned());
                    }
                }
                "--out" => cli.out = PathBuf::from(value()?),
                // `--trace` alone means `--trace 1`.
                "--trace" => {
                    cli.trace = it.peek().map(|s| s.as_str()) != Some("0");
                    if matches!(it.peek().map(|s| s.as_str()), Some("0" | "1")) {
                        it.next();
                    }
                }
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(cli)
    }

    fn opts(&self) -> Opts {
        Opts {
            seed: self.seed,
            seconds: self.seconds as f64,
            trace: self.trace,
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("agree") {
        return agree::main(&args[1..]);
    }
    let cli = match Cli::parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("omn_perf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match cli.workload {
        Some(w) => run_one(w, &cli),
        None => run_all(&cli),
    }
}

/// Runs one workload in this process and prints its result line last.
fn run_one(w: Workload, cli: &Cli) -> ExitCode {
    println!(
        "workload {} seed {} seconds {} trace {}",
        w.name(),
        cli.seed,
        cli.seconds,
        u8::from(cli.trace)
    );
    let out = match workloads::run(w, cli.opts()) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("omn_perf: {}: {e}", w.name());
            return ExitCode::FAILURE;
        }
    };
    for note in &out.notes {
        println!("  {note}");
    }
    for problem in &out.problems {
        eprintln!("omn_perf: {}: check failed: {problem}", w.name());
    }
    for (m, v) in &out.metrics {
        let better = if m.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        println!(
            "  {:<32} {v:>22} {:<10} ({better} is better)",
            m.name, m.unit
        );
    }
    let correct = out.failed == 0;
    println!(
        "{}",
        result_line(correct, out.attempted.max(1), out.failed, &out.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The result object: `{"correct", "attempted", "failed", "metrics"}`.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[(Metric, f64)]) -> String {
    let mut out = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{"
    );
    for (i, (m, v)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::write_str(&mut out, m.name);
        out.push_str(":{\"value\":");
        json::write_num(&mut out, *v);
        out.push_str(",\"unit\":");
        json::write_str(&mut out, m.unit);
        out.push('}');
    }
    out.push_str("}}");
    out
}

/// Runs every workload in turn, each in a child process of its own (so
/// peak RSS is per workload and one process generates load at a time),
/// and writes their result lines to the results file.
fn run_all(cli: &Cli) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("omn_perf: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    let mut entries = Vec::new();
    for w in Workload::ALL {
        let output = Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &cli.seed.to_string()])
            .args(["--seconds", &cli.seconds.to_string()])
            .args(["--trace", if cli.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output();
        let output = match output {
            Ok(o) => o,
            Err(e) => {
                eprintln!("omn_perf: running {}: {e}", w.name());
                ok = false;
                continue;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        ok &= output.status.success();
        let line = stdout.lines().last().unwrap_or("");
        if json::parse(line).is_err() {
            eprintln!("omn_perf: {} printed no result line", w.name());
            ok = false;
            continue;
        }
        let mut entry = String::new();
        json::write_str(&mut entry, w.name());
        entry.push_str(": [");
        entry.push_str(line);
        entry.push(']');
        entries.push(entry);
    }
    let results = format!("{{\n{}\n}}\n", entries.join(",\n"));
    let written = cli
        .out
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&cli.out, results));
    match written {
        Ok(()) => println!("results written to {}", cli.out.display()),
        Err(e) => {
            eprintln!("omn_perf: writing {}: {e}", cli.out.display());
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &str) -> Result<Cli, String> {
        Cli::parse(
            &args
                .split_whitespace()
                .map(str::to_owned)
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn parses_measuring_command_lines() {
        let cli = parse("--workload joint-16bps --seed 5 --seconds 10 --trace 0").unwrap();
        assert_eq!(cli.workload, Some(Workload::Joint16));
        assert_eq!((cli.seed, cli.seconds, cli.trace), (5, 10, false));
        assert!(parse("--trace 1").unwrap().trace);
        assert!(parse("--trace --seed 3").unwrap().trace);
        assert_eq!(parse("--workload all").unwrap().workload, None);
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds 0",
            "--frobnicate",
            "--seed",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn result_line_has_the_documented_keys() {
        let line = result_line(true, 7, 0, &[(metrics::END_TO_END[1], 1.25)]);
        let v = json::parse(&line).unwrap();
        let keys: Vec<_> = v.as_object().unwrap().keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(
            v.get("metrics")
                .unwrap()
                .get("run_s")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(1.25)
        );
    }
}
