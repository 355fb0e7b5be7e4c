//! Parallel multi-seed execution and command-line overrides.
//!
//! Every multi-replication experiment runs the same closure once per seed
//! and folds the per-seed results in seed order. [`per_seed`] runs those
//! closures on at most `available_parallelism` worker threads, each
//! pulling the next seed as it finishes one, and returns the results *in
//! seed order*, so the merged results — and therefore every printed table
//! — are byte-identical to a serial run: simulators draw only from
//! per-seed [`RngFactory`](omn_sim::RngFactory) streams, threads share
//! nothing, and floating-point folds happen on the caller's thread in a
//! fixed order. No more seeds run at once than there are cores, so a
//! closure that times itself measures its own cost, not its share of an
//! oversubscribed machine.
//!
//! Command-line control is consolidated in [`CliOverrides`], parsed
//! **once per process** (binaries call [`cli_init`], which rejects unknown
//! flags and malformed values with a one-line error plus usage on exit
//! code 2). The scenario planner folds every override into the compiled
//! plan, so experiments read them from there. The flags (honored by
//! `run_all` and `omn-scn`):
//!
//! * `--seeds 11,23,37` (or `--seeds=11,23,37`) — replace the spec's seed
//!   set (default [`SEEDS`](crate::SEEDS)).
//! * `--nodes 100,1000` (or `--nodes=100,1000`) — replace the node-count
//!   sweep of experiments that scale with network size (E15, E18).
//! * `--trace path` (or `--trace=path`) — run the real-trace experiment
//!   (E16) on one dataset file instead of the built-in registry.
//! * `--trace-format name` (or `--trace-format=name`) — the dump format of
//!   `--trace` (`reality`, `haggle`, or `omn-v1`); sniffed from the file
//!   when omitted.
//! * `--no-wall` — hide wall-clock columns so two runs can be
//!   byte-for-byte diffed.
//! * `--headline` — run the single large headline point instead of the
//!   sweep (E15: 10⁶ nodes, one seed).

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Runs `f` once per seed — in parallel, on at most
/// [`std::thread::available_parallelism`] scoped workers that each pull
/// the next seed index — and returns the results in seed order.
///
/// Runs on the calling thread when one seed is given or one core is
/// available; the results equal a serial map either way (each closure
/// invocation is independent, and results are ordered by seed index).
///
/// # Panics
///
/// Panics if `f` panics for any seed.
pub fn per_seed<T: Send>(seeds: &[u64], f: impl Fn(u64) -> T + Sync) -> Vec<T> {
    let cores = thread::available_parallelism().map_or(1, NonZeroUsize::get);
    per_seed_on(cores, seeds, f)
}

/// [`per_seed`] on at most `workers` threads.
fn per_seed_on<T: Send>(workers: usize, seeds: &[u64], f: impl Fn(u64) -> T + Sync) -> Vec<T> {
    let workers = workers.min(seeds.len());
    if workers <= 1 {
        return seeds.iter().map(|&s| f(s)).collect();
    }
    let (f, next) = (&f, &AtomicUsize::new(0));
    let mut done: Vec<(usize, T)> = thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        // Relaxed: the counter only hands out indices; the
                        // results come back through the joins.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&seed) = seeds.get(i) else {
                            return out;
                        };
                        out.push((i, f(seed)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("seed worker panicked"))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, t)| t).collect()
}

/// A `--trace` override: run the real-trace experiment on one dataset file
/// instead of the built-in registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceOverride {
    /// Path of the dataset file.
    pub path: String,
    /// Dump-format name from `--trace-format`, if given (otherwise the
    /// experiment sniffs the format from the file).
    pub format: Option<String>,
}

/// Every command-line override a process honors, parsed **once**.
///
/// The fields overlay scenario specs with the precedence `CLI > spec >
/// driver default`: a `None`/`false` field means "the flag was absent,
/// use the spec's (or the experiment's) value".
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CliOverrides {
    /// `--seeds a,b,c`: replacement seed set.
    pub seeds: Option<Vec<u64>>,
    /// `--nodes a,b,c`: replacement node-count sweep.
    pub nodes: Option<Vec<usize>>,
    /// `--no-wall`: hide wall-clock columns.
    pub no_wall: bool,
    /// `--headline`: run the single large headline point.
    pub headline: bool,
    /// `--trace path` (+ optional `--trace-format`): one dataset file.
    pub trace: Option<TraceOverride>,
}

/// One-line usage string printed with every flag error.
#[must_use]
pub fn usage() -> &'static str {
    "usage: [--seeds A,B,C] [--nodes A,B,C] [--no-wall] [--headline] \
     [--trace FILE [--trace-format reality|haggle|omn-v1]]"
}

impl CliOverrides {
    /// Parses a full argument list (without the program name).
    ///
    /// # Errors
    ///
    /// Returns the one-line diagnostic (no usage suffix) on the first
    /// unknown flag, positional argument or malformed value.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut over = CliOverrides::default();
        let mut args = args.into_iter().peekable();
        while let Some(arg) = args.next() {
            // Split `--flag=value` once; `--flag value` pulls the next token.
            let (flag, inline) = match arg.split_once('=') {
                Some((f, v)) => (f.to_owned(), Some(v.to_owned())),
                None => (arg.clone(), None),
            };
            let mut value = |flag: &str| -> Result<String, String> {
                if let Some(v) = inline.clone() {
                    return Ok(v);
                }
                match args.next() {
                    Some(next) if !next.starts_with("--") => Ok(next),
                    _ => Err(format!("{flag} requires a value")),
                }
            };
            match flag.as_str() {
                "--seeds" => {
                    let list = parse_list(&value("--seeds")?, "--seeds")?;
                    if !list.is_empty() {
                        over.seeds = Some(list);
                    }
                }
                "--nodes" => {
                    let list = parse_list::<u64>(&value("--nodes")?, "--nodes")?;
                    if !list.is_empty() {
                        over.nodes = Some(list.into_iter().map(|n| n as usize).collect());
                    }
                }
                "--no-wall" => over.no_wall = true,
                "--headline" => over.headline = true,
                "--trace" => {
                    let path = value("--trace")?;
                    let format = over.trace.take().and_then(|t| t.format);
                    over.trace = Some(TraceOverride { path, format });
                }
                "--trace-format" => {
                    let format = Some(value("--trace-format")?);
                    over.trace = Some(match over.trace.take() {
                        Some(t) => TraceOverride { format, ..t },
                        None => TraceOverride {
                            path: String::new(),
                            format,
                        },
                    });
                }
                _ if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
                _ => return Err(format!("unexpected argument `{flag}`")),
            }
        }
        // `--trace-format` alone is not an override.
        if over.trace.as_ref().is_some_and(|t| t.path.is_empty()) {
            over.trace = None;
        }
        Ok(over)
    }
}

/// Parses a non-empty comma-separated list (empty input yields an empty
/// list, which callers treat as "flag absent").
fn parse_list<T: std::str::FromStr>(input: &str, flag: &str) -> Result<Vec<T>, String> {
    input
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.parse()
                .map_err(|_| format!("{flag} takes a comma-separated list of integers, got `{s}`"))
        })
        .collect()
}

/// Parses the process arguments and returns the override set. Every
/// binary calls this first; an unknown flag or malformed value prints a
/// one-line error with usage and exits with code 2.
#[must_use]
pub fn cli_init() -> CliOverrides {
    cli_init_from(std::env::args().skip(1).collect())
}

/// [`cli_init`] over an explicit argument list (used by `omn-scn`, which
/// strips its subcommand and positional paths first).
#[must_use]
pub fn cli_init_from(args: Vec<String>) -> CliOverrides {
    CliOverrides::parse(args).unwrap_or_else(|msg| {
        eprintln!("error: {msg}\n{}", usage());
        std::process::exit(2);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SEEDS;

    /// The results equal a serial map, in seed order, and exactly as many
    /// closures as workers are in flight at once: a barrier holds each
    /// closure until that many have started, so more threads would raise
    /// the high-water mark (and fewer would hang at the barrier).
    #[test]
    fn per_seed_caps_the_seeds_in_flight() {
        let seeds: Vec<u64> = (0..12).map(|i| 1000 + 7 * i).collect();
        let serial: Vec<u64> = seeds.iter().map(|&s| s * s + 1).collect();
        // Worker counts dividing the 12 seeds, so no barrier round is short.
        for workers in [1, 2, 3, 4, 12, 16] {
            let expected = workers.min(seeds.len());
            let barrier = std::sync::Barrier::new(expected);
            let (in_flight, high_water) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let results = per_seed_on(workers, &seeds, |seed| {
                let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                high_water.fetch_max(now, Ordering::SeqCst);
                barrier.wait();
                in_flight.fetch_sub(1, Ordering::SeqCst);
                seed * seed + 1
            });
            assert_eq!(results, serial, "{workers} workers");
            assert_eq!(
                high_water.load(Ordering::SeqCst),
                expected,
                "{workers} workers"
            );
        }
        assert_eq!(per_seed(&seeds, |s| s * s + 1), serial);
        assert!(per_seed(&[], |s| s).is_empty());
    }

    fn strict(list: &[&str]) -> Result<CliOverrides, String> {
        CliOverrides::parse(list.iter().map(|s| (*s).to_owned()))
    }

    fn ok(list: &[&str]) -> CliOverrides {
        strict(list).expect("valid flags")
    }

    /// The seed set a spec without a `seeds` line resolves to.
    fn resolved_seeds(over: &CliOverrides) -> Vec<u64> {
        let text = crate::scenario::embedded("e06").expect("embedded spec");
        crate::scenario::compile_str(text, over)
            .expect("compiles")
            .seeds
    }

    #[test]
    fn default_seeds_without_flag() {
        assert_eq!(resolved_seeds(&ok(&[])), SEEDS.to_vec());
    }

    #[test]
    fn parses_seed_list_forms() {
        assert_eq!(ok(&["--seeds", "1,2,3"]).seeds, Some(vec![1, 2, 3]));
        assert_eq!(ok(&["--seeds=7"]).seeds, Some(vec![7]));
        assert_eq!(ok(&["--seeds=4, 5"]).seeds, Some(vec![4, 5]));
    }

    #[test]
    fn empty_seed_list_falls_back_to_default() {
        assert_eq!(resolved_seeds(&ok(&["--seeds="])), SEEDS.to_vec());
    }

    #[test]
    fn trailing_seeds_flag_is_an_error() {
        let err = strict(&["--seeds"]).unwrap_err();
        assert!(err.contains("--seeds requires a value"), "{err}");
    }

    #[test]
    fn malformed_seed_list_is_an_error() {
        let err = strict(&["--seeds", "1,x,3"]).unwrap_err();
        assert!(err.contains("comma-separated list of integers"), "{err}");
    }

    #[test]
    fn parses_node_list_forms() {
        assert_eq!(ok(&["--nodes", "10,20"]).nodes, Some(vec![10, 20]));
        assert_eq!(ok(&["--nodes=316"]).nodes, Some(vec![316]));
        assert_eq!(ok(&[]).nodes, None);
        assert_eq!(ok(&["--nodes="]).nodes, None);
        // `--seeds` and `--nodes` coexist without stealing each other's
        // values.
        let both = ok(&["--seeds", "1,2", "--nodes", "50"]);
        assert_eq!(both.nodes, Some(vec![50]));
        assert_eq!(both.seeds, Some(vec![1, 2]));
    }

    #[test]
    fn malformed_node_list_is_an_error() {
        let err = strict(&["--nodes", "100,big,300"]).unwrap_err();
        assert!(
            err.contains("--nodes takes a comma-separated list of integers"),
            "{err}"
        );
    }

    #[test]
    fn parses_trace_override_forms() {
        assert_eq!(ok(&[]).trace, None);
        assert_eq!(
            ok(&["--trace", "datasets/reality.csv"]).trace,
            Some(TraceOverride {
                path: "datasets/reality.csv".to_owned(),
                format: None,
            })
        );
        assert_eq!(
            ok(&["--trace=a.dat", "--trace-format", "haggle"]).trace,
            Some(TraceOverride {
                path: "a.dat".to_owned(),
                format: Some("haggle".to_owned()),
            })
        );
        // Flag order must not matter.
        assert_eq!(
            ok(&["--trace-format", "haggle", "--trace", "a.dat"]).trace,
            Some(TraceOverride {
                path: "a.dat".to_owned(),
                format: Some("haggle".to_owned()),
            })
        );
        // `--trace-format` alone is not an override.
        assert_eq!(ok(&["--trace-format", "haggle"]).trace, None);
    }

    #[test]
    fn trailing_trace_flag_is_an_error() {
        let err = strict(&["--trace"]).unwrap_err();
        assert!(err.contains("--trace requires a value"), "{err}");
        let err = strict(&["--trace", "--trace-format", "haggle"]).unwrap_err();
        assert!(err.contains("--trace requires a value"), "{err}");
    }

    #[test]
    fn unknown_flag_is_an_error() {
        let err = strict(&["--frobnicate"]).unwrap_err();
        assert!(err.contains("unknown flag `--frobnicate`"), "{err}");
        let err = strict(&["--threads", "2"]).unwrap_err();
        assert!(err.contains("unknown flag `--threads`"), "{err}");
        let err = strict(&["--seeds", "1,2", "--serial"]).unwrap_err();
        assert!(err.contains("unknown flag `--serial`"), "{err}");
        let err = strict(&["positional"]).unwrap_err();
        assert!(err.contains("unexpected argument `positional`"), "{err}");
    }

    #[test]
    fn per_seed_preserves_seed_order() {
        let seeds: Vec<u64> = (0..32).collect();
        let results = per_seed(&seeds, |s| s * s);
        assert_eq!(results, seeds.iter().map(|s| s * s).collect::<Vec<_>>());
    }

    #[test]
    fn per_seed_matches_serial_map() {
        // The parallel path must merge to exactly what a serial map
        // produces, including f64 bit patterns.
        let seeds = SEEDS.to_vec();
        let serial: Vec<f64> = seeds.iter().map(|&s| (s as f64).sqrt().sin()).collect();
        let parallel = per_seed(&seeds, |s| (s as f64).sqrt().sin());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
