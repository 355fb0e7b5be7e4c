//! `omn_perf agree A.json B.json`: compares two results files — A the
//! baseline, B the candidate — on every (end-to-end metric, workload) pair
//! against the direction and bound `BENCHMARK.json` fixes, plus
//! `failed_ratio` (failed ÷ attempted) under an absolute bound of 0.
//!
//! A results file maps each workload to a list of result objects, as
//! `omn_perf --workload all` writes it. Each row reads:
//! * `agree` — B's median is no worse than A's by more than the bound;
//! * `worse` — it is;
//! * `unresolved` — a side lacks the metric, or a side's run-to-run spread
//!   (distance between its quartiles) is wider than the bound and B does
//!   not beat A on every run.

use std::collections::BTreeMap;
use std::process::ExitCode;

use crate::json::{self, Json};
use crate::metrics::{median, quantile};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Agree,
    Worse,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Agree => "agree",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How far a metric may worsen: a share of A's median, or (`absolute`) an
/// amount.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub higher_is_better: bool,
    pub bound: f64,
    pub absolute: bool,
}

/// The name under which failed ÷ attempted is compared.
const FAILED_RATIO: &str = "failed_ratio";

/// The end-to-end bounds of a `BENCHMARK.json`, then `failed_ratio`.
pub fn bounds(spec: &Json) -> Result<Vec<Bound>, String> {
    let list = spec
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let mut out = Vec::new();
    for m in list {
        let field = |k: &str| {
            m.get(k)
                .ok_or_else(|| format!("end_to_end entry without `{k}`"))
        };
        let name = field("name")?
            .as_str()
            .ok_or("metric name is not a string")?;
        let better = field("better")?
            .as_str()
            .ok_or("`better` is not a string")?;
        let bound = field("bound")?.as_f64().ok_or("`bound` is not a number")?;
        let higher_is_better = match better {
            "higher" => true,
            "lower" => false,
            other => return Err(format!("{name}: `better` is `{other}`")),
        };
        out.push(Bound {
            name: name.to_owned(),
            higher_is_better,
            bound,
            absolute: false,
        });
    }
    out.push(Bound {
        name: FAILED_RATIO.to_owned(),
        higher_is_better: false,
        bound: 0.0,
        absolute: true,
    });
    Ok(out)
}

/// Judges B's runs of one metric against A's.
pub fn verdict(bound: &Bound, a: &[f64], b: &[f64]) -> Verdict {
    if a.is_empty() || b.is_empty() {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (median(a), median(b));
    let worse_by = if bound.higher_is_better {
        ma - mb
    } else {
        mb - ma
    };
    let allowed = if bound.absolute {
        bound.bound
    } else {
        bound.bound * ma.abs()
    };
    let spread = |v: &[f64]| quantile(v, 0.75) - quantile(v, 0.25);
    let noisy = !bound.absolute
        && (spread(a) > bound.bound * ma.abs() || spread(b) > bound.bound * mb.abs());
    if noisy {
        let better = |x: f64, y: f64| if bound.higher_is_better { x > y } else { x < y };
        let b_beats_all = b.iter().all(|&x| a.iter().all(|&y| better(x, y)));
        return if b_beats_all {
            Verdict::Agree
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > allowed {
        Verdict::Worse
    } else {
        Verdict::Agree
    }
}

/// Workload → result objects of one results file.
type Results = BTreeMap<String, Vec<Json>>;

fn read_results(path: &str) -> Result<Results, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let obj = doc
        .as_object()
        .ok_or_else(|| format!("{path}: not a JSON object"))?;
    obj.iter()
        .map(|(w, runs)| {
            let runs = runs
                .as_array()
                .ok_or_else(|| format!("{path}: `{w}` is not a list of results"))?;
            Ok((w.clone(), runs.to_vec()))
        })
        .collect()
}

/// One metric's value in each run that reports it.
fn values(runs: &[Json], metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| {
            if metric == FAILED_RATIO {
                let failed = r.get("failed")?.as_f64()?;
                let attempted = r.get("attempted")?.as_f64()?;
                (attempted > 0.0).then(|| failed / attempted)
            } else {
                r.get("metrics")?.get(metric)?.get("value")?.as_f64()
            }
        })
        .collect()
}

/// One row per (metric, workload) over the union of both files' workloads.
pub fn compare(
    bounds: &[Bound],
    a: &Results,
    b: &Results,
) -> Vec<(String, String, f64, f64, Verdict)> {
    let mut workloads: Vec<&String> = a.keys().chain(b.keys()).collect();
    workloads.sort();
    workloads.dedup();
    let none = Vec::new();
    let mut rows = Vec::new();
    for w in workloads {
        let (ra, rb) = (a.get(w).unwrap_or(&none), b.get(w).unwrap_or(&none));
        for bound in bounds {
            let (va, vb) = (values(ra, &bound.name), values(rb, &bound.name));
            let v = verdict(bound, &va, &vb);
            rows.push((w.clone(), bound.name.clone(), median(&va), median(&vb), v));
        }
    }
    rows
}

/// `agree A.json B.json [--spec BENCHMARK.json]`. Exits 0 only when every
/// row agrees.
pub fn main(args: &[String]) -> ExitCode {
    let mut files = Vec::new();
    let mut spec_path = "BENCHMARK.json".to_owned();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--spec" {
            match it.next() {
                Some(p) => spec_path.clone_from(p),
                None => return usage("--spec needs a path"),
            }
        } else {
            files.push(arg.as_str());
        }
    }
    let [a_path, b_path] = files[..] else {
        return usage("agree takes two results files");
    };
    let run = || -> Result<bool, String> {
        let text =
            std::fs::read_to_string(&spec_path).map_err(|e| format!("reading {spec_path}: {e}"))?;
        let spec = json::parse(&text).map_err(|e| format!("{spec_path}: {e}"))?;
        let bounds = bounds(&spec)?;
        let rows = compare(&bounds, &read_results(a_path)?, &read_results(b_path)?);
        println!(
            "{:<16} {:<16} {:>16} {:>16} {:>9}  verdict",
            "workload", "metric", "A median", "B median", "change"
        );
        for (w, m, a, b, v) in &rows {
            let change = if *a == 0.0 {
                0.0
            } else {
                (b - a) / a.abs() * 100.0
            };
            println!(
                "{w:<16} {m:<16} {a:>16.6} {b:>16.6} {change:>8.2}%  {}",
                v.name()
            );
        }
        Ok(rows.iter().all(|r| r.4 == Verdict::Agree))
    };
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("omn_perf agree: {e}");
            ExitCode::from(2)
        }
    }
}

fn usage(err: &str) -> ExitCode {
    eprintln!("omn_perf agree: {err}\nusage: omn_perf agree A.json B.json [--spec BENCHMARK.json]");
    ExitCode::from(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(higher_is_better: bool) -> Bound {
        Bound {
            name: "m".to_owned(),
            higher_is_better,
            bound: 0.1,
            absolute: false,
        }
    }

    #[test]
    fn higher_is_better_metric_worsens_when_it_drops_past_the_bound() {
        let b = bound(true);
        assert_eq!(verdict(&b, &[100.0], &[95.0]), Verdict::Agree);
        assert_eq!(verdict(&b, &[100.0], &[150.0]), Verdict::Agree);
        assert_eq!(verdict(&b, &[100.0], &[89.0]), Verdict::Worse);
    }

    #[test]
    fn lower_is_better_metric_worsens_when_it_rises_past_the_bound() {
        let b = bound(false);
        assert_eq!(verdict(&b, &[2.0], &[2.1]), Verdict::Agree);
        assert_eq!(verdict(&b, &[2.0], &[1.0]), Verdict::Agree);
        assert_eq!(verdict(&b, &[2.0], &[2.3]), Verdict::Worse);
    }

    #[test]
    fn failed_ratio_has_an_absolute_bound_of_zero() {
        let spec = json::parse(
            r#"{"end_to_end": [{"name": "run_s", "unit": "s", "better": "lower", "bound": 0.1}]}"#,
        )
        .unwrap();
        let bounds = bounds(&spec).unwrap();
        let failed = bounds.iter().find(|b| b.name == FAILED_RATIO).unwrap();
        assert_eq!(verdict(failed, &[0.0], &[0.0]), Verdict::Agree);
        assert_eq!(verdict(failed, &[0.0], &[1e-9]), Verdict::Worse);
        assert_eq!(verdict(failed, &[0.5], &[0.25]), Verdict::Agree);
    }

    #[test]
    fn wide_spread_or_missing_runs_are_unresolved() {
        let b = bound(false);
        assert_eq!(verdict(&b, &[], &[1.0]), Verdict::Unresolved);
        assert_eq!(
            verdict(&b, &[1.0, 2.0, 3.0], &[1.0, 2.0, 3.0]),
            Verdict::Unresolved
        );
        // Unless every candidate run beats every baseline run.
        assert_eq!(
            verdict(&b, &[4.0, 5.0, 6.0], &[1.0, 2.0, 3.0]),
            Verdict::Agree
        );
    }

    #[test]
    fn compares_every_metric_and_workload_of_results_files() {
        let spec = json::parse(
            r#"{"end_to_end": [{"name": "run_s", "unit": "s", "better": "lower", "bound": 0.1}]}"#,
        )
        .unwrap();
        let result = |run_s: f64, failed: u64| {
            json::parse(&format!(
                r#"{{"correct": true, "attempted": 100, "failed": {failed}, "metrics": {{"run_s": {{"value": {run_s}, "unit": "s"}}}}}}"#
            ))
            .unwrap()
        };
        let a: Results = [("w".to_owned(), vec![result(1.0, 0)])].into();
        let b: Results = [
            ("w".to_owned(), vec![result(1.5, 1)]),
            ("x".to_owned(), vec![result(1.0, 0)]),
        ]
        .into();
        let rows = compare(&bounds(&spec).unwrap(), &a, &b);
        let verdicts: Vec<_> = rows
            .iter()
            .map(|r| (r.0.as_str(), r.1.as_str(), r.4))
            .collect();
        assert_eq!(
            verdicts,
            [
                ("w", "run_s", Verdict::Worse),
                ("w", FAILED_RATIO, Verdict::Worse),
                ("x", "run_s", Verdict::Unresolved),
                ("x", FAILED_RATIO, Verdict::Unresolved),
            ]
        );
    }
}
