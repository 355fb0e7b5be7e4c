//! Experiment harness for the reproduced evaluation.
//!
//! Each experiment (E1–E19; see DESIGN.md for the index) lives in
//! [`experiments`] as a library function that prints the corresponding
//! table or figure series to stdout, and is described by a committed
//! `specs/eNN.scn` scenario. `omn-scn run eNN` compiles and runs one of
//! them; `run_all` runs every embedded spec.
//!
//! Results are averaged over several seeds with normal-approximation 95%
//! confidence intervals, printed as `mean ± hw`. Seed replications run in
//! parallel through [`per_seed`] (at most one worker per core, results merged in
//! seed order, byte-identical to a serial run); `--seeds a,b,c` overrides
//! the seed set.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod golden;
mod runner;
pub mod scenario;

pub use runner::{cli_init, cli_init_from, per_seed, usage, CliOverrides, TraceOverride};

use omn_sim::stats::mean_ci95;

/// Default seeds for multi-replication experiments.
pub const SEEDS: [u64; 5] = [11, 23, 37, 53, 71];

/// What a mean cell reads when no run observed the quantity.
const NO_SAMPLES: &str = "n/a (n=0)";

/// Formats samples as `mean ± half-width` (95% CI), or `n/a (n=0)` for
/// an empty sample.
#[must_use]
pub fn fmt_ci(samples: &[f64], decimals: usize) -> String {
    if samples.is_empty() {
        return NO_SAMPLES.to_owned();
    }
    let (mean, hw) = mean_ci95(samples);
    format!("{mean:.prec$} ± {hw:.prec$}", prec = decimals)
}

/// Formats samples as `mean ± half-width` with engineering-style counts,
/// or `n/a (n=0)` for an empty sample.
#[must_use]
pub fn fmt_ci_count(samples: &[f64]) -> String {
    if samples.is_empty() {
        return NO_SAMPLES.to_owned();
    }
    let (mean, hw) = mean_ci95(samples);
    format!("{mean:.0} ± {hw:.0}")
}

/// A simple fixed-width text table.
#[derive(Debug, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given column headers.
    #[must_use]
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(headers: I) -> Table {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.headers.len(), "row/header mismatch");
        self.rows.push(row);
    }

    /// Renders the table.
    #[must_use]
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for i in 0..cols {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:<width$}", cells[i], width = widths[i]));
            }
            line.trim_end().to_owned()
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Prints an experiment banner.
pub fn banner(id: &str, title: &str) {
    println!("\n=== {id}: {title} ===");
}

/// Time-average of a step-function timeline over `[a, b]` seconds.
#[must_use]
pub fn window_mean(tl: &omn_sim::metrics::Timeline, a: f64, b: f64) -> f64 {
    let pts = tl.points();
    if pts.is_empty() || b <= a {
        return 0.0;
    }
    let mut acc = 0.0;
    let mut t = a;
    let mut v = tl
        .value_at(omn_sim::SimTime::from_secs(a))
        .unwrap_or(pts[0].1);
    for &(pt, pv) in pts {
        let ts = pt.as_secs();
        if ts <= a {
            continue;
        }
        if ts >= b {
            break;
        }
        acc += v * (ts - t);
        t = ts;
        v = pv;
    }
    acc += v * (b - t);
    acc / (b - a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(["name", "value"]);
        t.row(["alpha", "1"]);
        t.row(["b", "22222"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("alpha"));
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(["a", "b"]);
        t.row(["only-one"]);
    }

    #[test]
    fn ci_formatting() {
        let s = fmt_ci(&[1.0, 1.0, 1.0], 2);
        assert_eq!(s, "1.00 ± 0.00");
        assert_eq!(fmt_ci_count(&[10.0, 10.0]), "10 ± 0");
    }
}
