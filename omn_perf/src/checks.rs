//! Reference outputs the workloads are checked against at [`PIN_SEED`]:
//! the E15 stream points pinned here, and the E19 rungs read from the
//! committed `e19` golden file.

use std::collections::BTreeMap;

use omn_bench::golden::{golden_name, golden_path};

/// The seed the references were recorded at (the goldens' seed).
pub const PIN_SEED: u64 = 11;

/// The outputs of one E15 stream point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamPin {
    pub contacts: u64,
    pub versions: u64,
    pub transmissions: u64,
    pub freshness_bits: u64,
}

/// E15 at 10⁴ nodes (200 shards, 1 day), hierarchical, serial source.
const STREAM_10K: StreamPin = StreamPin {
    contacts: 3_058_410,
    versions: 7,
    transmissions: 4,
    freshness_bits: 0x3fc5_5555_5555_5555,
};

/// E15 at 10⁵ nodes (2000 shards, 6 h): the tree scheme sends nothing.
const STREAM_100K: StreamPin = StreamPin {
    contacts: 7_651_588,
    versions: 2,
    transmissions: 0,
    freshness_bits: 0x3fe5_5555_5555_5555,
};

/// The pinned outputs of the `nodes`-node stream point at `seed`, if any.
pub fn stream_pin(nodes: usize, seed: u64) -> Option<StreamPin> {
    match (nodes, seed) {
        (10_000, PIN_SEED) => Some(STREAM_10K),
        (100_000, PIN_SEED) => Some(STREAM_100K),
        _ => None,
    }
}

/// The `e19` golden file as label → f64 bit pattern.
pub fn e19_golden() -> Result<BTreeMap<String, u64>, String> {
    let path = golden_path(&golden_name("e19"));
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    text.lines()
        .map(|line| {
            let mut fields = line.split_whitespace();
            let label = fields.next();
            let bits = fields.nth(1).and_then(|b| b.strip_prefix("bits="));
            match (label, bits.map(|b| u64::from_str_radix(b, 16))) {
                (Some(label), Some(Ok(bits))) => Ok((label.to_owned(), bits)),
                _ => Err(format!("{}: malformed line `{line}`", path.display())),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e19_golden_has_the_benchmarked_rungs() {
        let golden = e19_golden().expect("e19 golden parses");
        for rung in ["bw16", "unlimited"] {
            for key in [
                "mean_freshness",
                "success",
                "byte_deferred",
                "queued",
                "peak_bytes",
            ] {
                assert!(
                    golden.contains_key(&format!("{rung}_{key}")),
                    "{rung}_{key}"
                );
            }
        }
        assert_eq!(golden["bw16_byte_deferred"], 2118.0f64.to_bits());
    }
}
