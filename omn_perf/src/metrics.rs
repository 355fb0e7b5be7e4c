//! The metric tables (names, units, directions) and the order statistics
//! every workload reports with. `BENCHMARK.json` lists the same metrics; a
//! test keeps the two in step.

/// One metric: name, unit, and which way is better.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn m(name: &'static str, unit: &'static str, higher_is_better: bool) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better,
    }
}

/// End-to-end metrics — what a user of the simulator waits for or pays —
/// printed with `--trace 0`. Each is defined, and nonzero, on every
/// workload.
pub const END_TO_END: [Metric; 4] = [
    m("contacts_per_s", "contacts/s", true),
    m("run_s", "s", false),
    m("setup_s", "s", false),
    m("peak_rss_mb", "MiB", false),
];

/// Per-layer metrics, printed with `--trace 1`. A metric of a layer the
/// workload does not reach reads 0 there.
pub const PER_LAYER: [Metric; 32] = [
    m("contacts.source.busy_s", "s", false),
    m("contacts.source.ns_per_contact", "ns", false),
    m("contacts.warmup.busy_s", "s", false),
    m("contacts.peak_resident", "count", false),
    m("contacts.tracegen_s", "s", false),
    m("core.scheme.busy_s", "s", false),
    m("core.scheme.calls", "count", false),
    m("core.scheme.ns_per_call", "ns", false),
    m("core.joint.run_s", "s", false),
    m("core.transmissions", "count", false),
    m("core.joint.budget_deferred", "count", false),
    m("core.joint.byte_deferred", "count", false),
    m("core.joint.grant_ratio", "ratio", true),
    m("caching.catalog_s", "s", false),
    m("caching.success_ratio", "ratio", true),
    m("sim.kernel.self_s", "s", false),
    m("sim.oracle.share", "ratio", false),
    m("sim.link.enqueued", "count", false),
    m("sim.link.drained", "count", true),
    m("sim.link.dropped", "count", false),
    m("sim.link.drain_ratio", "ratio", true),
    m("sim.link.peak_depth", "count", false),
    m("node.spawn_s", "s", false),
    m("node.self_s", "s", false),
    m("node.codec.ns_per_roundtrip", "ns", false),
    m("node.msgs_per_contact", "ratio", false),
    m("node.bytes_per_msg", "B", false),
    m("node.msgs_per_s", "msgs/s", true),
    m("alloc.per_contact", "count", false),
    m("alloc.bytes_per_contact", "B", false),
    m("trace.overhead", "ratio", false),
    m("run.p90_s", "s", false),
];

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by linear interpolation
/// between order statistics; 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.9), 4.6);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let spec = json::parse(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| -> Vec<(String, String, String)> {
            spec.get(key)
                .and_then(json::Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(json::Json::as_str).map(str::to_owned);
                    (s("name").unwrap(), s("unit").unwrap(), s("better").unwrap())
                })
                .collect()
        };
        let table = |metrics: &[Metric]| -> Vec<(String, String, String)> {
            metrics
                .iter()
                .map(|m| {
                    let better = if m.higher_is_better {
                        "higher"
                    } else {
                        "lower"
                    };
                    (m.name.to_owned(), m.unit.to_owned(), better.to_owned())
                })
                .collect()
        };
        assert_eq!(list("end_to_end"), table(&END_TO_END));
        assert_eq!(list("per_layer"), table(&PER_LAYER));
    }
}
