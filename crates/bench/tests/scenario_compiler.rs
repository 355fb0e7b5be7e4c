//! Front-end and planner tests for the scenario compiler: line/field
//! diagnostics on broken specs, planner validation, and the canonical
//! parse → render → parse round-trip (pinned by a proptest).

use omn_bench::scenario::{compile, parse, CampaignKind, ScenarioError, ScenarioSpec};
use omn_bench::CliOverrides;
use proptest::prelude::*;

fn parse_err(text: &str) -> ScenarioError {
    parse(text).expect_err("spec should be rejected")
}

fn compile_err(text: &str) -> ScenarioError {
    let spec = parse(text).expect("spec should parse");
    compile(&spec, &CliOverrides::default()).expect_err("spec should fail to compile")
}

#[test]
fn missing_header_is_line_zero() {
    // A comment-only file has no offending line, so the diagnostic is
    // positioned at line 0 (whole file) and renders without a prefix.
    let err = parse_err("# nothing but a comment\n");
    assert_eq!(err.line, 0);
    assert_eq!(err.field, "scenario");
    assert!(err.message.contains("missing `scenario <name>` header"));
    assert_eq!(err.to_string(), format!("scenario: {}", err.message));
}

#[test]
fn non_header_first_line_cites_line_one() {
    let err = parse_err("title = no header\n");
    assert_eq!(err.line, 1);
    assert_eq!(err.field, "scenario");
    assert!(err.message.contains("must start with `scenario <name>`"));
}

#[test]
fn unknown_key_names_line_and_field() {
    // `[run] oracle` and `[output] tables` were once parsed but read by no
    // driver; a spec that still sets them must fail, not do nothing.
    for (section, key, value) in [
        ("run", "frobnicate", "2"),
        ("run", "threads", "2"),
        ("run", "oracle", "strict"),
        ("output", "tables", "x"),
    ] {
        let err = parse_err(&format!(
            "scenario t\n\
             campaign = chaos\n\
             \n\
             [{section}]\n\
             {key} = {value}\n"
        ));
        assert_eq!(err.line, 5);
        assert_eq!(err.field, format!("[{section}] {key}"));
        assert_eq!(
            err.to_string(),
            format!("line 5: [{section}] {key}: unknown key in [{section}]")
        );
    }
}

#[test]
fn bad_matrix_value_names_line_and_field() {
    let err = parse_err(
        "scenario t\n\
         campaign = fault-tolerance\n\
         \n\
         [matrix]\n\
         loss = 0.1, wat\n",
    );
    assert_eq!(err.line, 5);
    assert_eq!(err.field, "[matrix] loss");
    assert!(err.message.contains("expected a number, got `wat`"));
}

#[test]
fn duplicate_matrix_axis_rejected() {
    let err = parse_err(
        "scenario t\n\
         campaign = fault-tolerance\n\
         \n\
         [matrix]\n\
         loss = 0.1\n\
         loss = 0.2\n",
    );
    assert_eq!(err.line, 6);
    assert_eq!(err.field, "[matrix] loss");
    assert!(err.message.contains("duplicate matrix axis"));
}

#[test]
fn conflicting_world_sections_cite_the_extra_key() {
    // `kind = preset` plus a trace-world `path` key: one world per
    // scenario, and the diagnostic points at the conflicting line.
    let err = parse_err(
        "scenario t\n\
         campaign = trace-stats\n\
         \n\
         [world]\n\
         kind = preset\n\
         presets = infocom-like\n\
         path = datasets/reality.csv\n",
    );
    assert_eq!(err.line, 7);
    assert_eq!(err.field, "[world] path/format");
    assert!(err.message.contains("conflicts with `kind = preset`"));
}

#[test]
fn fault_rung_probability_is_validated() {
    let err = parse_err(
        "scenario t\n\
         campaign = chaos\n\
         \n\
         [faults]\n\
         rung = broken 1.5 0 0\n",
    );
    assert_eq!(err.line, 5);
    assert_eq!(err.field, "[faults] rung");
    assert!(err
        .message
        .contains("corruption must be a probability in [0, 1]"));
}

#[test]
fn planner_rejects_wrong_world_for_campaign() {
    let err = compile_err(
        "scenario t\n\
         campaign = delay-validation\n\
         \n\
         [world]\n\
         kind = sharded\n",
    );
    assert!(err.message.contains("needs a"));
    assert!(err.message.contains("sharded"));
}

#[test]
fn planner_rejects_axis_not_allowed_for_campaign() {
    let err = compile_err(
        "scenario t\n\
         campaign = trace-stats\n\
         \n\
         [world]\n\
         kind = preset\n\
         presets = infocom-like\n\
         \n\
         [matrix]\n\
         loss = 0.1\n",
    );
    assert_eq!(err.field, "[matrix] loss");
}

#[test]
fn planner_requires_nodes_axis_for_scalability() {
    let err = compile_err(
        "scenario t\n\
         campaign = scalability\n\
         \n\
         [world]\n\
         kind = sharded\n",
    );
    assert!(err.message.contains("needs a `nodes` axis"));
}

#[test]
fn planner_requires_fault_ladder_for_chaos() {
    let err = compile_err(
        "scenario t\n\
         campaign = chaos\n\
         \n\
         [world]\n\
         kind = preset\n\
         presets = infocom-like\n",
    );
    assert!(err.message.contains("needs a fault ladder"));
}

#[test]
fn planner_requires_link_section_for_bandwidth() {
    let err = compile_err(
        "scenario t\n\
         campaign = bandwidth\n\
         \n\
         [world]\n\
         kind = preset\n\
         presets = infocom-like\n",
    );
    assert_eq!(err.field, "[link]");
    assert!(err.message.contains("needs a [link] section"));
}

#[test]
fn planner_rejects_link_on_other_campaigns() {
    let err = compile_err(
        "scenario t\n\
         campaign = trace-stats\n\
         \n\
         [world]\n\
         kind = preset\n\
         presets = infocom-like\n\
         \n\
         [link]\n\
         bandwidth = 4, 0\n",
    );
    assert_eq!(err.field, "[link]");
    assert!(err.message.contains("only `bandwidth` does"));
}

#[test]
fn planner_rejects_legs_on_other_campaigns() {
    let err = compile_err(
        "scenario t\n\
         campaign = trace-stats\n\
         \n\
         [world]\n\
         kind = preset\n\
         presets = infocom-like\n\
         \n\
         [run]\n\
         legs = lockstep\n",
    );
    assert_eq!(err.field, "[run] legs");
    assert!(err.message.contains("only `runtime` does"));
}

#[test]
fn negative_bandwidth_is_rejected_at_parse() {
    let err = parse_err(
        "scenario t\n\
         campaign = bandwidth\n\
         \n\
         [link]\n\
         bandwidth = -3\n",
    );
    assert_eq!(err.line, 5);
    assert_eq!(err.field, "[link] bandwidth");
    assert!(err.message.contains("non-negative"));
}

#[test]
fn unknown_leg_is_rejected_at_parse() {
    let err = parse_err(
        "scenario t\n\
         campaign = runtime\n\
         \n\
         [run]\n\
         legs = lockstep, warp\n",
    );
    assert_eq!(err.line, 5);
    assert_eq!(err.field, "[run] legs");
    assert!(err.message.contains("unknown leg `warp`"));
}

#[test]
fn cli_seed_override_beats_the_spec() {
    let spec = parse(
        "scenario t\n\
         campaign = trace-stats\n\
         \n\
         [world]\n\
         kind = preset\n\
         presets = infocom-like\n\
         \n\
         [run]\n\
         seeds = 1, 2, 3\n",
    )
    .expect("parses");
    let plan = compile(&spec, &CliOverrides::default()).expect("compiles");
    assert_eq!(plan.seeds(), &[1, 2, 3]);
    let overridden = CliOverrides {
        seeds: Some(vec![7, 9]),
        ..CliOverrides::default()
    };
    let plan = compile(&spec, &overridden).expect("compiles");
    assert_eq!(plan.seeds(), &[7, 9]);
}

// --- integer axes: whole numbers at or above the campaign's floor -----

/// Compiles an embedded spec under `overrides`, after replacing the line
/// that sets `key` (if `swap` is `Some((key, line))`) with `line`.
fn compile_embedded(
    id: &str,
    swap: Option<(&str, &str)>,
    overrides: &CliOverrides,
) -> Result<omn_bench::scenario::CampaignPlan, ScenarioError> {
    let mut text = omn_bench::scenario::embedded(id)
        .expect("embedded spec")
        .to_owned();
    if let Some((key, line)) = swap {
        let old = text
            .lines()
            .find(|l| l.starts_with(&format!("{key} =")))
            .expect("spec has the axis")
            .to_owned();
        text = text.replace(&old, line);
    }
    compile(&parse(&text).expect("parses"), overrides)
}

fn nodes(list: &[usize]) -> CliOverrides {
    CliOverrides {
        nodes: Some(list.to_vec()),
        ..CliOverrides::default()
    }
}

#[test]
fn scalability_rejects_zero_nodes_from_cli() {
    let err = compile_embedded("e15", None, &nodes(&[0])).expect_err("rejected");
    assert_eq!(err.field, "[matrix] nodes");
    assert!(err.message.contains("needs `nodes` ≥ 2"), "{err}");
    assert!(err.message.contains("got 0"), "{err}");
}

#[test]
fn scalability_rejects_a_source_without_members() {
    let err = compile_embedded("e15", None, &nodes(&[100, 1])).expect_err("rejected");
    assert_eq!(err.field, "[matrix] nodes");
    assert!(err.message.contains("the source plus one member"), "{err}");
    compile_embedded("e15", None, &nodes(&[2])).expect("two nodes compile");
}

#[test]
fn scalability_rejects_a_one_node_headline() {
    let err = compile_embedded(
        "e15",
        Some(("headline-nodes", "headline-nodes = 1")),
        &CliOverrides::default(),
    )
    .expect_err("rejected");
    assert_eq!(err.field, "[matrix] headline-nodes");
    assert!(err.message.contains("≥ 2"), "{err}");
}

#[test]
fn runtime_rejects_zero_nodes_from_cli() {
    let err = compile_embedded("e18", None, &nodes(&[0])).expect_err("rejected");
    assert_eq!(err.field, "[matrix] nodes");
    assert!(
        err.message.contains("campaign `runtime` needs `nodes` ≥ 1"),
        "{err}"
    );
}

#[test]
fn zero_caching_nodes_are_rejected() {
    for id in ["e02", "e07", "e12"] {
        let err = compile_embedded(
            id,
            Some(("caching-nodes", "caching-nodes = 0")),
            &CliOverrides::default(),
        )
        .expect_err("rejected");
        assert_eq!(err.field, "[matrix] caching-nodes", "{id}");
        assert!(
            err.message.contains("at least one caching node"),
            "{id}: {err}"
        );
    }
}

#[test]
fn fractional_integer_axes_are_rejected() {
    let err = compile_embedded(
        "e07",
        Some(("caching-nodes", "caching-nodes = 4, 2.5")),
        &CliOverrides::default(),
    )
    .expect_err("rejected");
    assert_eq!(err.field, "[matrix] caching-nodes");
    assert!(err.message.contains("whole numbers, got 2.5"), "{err}");
    let err = compile_embedded(
        "e15",
        Some(("nodes", "nodes = 100, 316.5")),
        &CliOverrides::default(),
    )
    .expect_err("rejected");
    assert_eq!(err.field, "[matrix] nodes");
    assert!(err.message.contains("whole numbers, got 316.5"), "{err}");
}

// --- axis domains: out-of-range values are typed errors ----------------

/// Asserts each `(spec, replacement line)` fails to compile with an error
/// on the replaced axis whose message contains `expect`.
fn assert_rejected(cases: &[(&str, &str)], expect: &str) {
    for &(id, line) in cases {
        let key = line.split(" =").next().expect("a key");
        let err =
            compile_embedded(id, Some((key, line)), &CliOverrides::default()).expect_err(line);
        assert_eq!(err.field, format!("[matrix] {key}"), "{id}: {line}");
        assert!(err.message.contains(expect), "{id}: {line}: {err}");
    }
}

/// Asserts each `(spec, replacement line)` still compiles.
fn assert_accepted(cases: &[(&str, &str)]) {
    for &(id, line) in cases {
        let key = line.split(" =").next().expect("a key");
        compile_embedded(id, Some((key, line)), &CliOverrides::default())
            .unwrap_or_else(|e| panic!("{id}: {line}: {e}"));
    }
}

#[test]
fn requirement_probability_excludes_its_endpoints() {
    assert_rejected(
        &[("e04", "q = 0"), ("e04", "q = 0.5, 1"), ("e04", "q = 1.5")],
        "must be in (0, 1)",
    );
    assert_accepted(&[("e04", "q = 0.01, 0.99")]);
}

#[test]
fn hour_axes_must_be_positive() {
    assert_rejected(
        &[
            ("e05", "period-h = 0"),
            ("e05", "period-h = 2, -4"),
            ("e02", "refresh-hours = 0"),
            ("e14", "query-deadline-h = -2"),
            ("e19", "query-deadline-h = 0"),
        ],
        "must be > 0 hours",
    );
    assert_accepted(&[("e05", "period-h = 0.5"), ("e02", "refresh-hours = 0.25")]);
}

#[test]
fn fraction_axes_stay_in_the_unit_interval() {
    assert_rejected(
        &[
            ("e09", "loss = 2"),
            ("e13", "loss = -0.5"),
            ("e13", "churn = 0, 2"),
            ("e09", "churn = -0.1"),
            ("e11", "departed = 1.5"),
        ],
        "must be in [0, 1]",
    );
    assert_accepted(&[("e13", "loss = 0, 1"), ("e11", "departed = 0, 1")]);
}

#[test]
fn count_axes_need_at_least_one() {
    assert_rejected(
        &[
            ("e03", "points = 0"),
            ("e09", "catalog = 0"),
            ("e14", "catalog = 0"),
            ("e07", "caching-nodes = 0"),
            ("e09", "load = 0"),
            ("e19", "load = 0"),
            ("e02", "cdf-max-k = 0"),
        ],
        "≥ 1",
    );
    assert_rejected(
        &[("e03", "points = 2.5"), ("e19", "catalog = 1.5")],
        "whole numbers",
    );
}

#[test]
fn zero_floor_count_axes_take_zero_but_no_negatives_or_fractions() {
    assert_rejected(
        &[("e08", "fanout = 1, -1"), ("e04", "max-relays = -3")],
        "≥ 0",
    );
    assert_rejected(
        &[("e08", "fanout = 2.5"), ("e04", "max-relays = 2.5")],
        "whole numbers",
    );
    assert_accepted(&[("e08", "fanout = 0"), ("e04", "max-relays = 0")]);
}

// --- parse → render → parse round-trip ---------------------------------

const CAMPAIGNS: [&str; 18] = [
    "trace-stats",
    "delay-validation",
    "freshness-time",
    "freshness-requirement",
    "refresh-period",
    "overhead",
    "caching-nodes",
    "ablation",
    "data-access",
    "robustness",
    "load-distribution",
    "fault-tolerance",
    "joint-world",
    "scalability",
    "real-traces",
    "chaos",
    "runtime",
    "bandwidth",
];

const WORLDS: [&str; 5] = [
    "[world]\nkind = registry\n",
    "[world]\nkind = preset\npresets = reality-like, infocom-like\n",
    "[world]\nkind = pairwise\nnodes = 40\nspan-days = 8\nmean-interval-secs = 7200\n\
     rate-shape = 1.5\nworld-seed = 17\n",
    "[world]\nkind = sharded\n",
    "[world]\nkind = trace\npath = datasets/reality.csv\nformat = reality\n",
];

const RETRIES: [&str; 4] = [
    "",
    "retry = off\n",
    "retry = fixed(3)\n",
    "retry = exponential(4, 2h)\n",
];

const LEGS: [&str; 4] = [
    "",
    "legs = lockstep\n",
    "legs = firehose\n",
    "legs = lockstep, firehose\n",
];

const LINKS: [&str; 3] = [
    "",
    "[link]\nbandwidth = 1, 16, 0\n",
    "[link]\nbandwidth = 4.5\nrefresh-bytes = 128\nqueue-depth = 32\n",
];

/// Builds a syntactically valid spec from generated parts. The parts are
/// drawn independently, so this covers world kinds × run keys × matrix
/// shapes far beyond the committed specs.
#[allow(clippy::too_many_arguments)]
fn build_spec(
    campaign: &str,
    world: &str,
    retry: &str,
    legs: &str,
    link: &str,
    seeds: &[u64],
    axes: &[(String, Vec<u64>)],
    rungs: usize,
) -> String {
    let mut text = String::new();
    text.push_str("# generated by the round-trip proptest\n");
    text.push_str("scenario roundtrip\n");
    text.push_str("title = generated round-trip scenario\n");
    text.push_str(&format!("campaign = {campaign}\n"));
    text.push_str(world);
    if !seeds.is_empty() || !retry.is_empty() || !legs.is_empty() {
        text.push_str("[run]\n");
        if !seeds.is_empty() {
            let list: Vec<String> = seeds.iter().map(u64::to_string).collect();
            text.push_str(&format!("seeds = {}\n", list.join(", ")));
        }
        text.push_str(retry);
        text.push_str(legs);
    }
    if rungs > 0 {
        text.push_str("[faults]\n");
        for i in 0..rungs {
            let f = i as f64 / rungs as f64;
            text.push_str(&format!("rung = r{i} {f} {f} {i}\n"));
        }
    }
    text.push_str(link);
    if !axes.is_empty() {
        text.push_str("[matrix]\n");
        for (key, values) in axes {
            let list: Vec<String> = values.iter().map(u64::to_string).collect();
            text.push_str(&format!("{key} = {}\n", list.join(", ")));
        }
    }
    text
}

fn roundtrip(text: &str) -> Result<(), String> {
    let spec1: ScenarioSpec = parse(text).map_err(|e| format!("first parse: {e}"))?;
    let rendered = spec1.render();
    let spec2 = parse(&rendered).map_err(|e| format!("reparse of render: {e}\n{rendered}"))?;
    if spec1 != spec2 {
        return Err(format!(
            "parse(render(spec)) != spec\n--- rendered:\n{rendered}"
        ));
    }
    if spec2.render() != rendered {
        return Err("render is not a fixed point after one round".to_owned());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// parse → render → parse is the identity on the typed spec, and
    /// render is a fixed point, for arbitrary generated specs.
    #[test]
    fn parse_render_parse_is_idempotent(
        campaign_i in 0usize..CAMPAIGNS.len(),
        world_i in 0usize..5,
        retry_i in 0usize..4,
        legs_i in 0usize..4,
        link_i in 0usize..3,
        seeds in prop::collection::vec(1u64..10_000, 0..4),
        axis_count in 0usize..3,
        axis_vals in prop::collection::vec(1u64..1000, 1..4),
        rungs in 0usize..4,
    ) {
        let axes: Vec<(String, Vec<u64>)> = (0..axis_count)
            .map(|i| (format!("axis-{i}"), axis_vals.clone()))
            .collect();
        let text = build_spec(
            CAMPAIGNS[campaign_i],
            WORLDS[world_i],
            RETRIES[retry_i],
            LEGS[legs_i],
            LINKS[link_i],
            &seeds,
            &axes,
            rungs,
        );
        prop_assert!(roundtrip(&text).is_ok(), "{}", roundtrip(&text).unwrap_err());
    }
}

/// The committed specs also round-trip (they are what the proptest is
/// protecting).
#[test]
fn committed_specs_roundtrip() {
    for (name, text) in omn_bench::scenario::EMBEDDED {
        roundtrip(text).unwrap_or_else(|msg| panic!("specs/{name}.scn: {msg}"));
    }
}

/// Every campaign kind has a kebab-cased name that parses back.
#[test]
fn campaign_names_are_exhaustive() {
    assert_eq!(CampaignKind::ALL.len(), CAMPAIGNS.len());
}
