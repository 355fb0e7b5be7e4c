//! Pins what each committed scenario spec compiles to: the plan summary
//! and the typed `Params` of every `specs/eNN.scn` (under default CLI
//! overrides) are one golden file (`tests/golden/plan_summaries.txt`), so
//! a spec or planner change that moves any campaign parameter shows up as
//! a golden diff; re-record after an intentional change with
//! `OMN_BLESS_GOLDEN=1`. The spec files on disk must also be exactly the
//! ones embedded in the binaries, since `run_all` walks the embedded set.

use std::path::PathBuf;

use omn_bench::experiments as e;
use omn_bench::scenario::{compile, parse, CampaignPlan, EMBEDDED};
use omn_bench::CliOverrides;

fn plan_for(id: &str) -> CampaignPlan {
    let text = EMBEDDED
        .iter()
        .find(|(name, _)| *name == id)
        .map(|&(_, text)| text)
        .unwrap_or_else(|| panic!("no embedded spec `{id}`"));
    let spec = parse(text).unwrap_or_else(|err| panic!("specs/{id}.scn: {err}"));
    compile(&spec, &CliOverrides::default()).unwrap_or_else(|err| panic!("specs/{id}.scn: {err}"))
}

/// CLI overrides thread through the plan into every experiment's params.
#[test]
fn overrides_reach_params_through_the_plan() {
    let text = EMBEDDED
        .iter()
        .find(|(name, _)| *name == "e15")
        .map(|&(_, text)| text)
        .expect("e15 embedded");
    let spec = parse(text).expect("parses");
    let overrides = CliOverrides {
        seeds: Some(vec![5]),
        nodes: Some(vec![100, 200]),
        no_wall: true,
        ..CliOverrides::default()
    };
    let plan = compile(&spec, &overrides).expect("compiles");
    let params = e::e15_scalability::Params::from_plan(&plan);
    assert_eq!(params.seeds, vec![5]);
    assert_eq!(params.nodes, vec![100, 200]);
    assert!(!params.show_wall);
}

/// The `Debug` rendering of the typed parameters a plan compiles to.
fn params_debug(plan: &CampaignPlan) -> String {
    use omn_bench::scenario::CampaignKind as K;
    match plan.spec.campaign {
        K::TraceStats => format!("{:?}", e::e01_trace_stats::Params::from_plan(plan)),
        K::DelayValidation => format!("{:?}", e::e02_delay_validation::Params::from_plan(plan)),
        K::FreshnessTime => format!("{:?}", e::e03_freshness_time::Params::from_plan(plan)),
        K::FreshnessRequirement => {
            format!(
                "{:?}",
                e::e04_freshness_requirement::Params::from_plan(plan)
            )
        }
        K::RefreshPeriod => format!("{:?}", e::e05_refresh_period::Params::from_plan(plan)),
        K::Overhead => format!("{:?}", e::e06_overhead::Params::from_plan(plan)),
        K::CachingNodes => format!("{:?}", e::e07_caching_nodes::Params::from_plan(plan)),
        K::Ablation => format!("{:?}", e::e08_ablation::Params::from_plan(plan)),
        K::DataAccess => format!("{:?}", e::e09_data_access::Params::from_plan(plan)),
        K::Robustness => format!("{:?}", e::e11_robustness::Params::from_plan(plan)),
        K::LoadDistribution => format!("{:?}", e::e12_load_distribution::Params::from_plan(plan)),
        K::FaultTolerance => format!("{:?}", e::e13_fault_tolerance::Params::from_plan(plan)),
        K::JointWorld => format!("{:?}", e::e14_joint_world::Params::from_plan(plan)),
        K::Scalability => format!("{:?}", e::e15_scalability::Params::from_plan(plan)),
        K::RealTraces => format!("{:?}", e::e16_real_traces::Params::from_plan(plan)),
        K::Chaos => format!("{:?}", e::e17_chaos::Params::from_plan(plan)),
        K::Runtime => format!("{:?}", e::e18_runtime::Params::from_plan(plan)),
        K::Bandwidth => format!("{:?}", e::e19_bandwidth::Params::from_plan(plan)),
    }
}

/// The deterministic plan summaries of every committed spec, each
/// followed by the typed parameters it compiles to, pinned as one golden
/// file.
#[test]
fn plan_summaries_golden() {
    let mut out = String::new();
    for (id, _) in EMBEDDED {
        let plan = plan_for(id);
        out.push_str(&plan.render_summary());
        out.push_str(&format!("params: {}\n", params_debug(&plan)));
        out.push('\n');
    }
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/plan_summaries.txt");
    if std::env::var_os("OMN_BLESS_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir golden");
        std::fs::write(&path, &out).expect("write golden");
        return;
    }
    match std::fs::read_to_string(&path) {
        Ok(expected) => assert_eq!(
            expected, out,
            "plan summaries changed; if intentional, re-record with \
             OMN_BLESS_GOLDEN=1"
        ),
        Err(_) if std::env::var_os("OMN_REQUIRE_GOLDEN").is_some() => panic!(
            "golden file plan_summaries.txt is missing and OMN_REQUIRE_GOLDEN \
             is set; record it with OMN_BLESS_GOLDEN=1 and commit it"
        ),
        Err(_) => eprintln!(
            "note: golden file plan_summaries.txt not recorded yet \
             (OMN_BLESS_GOLDEN=1 to pin)"
        ),
    }
}

/// `specs/*.scn` and the embedded spec set agree: the same names, the same
/// bytes. A spec file missing from `EMBEDDED` would be skipped silently
/// by `run_all`.
#[test]
fn specs_dir_matches_embedded() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../specs");
    let mut on_disk: Vec<(String, String)> = std::fs::read_dir(&dir)
        .expect("specs/ is readable")
        .map(|entry| entry.expect("dir entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "scn"))
        .map(|path| {
            let stem = path
                .file_stem()
                .expect("stem")
                .to_string_lossy()
                .into_owned();
            let text = std::fs::read_to_string(&path).expect("spec is readable");
            (stem, text)
        })
        .collect();
    on_disk.sort();
    let mut embedded: Vec<(String, String)> = EMBEDDED
        .iter()
        .map(|&(name, text)| (name.to_owned(), text.to_owned()))
        .collect();
    embedded.sort();
    let names = |set: &[(String, String)]| set.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
    assert_eq!(names(&on_disk), names(&embedded), "spec names differ");
    for ((name, disk), (_, text)) in on_disk.iter().zip(&embedded) {
        assert!(
            disk == text,
            "specs/{name}.scn differs from its embedded text"
        );
    }
}
