//! Trace analysis: generate synthetic mobility with different models,
//! inspect their statistics, pick Network Central Locations, and round-trip
//! a trace through the text format.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example trace_analysis
//! ```

use omn::caching::ncl::select_ncls;
use omn::contacts::io::{read_trace, write_trace};
use omn::contacts::synth::community::{generate_community, CommunityConfig};
use omn::contacts::synth::presets::TracePreset;
use omn::contacts::{Centrality, ContactGraph, ContactTrace, TraceStats};
use omn::sim::{RngFactory, SimDuration};

fn describe(name: &str, trace: &ContactTrace) {
    let stats = TraceStats::compute(trace);
    println!(
        "{name:<16} nodes={:<4} contacts={:<7} contacts/node/day={:<7.1} mean-degree={:.1}",
        stats.node_count,
        stats.total_contacts,
        stats.contacts_per_node_per_day,
        stats.mean_degree(),
    );
    if let Some(ict) = stats.inter_contact {
        println!(
            "{:<16} inter-contact: mean {:.1} h, median {:.1} h, p95 {:.1} h",
            "",
            ict.mean / 3600.0,
            ict.median / 3600.0,
            ict.p95 / 3600.0
        );
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let factory = RngFactory::new(5);

    // Two mobility models with very different textures.
    let campus = TracePreset::RealityLike.generate(&factory);
    let community = generate_community(
        &CommunityConfig::new(40, 4, SimDuration::from_days(5.0)),
        &factory,
    );

    println!("== trace statistics ==");
    describe("reality-like", &campus);
    describe("community", &community);

    // Centrality and NCL selection on the campus trace.
    println!("\n== central nodes (reality-like) ==");
    let graph = ContactGraph::from_trace(&campus);
    for metric in [Centrality::Degree, Centrality::Closeness] {
        let top: Vec<String> = graph
            .top_k(metric, 5)
            .into_iter()
            .map(|n| n.to_string())
            .collect();
        println!("{metric:?}: {}", top.join(", "));
    }
    let ncls = select_ncls(&graph, 4);
    println!(
        "NCLs (top 4 by closeness): {}",
        ncls.iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    );

    // Round-trip the community trace through the text format.
    let mut buf = Vec::new();
    write_trace(&community, &mut buf)?;
    let parsed = read_trace(buf.as_slice())?;
    assert_eq!(parsed, community);
    println!(
        "\ntext format round-trip: {} contacts, {} bytes — OK",
        parsed.len(),
        buf.len()
    );
    Ok(())
}
