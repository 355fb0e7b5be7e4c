//! What a runtime run reports back.

use omn_contacts::NodeId;
use omn_core::protocol::ProtocolMode;
use omn_sim::metrics::{Registry, Timeline};
use omn_sim::OracleReport;

/// Per-node tallies a node task hands the supervisor at shutdown.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeReport {
    /// The reporting node.
    pub node: NodeId,
    /// Its final cached version (members and the source).
    pub cache: Option<u64>,
    /// The version it still carried as a relay, if any.
    pub carried: Option<u64>,
    /// Wire frames this node serialized and sent.
    pub msgs_sent: u64,
    /// Encoded bytes this node put on the wire (frame headers included).
    pub bytes_sent: u64,
    /// Wire frames this node received and decoded.
    pub msgs_received: u64,
    /// Encoded bytes of the frames this node decoded. A malformed frame
    /// and the rest of its batch are not counted, so on a run with a
    /// decode error this falls short of the bytes sent.
    pub bytes_received: u64,
    /// Relay copies this node handed out.
    pub replicas_created: u64,
    /// Received batches cut short by a frame that failed to decode (the
    /// rest of the batch is dropped, never panicked on).
    pub decode_errors: u64,
    /// Exact integral counters (`Effect::Count`), by name.
    pub counts: Vec<(&'static str, u64)>,
    /// Fractional-second counters (`Effect::CountSecs`), by name; the
    /// supervisor sums these as `f64` across nodes and truncates once.
    pub count_secs: Vec<(&'static str, f64)>,
}

/// The lockstep runtime's run report: the same vocabulary as the DES
/// [`FreshnessReport`](omn_core::sim::FreshnessReport) for every metric
/// the E18 cross-validation compares.
#[derive(Debug, Clone)]
pub struct RuntimeReport {
    /// Which protocol the nodes ran.
    pub mode: ProtocolMode,
    /// The source node.
    pub root: NodeId,
    /// The caching members.
    pub members: Vec<NodeId>,
    /// Versions born during the run (including the pre-placed version 0).
    pub version_count: u64,
    /// Time-weighted mean cache freshness ratio.
    pub mean_freshness: f64,
    /// Freshness ratio over time.
    pub freshness_timeline: Timeline,
    /// Total wire transmissions across all nodes.
    pub transmissions: u64,
    /// Transmissions attributed to each node as the sender, indexed by
    /// node id.
    pub per_node_transmissions: Vec<u64>,
    /// Relay copies handed to non-caching nodes.
    pub replicas: u64,
    /// Aggregated protocol counters (the DES extras vocabulary, e.g.
    /// `relay-copy-seconds`).
    pub extras: Registry,
    /// The cache version each member held at the end of the run, sorted
    /// by node id.
    pub final_member_versions: Vec<(NodeId, u64)>,
    /// Total frames received across all nodes.
    pub messages_received: u64,
    /// Total encoded bytes put on the wire across all nodes — the
    /// runtime's ground-truth measure of what a bandwidth-limited link
    /// would have to carry.
    pub bytes_sent: u64,
    /// Received batches cut short by an undecodable frame.
    pub decode_errors: u64,
    /// Supervisor-side channel failures: a node task died or a handshake
    /// ack went missing, aborting the replay. 0 on a healthy run.
    pub channel_errors: u64,
    /// Invariant-oracle verdict for the run.
    pub oracle: OracleReport,
}

/// The firehose (throughput) runtime's report: message totals and wall
/// clock, no lockstep bookkeeping.
#[derive(Debug, Clone)]
pub struct FirehoseReport {
    /// Node-task count.
    pub nodes: usize,
    /// Link-up events dispatched.
    pub contacts: u64,
    /// Version births driven.
    pub births: u64,
    /// Wire frames sent across all nodes.
    pub messages_sent: u64,
    /// Wire frames received across all nodes.
    pub messages_received: u64,
    /// Encoded bytes put on the wire across all nodes.
    pub bytes_sent: u64,
    /// Encoded bytes decoded across all nodes: equal to `bytes_sent` when
    /// every frame arrived intact.
    pub bytes_received: u64,
    /// Received batches cut short by an undecodable frame.
    pub decode_errors: u64,
    /// Supervisor-side channel failures (dead node tasks, lost acks).
    /// 0 on a healthy run.
    pub channel_errors: u64,
    /// Wall-clock time from first dispatch to full drain.
    pub elapsed: std::time::Duration,
}

impl FirehoseReport {
    /// Messages processed (received) per wall-clock second.
    #[must_use]
    pub fn msgs_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.messages_received as f64 / secs
    }
}
