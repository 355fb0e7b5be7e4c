//! The cooperative caching (data access) layer.
//!
//! Implements the NCL caching protocol end to end:
//!
//! 1. **Placement** — each source pushes a copy of each of its items toward
//!    every NCL by single-copy gradient forwarding on the expected-delay
//!    metric; relays cache the data passing through them.
//! 2. **Query forwarding** — a query travels by gradient toward the nearest
//!    NCL; any encountered node holding an unexpired copy answers it.
//! 3. **Response return** — the answer travels back to the requester by
//!    gradient on the same metric.
//!
//! Queries not answered within the configured deadline fail. The report
//! gives the query success ratio, access delays, and protocol overhead —
//! the data-access metrics of experiment E9 — plus the final set of nodes
//! caching each item, which the cache-freshness layer consumes.
//!
//! [`CachingRun`] holds the layer's state and handlers; the joint world
//! (`omn_core::joint::JointSimulator`) drives it on the shared `omn-sim`
//! event kernel, merging its timers with the contacts it pulls from a
//! [`ContactDriver`]. Query issues and deadlines are [`CachingTimer`]s,
//! and deadlines are ordered *after* contacts at the same instant (a query
//! is still servable at a contact exactly at its deadline). Under fault
//! injection, churn suppresses contacts and transmission loss fails
//! individual hops.

use omn_contacts::{ContactDriver, ContactGraph, ContactSource, NodeId, TransferOutcome};
use omn_sim::metrics::{Registry, SampleHistogram};
use omn_sim::{EventClass, SimDuration, SimTime, TransferBudget};

use crate::item::{Catalog, DataItemId};
use crate::ncl::select_ncls;
use crate::policy::CachePolicy;
use crate::query::{Query, QueryWorkload};
use crate::store::CacheStore;

/// Delivery classes for same-instant timers. Issues fire before contacts
/// (class 60) and deadlines *after* them: a query is still servable at a
/// contact exactly at its deadline.
const CLASS_QUERY_ISSUE: EventClass = EventClass(20);
const CLASS_QUERY_DEADLINE: EventClass = EventClass(200);

/// A non-contact event of the caching layer: the timer alphabet a
/// [`CachingRun`] asks its driving loop to schedule, interleaved with
/// other layers' events on a single engine.
#[derive(Debug, Clone, Copy)]
pub enum CachingTimer {
    /// The `i`-th query of the workload is issued.
    QueryIssue(usize),
    /// The `i`-th query's deadline elapses: drop it and any in-flight
    /// response.
    QueryDeadline(usize),
}

impl CachingTimer {
    /// The delivery class this timer must be scheduled in (issues before
    /// contacts, deadlines after contacts).
    #[must_use]
    pub fn class(&self) -> EventClass {
        match self {
            CachingTimer::QueryIssue(_) => CLASS_QUERY_ISSUE,
            CachingTimer::QueryDeadline(_) => CLASS_QUERY_DEADLINE,
        }
    }
}

/// On-the-wire byte lengths of the caching protocol's message kinds.
///
/// Sizes are only consulted when the per-contact [`TransferBudget`]
/// carries a byte capacity (the bandwidth-realistic E19 world); classic
/// slot-counting worlds attach none, so any size configuration is
/// bit-identical there. [`MessageSizes::ZERO`] makes every message
/// zero-length, which degrades the sized path to slot counting even
/// *under* a byte capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageSizes {
    /// Bytes of a data copy on the wire (placement hops and response
    /// payloads); `None` uses each item's own catalog size.
    pub data: Option<u64>,
    /// Bytes of a query message.
    pub query: u64,
    /// Response framing bytes on top of the data payload.
    pub response_overhead: u64,
}

impl MessageSizes {
    /// Every message is zero-length: the sized path can never be
    /// byte-denied, reproducing slot-counting semantics exactly.
    pub const ZERO: MessageSizes = MessageSizes {
        data: Some(0),
        query: 0,
        response_overhead: 0,
    };

    /// The wire length of a data copy of `item`.
    #[must_use]
    pub fn data_bytes(&self, item: &crate::item::DataItem) -> u64 {
        self.data.unwrap_or_else(|| item.size())
    }

    /// The wire length of a response carrying `item`.
    #[must_use]
    pub fn response_bytes(&self, item: &crate::item::DataItem) -> u64 {
        self.data_bytes(item).saturating_add(self.response_overhead)
    }
}

impl Default for MessageSizes {
    /// Per-item data sizes with a 64-byte query and 64 bytes of response
    /// framing — the catalog's sizes become the wire truth.
    fn default() -> MessageSizes {
        MessageSizes {
            data: None,
            query: 64,
            response_overhead: 64,
        }
    }
}

/// Caching-layer parameters.
#[derive(Debug, Clone)]
pub struct CachingConfig {
    /// How many Network Central Locations to cache at (the most central
    /// nodes by delay-closeness; see [`select_ncls`]).
    pub ncls: usize,
    /// Per-node cache capacity in items.
    pub cache_capacity: usize,
    /// Query deadline: unanswered queries older than this fail.
    pub query_deadline: SimDuration,
    /// Wire lengths of the protocol's messages, charged against the
    /// contact byte capacity when one is attached. Irrelevant (any value)
    /// under slot-counting budgets.
    pub sizes: MessageSizes,
}

impl Default for CachingConfig {
    fn default() -> CachingConfig {
        CachingConfig {
            ncls: 4,
            cache_capacity: 16,
            query_deadline: SimDuration::from_hours(24.0),
            sizes: MessageSizes::default(),
        }
    }
}

/// A query or response in flight, carried by exactly one node. `qid`
/// indexes the workload and keys deadline-driven removal.
#[derive(Debug, Clone, Copy)]
struct PendingQuery {
    qid: usize,
    query: Query,
    carrier: NodeId,
    hops: u32,
}

#[derive(Debug, Clone, Copy)]
struct PendingResponse {
    qid: usize,
    query: Query,
    version: u64,
    carrier: NodeId,
    hops: u32,
}

#[derive(Debug, Clone, Copy)]
struct PlacementCopy {
    item: DataItemId,
    target_ncl: NodeId,
    carrier: NodeId,
}

/// Results of a caching-layer run.
#[derive(Debug, Clone)]
pub struct AccessReport {
    /// Queries issued.
    pub created: usize,
    /// Queries answered within the deadline.
    pub satisfied: usize,
    /// Of those, answered with a copy matching the item's current version
    /// at service time. Without a freshness layer versions never advance,
    /// so this always equals `satisfied`; with one
    /// ([`CachingRun::set_version`]) it is a strict subset.
    pub satisfied_fresh: usize,
    /// Of those, answered from the requester's own cache.
    pub local_hits: usize,
    /// Access delays (seconds) of satisfied queries.
    pub delays: SampleHistogram,
    /// Message transfers performed by the protocol (placement + query +
    /// response hops). Failed hops (transmission loss) are included: the
    /// send happened even if the receive did not.
    pub transmissions: u64,
    /// Kernel and fault counters: `down-contacts` (suppressed by churn),
    /// `failed-transmissions` (hops lost to transmission loss). Empty
    /// without fault injection.
    pub extras: Registry,
    /// Nodes caching each item at the end of the run (indexed by item id),
    /// including the item's source.
    pub cachers_per_item: Vec<Vec<NodeId>>,
}

impl AccessReport {
    /// Satisfied / created, or 0 when no queries were issued.
    #[must_use]
    pub fn success_ratio(&self) -> f64 {
        if self.created == 0 {
            0.0
        } else {
            self.satisfied as f64 / self.created as f64
        }
    }

    /// Mean access delay over satisfied queries.
    #[must_use]
    pub fn mean_delay(&self) -> Option<f64> {
        self.delays.mean()
    }

    /// Satisfied-fresh / created, or 0 when no queries were issued: the
    /// fraction of all queries answered with a current-version copy.
    #[must_use]
    pub fn fresh_access_ratio(&self) -> f64 {
        if self.created == 0 {
            0.0
        } else {
            self.satisfied_fresh as f64 / self.created as f64
        }
    }
}

/// Performs one budgeted hop of `bytes` on the wire: consumes budget,
/// draws the loss fate, and maintains the transmission and fault counters.
/// Returns whether the hop delivered (the caller then applies the data
/// effect). A denied attempt — slot-over-budget or byte-over-capacity —
/// is treated as never made: no loss draw, no transmission. A byte-denied
/// message does not vanish: its payload stays with the current carrier
/// (carrier persistence *is* the caching layer's transmission queue) and
/// is retried at the next contact.
fn budgeted_hop<S: ContactSource>(
    driver: &mut ContactDriver<S>,
    budget: &mut TransferBudget,
    extras: &mut Registry,
    transmissions: &mut u64,
    bytes: u64,
) -> bool {
    match driver.budgeted_transfer_sized(budget, bytes) {
        TransferOutcome::OverBudget => {
            extras.add("budget-deferred-transmissions", 1);
            false
        }
        TransferOutcome::ByteDenied => {
            extras.add("byte-deferred-transmissions", 1);
            false
        }
        TransferOutcome::Lost => {
            *transmissions += 1;
            extras.add("failed-transmissions", 1);
            false
        }
        TransferOutcome::Sent => {
            *transmissions += 1;
            true
        }
    }
}

/// One caching participant: the complete state of an NCL caching run
/// (per-node stores, in-flight placements, queries and responses,
/// counters), with one entry point for timers ([`CachingRun::on_timer`])
/// and one for contacts ([`CachingRun::on_contact`]).
///
/// The joint world drives it — alongside any freshness participants —
/// from a single engine over one shared contact stream, with every hop
/// drawing on a per-contact [`TransferBudget`]. It also advances per-item
/// versions
/// ([`CachingRun::set_version`]) as the freshness layer births them,
/// propagate refreshed copies into caches ([`CachingRun::refresh_copy`])
/// and may demote stale replicas ([`CachingRun::demote_stale`]); queries
/// answered with a current-version copy count as `satisfied_fresh`.
#[derive(Debug)]
pub struct CachingRun<'a> {
    catalog: &'a Catalog,
    policy: &'a dyn CachePolicy,
    qs: &'a [Query],
    ncls: Vec<NodeId>,
    /// All-pairs expected delays for gradient forwarding:
    /// `delays[target][x]` is the expected delay from `x` to `target`.
    delays: Vec<Vec<Option<f64>>>,
    stores: Vec<CacheStore>,
    placements: Vec<PlacementCopy>,
    pending_queries: Vec<PendingQuery>,
    pending_responses: Vec<PendingResponse>,
    /// Current version per item (all zeros unless a freshness layer
    /// advances them via [`CachingRun::set_version`]).
    versions: Vec<u64>,
    sizes: MessageSizes,
    deadline: SimDuration,
    last_contact_start: Option<SimTime>,
    satisfied: usize,
    satisfied_fresh: usize,
    local_hits: usize,
    delays_hist: SampleHistogram,
    transmissions: u64,
}

impl<'a> CachingRun<'a> {
    /// Builds a participant plus the initial timers its driving loop must
    /// schedule (the query issues — deadline timers are returned by
    /// [`CachingRun::on_timer`], and contacts come from the caller's
    /// shared [`ContactDriver`]). Each timer goes into the class
    /// [`CachingTimer::class`] reports.
    ///
    /// Queries issued after the final contact start can no longer be
    /// served and are not scheduled (they still count as
    /// created-but-unsatisfied).
    #[must_use]
    pub fn new<S: ContactSource>(
        config: &CachingConfig,
        graph: &ContactGraph,
        catalog: &'a Catalog,
        queries: &'a QueryWorkload,
        policy: &'a dyn CachePolicy,
        driver: &ContactDriver<S>,
    ) -> (CachingRun<'a>, Vec<(SimTime, CachingTimer)>) {
        let n = driver.node_count();
        let ncls = select_ncls(graph, config.ncls);
        let delays: Vec<Vec<Option<f64>>> = (0..n)
            .map(|i| graph.shortest_expected_delays(NodeId(i as u32)))
            .collect();

        // Placement: one copy per (item, NCL), initially at the source.
        // Sources cache their own items permanently (conceptually the
        // authoritative copy, not counted against cache capacity).
        let mut placements: Vec<PlacementCopy> = Vec::new();
        for item in catalog.items() {
            for &ncl in &ncls {
                if ncl != item.source() {
                    placements.push(PlacementCopy {
                        item: item.id(),
                        target_ncl: ncl,
                        carrier: item.source(),
                    });
                }
            }
        }

        let last_contact_start = driver.last_contact_start();
        let qs = queries.queries();
        let timers: Vec<(SimTime, CachingTimer)> = qs
            .iter()
            .enumerate()
            .filter(|(_, q)| last_contact_start.is_some_and(|last| q.issued <= last))
            .map(|(i, q)| (q.issued, CachingTimer::QueryIssue(i)))
            .collect();

        let run = CachingRun {
            catalog,
            policy,
            qs,
            ncls,
            delays,
            stores: (0..n)
                .map(|_| CacheStore::new(config.cache_capacity))
                .collect(),
            placements,
            pending_queries: Vec::new(),
            pending_responses: Vec::new(),
            versions: vec![0; catalog.len()],
            sizes: config.sizes,
            deadline: config.query_deadline,
            last_contact_start,
            satisfied: 0,
            satisfied_fresh: 0,
            local_hits: 0,
            delays_hist: SampleHistogram::new(),
            transmissions: 0,
        };
        (run, timers)
    }

    /// The network central locations the placement targets.
    #[must_use]
    pub fn ncls(&self) -> &[NodeId] {
        &self.ncls
    }

    /// Current cache occupancy of `node` as `(stored, capacity)` — the
    /// observable the cache-capacity invariant oracle audits.
    #[must_use]
    pub fn store_occupancy(&self, node: NodeId) -> (usize, usize) {
        let store = &self.stores[node.index()];
        (store.len(), store.capacity())
    }

    /// The current version of `item` as this layer knows it.
    #[must_use]
    pub fn version_of(&self, item: DataItemId) -> u64 {
        self.versions[item.index()]
    }

    /// Advances `item`'s current version (a freshness-layer birth). Copies
    /// already in caches keep their old version and become stale; a query
    /// they answer no longer counts as `satisfied_fresh`.
    pub fn set_version(&mut self, item: DataItemId, version: u64) {
        self.versions[item.index()] = version;
    }

    /// Propagates a refreshed copy into `node`'s cache: if the node caches
    /// `item` at an older version, the entry is updated in place (the
    /// freshness layer already paid for the transmission). Nodes without a
    /// copy are unaffected. Returns whether an entry was refreshed.
    ///
    /// `#[inline]`: the joint world's loop, in another crate, calls this on
    /// every contact for each endpoint that is a freshness-layer member.
    #[inline]
    pub fn refresh_copy(
        &mut self,
        node: NodeId,
        item: DataItemId,
        version: u64,
        now: SimTime,
    ) -> bool {
        if node == self.catalog.item(item).source() {
            return false;
        }
        self.stores[node.index()].refresh(item, version, now)
    }

    /// Demotes replicas of `item` that lag the current version by more
    /// than one: they are evicted, and for each demoted NCL a re-pull
    /// placement copy is enqueued at the source. Returns
    /// `(demoted, repulls)`.
    pub fn demote_stale(&mut self, item: DataItemId, current: u64) -> (u64, u64) {
        let source = self.catalog.item(item).source();
        let mut demoted = 0u64;
        let mut repulls = 0u64;
        for (node, store) in self.stores.iter_mut().enumerate() {
            let id = NodeId(node as u32);
            if id == source {
                continue;
            }
            if store
                .peek(item)
                .is_some_and(|e| e.version.saturating_add(1) < current)
            {
                store.remove(item);
                demoted += 1;
                if self.ncls.contains(&id) {
                    self.placements.push(PlacementCopy {
                        item,
                        target_ncl: id,
                        carrier: source,
                    });
                    repulls += 1;
                }
            }
        }
        (demoted, repulls)
    }

    /// Does `node` hold an answer for `item` at `now`? The source always
    /// does (at the current version).
    ///
    /// `#[inline]`: `on_contact` and `on_timer` call this per contact and
    /// per query, and without the hint a release build places it in
    /// another codegen unit and calls it out of line.
    #[inline]
    fn holds(
        stores: &[CacheStore],
        catalog: &Catalog,
        versions: &[u64],
        node: NodeId,
        item: DataItemId,
        now: SimTime,
    ) -> Option<u64> {
        let meta = catalog.item(item);
        if node == meta.source() {
            return Some(versions[item.index()]);
        }
        stores[node.index()]
            .peek(item)
            .filter(|e| now.saturating_since(e.fetched_at) <= meta.lifetime())
            .map(|e| e.version)
    }

    /// Handles a caching timer. A query issue that is not a local hit
    /// starts searching and returns its deadline timer, which must be
    /// scheduled (it is `None` when the deadline falls beyond the final
    /// contact and can never matter). A deadline drops the query and any
    /// in-flight response.
    #[must_use = "a returned deadline timer must be scheduled"]
    pub fn on_timer(&mut self, timer: CachingTimer) -> Option<(SimTime, CachingTimer)> {
        let qid = match timer {
            CachingTimer::QueryIssue(qid) => qid,
            CachingTimer::QueryDeadline(qid) => {
                self.pending_queries.retain(|p| p.qid != qid);
                self.pending_responses.retain(|p| p.qid != qid);
                return None;
            }
        };
        let q = self.qs[qid];
        if let Some(version) = Self::holds(
            &self.stores,
            self.catalog,
            &self.versions,
            q.requester,
            q.item,
            q.issued,
        ) {
            self.stores[q.requester.index()].access(q.item, q.issued);
            self.satisfied += 1;
            self.local_hits += 1;
            self.delays_hist.record(0.0);
            if version == self.versions[q.item.index()] {
                self.satisfied_fresh += 1;
            }
            None
        } else {
            self.pending_queries.push(PendingQuery {
                qid,
                query: q,
                carrier: q.requester,
                hops: 0,
            });
            let due = q.issued + self.deadline;
            self.last_contact_start
                .is_some_and(|last| due <= last)
                .then_some((due, CachingTimer::QueryDeadline(qid)))
        }
    }

    /// Handles a deliverable contact between `a` and `b`: placement
    /// forwarding, query answering/forwarding, and response return, in
    /// that order. Every hop draws on `budget`; the caller classifies the
    /// contact's fate (only deliverable contacts reach this handler) and
    /// owns the fault/budget counters in `extras`.
    pub fn on_contact<S: ContactSource>(
        &mut self,
        a: NodeId,
        b: NodeId,
        now: SimTime,
        driver: &mut ContactDriver<S>,
        extras: &mut Registry,
        budget: &mut TransferBudget,
    ) {
        let CachingRun {
            catalog,
            policy,
            ncls,
            delays,
            stores,
            placements,
            pending_queries,
            pending_responses,
            versions,
            sizes,
            satisfied,
            satisfied_fresh,
            delays_hist,
            transmissions,
            ..
        } = self;
        let sizes = *sizes;
        let delay_to = |x: NodeId, target: NodeId| delays[target.index()][x.index()];
        // Strictly-closer test with a small margin to avoid ping-ponging on
        // ties.
        let closer = |candidate: NodeId, current: NodeId, target: NodeId| -> bool {
            match (delay_to(candidate, target), delay_to(current, target)) {
                (Some(c), Some(k)) => c + 1e-9 < k,
                (Some(_), None) => true,
                _ => false,
            }
        };

        // 1. Placement forwarding. A hop lost to transmission loss still
        // counts as a transmission (the send happened), but moves no data.
        for p in placements.iter_mut() {
            let (carrier, peer) = if p.carrier == a {
                (a, b)
            } else if p.carrier == b {
                (b, a)
            } else {
                continue;
            };
            let meta = catalog.item(p.item);
            let data_bytes = sizes.data_bytes(meta);
            if peer == p.target_ncl {
                if budgeted_hop(driver, budget, extras, transmissions, data_bytes) {
                    stores[peer.index()].put(meta, versions[p.item.index()], now, *policy);
                    p.carrier = peer; // parked at the NCL; retired below
                }
            } else if closer(peer, carrier, p.target_ncl)
                && budgeted_hop(driver, budget, extras, transmissions, data_bytes)
            {
                stores[peer.index()].put(meta, versions[p.item.index()], now, *policy);
                p.carrier = peer;
            }
        }
        placements.retain(|p| p.carrier != p.target_ncl);

        // 2. Query handling: answer or forward.
        let mut answered: Vec<usize> = Vec::new();
        for (idx, p) in pending_queries.iter_mut().enumerate() {
            let (carrier, peer) = if p.carrier == a {
                (a, b)
            } else if p.carrier == b {
                (b, a)
            } else {
                continue;
            };
            // Peer can answer?
            if let Some(version) = Self::holds(stores, catalog, versions, peer, p.query.item, now) {
                // The query is handed to the answerer.
                if budgeted_hop(driver, budget, extras, transmissions, sizes.query) {
                    pending_responses.push(PendingResponse {
                        qid: p.qid,
                        query: p.query,
                        version,
                        carrier: peer,
                        hops: p.hops + 1,
                    });
                    answered.push(idx);
                }
                continue;
            }
            // Otherwise forward toward the nearest NCL (by expected delay
            // from the peer vs carrier, minimized over NCLs).
            let best = |x: NodeId| {
                ncls.iter()
                    .filter_map(|&ncl| delay_to(x, ncl))
                    .fold(f64::INFINITY, f64::min)
            };
            if best(peer) + 1e-9 < best(carrier)
                && budgeted_hop(driver, budget, extras, transmissions, sizes.query)
            {
                p.carrier = peer;
                p.hops += 1;
            }
        }
        for idx in answered.into_iter().rev() {
            pending_queries.swap_remove(idx);
        }

        // 3. Response return.
        let mut delivered: Vec<usize> = Vec::new();
        for (idx, r) in pending_responses.iter_mut().enumerate() {
            let (carrier, peer) = if r.carrier == a {
                (a, b)
            } else if r.carrier == b {
                (b, a)
            } else {
                continue;
            };
            let response_bytes = sizes.response_bytes(catalog.item(r.query.item));
            if peer == r.query.requester {
                if budgeted_hop(driver, budget, extras, transmissions, response_bytes) {
                    *satisfied += 1;
                    if r.version == versions[r.query.item.index()] {
                        *satisfied_fresh += 1;
                    }
                    delays_hist.record(now.saturating_since(r.query.issued).as_secs());
                    // Requester caches the received item.
                    stores[peer.index()].put(catalog.item(r.query.item), r.version, now, *policy);
                    delivered.push(idx);
                }
            } else if closer(peer, carrier, r.query.requester)
                && budgeted_hop(driver, budget, extras, transmissions, response_bytes)
            {
                r.carrier = peer;
                r.hops += 1;
            }
        }
        for idx in delivered.into_iter().rev() {
            pending_responses.swap_remove(idx);
        }
    }

    /// Folds the run into a report. `end` is the trace span (cachers are
    /// assessed for expiry at that instant); `extras` is the fault/budget
    /// counter registry the driving loop maintained.
    #[must_use]
    pub fn finish(self, end: SimTime, extras: Registry) -> AccessReport {
        let mut cachers_per_item = vec![Vec::new(); self.catalog.len()];
        // Final caching sets (source + nodes holding unexpired copies).
        for item in self.catalog.items() {
            let mut cachers = vec![item.source()];
            for (node, store) in self.stores.iter().enumerate() {
                let id = NodeId(node as u32);
                if id != item.source()
                    && store
                        .peek(item.id())
                        .is_some_and(|e| end.saturating_since(e.fetched_at) <= item.lifetime())
                {
                    cachers.push(id);
                }
            }
            cachers_per_item[item.id().index()] = cachers;
        }
        AccessReport {
            created: self.qs.len(),
            satisfied: self.satisfied,
            satisfied_fresh: self.satisfied_fresh,
            local_hits: self.local_hits,
            delays: self.delays_hist,
            transmissions: self.transmissions,
            extras,
            cachers_per_item,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::DataItem;

    #[test]
    fn message_sizes_resolve_against_the_catalog() {
        let catalog = Catalog::new(vec![DataItem::new(
            DataItemId(0),
            NodeId(0),
            100,
            SimDuration::from_secs(1000.0),
            SimDuration::from_secs(1e6),
        )]);
        let item = catalog.item(DataItemId(0));
        let default = MessageSizes::default();
        assert_eq!(default.data_bytes(item), 100);
        assert_eq!(default.response_bytes(item), 164);
        assert_eq!(MessageSizes::ZERO.data_bytes(item), 0);
        assert_eq!(MessageSizes::ZERO.response_bytes(item), 0);
        let fixed = MessageSizes {
            data: Some(5000),
            ..MessageSizes::default()
        };
        assert_eq!(fixed.data_bytes(item), 5000);
        assert_eq!(fixed.response_bytes(item), 5064);
    }
}
