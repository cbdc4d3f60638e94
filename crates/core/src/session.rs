//! Multi-query sessions: one shared stream, many standing queries.
//!
//! The paper's programmable engine was built so *many* matching variants can
//! run over the same stream, but [`crate::Mnemonic`] wires exactly one
//! [`QueryGraph`] + matcher per engine. A [`MnemonicSession`] lifts that
//! restriction: it owns one [`StreamingGraph`] and the delta-batch ingest
//! pipeline, and any number of standing queries can be
//! [`registered`](MnemonicSession::register_query) against it (and
//! deregistered again under churn). Every batch is then ingested **once** —
//! one graph update, one unified traversal frontier, one deletion
//! resolution, one filtering pass that refreshes every query's index
//! together — and only enumeration fans out per query, with the work units
//! of *all* queries pooled and scheduled heaviest-first across one shared
//! work-stealing pool. K standing queries
//! share graph storage and scheduling instead of paying for K independent
//! engines.
//!
//! Results are no longer threaded through every call: each
//! [`QueryHandle`] owns its subscription. Attach an
//! [`EmbeddingSink`] for streaming delivery, or let the session buffer
//! embeddings and [`drain`](QueryHandle::drain) a [`ResultBatch`] at your own
//! pace. The whole surface is fallible: construction and ingest return
//! [`MnemonicError`] instead of panicking.
//!
//! ```
//! use mnemonic_core::api::LabelEdgeMatcher;
//! use mnemonic_core::session::MnemonicSession;
//! use mnemonic_core::variants::Isomorphism;
//! use mnemonic_query::patterns;
//! use mnemonic_stream::event::StreamEvent;
//!
//! # fn main() -> Result<(), mnemonic_core::MnemonicError> {
//! let mut session = MnemonicSession::builder().sequential().batch_size(2).build()?;
//! let triangles = session.register_query(
//!     patterns::triangle(),
//!     Box::new(LabelEdgeMatcher),
//!     Box::new(Isomorphism),
//! )?;
//! let paths = session.register_query(
//!     patterns::path(3),
//!     Box::new(LabelEdgeMatcher),
//!     Box::new(Isomorphism),
//! )?;
//! session.run_events([
//!     StreamEvent::insert(0, 1, 0),
//!     StreamEvent::insert(1, 2, 0),
//!     StreamEvent::insert(2, 0, 0),
//! ])?;
//! assert_eq!(triangles.drain().positive.len(), 3); // 3 rotational mappings
//! assert!(!paths.drain().positive.is_empty());
//! # Ok(())
//! # }
//! ```

use crate::api::{EdgeMatcher, MatchSemantics, UpdateMode};
use crate::debi::{Debi, DebiStats};
use crate::embedding::{CompleteEmbedding, EmbeddingSink, Sign};
use crate::engine::{BatchResult, EngineConfig};
use crate::enumerate::{Enumerator, WorkUnit};
use crate::error::MnemonicError;
use crate::filter::{QueryRequirements, TopDownPass, VertexCandidacy};
use crate::frontier::UnifiedFrontier;
use crate::parallel;
use crate::pipeline::{
    BatchScratch, DeletionResolve, DeltaBatch, Enumerate, Filtering, FrontierBuild, GraphUpdate,
};
use crate::rebalance::QueryBudget;
use crate::stats::{
    BudgetSnapshot, CounterSnapshot, EngineCounters, PhaseTimings, QueryStats, SpillSnapshot,
    SpillTelemetry,
};
use mnemonic_graph::bitset::DenseBitSet;
use mnemonic_graph::edge::Edge;
use mnemonic_graph::multigraph::{GraphConfig, StreamingGraph};
use mnemonic_graph::spill::{SpillConfig, SpillManager, SpillStats};
use mnemonic_graph::stats::GraphStats;
use mnemonic_graph::storage::StorageConfig;
use mnemonic_query::masking::MaskTable;
use mnemonic_query::matching_order::MatchingOrderSet;
use mnemonic_query::query_graph::QueryGraph;
use mnemonic_query::query_tree::QueryTree;
use mnemonic_query::root::{select_root, LabelFrequencies};
use mnemonic_stream::event::StreamEvent;
use mnemonic_stream::generator::SnapshotGenerator;
use mnemonic_stream::snapshot::Snapshot;
use mnemonic_stream::source::EventSource;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Identifier of a standing query within one session. Ids are never reused,
/// even after [`MnemonicSession::deregister`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(pub u64);

/// Embeddings buffered for one query since the last
/// [`QueryHandle::drain`] call.
#[derive(Debug, Default, Clone)]
pub struct ResultBatch {
    /// Newly formed embeddings, in emission order.
    pub positive: Vec<CompleteEmbedding>,
    /// Removed ("negative") embeddings, in emission order.
    pub negative: Vec<CompleteEmbedding>,
}

impl ResultBatch {
    /// Total number of embeddings in the batch.
    pub fn len(&self) -> usize {
        self.positive.len() + self.negative.len()
    }

    /// Whether the batch holds no embeddings at all.
    pub fn is_empty(&self) -> bool {
        self.positive.is_empty() && self.negative.is_empty()
    }
}

/// The shared result channel behind a [`QueryHandle`]: buffers embeddings
/// until drained. When a sink is attached, the session resolves it **once
/// per batch** and routes enumeration straight into it, so the per-embedding
/// hot path never touches the mutex below.
#[derive(Default)]
pub(crate) struct QueryOutput {
    pub(crate) sink: Mutex<Option<Arc<dyn EmbeddingSink>>>,
    pub(crate) positive: Mutex<Vec<CompleteEmbedding>>,
    pub(crate) negative: Mutex<Vec<CompleteEmbedding>>,
    pub(crate) accepted: AtomicU64,
    /// Total wall time of this query's enumeration work units, attributed by
    /// the [`Enumerate`](crate::pipeline::Enumerate) stage.
    pub(crate) enumeration_nanos: AtomicU64,
    /// Work units run by this query in the current batch (reset per batch;
    /// only maintained while a [`QueryBudget`] is active).
    pub(crate) batch_units_used: AtomicU64,
    /// Enumeration nanos spent by this query in the current batch (reset per
    /// batch; only maintained while a [`QueryBudget`] is active).
    pub(crate) batch_nanos_used: AtomicU64,
    /// Work units deferred past their batch by the budget, cumulatively.
    pub(crate) deferred_units: AtomicU64,
    /// Deferred work units that have since completed, cumulatively.
    pub(crate) completed_deferred_units: AtomicU64,
    /// Batches in which this query exhausted its budget.
    pub(crate) deferral_batches: AtomicU64,
    /// Buffered-embedding watermarks as of the last *sealed* batch. A batch
    /// that dies mid-enumeration (shard panic) leaves partial output above
    /// these marks; [`MnemonicSession::quarantine_queries`] truncates back
    /// to them so the replay can re-emit the batch exactly once.
    pub(crate) sealed_positive: AtomicU64,
    pub(crate) sealed_negative: AtomicU64,
}

impl QueryOutput {
    pub(crate) fn budget_snapshot(&self) -> BudgetSnapshot {
        let deferred = self.deferred_units.load(Ordering::Relaxed);
        let completed = self.completed_deferred_units.load(Ordering::Relaxed);
        BudgetSnapshot {
            deferred_units: deferred,
            completed_deferred_units: completed,
            backlog_units: deferred.saturating_sub(completed),
            deferral_batches: self.deferral_batches.load(Ordering::Relaxed),
        }
    }
}

impl EmbeddingSink for QueryOutput {
    fn accept(&self, embedding: CompleteEmbedding, sign: Sign) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
        match sign {
            Sign::Positive => self.positive.lock().push(embedding),
            Sign::Negative => self.negative.lock().push(embedding),
        }
    }

    fn count(&self) -> u64 {
        self.accepted.load(Ordering::Relaxed)
    }
}

/// The caller's end of one standing query: a cheap, cloneable handle that
/// owns the query's result subscription.
///
/// Results arrive either through an attached [`EmbeddingSink`]
/// ([`QueryHandle::attach_sink`]) or, when no sink is attached, in an
/// internal buffer drained with [`QueryHandle::drain`]. The handle stays
/// usable for draining after [`MnemonicSession::deregister`]; it simply stops
/// receiving new embeddings.
#[derive(Clone)]
pub struct QueryHandle {
    id: QueryId,
    output: Arc<QueryOutput>,
    counters: Arc<EngineCounters>,
    /// Session-published spill telemetry, shared by every handle of the
    /// session (see [`QueryHandle::spill_stats`]).
    spill: Arc<SpillTelemetry>,
}

impl std::fmt::Debug for QueryHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryHandle")
            .field("id", &self.id)
            .field("buffered", &self.buffered())
            .finish()
    }
}

impl QueryHandle {
    /// The session-wide id of this query.
    pub fn id(&self) -> QueryId {
        self.id
    }

    /// Attach a sink that receives every embedding of this query as it is
    /// emitted, bypassing the internal buffer from the next batch on.
    /// Returns the previously attached sink, if any. The caller can keep a
    /// clone of the [`Arc`] to observe the sink while it stays attached.
    /// Embeddings already buffered stay buffered; use
    /// [`QueryHandle::drain`] to collect them.
    pub fn attach_sink(&self, sink: Arc<dyn EmbeddingSink>) -> Option<Arc<dyn EmbeddingSink>> {
        self.output.sink.lock().replace(sink)
    }

    /// Detach the currently attached sink, returning it. Future embeddings
    /// are buffered again.
    pub fn detach_sink(&self) -> Option<Arc<dyn EmbeddingSink>> {
        self.output.sink.lock().take()
    }

    /// Drain every buffered embedding accumulated since the last drain.
    pub fn drain(&self) -> ResultBatch {
        let positive = std::mem::take(&mut *self.output.positive.lock());
        let negative = std::mem::take(&mut *self.output.negative.lock());
        self.output.sealed_positive.store(0, Ordering::Relaxed);
        self.output.sealed_negative.store(0, Ordering::Relaxed);
        ResultBatch { positive, negative }
    }

    /// Number of embeddings currently buffered (not yet drained).
    pub fn buffered(&self) -> usize {
        self.output.positive.lock().len() + self.output.negative.lock().len()
    }

    /// Total number of embeddings this query has emitted (buffered or
    /// forwarded) over its lifetime.
    pub fn accepted(&self) -> u64 {
        self.output.accepted.load(Ordering::Relaxed)
    }

    /// This query's cumulative engine counters, readable without going
    /// through the session (and still readable after
    /// [`MnemonicSession::deregister`]). The same numbers as
    /// [`MnemonicSession::counters`], shared by reference.
    pub fn counters(&self) -> CounterSnapshot {
        self.counters.snapshot()
    }

    /// Total wall time spent running this query's enumeration work units
    /// over its lifetime, summed per unit (so across a parallel pool it can
    /// exceed the batch wall-clock). Divide by the sum over all handles of a
    /// session — or use [`QueryStats::enumeration_share`] — to get the
    /// query's share of the pooled enumeration phase; sharded and unsharded
    /// runs of the same stream can be compared per query this way.
    pub fn enumeration_time(&self) -> Duration {
        Duration::from_nanos(self.output.enumeration_nanos.load(Ordering::Relaxed))
    }

    /// Bundle of this query's per-query statistics: cumulative counters,
    /// attributed enumeration time, fairness-budget activity and the
    /// session's spill-tier health.
    pub fn stats(&self) -> QueryStats {
        QueryStats {
            counters: self.counters(),
            enumeration: self.enumeration_time(),
            budget: self.output.budget_snapshot(),
            spill: self.spill.snapshot(),
        }
    }

    /// The owning session's spill-tier telemetry as of the last sealed
    /// batch: disk occupancy, absorbed I/O errors and (for the paged
    /// backend) page-cache counters. Shared by every handle of the session
    /// and readable lock-free, even after deregistration. All zero when the
    /// session has no spill tier.
    pub fn spill_stats(&self) -> SpillSnapshot {
        self.spill.snapshot()
    }

    /// This query's fairness-budget activity (all zero when no
    /// [`QueryBudget`] is configured on the session).
    pub fn budget_stats(&self) -> BudgetSnapshot {
        self.output.budget_snapshot()
    }
}

/// Per-batch outcome of a session: the shared graph-level deltas plus one
/// [`BatchResult`] per standing query.
#[derive(Debug, Default, Clone)]
pub struct SessionBatchResult {
    /// Snapshot sequence number.
    pub snapshot_id: u64,
    /// Edges inserted by this batch (shared across all queries).
    pub insertions: usize,
    /// Edges deleted by this batch (shared across all queries).
    pub deletions: usize,
    /// Wall-clock phase breakdown of the whole batch (all queries).
    pub timings: PhaseTimings,
    /// Per-query outcome, in registration order.
    pub per_query: Vec<(QueryId, BatchResult)>,
}

impl SessionBatchResult {
    /// The outcome of one query, if it was registered during this batch.
    pub fn for_query(&self, id: QueryId) -> Option<&BatchResult> {
        self.per_query
            .iter()
            .find(|(qid, _)| *qid == id)
            .map(|(_, r)| r)
    }

    /// Newly formed embeddings summed over all queries.
    pub fn total_new_embeddings(&self) -> u64 {
        self.per_query.iter().map(|(_, r)| r.new_embeddings).sum()
    }

    /// Removed embeddings summed over all queries.
    pub fn total_removed_embeddings(&self) -> u64 {
        self.per_query
            .iter()
            .map(|(_, r)| r.removed_embeddings)
            .sum()
    }
}

/// Validated constructor for [`MnemonicSession`].
///
/// Unlike the infallible [`EngineConfig`] paths (which clamp a zero batch
/// size to one), the builder rejects invalid configurations with
/// [`MnemonicError::InvalidConfig`].
#[derive(Debug, Clone, Default)]
pub struct SessionBuilder {
    config: EngineConfig,
}

impl SessionBuilder {
    /// Start from the default engine configuration (parallel, one worker per
    /// logical CPU, the paper's default delta-batch size).
    pub fn new() -> Self {
        Self::default()
    }

    /// Replace the whole configuration at once.
    pub fn config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// Set the worker thread count (`0` = one per logical CPU).
    pub fn threads(mut self, num_threads: usize) -> Self {
        self.config.num_threads = num_threads;
        self.config.parallel = true;
        self
    }

    /// Single-threaded execution with no thread pool at all.
    pub fn sequential(mut self) -> Self {
        self.config.num_threads = 1;
        self.config.parallel = false;
        self
    }

    /// Set how pushed events are grouped into delta batches. A
    /// [`UpdateMode::Batched`]`(0)` is rejected at [`SessionBuilder::build`]
    /// time.
    pub fn update_mode(mut self, mode: UpdateMode) -> Self {
        self.config.update_mode = mode;
        self
    }

    /// Set the delta-batch size directly: `1` selects
    /// [`UpdateMode::PerEdge`]; `0` is rejected at
    /// [`SessionBuilder::build`] time (the clamp-vs-error contract
    /// documented on [`UpdateMode`]).
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.config.update_mode = UpdateMode::from_batch_size(batch_size);
        self
    }

    /// Whether deleted edge slots are reused (Figure 17's "with reclaiming").
    pub fn recycle_edge_ids(mut self, recycle: bool) -> Self {
        self.config.recycle_edge_ids = recycle;
        self
    }

    /// Enable the external-memory spill tier.
    pub fn spill(mut self, spill: SpillConfig) -> Self {
        self.config.spill = Some(spill);
        self
    }

    /// Choose the storage backend for the spill tier (see
    /// [`StorageConfig`]). A paged configuration implies a spill tier with
    /// [`SpillConfig::default`] when none was set through
    /// [`SessionBuilder::spill`], so `.storage(StorageConfig::paged())`
    /// alone is enough to opt in.
    pub fn storage(mut self, storage: StorageConfig) -> Self {
        self.config.storage = storage;
        self
    }

    /// Cap each query's enumeration work per batch (see [`QueryBudget`]).
    /// Work past the cap is deferred to later batches, never dropped.
    pub fn query_budget(mut self, budget: QueryBudget) -> Self {
        self.config.query_budget = Some(budget);
        self
    }

    /// Validate the configuration and construct the session.
    ///
    /// # Errors
    /// [`MnemonicError::InvalidConfig`] for a zero delta-batch size;
    /// [`MnemonicError::Spill`] when the spill tier cannot be created.
    pub fn build(self) -> Result<MnemonicSession, MnemonicError> {
        MnemonicSession::new(self.config)
    }
}

/// The buffered-ingest core shared by [`MnemonicSession`] and
/// [`crate::shard::ShardedSession`]: events accumulate until the configured
/// delta-batch size is reached, then drain into one [`DeltaBatch`] numbered
/// by the caller's batch counter. Keeping the threshold check and the batch
/// construction in one place is what guarantees the two executors produce
/// identical batch boundaries for the same [`UpdateMode`] — the property the
/// sharded/unsharded differential tests rely on.
#[derive(Debug, Default)]
pub(crate) struct PendingBuffer {
    events: Vec<StreamEvent>,
}

impl PendingBuffer {
    /// Buffer one event; `true` when the batch reached `batch_size` and must
    /// be flushed.
    pub(crate) fn push(&mut self, event: StreamEvent, batch_size: usize) -> bool {
        self.events.push(event);
        self.events.len() >= batch_size
    }

    /// Number of buffered events.
    pub(crate) fn len(&self) -> usize {
        self.events.len()
    }

    /// Discard everything buffered (the periodic-reset semantics: pre-reset
    /// events belong to the old epoch).
    pub(crate) fn clear(&mut self) {
        self.events.clear();
    }

    /// Drain the buffer into a snapshot with the given sequence number, or
    /// `None` when nothing is buffered. Used by the sharded executor, whose
    /// broadcast genuinely needs one shareable snapshot value; the unsharded
    /// flush path uses [`PendingBuffer::drain_into`] instead.
    pub(crate) fn take_snapshot(&mut self, id: u64) -> Option<Snapshot> {
        if self.events.is_empty() {
            None
        } else {
            Some(Snapshot::from_events(id, self.events.drain(..)))
        }
    }

    /// Drain the buffered events straight into a (recycled) delta batch,
    /// partitioned by kind exactly like [`Snapshot::from_events`] — the
    /// allocation-free twin of [`PendingBuffer::take_snapshot`] used by the
    /// `push_event` hot path.
    pub(crate) fn drain_into(&mut self, batch: &mut DeltaBatch) {
        for event in self.events.drain(..) {
            if event.is_insert() {
                batch.insertions.push(event);
            } else {
                batch.deletions.push(event);
            }
        }
    }
}

/// A parcel of enumeration work units deferred past their batch by the
/// fairness budget, together with the batch context needed to re-run them
/// *exactly*: the batch-edge bitset they were masked against, and the set of
/// edges inserted after their batch (which must not participate — those
/// edges' embeddings are covered by the later batches' own work units).
///
/// Epochs are only carried across insert-only intervals: any batch with
/// deletions (or eviction) force-drains the whole backlog before the graph
/// mutates, so the stored bitsets can never alias a recycled edge id and
/// DEBI only ever *gains* bits between deferral and drain (the filter stays
/// a sound over-approximation for the parked units).
pub(crate) struct DeferredEpoch {
    /// The parked work units, in deferral order.
    pub(crate) units: Vec<WorkUnit>,
    /// Clone of the originating batch's edge-id set (for the masking rule).
    pub(crate) batch_ids: DenseBitSet,
    /// Ids of edges inserted after the originating batch.
    pub(crate) exclude: DenseBitSet,
}

/// Everything one standing query owns: its tree, matching orders, DEBI
/// index, matcher/semantics pair, counters and result channel. The data
/// graph itself is shared by the session. The pipeline stages
/// ([`crate::pipeline`]) operate on these states directly.
pub(crate) struct QueryState {
    pub(crate) id: QueryId,
    pub(crate) query: QueryGraph,
    pub(crate) tree: QueryTree,
    pub(crate) orders: MatchingOrderSet,
    pub(crate) requirements: QueryRequirements,
    pub(crate) mask: MaskTable,
    pub(crate) debi: Debi,
    pub(crate) candidacy: VertexCandidacy,
    pub(crate) matcher: Box<dyn EdgeMatcher>,
    pub(crate) semantics: Box<dyn MatchSemantics>,
    pub(crate) counters: Arc<EngineCounters>,
    pub(crate) output: Arc<QueryOutput>,
    /// Budget-deferred work, oldest epoch first. Behind a mutex because the
    /// pipeline stages only hold `&MnemonicSession`.
    pub(crate) deferred: Mutex<Vec<DeferredEpoch>>,
}

impl QueryState {
    pub(crate) fn ensure_capacity(&mut self, graph: &StreamingGraph) {
        self.debi.ensure_rows(graph.edge_id_bound());
        self.debi.ensure_roots(graph.vertex_count());
        self.candidacy.ensure(graph.vertex_count());
    }
}

/// A multi-query session over one shared streaming graph.
///
/// See the [module documentation](crate::session) for the overall model. In
/// short: [`register_query`](MnemonicSession::register_query) any number of
/// standing queries, feed events through
/// [`push_event`](MnemonicSession::push_event) /
/// [`apply_snapshot`](MnemonicSession::apply_snapshot), and read results
/// per query through the returned [`QueryHandle`]s.
pub struct MnemonicSession {
    /// The shared streaming data graph.
    pub(crate) graph: StreamingGraph,
    pub(crate) queries: Vec<QueryState>,
    pub(crate) config: EngineConfig,
    pub(crate) pool: Option<rayon::ThreadPool>,
    pub(crate) spill: Option<SpillManager>,
    /// The spill telemetry bundle shared with every [`QueryHandle`]; the
    /// session publishes into it after each sealed batch.
    spill_telemetry: Arc<SpillTelemetry>,
    /// Spill-tier I/O failures absorbed during ingest (see
    /// [`MnemonicSession::spill_io_errors`]).
    pub(crate) spill_io_errors: u64,
    pub(crate) last_spill_error: Option<std::io::Error>,
    total_timings: PhaseTimings,
    snapshots_processed: u64,
    next_query_id: u64,
    /// Events buffered by [`MnemonicSession::push_event`] until the delta
    /// batch fills up.
    pending: PendingBuffer,
    /// Reusable per-batch buffers (frontier bitsets, work-unit pools,
    /// recycled batch shells), allocated once and recycled across batches so
    /// the steady-state ingest path stays off the allocator.
    pub(crate) scratch: BatchScratch,
}

impl std::fmt::Debug for MnemonicSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MnemonicSession")
            .field("queries", &self.queries.len())
            .field("live_edges", &self.graph.live_edge_count())
            .field("pending_events", &self.pending.len())
            .field("snapshots_processed", &self.snapshots_processed)
            .finish_non_exhaustive()
    }
}

impl MnemonicSession {
    /// Start building a session.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::new()
    }

    /// Create a session with an explicit configuration.
    ///
    /// # Errors
    /// [`MnemonicError::InvalidConfig`] for a zero delta-batch size;
    /// [`MnemonicError::Spill`] when the spill tier cannot be created.
    pub fn new(config: EngineConfig) -> Result<Self, MnemonicError> {
        config
            .update_mode
            .validate()
            .map_err(MnemonicError::InvalidConfig)?;
        let pool = if config.parallel {
            Some(parallel::build_pool(config.num_threads))
        } else {
            None
        };
        // A paged storage configuration implies the spill tier even when no
        // explicit SpillConfig was given: the page cache only ever sees
        // traffic through window spills.
        let spill = match (config.spill, config.storage.is_paged()) {
            (Some(cfg), _) => Some(
                SpillManager::new_temp_with_storage(cfg, config.storage, "session")
                    .map_err(MnemonicError::Spill)?,
            ),
            (None, true) => Some(
                SpillManager::new_temp_with_storage(
                    SpillConfig::default(),
                    config.storage,
                    "session",
                )
                .map_err(MnemonicError::Spill)?,
            ),
            (None, false) => None,
        };
        let spill_telemetry = Arc::new(SpillTelemetry::default());
        if let Some(s) = spill.as_ref() {
            spill_telemetry.mark_enabled(s.is_paged());
            spill_telemetry.publish(&s.stats(), 0, s.resident_pages());
        }
        let graph = StreamingGraph::with_config(GraphConfig {
            recycle_edge_ids: config.recycle_edge_ids,
        });
        Ok(MnemonicSession {
            graph,
            queries: Vec::new(),
            config,
            pool,
            spill,
            spill_telemetry,
            spill_io_errors: 0,
            last_spill_error: None,
            total_timings: PhaseTimings::default(),
            snapshots_processed: 0,
            next_query_id: 0,
            pending: PendingBuffer::default(),
            scratch: BatchScratch::default(),
        })
    }

    // ---- query registration -------------------------------------------------

    /// Register a standing query using the default root-selection heuristic
    /// (`initializeIndex` of Figure 3).
    ///
    /// The query's DEBI index is primed against the edges already in the
    /// graph, so a late registration behaves exactly like one made before
    /// ingest began — without reporting embeddings for pre-existing matches
    /// (the [`MnemonicSession::bootstrap`] semantics). Events still buffered
    /// by [`MnemonicSession::push_event`] are *not* yet part of the graph;
    /// the new query will see them as fresh deltas at the next flush.
    ///
    /// # Errors
    /// [`MnemonicError::DisconnectedQuery`] when the query graph is not
    /// connected.
    pub fn register_query(
        &mut self,
        query: QueryGraph,
        matcher: Box<dyn EdgeMatcher>,
        semantics: Box<dyn MatchSemantics>,
    ) -> Result<QueryHandle, MnemonicError> {
        let root = select_root(&query, &LabelFrequencies::new());
        self.register_query_with_root(query, root, matcher, semantics)
    }

    /// Register a standing query with an explicitly chosen root query vertex
    /// (the "experienced user" path of Section III).
    ///
    /// # Errors
    /// [`MnemonicError::DisconnectedQuery`] when the query graph is not
    /// connected.
    pub fn register_query_with_root(
        &mut self,
        query: QueryGraph,
        root: mnemonic_graph::ids::QueryVertexId,
        matcher: Box<dyn EdgeMatcher>,
        semantics: Box<dyn MatchSemantics>,
    ) -> Result<QueryHandle, MnemonicError> {
        self.register_query_full(query, root, matcher, semantics, None)
    }

    /// The registration core. `forced_id`, used by the query-sharded
    /// executor ([`crate::shard::ShardedSession`]), overrides the session's
    /// own id allocation so query ids stay globally unique across shards;
    /// the allocator is bumped past it so later local registrations cannot
    /// collide.
    pub(crate) fn register_query_full(
        &mut self,
        query: QueryGraph,
        root: mnemonic_graph::ids::QueryVertexId,
        matcher: Box<dyn EdgeMatcher>,
        semantics: Box<dyn MatchSemantics>,
        forced_id: Option<QueryId>,
    ) -> Result<QueryHandle, MnemonicError> {
        if !query.is_connected() {
            return Err(MnemonicError::DisconnectedQuery);
        }
        let tree = QueryTree::build(&query, root);
        let orders = MatchingOrderSet::build(&query, &tree);
        let requirements = QueryRequirements::build(&query);
        let mask = MaskTable::new(query.edge_count());
        let debi = Debi::new(tree.debi_width());
        let id = forced_id.unwrap_or(QueryId(self.next_query_id));
        self.next_query_id = self.next_query_id.max(id.0 + 1);
        let output = Arc::new(QueryOutput::default());
        let counters = Arc::new(EngineCounters::new());
        let mut state = QueryState {
            id,
            query,
            tree,
            orders,
            requirements,
            mask,
            debi,
            candidacy: VertexCandidacy::new(),
            matcher,
            semantics,
            counters: Arc::clone(&counters),
            output: Arc::clone(&output),
            deferred: Mutex::new(Vec::new()),
        };

        self.prime_query_state(&mut state);
        self.queries.push(state);
        Ok(QueryHandle {
            id,
            output,
            counters,
            spill: Arc::clone(&self.spill_telemetry),
        })
    }

    /// Prime one query's index against the already-ingested graph (every
    /// live edge is in the batch, so the frontier can skip the neighbour
    /// expansion). Never emits embeddings; shared by late registration and
    /// by [`MnemonicSession::adopt_query`] during live migration — the
    /// primed index is indistinguishable from an incrementally maintained
    /// one, which is what makes both paths exact.
    fn prime_query_state(&self, state: &mut QueryState) {
        let live: Vec<Edge> = self.graph.live_edges().collect();
        if live.is_empty() {
            return;
        }
        let frontier = UnifiedFrontier::build(&self.graph, live, false);
        state.ensure_capacity(&self.graph);
        let pass = TopDownPass {
            graph: &self.graph,
            query: &state.query,
            tree: &state.tree,
            matcher: state.matcher.as_ref(),
            requirements: &state.requirements,
        };
        let parallel_enabled = self.config.parallel;
        parallel::install(self.pool.as_ref(), || {
            pass.run(
                &frontier,
                &state.candidacy,
                &state.debi,
                &state.counters,
                parallel_enabled,
            );
        });
    }

    /// Extract one query's whole state for migration to another shard. Any
    /// budget-deferred work units are force-drained first (against this
    /// session's graph, which they were parked on), so nothing is lost and
    /// nothing crosses shards half-done. The result channel and counter
    /// [`Arc`]s travel with the state — existing [`QueryHandle`] clones keep
    /// working, unaware of the move.
    pub(crate) fn take_query(&mut self, id: QueryId) -> Option<QueryState> {
        let idx = self.queries.iter().position(|q| q.id == id)?;
        Enumerate::force_drain_query(self, idx);
        Self::seal_query_watermark(&self.queries[idx].output);
        Some(self.queries.remove(idx))
    }

    /// Advance one query's sealed-output watermark to everything currently
    /// buffered (the embeddings below the mark are final and survive a
    /// mid-batch failure).
    fn seal_query_watermark(output: &QueryOutput) {
        let positive = output.positive.lock().len() as u64;
        let negative = output.negative.lock().len() as u64;
        output.sealed_positive.store(positive, Ordering::Relaxed);
        output.sealed_negative.store(negative, Ordering::Relaxed);
    }

    /// Advance every query's sealed-output watermark (batch-seal /
    /// post-force-drain bookkeeping).
    fn seal_output_watermarks(&self) {
        for qs in &self.queries {
            Self::seal_query_watermark(&qs.output);
        }
    }

    /// Pull **every** standing query out of a dying session for adoption by
    /// a surviving shard, without running any enumeration on the way out
    /// (the session may be mid-panic-unwind state; its graph is not touched).
    ///
    /// Parked budget-deferred work units are dropped — they belong to batches
    /// the adopting shard will replay in full, which re-creates (and this
    /// time completes) them. Output buffered *above* the last sealed batch
    /// watermark is partial emission from the failed batch; it is truncated
    /// (and subtracted from the `accepted` lifetime counter) so the replay
    /// re-emits the batch exactly once.
    ///
    /// Returns the salvaged states plus the dropped-deferred-unit and
    /// truncated-embedding counts for the
    /// [`DegradeReport`](crate::rebalance::DegradeReport).
    pub(crate) fn quarantine_queries(&mut self) -> (Vec<QueryState>, u64, u64) {
        let mut dropped_deferred = 0u64;
        let mut truncated_total = 0u64;
        let states: Vec<QueryState> = self.queries.drain(..).collect();
        for qs in &states {
            let mut deferred = qs.deferred.lock();
            dropped_deferred += deferred
                .iter()
                .map(|epoch| epoch.units.len() as u64)
                .sum::<u64>();
            deferred.clear();
            drop(deferred);

            let mut truncated = 0u64;
            {
                let mut positive = qs.output.positive.lock();
                let sealed = qs.output.sealed_positive.load(Ordering::Relaxed) as usize;
                if positive.len() > sealed {
                    truncated += (positive.len() - sealed) as u64;
                    positive.truncate(sealed);
                }
            }
            {
                let mut negative = qs.output.negative.lock();
                let sealed = qs.output.sealed_negative.load(Ordering::Relaxed) as usize;
                if negative.len() > sealed {
                    truncated += (negative.len() - sealed) as u64;
                    negative.truncate(sealed);
                }
            }
            if truncated > 0 {
                qs.output.accepted.fetch_sub(truncated, Ordering::Relaxed);
                truncated_total += truncated;
            }
        }
        (states, dropped_deferred, truncated_total)
    }

    /// Adopt a query state migrated from another shard: reset its index,
    /// re-prime it from *this* session's graph and register it. Exact as
    /// long as both sessions saw the same broadcast stream (the sharded
    /// executor's invariant) — re-priming then reproduces the index the
    /// query would have had here all along.
    pub(crate) fn adopt_query(&mut self, mut state: QueryState) {
        state.debi.reset();
        state.candidacy.reset();
        self.prime_query_state(&mut state);
        self.next_query_id = self.next_query_id.max(state.id.0 + 1);
        self.queries.push(state);
    }

    /// Every registered query's cumulative enumeration nanos — the measured
    /// load signal the sharded scheduler feeds its EWMA tracker from.
    pub(crate) fn query_enumeration_nanos(&self) -> Vec<(QueryId, u64)> {
        self.queries
            .iter()
            .map(|q| (q.id, q.output.enumeration_nanos.load(Ordering::Relaxed)))
            .collect()
    }

    /// Whether any query has budget-deferred work parked.
    pub(crate) fn has_deferred(&self) -> bool {
        self.queries.iter().any(|q| !q.deferred.lock().is_empty())
    }

    /// Run every parked work unit to completion, outside any batch (the
    /// [`MnemonicSession::finish`] / pre-migration path). Embeddings are
    /// delivered through each query's own channel.
    pub(crate) fn force_drain_deferred(&self) {
        Enumerate::force_drain_all(self);
        self.seal_output_watermarks();
    }

    /// Remove a standing query. Its share of the filtering and enumeration
    /// work disappears from the next batch on; the handle keeps any buffered
    /// results and can still be drained.
    ///
    /// # Errors
    /// [`MnemonicError::UnknownQuery`] when the handle does not belong to
    /// this session or the query was already deregistered.
    pub fn deregister(&mut self, handle: &QueryHandle) -> Result<(), MnemonicError> {
        match self.queries.iter().position(|q| q.id == handle.id) {
            Some(idx) => {
                self.queries.remove(idx);
                Ok(())
            }
            None => Err(MnemonicError::UnknownQuery(handle.id)),
        }
    }

    // ---- accessors ----------------------------------------------------------

    /// The current shared data graph.
    pub fn graph(&self) -> &StreamingGraph {
        &self.graph
    }

    /// Number of standing queries currently registered.
    pub fn query_count(&self) -> usize {
        self.queries.len()
    }

    /// The configuration in effect.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The query graph of a registered query.
    ///
    /// # Errors
    /// [`MnemonicError::UnknownQuery`] for a deregistered/foreign handle.
    pub fn query_graph(&self, handle: &QueryHandle) -> Result<&QueryGraph, MnemonicError> {
        self.state(handle.id).map(|s| &s.query)
    }

    /// The query tree of a registered query.
    ///
    /// # Errors
    /// [`MnemonicError::UnknownQuery`] for a deregistered/foreign handle.
    pub fn query_tree(&self, handle: &QueryHandle) -> Result<&QueryTree, MnemonicError> {
        self.state(handle.id).map(|s| &s.tree)
    }

    /// DEBI occupancy statistics of a registered query.
    ///
    /// # Errors
    /// [`MnemonicError::UnknownQuery`] for a deregistered/foreign handle.
    pub fn debi_stats(&self, handle: &QueryHandle) -> Result<DebiStats, MnemonicError> {
        self.state(handle.id).map(|s| s.debi.stats())
    }

    /// Cumulative engine counters of a registered query.
    ///
    /// # Errors
    /// [`MnemonicError::UnknownQuery`] for a deregistered/foreign handle.
    pub fn counters(&self, handle: &QueryHandle) -> Result<CounterSnapshot, MnemonicError> {
        self.state(handle.id).map(|s| s.counters.snapshot())
    }

    /// Spill-tier statistics, when the external-memory tier is enabled.
    pub fn spill_stats(&self) -> Option<SpillStats> {
        self.spill.as_ref().map(|s| s.stats())
    }

    /// Graph-level statistics with the paged spill tier's page-cache
    /// counters merged in ([`GraphStats::page_cache`] stays zero for the
    /// in-memory and flat-log backends).
    pub fn graph_stats(&self) -> GraphStats {
        let mut stats = self.graph.stats();
        if let Some(paged) = self.spill.as_ref().and_then(|s| s.stats().paged) {
            stats.page_cache = paged.cache;
        }
        stats
    }

    /// Push the current spill-tier statistics into the telemetry bundle
    /// shared with every [`QueryHandle`]. Called once per sealed batch so
    /// handle reads never race a half-updated spill pass.
    fn publish_spill_telemetry(&self) {
        if let Some(spill) = self.spill.as_ref() {
            self.spill_telemetry.publish(
                &spill.stats(),
                self.spill_io_errors,
                spill.resident_pages(),
            );
        }
    }

    /// Number of spill-tier I/O failures absorbed during ingest. Such
    /// failures degrade only the spill tier's overhead accounting — the
    /// graph, every query's index and all results stay exact — so ingest
    /// continues and the failure is surfaced here instead of as an error.
    pub fn spill_io_errors(&self) -> u64 {
        self.spill_io_errors
    }

    /// The most recently absorbed spill-tier I/O failure, if any.
    pub fn last_spill_error(&self) -> Option<&std::io::Error> {
        self.last_spill_error.as_ref()
    }

    /// Cumulative phase timings over all batches (all queries combined).
    pub fn timings(&self) -> PhaseTimings {
        self.total_timings
    }

    /// Summed per-unit enumeration wall time over every *registered* query
    /// (a deregistered handle keeps its own share readable through
    /// [`QueryHandle::enumeration_time`]). The denominator for
    /// [`QueryStats::enumeration_share`].
    pub fn enumeration_time(&self) -> Duration {
        Duration::from_nanos(
            self.queries
                .iter()
                .map(|q| q.output.enumeration_nanos.load(Ordering::Relaxed))
                .sum(),
        )
    }

    /// Number of snapshots processed so far.
    pub fn snapshots_processed(&self) -> u64 {
        self.snapshots_processed
    }

    /// Number of events currently buffered by the batched update path.
    pub fn pending_events(&self) -> usize {
        self.pending.len()
    }

    fn state(&self, id: QueryId) -> Result<&QueryState, MnemonicError> {
        self.queries
            .iter()
            .find(|q| q.id == id)
            .ok_or(MnemonicError::UnknownQuery(id))
    }

    // ---- shared ingest pipeline --------------------------------------------
    //
    // The pipeline itself lives in `crate::pipeline`: a `DeltaBatch` value
    // flowing through the explicit GraphUpdate → FrontierBuild → Filtering →
    // DeletionResolve → Enumerate stages. The session only orchestrates.

    /// Load an initial graph without reporting embeddings: every query's
    /// DEBI is brought up to date but no enumeration work units are
    /// generated. Mirrors the evaluation setup where "the remaining edges
    /// ... are loaded in the initial graph".
    ///
    /// # Errors
    /// [`MnemonicError::DeadEdge`] when a freshly inserted edge cannot be
    /// read back — graph corruption; the batch is aborted and the session
    /// should be discarded. Spill-tier I/O failures do not error: they are
    /// absorbed and counted (see [`MnemonicSession::spill_io_errors`]).
    pub fn bootstrap(&mut self, events: &[StreamEvent]) -> Result<(), MnemonicError> {
        let mut batch = DeltaBatch {
            insertions: events.to_vec(),
            ..DeltaBatch::default()
        };
        GraphUpdate::apply_insertions(self, &mut batch)?;
        FrontierBuild::for_insertions(self, &mut batch);
        Filtering::insertions(self, &mut batch);
        self.publish_spill_telemetry();
        Ok(())
    }

    /// Process one snapshot for every standing query: the batch's graph
    /// update, frontier construction, deletion resolution and the filtering
    /// pass run **once** for all queries, then enumeration fans out per
    /// query over the shared pool. Embeddings are delivered through each query's [`QueryHandle`].
    ///
    /// # Errors
    /// [`MnemonicError::DeadEdge`] when a freshly inserted edge cannot be
    /// read back — graph corruption; the batch is aborted and the session
    /// should be discarded. Spill-tier I/O failures do not error: they are
    /// absorbed and counted (see [`MnemonicSession::spill_io_errors`]).
    pub fn apply_snapshot(
        &mut self,
        snapshot: &Snapshot,
    ) -> Result<SessionBatchResult, MnemonicError> {
        self.apply_snapshot_inner(snapshot, None)
    }

    /// [`MnemonicSession::apply_snapshot`] with every query's results routed
    /// to `sink` for the duration of the batch (the borrowed-sink path of the
    /// single-query wrapper).
    pub(crate) fn apply_snapshot_direct(
        &mut self,
        snapshot: &Snapshot,
        sink: &dyn EmbeddingSink,
    ) -> Result<SessionBatchResult, MnemonicError> {
        self.apply_snapshot_inner(snapshot, Some(sink))
    }

    fn apply_snapshot_inner(
        &mut self,
        snapshot: &Snapshot,
        override_sink: Option<&dyn EmbeddingSink>,
    ) -> Result<SessionBatchResult, MnemonicError> {
        let mut batch = self.scratch.take_batch();
        batch.fill_from_snapshot(snapshot);
        self.apply_batch_inner(batch, override_sink)
    }

    /// Run one staged delta batch to completion, seal its outcome and
    /// recycle its buffers. The batch typically comes out of the session
    /// scratch with retained capacity, so the steady-state path allocates
    /// nothing here. The buffers are recycled on the error path too, so the
    /// warmed capacity survives an aborted batch.
    fn apply_batch_inner(
        &mut self,
        mut batch: DeltaBatch,
        override_sink: Option<&dyn EmbeddingSink>,
    ) -> Result<SessionBatchResult, MnemonicError> {
        let before_counters: Vec<CounterSnapshot> =
            self.queries.iter().map(|q| q.counters.snapshot()).collect();

        let result = match self.run_batch_stages(&mut batch, override_sink) {
            Ok(()) => {
                self.snapshots_processed += 1;
                self.total_timings.accumulate(&batch.timings);
                self.publish_spill_telemetry();
                self.seal_output_watermarks();
                Ok(self.seal_batch(&batch, &before_counters))
            }
            Err(e) => Err(e),
        };
        self.scratch.recycle_batch(batch);
        result
    }

    /// Whether the per-query fairness budget applies to this batch: only on
    /// the session-owned delivery path (no borrowed override sink — the
    /// legacy wrapper's results are not allowed to shift batches) and never
    /// in the hot-path A/B baseline.
    fn budget_enabled(&self, override_sink: Option<&dyn EmbeddingSink>) -> bool {
        override_sink.is_none()
            && !self.config.hot_path_baseline
            && self.config.query_budget.is_some_and(|b| !b.is_unlimited())
    }

    /// The staged pipeline proper, shared by the success and error handling
    /// of [`MnemonicSession::apply_batch_inner`].
    ///
    /// The fairness budget hooks in at three points, all chosen so the
    /// lifetime embedding multiset stays identical to an unbudgeted run (see
    /// [`DeferredEpoch`] for the exactness argument):
    ///
    /// 1. **Before** the graph mutates, last batch's deferred work units get
    ///    first claim on this batch's budget (oldest epoch first), so the
    ///    backlog drains instead of starving.
    /// 2. After the insertions are applied — but before enumeration can park
    ///    new work — every *surviving* epoch records the fresh edge ids in
    ///    its exclusion set: their embeddings belong to this batch's own
    ///    work units.
    /// 3. A batch with deletions (or an eviction cutoff) force-drains the
    ///    whole backlog before the deletion half runs, because the stored
    ///    epoch bitsets must never alias a recycled edge id.
    fn run_batch_stages(
        &mut self,
        batch: &mut DeltaBatch,
        override_sink: Option<&dyn EmbeddingSink>,
    ) -> Result<(), MnemonicError> {
        let budget_enabled = self.budget_enabled(override_sink);
        let mut drained: Option<Vec<u64>> = None;
        if budget_enabled {
            for qs in &self.queries {
                qs.output.batch_units_used.store(0, Ordering::Relaxed);
                qs.output.batch_nanos_used.store(0, Ordering::Relaxed);
            }
            if self.has_deferred() {
                drained = Some(Enumerate::drain_carryover(self, batch, false));
            }
        }

        // ---- batchInserts (Algorithm 2, lines 1-6), shared across queries ----
        if !batch.insertions.is_empty() {
            GraphUpdate::apply_insertions(self, batch)?;
            if self.has_deferred() {
                self.note_inserted_edges_for_carryover(batch);
            }
            FrontierBuild::for_insertions(self, batch);
            Filtering::insertions(self, batch);
            Enumerate::positive_with(self, batch, override_sink);
        }

        // ---- batchDeletes (Algorithm 2, lines 7-12), shared resolution ----
        if batch.has_deletions() {
            if self.has_deferred() {
                let forced = Enumerate::drain_carryover(self, batch, true);
                match drained.as_mut() {
                    Some(d) => {
                        for (acc, n) in d.iter_mut().zip(forced) {
                            *acc += n;
                        }
                    }
                    None => drained = Some(forced),
                }
            }
            DeletionResolve::run(self, batch);
            // The frontier is built before the graph is updated so the
            // deleted edges and their neighbourhood are captured.
            FrontierBuild::for_deletions(self, batch);
            if !batch.doomed_edges.is_empty() {
                // Enumerate the disappearing embeddings against the
                // pre-deletion state, then apply the deletions once and
                // refresh the index (bottom-up then top-down in the paper;
                // our single refresh pass covers the same affected region).
                Enumerate::negative_with(self, batch, override_sink);
                GraphUpdate::apply_deletions(self, batch);
                Filtering::deletions(self, batch);
            }
        }

        // Embeddings completed from the carried-over backlog count toward
        // this batch's per-query outcome, keeping `total_new_embeddings`
        // equal to the handles' accepted deltas.
        if let Some(d) = drained {
            if batch.new_embeddings.is_empty() {
                batch.new_embeddings.extend_from_slice(&d);
            } else {
                for (acc, n) in batch.new_embeddings.iter_mut().zip(d) {
                    *acc += n;
                }
            }
        }
        Ok(())
    }

    /// Record this batch's freshly inserted edge ids in every surviving
    /// deferred epoch's exclusion set (stage-2 hook above). Runs after
    /// [`GraphUpdate::apply_insertions`] resolved events to edge ids and
    /// before [`Enumerate`] can park this batch's own work units.
    fn note_inserted_edges_for_carryover(&self, batch: &DeltaBatch) {
        // Build the batch's inserted-id set once, then fold it into every
        // parked epoch's exclusion set with one word-parallel merge per
        // epoch instead of |inserted| bit probes per epoch.
        let mut ids = self.scratch.carryover_ids.lock();
        ids.clear();
        for edge in &batch.inserted {
            ids.insert(edge.id.index());
        }
        for qs in &self.queries {
            let mut deferred = qs.deferred.lock();
            for epoch in deferred.iter_mut() {
                epoch.exclude.union_with(&ids);
            }
        }
    }

    /// Turn a fully staged [`DeltaBatch`] into the session's per-query
    /// outcome report.
    fn seal_batch(
        &self,
        batch: &DeltaBatch,
        before_counters: &[CounterSnapshot],
    ) -> SessionBatchResult {
        let per_query = self
            .queries
            .iter()
            .enumerate()
            .map(|(i, qs)| {
                (
                    qs.id,
                    BatchResult {
                        snapshot_id: batch.snapshot_id,
                        insertions: batch.insertions.len(),
                        deletions: batch.deletions_applied,
                        new_embeddings: batch.new_embeddings.get(i).copied().unwrap_or(0),
                        removed_embeddings: batch.removed_embeddings.get(i).copied().unwrap_or(0),
                        timings: batch.timings,
                        counters: qs.counters.snapshot().since(&before_counters[i]),
                    },
                )
            })
            .collect();
        SessionBatchResult {
            snapshot_id: batch.snapshot_id,
            insertions: batch.insertions.len(),
            deletions: batch.deletions_applied,
            timings: batch.timings,
            per_query,
        }
    }

    // ---- buffered ingest ----------------------------------------------------

    /// Ingest one edge event through the batched update path: the event
    /// joins the pending delta batch, and once the batch reaches the
    /// configured [`UpdateMode`] size the whole batch is ingested once and
    /// filtered + enumerated for every standing query. Returns the batch
    /// outcome on the pushes that trigger a flush, `Ok(None)` otherwise.
    ///
    /// # Errors
    /// See [`MnemonicSession::apply_snapshot`].
    pub fn push_event(
        &mut self,
        event: StreamEvent,
    ) -> Result<Option<SessionBatchResult>, MnemonicError> {
        self.push_event_inner(event, None)
    }

    pub(crate) fn push_event_direct(
        &mut self,
        event: StreamEvent,
        sink: &dyn EmbeddingSink,
    ) -> Result<Option<SessionBatchResult>, MnemonicError> {
        self.push_event_inner(event, Some(sink))
    }

    fn push_event_inner(
        &mut self,
        event: StreamEvent,
        override_sink: Option<&dyn EmbeddingSink>,
    ) -> Result<Option<SessionBatchResult>, MnemonicError> {
        if self
            .pending
            .push(event, self.config.update_mode.batch_size())
        {
            self.flush_pending_inner(override_sink)
        } else {
            Ok(None)
        }
    }

    /// Flush the pending delta batch, if any. Returns `Ok(None)` when
    /// nothing was buffered.
    ///
    /// # Errors
    /// See [`MnemonicSession::apply_snapshot`].
    pub fn flush_pending(&mut self) -> Result<Option<SessionBatchResult>, MnemonicError> {
        self.flush_pending_inner(None)
    }

    pub(crate) fn flush_pending_direct(
        &mut self,
        sink: &dyn EmbeddingSink,
    ) -> Result<Option<SessionBatchResult>, MnemonicError> {
        self.flush_pending_inner(Some(sink))
    }

    fn flush_pending_inner(
        &mut self,
        override_sink: Option<&dyn EmbeddingSink>,
    ) -> Result<Option<SessionBatchResult>, MnemonicError> {
        if self.pending.len() == 0 {
            return Ok(None);
        }
        // The buffered events drain straight into a recycled batch shell —
        // no intermediate Snapshot, no per-flush allocation. Batch numbering
        // matches the historical snapshot path exactly.
        let mut batch = self.scratch.take_batch();
        batch.snapshot_id = self.snapshots_processed;
        self.pending.drain_into(&mut batch);
        self.apply_batch_inner(batch, override_sink).map(Some)
    }

    /// Drive a raw event sequence through the batched update path: every
    /// event is [`MnemonicSession::push_event`]ed and a final flush drains
    /// the last partial batch.
    ///
    /// # Errors
    /// See [`MnemonicSession::apply_snapshot`].
    pub fn run_events(
        &mut self,
        events: impl IntoIterator<Item = StreamEvent>,
    ) -> Result<Vec<SessionBatchResult>, MnemonicError> {
        let mut results = Vec::new();
        for event in events {
            results.extend(self.push_event(event)?);
        }
        results.extend(self.flush_pending()?);
        Ok(results)
    }

    /// Drain an [`EventSource`] through the batched update path, with batch
    /// boundaries set by the session's [`UpdateMode`]. A final flush drains
    /// the last partial batch.
    ///
    /// # Errors
    /// See [`MnemonicSession::apply_snapshot`].
    pub fn run_source<S: EventSource>(
        &mut self,
        mut source: S,
    ) -> Result<Vec<SessionBatchResult>, MnemonicError> {
        let mut results = Vec::new();
        for event in source.events() {
            results.extend(self.push_event(event)?);
        }
        results.extend(self.flush_pending()?);
        Ok(results)
    }

    /// Drive an entire snapshot stream to completion (the `while
    /// getSnapshot()` loop of Algorithm 1), with batch boundaries fixed by
    /// the generator.
    ///
    /// # Errors
    /// See [`MnemonicSession::apply_snapshot`].
    pub fn run_stream<S: EventSource>(
        &mut self,
        mut generator: SnapshotGenerator<S>,
    ) -> Result<Vec<SessionBatchResult>, MnemonicError> {
        let mut results = Vec::new();
        while let Some(snapshot) = generator.next_snapshot() {
            results.push(self.apply_snapshot(&snapshot)?);
        }
        Ok(results)
    }

    /// Flush any pending events and consume the session, returning the final
    /// batch outcome (or `Ok(None)` when nothing was buffered). Dropping a
    /// session with [`MnemonicSession::pending_events`]` > 0` silently
    /// discards the buffered events; `finish` is the lossless shutdown path.
    ///
    /// # Errors
    /// See [`MnemonicSession::apply_snapshot`].
    pub fn finish(mut self) -> Result<Option<SessionBatchResult>, MnemonicError> {
        let result = self.flush_pending()?;
        // Run any budget-deferred backlog to completion: the fairness budget
        // defers, never drops, and `finish` is where that promise is kept.
        // These embeddings are delivered through each query's handle but are
        // not part of a batch outcome (there is no batch).
        self.force_drain_deferred();
        Ok(result)
    }

    // ---- maintenance --------------------------------------------------------

    /// Enumerate every embedding of the *current* graph from scratch for one
    /// query, delivered through its handle. Used by tests and index-rebuild
    /// paths; not part of the incremental fast path.
    ///
    /// # Errors
    /// [`MnemonicError::UnknownQuery`] for a deregistered/foreign handle.
    pub fn enumerate_current(&self, handle: &QueryHandle) -> Result<(), MnemonicError> {
        self.enumerate_current_inner(handle, None)
    }

    pub(crate) fn enumerate_current_direct(
        &self,
        handle: &QueryHandle,
        sink: &dyn EmbeddingSink,
    ) -> Result<(), MnemonicError> {
        self.enumerate_current_inner(handle, Some(sink))
    }

    fn enumerate_current_inner(
        &self,
        handle: &QueryHandle,
        override_sink: Option<&dyn EmbeddingSink>,
    ) -> Result<(), MnemonicError> {
        let qs = self.state(handle.id)?;
        // Honour the handle's attached sink, like the incremental path does.
        let attached = if override_sink.is_some() {
            None
        } else {
            qs.output.sink.lock().clone()
        };
        let before = qs.counters.embeddings_emitted.load(Ordering::Relaxed);
        let empty = DenseBitSet::new();
        let enumerator = Enumerator {
            graph: &self.graph,
            query: &qs.query,
            tree: &qs.tree,
            orders: &qs.orders,
            debi: &qs.debi,
            matcher: qs.matcher.as_ref(),
            semantics: qs.semantics.as_ref(),
            mask: &qs.mask,
            batch: &empty,
            exclude: None,
            sign: Sign::Positive,
            sink: override_sink.unwrap_or_else(|| {
                attached
                    .as_deref()
                    .unwrap_or(qs.output.as_ref() as &dyn EmbeddingSink)
            }),
            counters: &qs.counters,
        };
        let t = Instant::now();
        enumerator.run_from_scratch();
        qs.output
            .enumeration_nanos
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        if attached.is_some() {
            let after = qs.counters.embeddings_emitted.load(Ordering::Relaxed);
            qs.output
                .accepted
                .fetch_add(after - before, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Periodic reset (Section VII-D): drop the cumulative indexes and edge
    /// placeholders of every query, keeping only vertex labels, and rebuild
    /// from an empty edge set. Events still buffered by
    /// [`MnemonicSession::push_event`] belong to the pre-reset epoch and are
    /// discarded with it — flush before resetting to keep them.
    pub fn periodic_reset(&mut self) {
        self.graph.reset_edges();
        for qs in self.queries.iter_mut() {
            qs.debi.reset();
            qs.candidacy.reset();
            // Deferred work units reference pre-reset edge ids; they belong
            // to the discarded epoch, like the pending buffer below.
            qs.deferred.lock().clear();
        }
        self.pending.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::LabelEdgeMatcher;
    use crate::embedding::CountingSink;
    use crate::variants::Isomorphism;
    use mnemonic_query::patterns;

    fn session() -> MnemonicSession {
        MnemonicSession::builder()
            .sequential()
            .batch_size(4)
            .build()
            .expect("valid config")
    }

    fn register_triangle(s: &mut MnemonicSession) -> QueryHandle {
        s.register_query(
            patterns::triangle(),
            Box::new(LabelEdgeMatcher),
            Box::new(Isomorphism),
        )
        .expect("triangle is connected")
    }

    #[test]
    fn builder_rejects_zero_batch_size() {
        let err = MnemonicSession::builder()
            .batch_size(0)
            .build()
            .unwrap_err();
        assert!(matches!(err, MnemonicError::InvalidConfig(_)));
        let err = MnemonicSession::builder()
            .update_mode(UpdateMode::Batched(0))
            .build()
            .unwrap_err();
        assert!(matches!(err, MnemonicError::InvalidConfig(_)));
    }

    #[test]
    fn register_rejects_disconnected_query() {
        let mut s = session();
        let mut q = QueryGraph::new();
        q.add_vertex(mnemonic_graph::ids::WILDCARD_VERTEX_LABEL);
        q.add_vertex(mnemonic_graph::ids::WILDCARD_VERTEX_LABEL);
        let err = s
            .register_query(q, Box::new(LabelEdgeMatcher), Box::new(Isomorphism))
            .unwrap_err();
        assert!(matches!(err, MnemonicError::DisconnectedQuery));
    }

    #[test]
    fn two_queries_share_one_ingest() {
        let mut s = session();
        let triangles = register_triangle(&mut s);
        let paths = s
            .register_query(
                patterns::path(3),
                Box::new(LabelEdgeMatcher),
                Box::new(Isomorphism),
            )
            .unwrap();
        let results = s
            .run_events([
                StreamEvent::insert(0, 1, 0),
                StreamEvent::insert(1, 2, 0),
                StreamEvent::insert(2, 0, 0),
            ])
            .unwrap();
        assert_eq!(results.len(), 1, "3 events, batch size 4, one final flush");
        let r = &results[0];
        assert_eq!(r.insertions, 3);
        assert_eq!(r.per_query.len(), 2);
        assert_eq!(r.for_query(triangles.id()).unwrap().new_embeddings, 3);
        assert!(r.for_query(paths.id()).unwrap().new_embeddings > 0);
        assert_eq!(
            r.total_new_embeddings(),
            triangles.accepted() + paths.accepted()
        );
        // Exactly one graph, 3 live edges, shared by both queries.
        assert_eq!(s.graph().live_edge_count(), 3);
        assert_eq!(triangles.drain().positive.len(), 3);
    }

    #[test]
    fn attached_sink_bypasses_buffer() {
        let mut s = session();
        let h = register_triangle(&mut s);
        let counter = Arc::new(CountingSink::new());
        h.attach_sink(counter.clone());
        s.run_events([
            StreamEvent::insert(0, 1, 0),
            StreamEvent::insert(1, 2, 0),
            StreamEvent::insert(2, 0, 0),
        ])
        .unwrap();
        assert_eq!(h.buffered(), 0, "sink-attached query must not buffer");
        assert_eq!(h.accepted(), 3, "forwarded embeddings still count");
        assert_eq!(counter.positive(), 3);
        // From-scratch enumeration honours the attached sink too.
        s.enumerate_current(&h).unwrap();
        assert_eq!(h.buffered(), 0, "enumerate_current must not buffer either");
        assert_eq!(counter.positive(), 6);
        assert_eq!(h.accepted(), 6);
        let sink = h.detach_sink().expect("sink was attached");
        assert_eq!(sink.count(), 6);
    }

    #[test]
    fn deregister_removes_query_and_rejects_stale_handles() {
        let mut s = session();
        let h = register_triangle(&mut s);
        assert_eq!(s.query_count(), 1);
        s.deregister(&h).unwrap();
        assert_eq!(s.query_count(), 0);
        let err = s.deregister(&h).unwrap_err();
        assert!(matches!(err, MnemonicError::UnknownQuery(_)));
        assert!(matches!(
            s.debi_stats(&h),
            Err(MnemonicError::UnknownQuery(_))
        ));
        // The shared graph keeps ingesting with zero queries registered.
        let r = s.run_events([StreamEvent::insert(0, 1, 0)]).unwrap();
        assert_eq!(r[0].insertions, 1);
        assert!(r[0].per_query.is_empty());
    }

    #[test]
    fn late_registration_sees_existing_graph_without_reporting_it() {
        let mut s = session();
        s.run_events([
            StreamEvent::insert(0, 1, 0),
            StreamEvent::insert(1, 2, 0),
            StreamEvent::insert(2, 0, 0),
        ])
        .unwrap();
        // Register after the triangle exists: nothing is reported...
        let h = register_triangle(&mut s);
        assert_eq!(h.accepted(), 0);
        // ...but the primed index both answers from-scratch enumeration and
        // extends incrementally.
        s.enumerate_current(&h).unwrap();
        assert_eq!(h.drain().positive.len(), 3);
        s.run_events([
            StreamEvent::insert(2, 3, 0),
            StreamEvent::insert(3, 4, 0),
            StreamEvent::insert(4, 2, 0),
        ])
        .unwrap();
        assert_eq!(h.drain().positive.len(), 3, "second triangle reported");
    }

    #[test]
    fn finish_flushes_pending_events() {
        let mut s = MnemonicSession::builder()
            .sequential()
            .batch_size(100)
            .build()
            .unwrap();
        let h = register_triangle(&mut s);
        for e in [
            StreamEvent::insert(0, 1, 0),
            StreamEvent::insert(1, 2, 0),
            StreamEvent::insert(2, 0, 0),
        ] {
            assert!(s.push_event(e).unwrap().is_none(), "batch far from full");
        }
        assert_eq!(s.pending_events(), 3);
        let last = s.finish().unwrap().expect("pending events were flushed");
        assert_eq!(last.insertions, 3);
        assert_eq!(last.for_query(h.id()).unwrap().new_embeddings, 3);
        assert_eq!(h.drain().positive.len(), 3, "no events were lost");
    }
}
