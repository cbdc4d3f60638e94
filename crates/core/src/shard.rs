//! The query-sharded executor: K standing queries partitioned across N
//! shards, each shard owning a full [`MnemonicSession`] (its own
//! [`StreamingGraph`](mnemonic_graph::multigraph::StreamingGraph), DEBI
//! indexes and result channels).
//!
//! A [`MnemonicSession`] amortises the *graph-side* phases — one update, one
//! frontier, one deletion resolution, one filtering pass per batch — but the
//! enumeration of all K queries still runs inside one session, bounded by
//! the shared pool's ability to interleave their work units.
//! [`ShardedSession`] is the next scaling step: every delta batch is
//! **broadcast** to all N shards, the shards process it concurrently (each
//! running the full staged pipeline of [`crate::pipeline`] sequentially on
//! its own graph, via [`rayon::scope`] on a work-stealing pool), and the
//! per-shard outcomes are merged back into one
//! [`SessionBatchResult`]. Semantics are exact: each query sees every event
//! of the stream, so a sharded run is embedding-for-embedding identical to
//! an unsharded one — only the schedule changes. What sharding buys is
//! coarse-grained parallelism with *zero* cross-shard synchronisation inside
//! a batch (no shared graph, no shared DEBI, no pooled work-unit queue),
//! which is what multi-core makespan scales with when K grows past the
//! point where one session's fine-grained pooling pays off.
//!
//! The price is N copies of the graph and of the graph-update work; use
//! shards for query-heavy sessions (the `shard_gate` CI check pins the
//! trade-off at ≥ 1.3× projected 4-core makespan for 8 queries on 4
//! shards). Empty shards drop out of the broadcast scope entirely and
//! resync by graph clone when a query lands on them again.
//!
//! Placement is *weight-aware* and self-correcting: a new query lands on
//! the shard with the lowest summed load weight, seeded from
//! [`static_pattern_cost`] and replaced by the measured EWMA of the query's
//! per-batch enumeration time as batches run. When measurement disagrees
//! with placement, queries **migrate live** between shards
//! ([`ShardedSession::migrate_query`], or automatically under a
//! [`RebalancePolicy`]) strictly between batches — the merged result stream
//! is embedding-for-embedding identical to a never-migrated run. A
//! [`QueryBudget`] additionally caps each query's enumeration work per
//! batch inside its shard, deferring (never dropping) overflow so one
//! pathological pattern cannot starve its co-tenants.
//!
//! ```
//! use mnemonic_core::api::LabelEdgeMatcher;
//! use mnemonic_core::shard::ShardedSession;
//! use mnemonic_core::variants::Isomorphism;
//! use mnemonic_query::patterns;
//! use mnemonic_stream::event::StreamEvent;
//!
//! # fn main() -> Result<(), mnemonic_core::MnemonicError> {
//! let mut session = ShardedSession::builder()
//!     .shards(2)
//!     .sequential() // shard execution: sequential here, pooled by default
//!     .batch_size(2)
//!     .build()?;
//! let triangles = session.register_query(
//!     patterns::triangle(),
//!     Box::new(LabelEdgeMatcher),
//!     Box::new(Isomorphism),
//! )?;
//! let paths = session.register_query(
//!     patterns::path(3),
//!     Box::new(LabelEdgeMatcher),
//!     Box::new(Isomorphism),
//! )?; // lands on the other shard
//! session.run_events([
//!     StreamEvent::insert(0, 1, 0),
//!     StreamEvent::insert(1, 2, 0),
//!     StreamEvent::insert(2, 0, 0),
//! ])?;
//! assert_eq!(triangles.drain().positive.len(), 3);
//! assert!(!paths.drain().positive.is_empty());
//! # Ok(())
//! # }
//! ```

use crate::api::{EdgeMatcher, MatchSemantics, UpdateMode};
use crate::engine::{BatchResult, EngineConfig};
use crate::error::MnemonicError;
use crate::parallel;
use crate::rebalance::{
    plan_moves, static_pattern_cost, DegradePolicy, LoadTracker, QueryBudget, QueryMove,
    RebalancePolicy, RebalanceReport,
};
use crate::session::{MnemonicSession, PendingBuffer, QueryHandle, QueryId, SessionBatchResult};
use crate::stats::PhaseTimings;
use mnemonic_graph::spill::SpillConfig;
use mnemonic_query::query_graph::QueryGraph;
use mnemonic_query::root::{select_root, LabelFrequencies};
use mnemonic_stream::event::StreamEvent;
use mnemonic_stream::snapshot::Snapshot;
use mnemonic_stream::source::EventSource;
use std::time::Duration;

/// The weighted placement of standing queries onto shards.
///
/// Every placed query carries a load weight — seeded from
/// [`static_pattern_cost`] at registration, replaced by the measured EWMA of
/// the query's per-batch enumeration time ([`LoadTracker`]) once real load
/// data exists. [`ShardPlan::assign_weighted`] places onto the shard with
/// the lowest summed weight (fewest queries, then lowest index, on ties);
/// the count-based [`ShardPlan::assign`] is kept for callers that want the
/// historical least-loaded-by-count behaviour. [`ShardPlan::imbalance`] —
/// max over mean shard weight — is the signal the live rebalancer
/// ([`ShardedSession::rebalance`]) triggers on.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    shards: usize,
    assignments: Vec<(QueryId, usize)>,
    /// Load weight of each placed query, aligned with `assignments`.
    weights: Vec<f64>,
}

impl ShardPlan {
    /// A plan over `shards` shards (clamped to at least one).
    pub fn new(shards: usize) -> Self {
        ShardPlan {
            shards: shards.max(1),
            assignments: Vec::new(),
            weights: Vec::new(),
        }
    }

    /// Number of shards the plan places onto.
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// Number of live queries currently placed.
    pub fn query_count(&self) -> usize {
        self.assignments.len()
    }

    /// The live `(query, shard)` placements, in registration order.
    pub fn assignments(&self) -> &[(QueryId, usize)] {
        &self.assignments
    }

    /// The shard a live query is placed on.
    pub fn shard_of(&self, id: QueryId) -> Option<usize> {
        self.assignments
            .iter()
            .find(|(qid, _)| *qid == id)
            .map(|&(_, shard)| shard)
    }

    /// Number of live queries placed on one shard.
    pub fn load(&self, shard: usize) -> usize {
        self.assignments
            .iter()
            .filter(|&&(_, s)| s == shard)
            .count()
    }

    /// Summed load weight of one shard.
    pub fn shard_weight(&self, shard: usize) -> f64 {
        self.assignments
            .iter()
            .zip(&self.weights)
            .filter(|&(&(_, s), _)| s == shard)
            .map(|(_, &w)| w)
            .sum()
    }

    /// The load weight of one placed query.
    pub fn weight_of(&self, id: QueryId) -> Option<f64> {
        self.assignments
            .iter()
            .position(|&(qid, _)| qid == id)
            .map(|idx| self.weights[idx])
    }

    /// Replace a placed query's load weight (the measured-load update path).
    /// Returns `false` when the query is not placed.
    pub fn set_weight(&mut self, id: QueryId, weight: f64) -> bool {
        match self.assignments.iter().position(|&(qid, _)| qid == id) {
            Some(idx) => {
                self.weights[idx] = weight;
                true
            }
            None => false,
        }
    }

    /// Max shard weight over mean shard weight — `1.0` is perfectly
    /// balanced; returns `1.0` when no weight is placed at all.
    ///
    /// The mean is floored before dividing: when every query is idle the
    /// summed weight is ~zero and `max / mean` would read as a huge (or
    /// non-finite) imbalance, spuriously firing auto-rebalance on a session
    /// that has no load to move. An idle plan reports perfect balance.
    pub fn imbalance(&self) -> f64 {
        let total: f64 = self.weights.iter().sum();
        let mean = total / self.shards as f64;
        if !mean.is_finite() || mean <= f64::EPSILON {
            return 1.0;
        }
        let max = (0..self.shards)
            .map(|s| self.shard_weight(s))
            .fold(0.0f64, f64::max);
        max / mean
    }

    /// Place a new query by *query count*: the least-loaded shard wins,
    /// lowest index on ties. The query gets weight `1.0`. Returns the chosen
    /// shard.
    pub fn assign(&mut self, id: QueryId) -> usize {
        // `shards` is clamped >= 1 at construction, so the min always
        // exists; fall back to shard 0 rather than panicking a serve loop.
        let shard = (0..self.shards).min_by_key(|&s| self.load(s)).unwrap_or(0);
        self.assignments.push((id, shard));
        self.weights.push(1.0);
        shard
    }

    /// Place a new query by *weight*: the shard with the lowest summed
    /// weight wins (fewest queries, then lowest index, on ties). Returns the
    /// chosen shard.
    pub fn assign_weighted(&mut self, id: QueryId, weight: f64) -> usize {
        let shard = (0..self.shards)
            .min_by(|&a, &b| {
                self.shard_weight(a)
                    .total_cmp(&self.shard_weight(b))
                    .then(self.load(a).cmp(&self.load(b)))
                    .then(a.cmp(&b))
            })
            .unwrap_or(0);
        self.assignments.push((id, shard));
        self.weights.push(weight);
        shard
    }

    /// Pin a new query to an explicit shard with the given weight (the
    /// "experienced user" placement; the caller has validated the index).
    pub fn assign_to(&mut self, id: QueryId, shard: usize, weight: f64) {
        debug_assert!(shard < self.shards, "caller validates the shard index");
        self.assignments.push((id, shard));
        self.weights.push(weight);
    }

    /// Re-place a live query onto another shard, returning the shard it came
    /// from (`None` when the query is not placed). Weight travels with it.
    pub fn move_to(&mut self, id: QueryId, shard: usize) -> Option<usize> {
        debug_assert!(shard < self.shards, "caller validates the shard index");
        let idx = self.assignments.iter().position(|&(qid, _)| qid == id)?;
        let from = self.assignments[idx].1;
        self.assignments[idx].1 = shard;
        Some(from)
    }

    /// Remove a query from the plan, returning the shard it was placed on.
    pub fn remove(&mut self, id: QueryId) -> Option<usize> {
        let idx = self.assignments.iter().position(|(qid, _)| *qid == id)?;
        self.weights.remove(idx);
        Some(self.assignments.remove(idx).1)
    }
}

/// Validated constructor for [`ShardedSession`]; mirrors
/// [`SessionBuilder`](crate::session::SessionBuilder) plus the shard count,
/// the automatic-rebalance policy and the per-query fairness budget.
#[derive(Debug, Clone)]
pub struct ShardedSessionBuilder {
    config: EngineConfig,
    shards: usize,
    policy: Option<RebalancePolicy>,
    degrade: Option<DegradePolicy>,
}

impl Default for ShardedSessionBuilder {
    fn default() -> Self {
        ShardedSessionBuilder {
            config: EngineConfig::default(),
            shards: 1,
            policy: None,
            degrade: None,
        }
    }
}

impl ShardedSessionBuilder {
    /// Start from the default engine configuration and a single shard.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of shards (each owning a full graph + session). Zero is
    /// rejected at [`ShardedSessionBuilder::build`] time.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Replace the whole configuration at once. `parallel`/`num_threads`
    /// govern the *shard-level* pool; the per-shard sessions always run
    /// their own pipeline sequentially.
    pub fn config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// Worker threads of the shard-level pool (`0` = one per logical CPU).
    pub fn threads(mut self, num_threads: usize) -> Self {
        self.config.num_threads = num_threads;
        self.config.parallel = true;
        self
    }

    /// Process the shards one after another on the calling thread (useful
    /// for deterministic timing and tests).
    pub fn sequential(mut self) -> Self {
        self.config.num_threads = 1;
        self.config.parallel = false;
        self
    }

    /// How pushed events are grouped into broadcast delta batches. A
    /// [`UpdateMode::Batched`]`(0)` is rejected at build time.
    pub fn update_mode(mut self, mode: UpdateMode) -> Self {
        self.config.update_mode = mode;
        self
    }

    /// Set the delta-batch size directly (`1` selects
    /// [`UpdateMode::PerEdge`]; `0` is rejected at build time).
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.config.update_mode = UpdateMode::from_batch_size(batch_size);
        self
    }

    /// Whether deleted edge slots are reused, in every shard's graph.
    pub fn recycle_edge_ids(mut self, recycle: bool) -> Self {
        self.config.recycle_edge_ids = recycle;
        self
    }

    /// Enable the external-memory spill tier; every shard gets its own
    /// temporary spill directory with this configuration.
    pub fn spill(mut self, spill: SpillConfig) -> Self {
        self.config.spill = Some(spill);
        self
    }

    /// Enable automatic load rebalancing: after every broadcast batch the
    /// session checks measured load against the policy and live-migrates
    /// queries between shards when the imbalance persists. Validated at
    /// [`ShardedSessionBuilder::build`] time.
    pub fn rebalance_policy(mut self, policy: RebalancePolicy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Cap each query's enumeration work per batch inside its shard (see
    /// [`QueryBudget`]). Work past the cap is deferred to later batches,
    /// never dropped.
    pub fn query_budget(mut self, budget: QueryBudget) -> Self {
        self.config.query_budget = Some(budget);
        self
    }

    /// Opt in to graceful shard degradation for the pipelined drivers
    /// ([`ShardedSession::serve`] / [`ShardedSession::run_pipelined`]): a
    /// lane failing with [`MnemonicError::ShardPanicked`] or
    /// [`MnemonicError::ShardDesynced`] is quarantined and its queries
    /// migrate to a surviving shard instead of failing the run. See
    /// [`DegradePolicy`] for the exactness and determinism contracts.
    /// Validated at [`ShardedSessionBuilder::build`] time.
    pub fn degrade_policy(mut self, policy: DegradePolicy) -> Self {
        self.degrade = Some(policy);
        self
    }

    /// Validate the configuration and construct the sharded session.
    ///
    /// # Errors
    /// [`MnemonicError::InvalidConfig`] for a zero delta-batch size, a zero
    /// shard count or an out-of-range [`RebalancePolicy`];
    /// [`MnemonicError::Spill`] when a shard's spill tier cannot be created.
    pub fn build(self) -> Result<ShardedSession, MnemonicError> {
        let mut session = ShardedSession::new(self.config, self.shards)?;
        session.set_rebalance_policy(self.policy)?;
        if let Some(degrade) = self.degrade {
            degrade.validate().map_err(MnemonicError::InvalidConfig)?;
            session.degrade = Some(degrade);
        }
        Ok(session)
    }
}

/// A query-sharded multi-session executor: see the [module
/// documentation](crate::shard) for the execution model.
pub struct ShardedSession {
    // Crate-visible so the pipelined ingest driver (`crate::ingest`) can
    // split-borrow the shard lanes away from the pending buffer while a run
    // is in flight; outside the crate the fields stay encapsulated.
    pub(crate) shards: Vec<MnemonicSession>,
    plan: ShardPlan,
    /// Shard-level pool: `None` when the configuration is sequential.
    pool: Option<rayon::ThreadPool>,
    pub(crate) config: EngineConfig,
    /// Registration order of live queries, the merge order of
    /// [`SessionBatchResult::per_query`].
    registration_order: Vec<QueryId>,
    next_query_id: u64,
    pub(crate) snapshots_processed: u64,
    pub(crate) pending: PendingBuffer,
    /// Automatic-rebalance policy; `None` disables the auto trigger (manual
    /// [`ShardedSession::rebalance`] and migration stay available).
    policy: Option<RebalancePolicy>,
    /// Graceful-degradation policy for the pipelined drivers; `None` (the
    /// default) surfaces lane failures as errors, exactly as before.
    pub(crate) degrade: Option<DegradePolicy>,
    /// EWMA of each query's measured per-batch enumeration time — the
    /// weights the plan is re-placed by.
    tracker: LoadTracker,
    /// Consecutive over-threshold batches seen so far (the policy debounce).
    overload_streak: u32,
    /// Number of rebalance calls that executed at least one move.
    rebalance_count: u64,
    /// The most recent rebalance outcome.
    last_rebalance: Option<RebalanceReport>,
    /// Monotone counter of graph-mutating broadcasts; paired with
    /// `shard_versions` to detect shards that skipped broadcasts while
    /// empty.
    pub(crate) graph_version: u64,
    /// The `graph_version` each shard's graph is at.
    pub(crate) shard_versions: Vec<u64>,
}

impl std::fmt::Debug for ShardedSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedSession")
            .field("shards", &self.shards.len())
            .field("queries", &self.registration_order.len())
            .field("pending_events", &self.pending.len())
            .field("snapshots_processed", &self.snapshots_processed)
            .finish_non_exhaustive()
    }
}

impl ShardedSession {
    /// Start building a sharded session.
    pub fn builder() -> ShardedSessionBuilder {
        ShardedSessionBuilder::new()
    }

    /// Create a sharded session with an explicit configuration.
    ///
    /// # Errors
    /// See [`ShardedSessionBuilder::build`].
    pub fn new(config: EngineConfig, shards: usize) -> Result<Self, MnemonicError> {
        config
            .update_mode
            .validate()
            .map_err(MnemonicError::InvalidConfig)?;
        if shards == 0 {
            return Err(MnemonicError::InvalidConfig(
                "a sharded session needs at least one shard".to_string(),
            ));
        }
        // The shards themselves run sequentially: parallelism is coarse,
        // one in-flight batch application per shard on the shard-level pool.
        let shard_config = EngineConfig {
            parallel: false,
            num_threads: 1,
            ..config.clone()
        };
        let sessions = (0..shards)
            .map(|_| MnemonicSession::new(shard_config.clone()))
            .collect::<Result<Vec<_>, _>>()?;
        // At most one in-flight batch application per shard, so a pool wider
        // than the shard count is pure waste; `num_threads == 0` means "one
        // per logical CPU" and must not defeat the cap.
        let pool = if config.parallel && shards > 1 {
            let width = if config.num_threads == 0 {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
                    .min(shards)
            } else {
                config.num_threads.min(shards)
            };
            Some(parallel::build_pool(width))
        } else {
            None
        };
        Ok(ShardedSession {
            shards: sessions,
            plan: ShardPlan::new(shards),
            pool,
            config,
            registration_order: Vec::new(),
            next_query_id: 0,
            snapshots_processed: 0,
            pending: PendingBuffer::default(),
            policy: None,
            degrade: None,
            tracker: LoadTracker::default(),
            overload_streak: 0,
            rebalance_count: 0,
            last_rebalance: None,
            graph_version: 0,
            shard_versions: vec![0; shards],
        })
    }

    // ---- query registration -------------------------------------------------

    /// Register a standing query on the lightest shard by summed load
    /// weight (seeded from [`static_pattern_cost`], replaced by measured
    /// load as batches run), using the default root-selection heuristic.
    /// Query ids are globally unique across shards, so the merged per-batch
    /// results and the returned [`QueryHandle`] behave exactly as on an
    /// unsharded session.
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

    /// Register a standing query with an explicitly chosen root query
    /// vertex, placed on the lightest shard by summed load weight.
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
        let weight = static_pattern_cost(&query);
        self.register_inner(query, root, matcher, semantics, None, weight)
    }

    /// Register a standing query pinned to an explicit shard (the
    /// "experienced user" placement — e.g. a benchmark reproducing a known
    /// bad static layout, or a caller with out-of-band load knowledge). The
    /// query can still be moved later by [`ShardedSession::migrate_query`]
    /// or an automatic rebalance.
    ///
    /// # Errors
    /// [`MnemonicError::UnknownShard`] when `shard` is out of range;
    /// [`MnemonicError::DisconnectedQuery`] when the query graph is not
    /// connected.
    pub fn register_query_on_shard(
        &mut self,
        query: QueryGraph,
        shard: usize,
        matcher: Box<dyn EdgeMatcher>,
        semantics: Box<dyn MatchSemantics>,
    ) -> Result<QueryHandle, MnemonicError> {
        if shard >= self.shards.len() {
            return Err(MnemonicError::UnknownShard(shard));
        }
        let root = select_root(&query, &LabelFrequencies::new());
        let weight = static_pattern_cost(&query);
        self.register_inner(query, root, matcher, semantics, Some(shard), weight)
    }

    /// The shared registration core: place (weighted or pinned), bring the
    /// chosen shard's graph up to date if it sat out broadcasts while
    /// empty, then register + prime on that shard.
    fn register_inner(
        &mut self,
        query: QueryGraph,
        root: mnemonic_graph::ids::QueryVertexId,
        matcher: Box<dyn EdgeMatcher>,
        semantics: Box<dyn MatchSemantics>,
        pinned: Option<usize>,
        weight: f64,
    ) -> Result<QueryHandle, MnemonicError> {
        let id = QueryId(self.next_query_id);
        let shard = match pinned {
            Some(s) => {
                self.plan.assign_to(id, s, weight);
                s
            }
            None => self.plan.assign_weighted(id, weight),
        };
        if let Err(e) = self.sync_shard(shard) {
            self.plan.remove(id);
            return Err(e);
        }
        match self.shards[shard].register_query_full(query, root, matcher, semantics, Some(id)) {
            Ok(handle) => {
                self.next_query_id += 1;
                self.registration_order.push(id);
                Ok(handle)
            }
            Err(e) => {
                self.plan.remove(id);
                Err(e)
            }
        }
    }

    /// Remove a standing query from its shard; the handle keeps any
    /// buffered results and can still be drained. A shard left without
    /// queries drops out of the broadcast scope (it stops copying the
    /// stream) until a query is placed on it again.
    ///
    /// # Errors
    /// [`MnemonicError::UnknownQuery`] when the handle does not belong to
    /// this session or the query was already deregistered.
    pub fn deregister(&mut self, handle: &QueryHandle) -> Result<(), MnemonicError> {
        let shard = self
            .plan
            .shard_of(handle.id())
            .ok_or(MnemonicError::UnknownQuery(handle.id()))?;
        self.shards[shard].deregister(handle)?;
        self.plan.remove(handle.id());
        self.tracker.remove(handle.id());
        self.registration_order.retain(|&id| id != handle.id());
        Ok(())
    }

    // ---- live migration and rebalancing -------------------------------------

    /// Replace the automatic-rebalance policy (`None` disables the auto
    /// trigger). The load tracker adopts the new policy's EWMA factor and
    /// the overload streak restarts.
    ///
    /// # Errors
    /// [`MnemonicError::InvalidConfig`] for an out-of-range policy.
    pub fn set_rebalance_policy(
        &mut self,
        policy: Option<RebalancePolicy>,
    ) -> Result<(), MnemonicError> {
        if let Some(p) = &policy {
            p.validate().map_err(MnemonicError::InvalidConfig)?;
            self.tracker.set_alpha(p.ewma_alpha);
        }
        self.policy = policy;
        self.overload_streak = 0;
        Ok(())
    }

    /// The automatic-rebalance policy in effect, if any.
    pub fn rebalance_policy(&self) -> Option<RebalancePolicy> {
        self.policy
    }

    /// Number of rebalances (manual or automatic) that executed at least
    /// one migration.
    pub fn rebalance_count(&self) -> u64 {
        self.rebalance_count
    }

    /// The outcome of the most recent [`ShardedSession::rebalance`] call.
    pub fn last_rebalance(&self) -> Option<&RebalanceReport> {
        self.last_rebalance.as_ref()
    }

    /// The measured EWMA load (nanos of enumeration time per batch) of a
    /// live query, once at least one batch has been observed.
    pub fn measured_load(&self, handle: &QueryHandle) -> Option<f64> {
        self.tracker.load(handle.id())
    }

    /// Migrate one standing query to an explicit shard, strictly between
    /// batches: its state is extracted from the source shard (any
    /// budget-deferred work drains there first), the target shard's graph is
    /// brought up to date if needed, and the query's index is re-primed
    /// against it — after which the merged result stream continues exactly
    /// as if the query had always lived on the target shard. The handle
    /// stays valid throughout. Migrating a query to the shard it is already
    /// on is a no-op.
    ///
    /// # Errors
    /// [`MnemonicError::UnknownShard`] when `to` is out of range;
    /// [`MnemonicError::UnknownQuery`] for a deregistered/foreign handle;
    /// [`MnemonicError::ShardDesynced`] when the target shard cannot be
    /// brought up to date.
    pub fn migrate_query(&mut self, handle: &QueryHandle, to: usize) -> Result<(), MnemonicError> {
        if to >= self.shards.len() {
            return Err(MnemonicError::UnknownShard(to));
        }
        let from = self
            .plan
            .shard_of(handle.id())
            .ok_or(MnemonicError::UnknownQuery(handle.id()))?;
        self.execute_move(handle.id(), from, to)
    }

    /// Rebalance the plan now: compute the greedy move list
    /// ([`plan_moves`]) against the current weights and execute every move
    /// through the exactness-preserving migration mechanism. Returns the
    /// report (no moves when the plan is already balanced). Runs strictly
    /// between batches — results are unaffected, only future load placement
    /// changes.
    ///
    /// # Errors
    /// [`MnemonicError::ShardDesynced`] when a move's target shard cannot be
    /// brought up to date, [`MnemonicError::UnknownQuery`] when the plan and
    /// the shards disagree on a query's placement. Either means scheduler
    /// state has diverged; the session should be discarded.
    pub fn rebalance(&mut self) -> Result<RebalanceReport, MnemonicError> {
        let imbalance_before = self.plan.imbalance();
        let moves: Vec<QueryMove> = plan_moves(&self.plan);
        for m in &moves {
            self.execute_move(m.query, m.from, m.to)?;
        }
        let report = RebalanceReport {
            moves,
            imbalance_before,
            imbalance_after: self.plan.imbalance(),
        };
        if !report.moves.is_empty() {
            self.rebalance_count += 1;
        }
        self.last_rebalance = Some(report.clone());
        Ok(report)
    }

    /// Carry out one validated move: sync the target shard, extract the
    /// query's state from the source (force-draining its deferred work
    /// against the graph it was parked on), adopt + re-prime on the target,
    /// and update the plan.
    fn execute_move(&mut self, id: QueryId, from: usize, to: usize) -> Result<(), MnemonicError> {
        if from == to {
            return Ok(());
        }
        self.sync_shard(to)?;
        let Some(state) = self.shards[from].take_query(id) else {
            // The plan and the shards disagree on where the query lives —
            // scheduler state has diverged (previously a debug_assert).
            return Err(MnemonicError::UnknownQuery(id));
        };
        self.shards[to].adopt_query(state);
        self.plan.move_to(id, to);
        // A completed migration invalidates whatever imbalance history the
        // policy debounce had accumulated: the plan it measured no longer
        // exists. Restart the window so the next trigger needs `window`
        // fresh over-threshold batches against the *new* placement instead
        // of instantly re-firing (and oscillating) off stale evidence.
        self.overload_streak = 0;
        Ok(())
    }

    /// The configured graceful-degradation policy, if any (see
    /// [`ShardedSessionBuilder::degrade_policy`]).
    pub fn degrade_policy(&self) -> Option<DegradePolicy> {
        self.degrade
    }

    /// Record that a query's state was adopted by `to` (the degraded
    /// driver's quarantine migration, which moves states directly between
    /// shard sessions): keep the placement plan in step so routing, load
    /// accounting and the broadcast scope see the new home.
    pub(crate) fn note_adopted(&mut self, id: QueryId, to: usize) {
        self.plan.move_to(id, to);
    }

    /// Bring one shard's graph up to date by cloning it from a shard that
    /// has processed every broadcast. The clone is edge-id-exact (including
    /// the recycler state), so a query placed or migrated onto the shard
    /// sees exactly the graph it would have seen had the shard never been
    /// skipped. Only shards that sat out broadcasts while empty can be
    /// stale, so the clone never overwrites live query state.
    ///
    /// # Errors
    /// [`MnemonicError::ShardDesynced`] when no shard holds the current
    /// graph version (a violated broadcast-scope invariant; previously a
    /// panic that would abort a serve loop).
    pub(crate) fn sync_shard(&mut self, shard: usize) -> Result<(), MnemonicError> {
        if self.shard_versions[shard] == self.graph_version {
            return Ok(());
        }
        debug_assert!(
            self.shards[shard].queries.is_empty(),
            "only empty shards can go stale"
        );
        let donor = self
            .shard_versions
            .iter()
            .position(|&v| v == self.graph_version)
            .ok_or(MnemonicError::ShardDesynced(shard))?;
        self.shards[shard].graph = self.shards[donor].graph.clone();
        self.shard_versions[shard] = self.graph_version;
        Ok(())
    }

    /// The shards that receive the next broadcast: every shard with at
    /// least one query, or shard 0 alone when no queries are live (the
    /// stream must keep flowing so re-registration sees the full graph —
    /// and one current shard is what keeps [`ShardedSession::sync_shard`]'s
    /// donor guarantee).
    pub(crate) fn broadcast_scope(&self) -> Vec<usize> {
        let scope: Vec<usize> = (0..self.shards.len())
            .filter(|&s| self.plan.load(s) > 0)
            .collect();
        if scope.is_empty() {
            vec![0]
        } else {
            scope
        }
    }

    /// Post-batch scheduling work: fold each query's measured enumeration
    /// time into the EWMA tracker, refresh the plan's weights, and fire the
    /// policy's auto-rebalance when the imbalance has persisted past the
    /// debounce window.
    ///
    /// # Errors
    /// See [`ShardedSession::rebalance`] (only the auto-trigger can fail).
    pub(crate) fn after_batch(&mut self) -> Result<(), MnemonicError> {
        for shard in &self.shards {
            for (id, nanos) in shard.query_enumeration_nanos() {
                self.tracker.observe(id, nanos);
            }
        }
        for (id, load) in self.tracker.loads() {
            if load > 0.0 {
                self.plan.set_weight(id, load);
            }
        }
        let Some(policy) = self.policy else {
            return Ok(());
        };
        if self.plan.imbalance() > policy.imbalance_threshold {
            self.overload_streak += 1;
            if self.overload_streak >= policy.window {
                self.overload_streak = 0;
                self.rebalance()?;
            }
        } else {
            self.overload_streak = 0;
        }
        Ok(())
    }

    // ---- accessors ----------------------------------------------------------

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of live standing queries across all shards.
    pub fn query_count(&self) -> usize {
        self.registration_order.len()
    }

    /// The current query placement.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// The shard a live query runs on.
    pub fn shard_of(&self, handle: &QueryHandle) -> Option<usize> {
        self.plan.shard_of(handle.id())
    }

    /// Borrow one shard's session (graph, stats, spill accounting).
    pub fn shard(&self, index: usize) -> Option<&MnemonicSession> {
        self.shards.get(index)
    }

    /// The configuration in effect (shard-level; every shard runs a
    /// sequential copy of it).
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Number of events currently buffered by the batched update path.
    pub fn pending_events(&self) -> usize {
        self.pending.len()
    }

    /// Number of broadcast snapshots processed so far.
    pub fn snapshots_processed(&self) -> u64 {
        self.snapshots_processed
    }

    /// Cumulative phase timings summed over all shards (aggregate CPU time,
    /// not wall-clock: shards run concurrently).
    pub fn timings(&self) -> PhaseTimings {
        let mut total = PhaseTimings::default();
        for shard in &self.shards {
            total.accumulate(&shard.timings());
        }
        total
    }

    /// Summed per-unit enumeration wall time over every live query of every
    /// shard (the denominator for
    /// [`QueryStats::enumeration_share`](crate::stats::QueryStats::enumeration_share)).
    pub fn enumeration_time(&self) -> Duration {
        self.shards.iter().map(|s| s.enumeration_time()).sum()
    }

    // ---- broadcast ingest ---------------------------------------------------

    /// Run `f` once per scope shard (ascending shard order), concurrently on
    /// the shard-level pool when one is configured. The result vector is in
    /// scope order.
    ///
    /// Each shard task runs under [`std::panic::catch_unwind`], so a panic
    /// inside one shard (for example a user-provided matcher) surfaces as
    /// [`MnemonicError::ShardPanicked`] instead of unwinding through the
    /// pool and aborting the serve loop. The remaining shards still run to
    /// completion — but the panicked shard's state is unknown, so the
    /// session should be discarded after this error.
    ///
    /// # Errors
    /// [`MnemonicError::ShardPanicked`] carrying the first panicked shard's
    /// index.
    fn for_each_shard_in<R, F>(&mut self, scope: &[usize], f: F) -> Result<Vec<R>, MnemonicError>
    where
        R: Send,
        F: Fn(&mut MnemonicSession) -> R + Sync,
    {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let mut in_scope = vec![false; self.shards.len()];
        for &s in scope {
            in_scope[s] = true;
        }
        let mut slots: Vec<Option<std::thread::Result<R>>> = scope.iter().map(|_| None).collect();
        let selected = self
            .shards
            .iter_mut()
            .enumerate()
            .filter(|&(i, _)| in_scope[i])
            .map(|(_, shard)| shard);
        match &self.pool {
            Some(pool) => {
                let f = &f;
                pool.scope(|s| {
                    for (shard, slot) in selected.zip(slots.iter_mut()) {
                        s.spawn(move |_| *slot = Some(catch_unwind(AssertUnwindSafe(|| f(shard)))));
                    }
                });
            }
            None => {
                for (shard, slot) in selected.zip(slots.iter_mut()) {
                    *slot = Some(catch_unwind(AssertUnwindSafe(|| f(shard))));
                }
            }
        }
        slots
            .into_iter()
            .zip(scope)
            .map(|(slot, &shard)| match slot {
                Some(Ok(r)) => Ok(r),
                // Err: the task panicked and the payload was caught here.
                // None: the pool lost the task entirely — treat it the same
                // way, the shard did not run to completion.
                Some(Err(_)) | None => Err(MnemonicError::ShardPanicked(shard)),
            })
            .collect()
    }

    /// Merge the per-shard outcomes of one broadcast batch: shared deltas
    /// are identical on every shard (same events, same graph state, same
    /// edge ids), timings are summed, and the per-query results are
    /// reassembled in global registration order.
    pub(crate) fn merge_results(
        &self,
        results: Vec<Result<SessionBatchResult, MnemonicError>>,
    ) -> Result<SessionBatchResult, MnemonicError> {
        let mut merged = SessionBatchResult::default();
        let mut per_query: Vec<(QueryId, BatchResult)> = Vec::new();
        for (i, result) in results.into_iter().enumerate() {
            let r = result?;
            if i == 0 {
                merged.snapshot_id = r.snapshot_id;
                merged.insertions = r.insertions;
                merged.deletions = r.deletions;
            } else {
                debug_assert_eq!(
                    (merged.insertions, merged.deletions),
                    (r.insertions, r.deletions),
                    "shards diverged on the shared graph deltas"
                );
            }
            merged.timings.accumulate(&r.timings);
            per_query.extend(r.per_query);
        }
        // O(K log K): index the registration order once instead of scanning
        // it from inside the sort key (this merge runs per broadcast batch).
        let order: std::collections::HashMap<QueryId, usize> = self
            .registration_order
            .iter()
            .enumerate()
            .map(|(pos, &id)| (id, pos))
            .collect();
        per_query.sort_by_key(|&(id, _)| (order.get(&id).copied().unwrap_or(usize::MAX), id));
        merged.per_query = per_query;
        Ok(merged)
    }

    /// Broadcast one snapshot to every shard in scope (shards with at least
    /// one query — empty shards skip the copy and resync by graph clone if a
    /// query is later placed on them) and merge the outcomes. Scope shards
    /// run concurrently on the shard-level pool; each applies the full
    /// staged pipeline to its own graph. After the merge the session folds
    /// the measured per-query load into its tracker and, when a
    /// [`RebalancePolicy`] is set, fires the automatic rebalance.
    ///
    /// # Errors
    /// See [`MnemonicSession::apply_snapshot`];
    /// [`MnemonicError::ShardPanicked`] when a shard task panicked mid-batch.
    /// If any shard fails the shards may have diverged and the session
    /// should be discarded.
    pub fn apply_snapshot(
        &mut self,
        snapshot: &Snapshot,
    ) -> Result<SessionBatchResult, MnemonicError> {
        let scope = self.broadcast_scope();
        for &s in &scope {
            self.sync_shard(s)?;
        }
        let results = self.for_each_shard_in(&scope, |shard| shard.apply_snapshot(snapshot))?;
        self.graph_version += 1;
        for &s in &scope {
            self.shard_versions[s] = self.graph_version;
        }
        self.snapshots_processed += 1;
        let merged = self.merge_results(results)?;
        self.after_batch()?;
        Ok(merged)
    }

    /// Load an initial graph into every scope shard without reporting
    /// embeddings (the [`MnemonicSession::bootstrap`] semantics,
    /// broadcast). Out-of-scope shards pick the state up by graph clone
    /// when a query is placed on them.
    ///
    /// # Errors
    /// See [`MnemonicSession::bootstrap`].
    pub fn bootstrap(&mut self, events: &[StreamEvent]) -> Result<(), MnemonicError> {
        let scope = self.broadcast_scope();
        for &s in &scope {
            self.sync_shard(s)?;
        }
        let results = self.for_each_shard_in(&scope, |shard| shard.bootstrap(events))?;
        self.graph_version += 1;
        for &s in &scope {
            self.shard_versions[s] = self.graph_version;
        }
        for result in results {
            result?;
        }
        Ok(())
    }

    /// Ingest one edge event through the batched update path: the event
    /// joins the pending delta batch, and once the batch reaches the
    /// configured [`UpdateMode`] size it is broadcast to every shard.
    /// Returns the merged batch outcome on the pushes that trigger a flush,
    /// `Ok(None)` otherwise.
    ///
    /// # Errors
    /// See [`ShardedSession::apply_snapshot`].
    pub fn push_event(
        &mut self,
        event: StreamEvent,
    ) -> Result<Option<SessionBatchResult>, MnemonicError> {
        if self
            .pending
            .push(event, self.config.update_mode.batch_size())
        {
            self.flush_pending()
        } else {
            Ok(None)
        }
    }

    /// Flush the pending delta batch, if any. Returns `Ok(None)` when
    /// nothing was buffered.
    ///
    /// # Errors
    /// See [`ShardedSession::apply_snapshot`].
    pub fn flush_pending(&mut self) -> Result<Option<SessionBatchResult>, MnemonicError> {
        match self.pending.take_snapshot(self.snapshots_processed) {
            None => Ok(None),
            Some(snapshot) => self.apply_snapshot(&snapshot).map(Some),
        }
    }

    /// Drive a raw event sequence through the batched update path; a final
    /// flush drains the last partial batch. Batch boundaries (and therefore
    /// reported embeddings) are identical to an unsharded
    /// [`MnemonicSession::run_events`] with the same [`UpdateMode`].
    ///
    /// # Errors
    /// See [`ShardedSession::apply_snapshot`].
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
    /// See [`ShardedSession::apply_snapshot`].
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

    /// Flush any pending events and consume the session, returning the
    /// final merged batch outcome (or `Ok(None)` when nothing was
    /// buffered). Dropping a session with
    /// [`ShardedSession::pending_events`]` > 0` silently discards the
    /// buffered events; `finish` is the lossless shutdown path.
    ///
    /// # Errors
    /// See [`ShardedSession::apply_snapshot`].
    pub fn finish(mut self) -> Result<Option<SessionBatchResult>, MnemonicError> {
        let result = self.flush_pending()?;
        // Keep the fairness budget's defer-never-drop promise: run every
        // shard's parked backlog to completion (delivered through the
        // handles, not a batch outcome).
        for shard in &self.shards {
            shard.force_drain_deferred();
        }
        Ok(result)
    }

    /// Periodic reset (Section VII-D), broadcast to every shard; pending
    /// pre-reset events are discarded with the old epoch. Every shard's
    /// graph is identically empty afterwards, so stale shards are current
    /// again by construction.
    pub fn periodic_reset(&mut self) {
        for shard in self.shards.iter_mut() {
            shard.periodic_reset();
        }
        self.pending.clear();
        for v in self.shard_versions.iter_mut() {
            *v = self.graph_version;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::LabelEdgeMatcher;
    use crate::variants::Isomorphism;
    use mnemonic_query::patterns;

    fn sharded(shards: usize) -> ShardedSession {
        ShardedSession::builder()
            .shards(shards)
            .sequential()
            .batch_size(4)
            .build()
            .expect("valid config")
    }

    fn register(s: &mut ShardedSession, q: QueryGraph) -> QueryHandle {
        s.register_query(q, Box::new(LabelEdgeMatcher), Box::new(Isomorphism))
            .expect("connected query")
    }

    #[test]
    fn sessions_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<MnemonicSession>();
        assert_send::<ShardedSession>();
    }

    #[test]
    fn builder_rejects_zero_shards_and_zero_batches() {
        let err = ShardedSession::builder().shards(0).build().unwrap_err();
        assert!(matches!(err, MnemonicError::InvalidConfig(_)));
        let err = ShardedSession::builder()
            .shards(2)
            .batch_size(0)
            .build()
            .unwrap_err();
        assert!(matches!(err, MnemonicError::InvalidConfig(_)));
    }

    #[test]
    fn plan_balances_and_reuses_freed_capacity() {
        let mut plan = ShardPlan::new(3);
        assert_eq!(plan.assign(QueryId(0)), 0);
        assert_eq!(plan.assign(QueryId(1)), 1);
        assert_eq!(plan.assign(QueryId(2)), 2);
        assert_eq!(plan.assign(QueryId(3)), 0, "round robin when balanced");
        assert_eq!(plan.remove(QueryId(1)), Some(1));
        assert_eq!(plan.assign(QueryId(4)), 1, "freed shard is least loaded");
        assert_eq!(plan.shard_of(QueryId(1)), None);
        assert_eq!(plan.query_count(), 4);
        assert_eq!(plan.load(0), 2);
    }

    #[test]
    fn query_ids_are_globally_unique_across_shards() {
        let mut s = sharded(3);
        let handles: Vec<QueryHandle> = (0..6)
            .map(|_| register(&mut s, patterns::path(2)))
            .collect();
        let mut ids: Vec<u64> = handles.iter().map(|h| h.id().0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 6, "ids must not collide across shards");
        assert_eq!(s.query_count(), 6);
        for shard in 0..3 {
            assert_eq!(s.plan().load(shard), 2);
        }
    }

    #[test]
    fn broadcast_batch_reaches_every_shard_and_merges_in_order() {
        let mut s = sharded(2);
        let triangles = register(&mut s, patterns::triangle());
        let paths = register(&mut s, patterns::path(3));
        assert_ne!(s.shard_of(&triangles), s.shard_of(&paths));
        let results = s
            .run_events([
                StreamEvent::insert(0, 1, 0),
                StreamEvent::insert(1, 2, 0),
                StreamEvent::insert(2, 0, 0),
            ])
            .unwrap();
        assert_eq!(results.len(), 1);
        let r = &results[0];
        assert_eq!(r.insertions, 3);
        assert_eq!(r.per_query.len(), 2);
        assert_eq!(
            r.per_query.iter().map(|&(id, _)| id).collect::<Vec<_>>(),
            vec![triangles.id(), paths.id()],
            "merged results keep registration order"
        );
        assert_eq!(r.for_query(triangles.id()).unwrap().new_embeddings, 3);
        assert!(r.for_query(paths.id()).unwrap().new_embeddings > 0);
        // Every shard's graph saw every event.
        for shard in 0..2 {
            assert_eq!(s.shard(shard).unwrap().graph().live_edge_count(), 3);
        }
        assert_eq!(triangles.drain().positive.len(), 3);
    }

    #[test]
    fn deregister_removes_from_plan_and_rejects_stale_handles() {
        let mut s = sharded(2);
        let h = register(&mut s, patterns::triangle());
        assert_eq!(s.query_count(), 1);
        s.deregister(&h).unwrap();
        assert_eq!(s.query_count(), 0);
        assert!(matches!(
            s.deregister(&h),
            Err(MnemonicError::UnknownQuery(_))
        ));
        // Ingest keeps working with zero live queries.
        let r = s.run_events([StreamEvent::insert(0, 1, 0)]).unwrap();
        assert_eq!(r[0].insertions, 1);
        assert!(r[0].per_query.is_empty());
    }

    #[test]
    fn parallel_shards_match_sequential_shards() {
        let events: Vec<StreamEvent> = (0..40u32)
            .map(|i| StreamEvent::insert(i % 9, (i * 5 + 2) % 9, 0).at(i as u64))
            .collect();
        let run = |mut s: ShardedSession| -> Vec<u64> {
            let handles = [
                register(&mut s, patterns::triangle()),
                register(&mut s, patterns::path(3)),
                register(&mut s, patterns::rectangle()),
            ];
            s.run_events(events.iter().copied()).unwrap();
            handles.iter().map(|h| h.accepted()).collect()
        };
        let sequential = run(sharded(3));
        let parallel = run(ShardedSession::builder()
            .shards(3)
            .threads(3)
            .batch_size(4)
            .build()
            .unwrap());
        assert_eq!(sequential, parallel);
        assert!(sequential.iter().sum::<u64>() > 0);
    }

    #[test]
    fn weighted_placement_and_imbalance_math() {
        let mut plan = ShardPlan::new(2);
        assert_eq!(plan.imbalance(), 1.0, "empty plan is perfectly balanced");
        plan.assign_weighted(QueryId(0), 10.0);
        plan.assign_weighted(QueryId(1), 1.0);
        // Heavy query went first; the light one must land on the other shard.
        assert_ne!(plan.shard_of(QueryId(0)), plan.shard_of(QueryId(1)));
        // A second light query joins the light shard, not the heavy one.
        let s2 = plan.assign_weighted(QueryId(2), 1.0);
        assert_eq!(Some(s2), plan.shard_of(QueryId(1)));
        assert_eq!(plan.weight_of(QueryId(0)), Some(10.0));
        // imbalance = max * shards / total = 10 * 2 / 12.
        assert!((plan.imbalance() - 20.0 / 12.0).abs() < 1e-9);
        assert!(plan.set_weight(QueryId(0), 2.0));
        assert!(!plan.set_weight(QueryId(9), 2.0));
        assert!((plan.imbalance() - 1.0).abs() < 1e-9, "2 vs 2 is balanced");
        assert_eq!(plan.move_to(QueryId(0), 1), Some(0));
        assert_eq!(plan.shard_of(QueryId(0)), Some(1));
        assert!((plan.shard_weight(1) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn empty_shards_leave_broadcast_scope_and_resync_on_reuse() {
        let mut s = sharded(2);
        let triangles = register(&mut s, patterns::triangle());
        let paths = register(&mut s, patterns::path(3));
        let idle = s.shard_of(&paths).unwrap();
        let busy = s.shard_of(&triangles).unwrap();
        s.run_events([StreamEvent::insert(0, 1, 0), StreamEvent::insert(1, 2, 0)])
            .unwrap();
        s.deregister(&paths).unwrap();
        // The freed shard is out of scope: its graph stays frozen.
        s.run_events([StreamEvent::insert(2, 0, 0), StreamEvent::insert(2, 3, 0)])
            .unwrap();
        assert_eq!(s.shard(idle).unwrap().graph().live_edge_count(), 2);
        assert_eq!(s.shard(busy).unwrap().graph().live_edge_count(), 4);
        // A new registration reuses the freed shard and resyncs its graph,
        // so the primed index sees the edges it missed while idle.
        let paths2 = register(&mut s, patterns::path(3));
        assert_eq!(s.shard_of(&paths2), Some(idle));
        assert_eq!(s.shard(idle).unwrap().graph().live_edge_count(), 4);
        assert!(triangles.accepted() > 0);
        s.run_events([StreamEvent::insert(3, 1, 0)]).unwrap();
        assert_eq!(s.shard(idle).unwrap().graph().live_edge_count(), 5);
        // The new edge combines with edges inserted while the shard was
        // idle (e.g. 2→3→1), so the re-primed index must know them.
        assert!(paths2.accepted() > 0, "re-primed query sees old edges");
    }

    #[test]
    fn migrate_query_moves_state_and_rejects_bad_targets() {
        let mut s = sharded(2);
        let triangles = register(&mut s, patterns::triangle());
        let paths = register(&mut s, patterns::path(3));
        let from = s.shard_of(&triangles).unwrap();
        let to = 1 - from;
        let events: Vec<StreamEvent> = [
            (0, 1),
            (1, 2),
            (3, 4),
            (4, 3),
            (2, 0),
            (1, 3),
            (3, 0),
            (2, 3),
        ]
        .into_iter()
        .map(|(u, v)| StreamEvent::insert(u, v, 0))
        .collect();
        s.run_events(events[..4].iter().copied()).unwrap();
        let before = triangles.accepted();
        assert!(matches!(
            s.migrate_query(&triangles, 9),
            Err(MnemonicError::UnknownShard(9))
        ));
        s.migrate_query(&triangles, to).unwrap();
        assert_eq!(s.shard_of(&triangles), Some(to));
        // Migrating onto the current shard is a no-op.
        s.migrate_query(&triangles, to).unwrap();
        s.run_events(events[4..].iter().copied()).unwrap();

        // The migrated run must match a never-migrated oracle exactly.
        let mut oracle = sharded(2);
        let ot = register(&mut oracle, patterns::triangle());
        let op = register(&mut oracle, patterns::path(3));
        oracle.run_events(events.iter().copied()).unwrap();
        assert!(triangles.accepted() > before);
        assert_eq!(triangles.accepted(), ot.accepted());
        assert_eq!(paths.accepted(), op.accepted());

        s.deregister(&paths).unwrap();
        assert!(matches!(
            s.migrate_query(&paths, 0),
            Err(MnemonicError::UnknownQuery(_))
        ));
    }

    #[test]
    fn rebalance_separates_stacked_heavy_queries() {
        let mut s = sharded(2);
        let a = s
            .register_query_on_shard(
                patterns::triangle(),
                0,
                Box::new(LabelEdgeMatcher),
                Box::new(Isomorphism),
            )
            .unwrap();
        let b = s
            .register_query_on_shard(
                patterns::triangle(),
                0,
                Box::new(LabelEdgeMatcher),
                Box::new(Isomorphism),
            )
            .unwrap();
        assert_eq!(s.plan().load(0), 2);
        let report = s.rebalance().unwrap();
        assert_eq!(report.moves.len(), 1, "one triangle moves off the pile");
        assert!(report.imbalance_after < report.imbalance_before);
        assert_eq!(s.rebalance_count(), 1);
        assert!(s.last_rebalance().is_some());
        assert_ne!(s.shard_of(&a), s.shard_of(&b));
        // Balanced plans have nothing to move.
        assert!(s.rebalance().unwrap().moves.is_empty());
        let r = s
            .run_events([
                StreamEvent::insert(0, 1, 0),
                StreamEvent::insert(1, 2, 0),
                StreamEvent::insert(2, 0, 0),
            ])
            .unwrap();
        assert_eq!(r[0].for_query(a.id()).unwrap().new_embeddings, 3);
        assert_eq!(r[0].for_query(b.id()).unwrap().new_embeddings, 3);
        assert!(s.measured_load(&a).is_some());
    }

    #[test]
    fn auto_rebalance_fires_under_policy() {
        let mut s = ShardedSession::builder()
            .shards(2)
            .sequential()
            .batch_size(2)
            .rebalance_policy(RebalancePolicy {
                imbalance_threshold: 1.2,
                window: 2,
                ewma_alpha: 0.5,
            })
            .build()
            .unwrap();
        let a = s
            .register_query_on_shard(
                patterns::triangle(),
                0,
                Box::new(LabelEdgeMatcher),
                Box::new(Isomorphism),
            )
            .unwrap();
        let b = s
            .register_query_on_shard(
                patterns::triangle(),
                0,
                Box::new(LabelEdgeMatcher),
                Box::new(Isomorphism),
            )
            .unwrap();
        let events: Vec<StreamEvent> = (0..24u32)
            .map(|i| StreamEvent::insert(i % 6, (i * 5 + 1) % 6, 0))
            .collect();
        s.run_events(events.iter().copied()).unwrap();
        assert!(
            s.rebalance_count() >= 1,
            "sustained 2x-on-one-shard load must trigger a move"
        );
        assert_ne!(s.shard_of(&a), s.shard_of(&b));

        // Results still match an unsharded oracle.
        let mut oracle = MnemonicSession::builder().batch_size(2).build().unwrap();
        let oa = oracle
            .register_query(
                patterns::triangle(),
                Box::new(LabelEdgeMatcher),
                Box::new(Isomorphism),
            )
            .unwrap();
        oracle.run_events(events.iter().copied()).unwrap();
        assert_eq!(a.accepted(), oa.accepted());
        assert_eq!(b.accepted(), oa.accepted());
    }

    #[test]
    fn idle_plan_reports_perfect_balance() {
        // All queries idle: every weight is ~zero. max/mean would blow up;
        // the guard must report 1.0 so auto-rebalance cannot spuriously fire.
        let mut plan = ShardPlan::new(4);
        plan.assign_to(QueryId(0), 0, 0.0);
        plan.assign_to(QueryId(1), 0, 0.0);
        plan.assign_to(QueryId(2), 1, 0.0);
        assert_eq!(plan.imbalance(), 1.0, "zero mean load is balanced");
        // Sub-epsilon residues (denormal-ish EWMA tails) count as idle too.
        plan.set_weight(QueryId(0), 1e-18);
        assert_eq!(plan.imbalance(), 1.0, "epsilon mean load is balanced");
        // Real load brings the real signal back.
        plan.set_weight(QueryId(0), 8.0);
        assert!(plan.imbalance() > 1.0);
    }

    #[test]
    fn migration_resets_the_policy_debounce_window() {
        let mut s = ShardedSession::builder()
            .shards(2)
            .sequential()
            .batch_size(2)
            .rebalance_policy(RebalancePolicy {
                imbalance_threshold: 1.2,
                window: 3,
                ewma_alpha: 0.5,
            })
            .build()
            .unwrap();
        let a = s
            .register_query_on_shard(
                patterns::triangle(),
                0,
                Box::new(LabelEdgeMatcher),
                Box::new(Isomorphism),
            )
            .unwrap();
        s.overload_streak = 2; // one batch short of the trigger
        let from = s.shard_of(&a).unwrap();
        s.migrate_query(&a, 1 - from).unwrap();
        assert_eq!(
            s.overload_streak, 0,
            "a completed migration invalidates the accumulated imbalance \
             history, so the debounce window must restart"
        );
        // A no-op migration (same shard) leaves the streak alone.
        s.overload_streak = 2;
        s.migrate_query(&a, 1 - from).unwrap();
        assert_eq!(s.overload_streak, 2, "no move, no reset");
    }

    #[test]
    fn shard_panic_is_caught_and_typed() {
        use crate::api::FnEdgeMatcher;
        // A matcher that panics once the graph holds a few edges, placed on
        // one shard of a two-shard session; the healthy query lives on the
        // other shard.
        for parallel_pool in [false, true] {
            let mut builder = ShardedSession::builder().shards(2).batch_size(2);
            builder = if parallel_pool {
                builder.threads(2)
            } else {
                builder.sequential()
            };
            let mut s = builder.build().unwrap();
            let poisoned = s
                .register_query_on_shard(
                    patterns::path(2),
                    0,
                    Box::new(FnEdgeMatcher(
                        |_ctx: &crate::api::MatcherContext<'_>,
                         _q,
                         e: &mnemonic_graph::edge::Edge| {
                            assert!(e.src.0 != 3, "poisoned matcher");
                            true
                        },
                    )),
                    Box::new(Isomorphism),
                )
                .unwrap();
            let _healthy = s
                .register_query_on_shard(
                    patterns::path(2),
                    1,
                    Box::new(LabelEdgeMatcher),
                    Box::new(Isomorphism),
                )
                .unwrap();
            s.run_events([StreamEvent::insert(0, 1, 0), StreamEvent::insert(1, 2, 0)])
                .unwrap();
            let err = s
                .run_events([StreamEvent::insert(3, 4, 0), StreamEvent::insert(4, 5, 0)])
                .unwrap_err();
            assert!(
                matches!(err, MnemonicError::ShardPanicked(0)),
                "expected ShardPanicked(0), got {err:?} (pool: {parallel_pool})"
            );
            drop(poisoned); // the documented response: discard the session
        }
    }

    #[test]
    fn desynced_shard_is_a_typed_error_not_a_panic() {
        let mut s = sharded(2);
        // Corrupt the version bookkeeping so *no* shard matches the current
        // graph version: the donor lookup used to `expect` here.
        s.graph_version = 7;
        let err = s.sync_shard(0).unwrap_err();
        assert!(matches!(err, MnemonicError::ShardDesynced(0)));
        // The typed error propagates through registration instead of
        // poisoning the plan: the failed query is rolled back.
        let err = s
            .register_query(
                patterns::triangle(),
                Box::new(LabelEdgeMatcher),
                Box::new(Isomorphism),
            )
            .unwrap_err();
        assert!(matches!(err, MnemonicError::ShardDesynced(_)));
        assert_eq!(s.query_count(), 0);
        assert_eq!(s.plan().query_count(), 0, "failed registration rolls back");
    }
}
