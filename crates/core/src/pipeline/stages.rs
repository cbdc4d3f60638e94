//! The five pipeline stages. Each stage is a named unit wrapping one phase
//! of the batch-update sequence, operating on a
//! [`MnemonicSession`] and a [`DeltaBatch`], and recording its elapsed time
//! into the batch's [`PhaseTimings`](crate::stats::PhaseTimings) slice:
//!
//! | stage | wraps | timing slice |
//! |---|---|---|
//! | [`GraphUpdate`] | edge materialisation / deletion + spill bookkeeping | `graph_update` |
//! | [`FrontierBuild`] | [`UnifiedFrontier::build`] | `frontier` |
//! | [`Filtering`] | one cross-query top-down pass over the shared frontier: candidacy, roots and DEBI rows of every standing query | `top_down` / `bottom_up` |
//! | [`DeletionResolve`] | event → edge-id resolution + eviction expansion | `frontier` |
//! | [`Enumerate`] | pooled heaviest-first work-unit enumeration for all queries | `enumeration` |
//!
//! The stages are deliberately free functions-on-unit-structs rather than a
//! trait: the pipeline's two halves (`batchInserts` / `batchDeletes`) thread
//! different intermediates through the same stage kinds, and a trait-shaped
//! `run(&mut Batch)` would bury exactly the data-flow the refactor is meant
//! to surface.

use super::DeltaBatch;
use crate::embedding::{EmbeddingSink, Sign};
use crate::enumerate::{Enumerator, WorkUnit};
use crate::error::MnemonicError;
use crate::filter::{FilterTarget, SharedTopDownPass, TopDownPass};
use crate::frontier::UnifiedFrontier;
use crate::hot_path_baseline::BaselineEnumerator;
use crate::parallel;
use crate::rebalance::QueryBudget;
use crate::session::{DeferredEpoch, MnemonicSession, QueryState};
use crate::stats::EngineCounters;
use mnemonic_graph::bitset::DenseBitSet;
use mnemonic_graph::edge::{Edge, EdgeTriple};
use mnemonic_graph::edge_log::LogRecord;
use mnemonic_graph::ids::{Timestamp, VertexId, WILDCARD_EDGE_LABEL, WILDCARD_VERTEX_LABEL};
use parking_lot::Mutex;
use rayon::prelude::*;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Stage: apply the batch's graph-level mutations (edge materialisation on
/// the insert side, edge deletion on the delete side) exactly once, no
/// matter how many queries are registered. Records into
/// `timings.graph_update`.
pub struct GraphUpdate;

impl GraphUpdate {
    /// Materialise the batch's insertion events in the shared graph, filling
    /// [`DeltaBatch::inserted`].
    ///
    /// Spill-tier I/O failures do **not** abort the batch: aborting midway
    /// would leave edges in the graph that no query's DEBI ever filtered,
    /// silently corrupting every later result. Instead the error is absorbed
    /// (only the spill tier's overhead accounting degrades), counted, and
    /// exposed through
    /// [`MnemonicSession::spill_io_errors`] /
    /// [`MnemonicSession::last_spill_error`] — matching the legacy engine,
    /// which ignored these errors outright.
    ///
    /// # Errors
    /// [`MnemonicError::DeadEdge`] when a freshly inserted edge cannot be
    /// read back — graph corruption.
    pub fn apply_insertions(
        session: &mut MnemonicSession,
        batch: &mut DeltaBatch,
    ) -> Result<(), MnemonicError> {
        let start = Instant::now();
        // Materialise straight into the batch's (recycled) buffer.
        let DeltaBatch {
            insertions,
            inserted,
            ..
        } = batch;
        inserted.clear();
        inserted.reserve(insertions.len());
        for event in insertions.iter() {
            if event.src_label != WILDCARD_VERTEX_LABEL {
                session.graph.set_vertex_label(event.src, event.src_label);
            }
            if event.dst_label != WILDCARD_VERTEX_LABEL {
                session.graph.set_vertex_label(event.dst, event.dst_label);
            }
            let id = session.graph.insert_edge(EdgeTriple::with_timestamp(
                event.src,
                event.dst,
                event.label,
                event.timestamp,
            ));
            let edge = session.graph.edge(id).ok_or(MnemonicError::DeadEdge(id))?;
            if let Some(spill) = session.spill.as_mut() {
                // One DEBI row rides along for overhead accounting; with
                // several standing queries the first query's index is the
                // representative one. Spill eviction is accounting, not
                // deletion, so an evicted edge is still live in the graph
                // and its full record — endpoints, label, timestamp — goes
                // to the disk tier, where the paged backend indexes it by
                // adjacency.
                let debi = session.queries.first().map(|q| &q.debi);
                let graph = &session.graph;
                let outcome = spill.on_insert_with(edge, |old_id, old_ts| {
                    let debi_row = debi.map(|d| d.row(old_id.index())).unwrap_or_default();
                    let edge = graph.edge(old_id).unwrap_or(Edge {
                        id: old_id,
                        src: VertexId(0),
                        dst: VertexId(0),
                        label: WILDCARD_EDGE_LABEL,
                        timestamp: old_ts,
                    });
                    LogRecord { edge, debi_row }
                });
                if let Err(e) = outcome {
                    session.spill_io_errors += 1;
                    session.last_spill_error = Some(e);
                }
            }
            inserted.push(edge);
        }
        for qs in &session.queries {
            EngineCounters::add(&qs.counters.insertions_applied, inserted.len() as u64);
        }
        batch.timings.graph_update += start.elapsed();
        Ok(())
    }

    /// Apply the resolved deletions ([`DeltaBatch::doomed_ids`]) to the
    /// shared graph, filling [`DeltaBatch::deletions_applied`]. Runs *after*
    /// [`Enumerate::negative`]: the disappearing embeddings are enumerated
    /// against the pre-deletion state.
    pub fn apply_deletions(session: &mut MnemonicSession, batch: &mut DeltaBatch) {
        let start = Instant::now();
        let mut applied = 0usize;
        for &id in &batch.doomed_ids {
            if session.graph.delete_edge(id).is_ok() {
                applied += 1;
            }
        }
        for qs in &session.queries {
            EngineCounters::add(&qs.counters.deletions_applied, applied as u64);
        }
        batch.deletions_applied = applied;
        batch.timings.graph_update += start.elapsed();
    }
}

/// Stage: build the batch's unified traversal frontier (Section V-A) — the
/// deduplicated union of the affected region of every batch edge, shared by
/// all standing queries. Records into `timings.frontier`.
pub struct FrontierBuild;

impl FrontierBuild {
    /// Build the insertion frontier over [`DeltaBatch::inserted`], filling
    /// [`DeltaBatch::insert_frontier`]. The production path builds through
    /// the session's recycled [`crate::frontier::FrontierScratch`] (zero
    /// steady-state allocations); with
    /// [`hot_path_baseline`](crate::engine::EngineConfig::hot_path_baseline)
    /// set it runs the retained `HashSet` construction instead.
    pub fn for_insertions(session: &MnemonicSession, batch: &mut DeltaBatch) {
        let start = Instant::now();
        batch.insert_frontier = Some(Self::build(session, &batch.inserted));
        batch.timings.frontier += start.elapsed();
    }

    /// Build the deletion frontier over [`DeltaBatch::doomed_edges`], filling
    /// [`DeltaBatch::delete_frontier`]. Must run before
    /// [`GraphUpdate::apply_deletions`] so the deleted edges and their
    /// neighbourhood are still in the graph.
    pub fn for_deletions(session: &MnemonicSession, batch: &mut DeltaBatch) {
        let start = Instant::now();
        batch.delete_frontier = Some(Self::build(session, &batch.doomed_edges));
        batch.timings.frontier += start.elapsed();
    }

    fn build(session: &MnemonicSession, batch_edges: &[Edge]) -> UnifiedFrontier {
        if session.config.hot_path_baseline {
            UnifiedFrontier::build_hashset_baseline(&session.graph, batch_edges.to_vec(), true)
        } else {
            session
                .scratch
                .frontier
                .lock()
                .build_into(&session.graph, batch_edges, true)
        }
    }
}

/// Stage: resolve the batch's deletion events and eviction cutoff to
/// concrete edge ids against the *pre-deletion* graph, without mutating it
/// (negative embeddings must be enumerated against that state). The
/// resolution is query-independent, so it runs once per batch no matter how
/// many queries are registered. Records into `timings.frontier` (the paper
/// folds resolution into frontier construction).
pub struct DeletionResolve;

impl DeletionResolve {
    /// Fill [`DeltaBatch::doomed_ids`] / [`DeltaBatch::doomed_edges`]. The
    /// already-chosen dedup set is a recycled [`DenseBitSet`]
    /// (generation-cleared per batch) — resolution order and results are
    /// identical to the historical `HashSet` version.
    ///
    /// [`DenseBitSet`]: mnemonic_graph::bitset::DenseBitSet
    pub fn run(session: &MnemonicSession, batch: &mut DeltaBatch) {
        let start = Instant::now();
        let graph = &session.graph;
        let mut chosen = session.scratch.resolve_seen.lock();
        chosen.clear();
        chosen.ensure(graph.edge_id_bound());
        let out = &mut batch.doomed_ids;
        out.clear();
        for event in &batch.deletions {
            // Pick the most recently inserted live instance not already
            // chosen by an earlier deletion in the same batch.
            let candidate = graph
                .outgoing(event.src)
                .iter()
                .filter(|entry| entry.neighbor == event.dst)
                .map(|entry| entry.edge)
                .filter(|&eid| {
                    graph
                        .edge(eid)
                        .map(|e| e.label.matches(event.label))
                        .unwrap_or(false)
                        && !chosen.contains(eid.index())
                })
                .max_by_key(|&eid| (graph.edge(eid).map(|e| e.timestamp), eid));
            if let Some(eid) = candidate {
                chosen.insert(eid.index());
                out.push(eid);
            }
        }
        if let Some(cutoff) = batch.evict_before {
            for eid in graph.edges_older_than(Timestamp(cutoff.0)) {
                if chosen.insert(eid.index()) {
                    out.push(eid);
                }
            }
        }
        batch.doomed_edges.clear();
        batch
            .doomed_edges
            .extend(out.iter().filter_map(|&id| graph.edge(id)));
        batch.timings.frontier += start.elapsed();
    }
}

/// Stage: refresh candidacy + DEBI for every standing query over one shared
/// frontier (the batched top-down pass of Section V). On the insert pipeline
/// it records into `timings.top_down`; on the post-deletion refresh it
/// records into `timings.bottom_up` (our single refresh pass covers the same
/// affected region as the paper's bottom-up-then-top-down pair).
pub struct Filtering;

impl Filtering {
    /// Refresh every query's index over the insertion frontier.
    pub fn insertions(session: &mut MnemonicSession, batch: &mut DeltaBatch) {
        let start = Instant::now();
        let frontier = batch
            .insert_frontier
            .as_ref()
            .expect("FrontierBuild::for_insertions must run before Filtering::insertions");
        Self::run_all(session, frontier);
        batch.timings.top_down += start.elapsed();
    }

    /// Refresh every query's index over the deletion frontier, after the
    /// graph update.
    pub fn deletions(session: &mut MnemonicSession, batch: &mut DeltaBatch) {
        let start = Instant::now();
        let frontier = batch
            .delete_frontier
            .as_ref()
            .expect("FrontierBuild::for_deletions must run before Filtering::deletions");
        Self::run_all(session, frontier);
        batch.timings.bottom_up += start.elapsed();
    }

    /// The shared refresh: one [`SharedTopDownPass`] over the given frontier
    /// for all standing queries — each affected vertex's profile collected
    /// once, the affected edges sorted once, one parallel region per phase.
    /// Also used by [`MnemonicSession::bootstrap`] (untimed) and exposed
    /// crate-wide for that purpose.
    pub(crate) fn run_all(session: &mut MnemonicSession, frontier: &UnifiedFrontier) {
        let graph = &session.graph;
        for qs in session.queries.iter_mut() {
            qs.ensure_capacity(graph);
        }
        let queries = &session.queries;
        let pool = session.pool.as_ref();
        let parallel_enabled = session.config.parallel;
        if session.config.hot_path_baseline {
            // Retained pre-optimisation kernels, one pass per query: the
            // reference side of the `hot_path_gate` A/B.
            for qs in queries {
                let pass = TopDownPass {
                    graph,
                    query: &qs.query,
                    tree: &qs.tree,
                    matcher: qs.matcher.as_ref(),
                    requirements: &qs.requirements,
                };
                parallel::install(pool, || {
                    pass.run_baseline(
                        frontier,
                        &qs.candidacy,
                        &qs.debi,
                        &qs.counters,
                        parallel_enabled,
                    );
                });
            }
            return;
        }
        let targets: Vec<FilterTarget<'_>> = queries
            .iter()
            .map(|qs| {
                FilterTarget::new(
                    &qs.query,
                    &qs.tree,
                    qs.matcher.as_ref(),
                    &qs.requirements,
                    &qs.candidacy,
                    &qs.debi,
                    &qs.counters,
                )
            })
            .collect();
        let pass = SharedTopDownPass {
            graph,
            targets: &targets,
        };
        parallel::install(pool, || pass.run(frontier, parallel_enabled));
    }
}

/// Stage: enumerate one batch for every standing query. Each query's work
/// units are generated independently, then pooled and scheduled
/// heaviest-first across the shared work-stealing pool — a giant unit of one
/// query back-fills behind the small units of every other query instead of
/// serialising its own engine. Records into `timings.enumeration`, and
/// attributes each work unit's execution time to its query (the per-query
/// enumeration share surfaced by
/// [`QueryHandle::enumeration_time`](crate::session::QueryHandle::enumeration_time)).
pub struct Enumerate;

impl Enumerate {
    /// Enumerate the newly formed embeddings of the insertion frontier,
    /// filling [`DeltaBatch::new_embeddings`] (one delta per standing query,
    /// registration order).
    pub fn positive(session: &MnemonicSession, batch: &mut DeltaBatch) {
        Self::positive_with(session, batch, None);
    }

    /// Enumerate the disappearing embeddings of the deletion frontier
    /// against the pre-deletion graph, filling
    /// [`DeltaBatch::removed_embeddings`].
    pub fn negative(session: &MnemonicSession, batch: &mut DeltaBatch) {
        Self::negative_with(session, batch, None);
    }

    pub(crate) fn positive_with(
        session: &MnemonicSession,
        batch: &mut DeltaBatch,
        override_sink: Option<&dyn EmbeddingSink>,
    ) {
        let start = Instant::now();
        let frontier = batch
            .insert_frontier
            .as_ref()
            .expect("FrontierBuild::for_insertions must run before Enumerate::positive");
        let before = emitted_counts(&session.queries);
        run_enumeration_all(
            session,
            &batch.inserted,
            frontier,
            Sign::Positive,
            override_sink,
        );
        batch.new_embeddings.clear();
        batch.new_embeddings.extend(
            emitted_counts(&session.queries)
                .into_iter()
                .zip(before)
                .map(|(after, before)| after - before),
        );
        batch.timings.enumeration += start.elapsed();
    }

    pub(crate) fn negative_with(
        session: &MnemonicSession,
        batch: &mut DeltaBatch,
        override_sink: Option<&dyn EmbeddingSink>,
    ) {
        let start = Instant::now();
        let frontier = batch
            .delete_frontier
            .as_ref()
            .expect("FrontierBuild::for_deletions must run before Enumerate::negative");
        let before = emitted_counts(&session.queries);
        run_enumeration_all(
            session,
            &batch.doomed_edges,
            frontier,
            Sign::Negative,
            override_sink,
        );
        batch.removed_embeddings.clear();
        batch.removed_embeddings.extend(
            emitted_counts(&session.queries)
                .into_iter()
                .zip(before)
                .map(|(after, before)| after - before),
        );
        batch.timings.enumeration += start.elapsed();
    }

    /// Run the budget-deferred backlog of every query, oldest epoch first,
    /// returning the number of embeddings emitted per query (registration
    /// order). With `force` the whole backlog drains unconditionally;
    /// otherwise each query stops once its [`QueryBudget`] for the current
    /// batch is exhausted and the remainder stays parked. Records into
    /// `timings.enumeration`.
    pub(crate) fn drain_carryover(
        session: &MnemonicSession,
        batch: &mut DeltaBatch,
        force: bool,
    ) -> Vec<u64> {
        let start = Instant::now();
        let budget = if force {
            None
        } else {
            session.config.query_budget.filter(|b| !b.is_unlimited())
        };
        let deltas = (0..session.queries.len())
            .map(|qi| drain_query_deferred(session, qi, budget))
            .collect();
        batch.timings.enumeration += start.elapsed();
        deltas
    }

    /// Unconditionally drain one query's backlog (the pre-migration path —
    /// parked units must run against the graph they were parked on).
    pub(crate) fn force_drain_query(session: &MnemonicSession, idx: usize) {
        drain_query_deferred(session, idx, None);
    }

    /// Unconditionally drain every query's backlog (the
    /// [`MnemonicSession::finish`] path).
    pub(crate) fn force_drain_all(session: &MnemonicSession) {
        for qi in 0..session.queries.len() {
            drain_query_deferred(session, qi, None);
        }
    }
}

/// The carry-over worker behind [`Enumerate::drain_carryover`]: re-runs one
/// query's parked work units with their original batch-id mask plus the
/// epoch's exclusion set (edges inserted after the epoch), which together
/// reproduce the embeddings the units would have produced in their own batch
/// — see [`DeferredEpoch`] for the argument. Returns the emitted-embedding
/// delta.
fn drain_query_deferred(session: &MnemonicSession, qi: usize, budget: Option<QueryBudget>) -> u64 {
    let qs = &session.queries[qi];
    let mut epochs = std::mem::take(&mut *qs.deferred.lock());
    if epochs.is_empty() {
        return 0;
    }
    let attached = qs.output.sink.lock().clone();
    let sink: &dyn EmbeddingSink = attached
        .as_deref()
        .unwrap_or(qs.output.as_ref() as &dyn EmbeddingSink);
    let before = qs.counters.embeddings_emitted.load(Ordering::Relaxed);
    // Where the budget ran out: (epoch index, unit index) of the first unit
    // that did *not* run.
    let mut cut: Option<(usize, usize)> = None;
    'epochs: for (ei, epoch) in epochs.iter().enumerate() {
        // Carry-over invariant: the exclusion set only holds edges inserted
        // *after* the epoch's own batch, so it is disjoint from the batch
        // mask — checked here with a word-parallel popcount.
        debug_assert_eq!(
            epoch.batch_ids.and_not_count(&epoch.exclude),
            epoch.batch_ids.len(),
            "deferred epoch's exclusion set overlaps its batch mask"
        );
        let enumerator = Enumerator {
            graph: &session.graph,
            query: &qs.query,
            tree: &qs.tree,
            orders: &qs.orders,
            debi: &qs.debi,
            matcher: qs.matcher.as_ref(),
            semantics: qs.semantics.as_ref(),
            mask: &qs.mask,
            batch: &epoch.batch_ids,
            exclude: Some(&epoch.exclude),
            sign: Sign::Positive,
            sink,
            counters: &qs.counters,
        };
        for (ui, &unit) in epoch.units.iter().enumerate() {
            if let Some(b) = budget {
                if b.exhausted(
                    qs.output.batch_units_used.load(Ordering::Relaxed),
                    qs.output.batch_nanos_used.load(Ordering::Relaxed),
                ) {
                    cut = Some((ei, ui));
                    break 'epochs;
                }
            }
            let t = Instant::now();
            enumerator.run_work_unit(unit);
            let nanos = t.elapsed().as_nanos() as u64;
            qs.output
                .enumeration_nanos
                .fetch_add(nanos, Ordering::Relaxed);
            qs.output
                .completed_deferred_units
                .fetch_add(1, Ordering::Relaxed);
            if budget.is_some() {
                qs.output.batch_units_used.fetch_add(1, Ordering::Relaxed);
                qs.output
                    .batch_nanos_used
                    .fetch_add(nanos, Ordering::Relaxed);
            }
        }
    }
    if let Some((ei, ui)) = cut {
        // Drop what ran, keep the tail parked (epoch order preserved).
        epochs[ei].units.drain(..ui);
        epochs.drain(..ei);
        let mut slot = qs.deferred.lock();
        debug_assert!(slot.is_empty(), "no new deferral can occur mid-drain");
        *slot = epochs;
    }
    let emitted = qs.counters.embeddings_emitted.load(Ordering::Relaxed) - before;
    if attached.is_some() && emitted > 0 {
        // Sink-routed embeddings bypass `QueryOutput`; keep the handle's
        // lifetime counter in step, like the pooled stage does.
        qs.output.accepted.fetch_add(emitted, Ordering::Relaxed);
    }
    emitted
}

fn emitted_counts(queries: &[QueryState]) -> Vec<u64> {
    queries
        .iter()
        .map(|q| q.counters.embeddings_emitted.load(Ordering::Relaxed))
        .collect()
}

/// The pooled enumeration core shared by both pipeline halves.
///
/// `override_sink`, when given, replaces every query's own result channel
/// for this batch (used by the single-query [`crate::Mnemonic`] wrapper to
/// keep its borrowed-sink API without buffering). Masking reads the
/// frontier's dense batch-id set; with
/// [`hot_path_baseline`](crate::engine::EngineConfig::hot_path_baseline) set
/// the per-unit backtracking instead runs through the retained
/// [`BaselineEnumerator`] over the frontier's hashed id set.
fn run_enumeration_all(
    session: &MnemonicSession,
    batch_edges: &[Edge],
    frontier: &UnifiedFrontier,
    sign: Sign,
    override_sink: Option<&dyn EmbeddingSink>,
) {
    let queries = &session.queries;
    if queries.is_empty() {
        return;
    }
    // Resolve each query's delivery target once per batch: the wrapper's
    // override, the attached sink, or the handle's buffer. This keeps the
    // per-embedding hot path free of locks (a sink attached mid-batch takes
    // effect from the next batch).
    let attached: Vec<Option<Arc<dyn EmbeddingSink>>> = if override_sink.is_some() {
        vec![None; queries.len()]
    } else {
        queries
            .iter()
            .map(|qs| qs.output.sink.lock().clone())
            .collect()
    };
    let enumerators: Vec<Enumerator<'_>> = queries
        .iter()
        .enumerate()
        .map(|(i, qs)| Enumerator {
            graph: &session.graph,
            query: &qs.query,
            tree: &qs.tree,
            orders: &qs.orders,
            debi: &qs.debi,
            matcher: qs.matcher.as_ref(),
            semantics: qs.semantics.as_ref(),
            mask: &qs.mask,
            batch: &frontier.batch_edge_ids,
            exclude: None,
            sign,
            sink: override_sink.unwrap_or_else(|| {
                attached[i]
                    .as_deref()
                    .unwrap_or(qs.output.as_ref() as &dyn EmbeddingSink)
            }),
            counters: &qs.counters,
        })
        .collect();
    // The retained pre-optimisation kernels, constructed only in baseline
    // mode (decomposition is shared — only per-unit backtracking differs).
    let baseline_enumerators: Option<Vec<BaselineEnumerator<'_>>> =
        session.config.hot_path_baseline.then(|| {
            let hashed = frontier
                .batch_edge_ids_hashed
                .as_ref()
                .expect("baseline frontier carries hashed batch ids");
            enumerators
                .iter()
                .map(|e| BaselineEnumerator {
                    graph: e.graph,
                    query: e.query,
                    tree: e.tree,
                    orders: e.orders,
                    debi: e.debi,
                    matcher: e.matcher,
                    semantics: e.semantics,
                    mask: e.mask,
                    batch: hashed,
                    sign: e.sign,
                    sink: e.sink,
                    counters: e.counters,
                })
                .collect()
        });
    // Embeddings routed into an attached sink bypass `QueryOutput`, so
    // account for them on the handle's lifetime counter via the emitted
    // deltas afterwards.
    let before = if attached.iter().any(Option::is_some) {
        Some(emitted_counts(queries))
    } else {
        None
    };

    // The pooled work-unit vectors are recycled across batches through the
    // session scratch; the guards are dropped before the parallel section.
    let (mut pooled, mut per_query) = {
        let mut units = session.scratch.units.lock();
        (
            std::mem::take(&mut units.pooled),
            std::mem::take(&mut units.per_query),
        )
    };
    pooled.clear();
    for (qi, enumerator) in enumerators.iter().enumerate() {
        per_query.clear();
        enumerator.decompose_into(batch_edges, &mut per_query);
        pooled.extend(per_query.iter().map(|&u| (qi, u)));
    }

    // The fairness budget applies only to positive, session-delivered
    // enumeration (never to negative enumeration — a deletion batch's results
    // must land before the graph mutates — and never to the legacy wrapper's
    // borrowed sink or the A/B baseline).
    let budget =
        (sign == Sign::Positive && override_sink.is_none() && !session.config.hot_path_baseline)
            .then_some(session.config.query_budget)
            .flatten()
            .filter(|b| !b.is_unlimited());
    let budget_deferred: Mutex<Vec<(usize, WorkUnit)>> = Mutex::new(Vec::new());

    // Per-unit wall time is attributed to the owning query, so handles can
    // report their enumeration-time share of the batch. Units of a query
    // whose budget is spent are parked instead of run.
    let run_unit = |qi: usize, unit: WorkUnit| {
        if let Some(b) = budget {
            let out = &queries[qi].output;
            if b.exhausted(
                out.batch_units_used.load(Ordering::Relaxed),
                out.batch_nanos_used.load(Ordering::Relaxed),
            ) {
                budget_deferred.lock().push((qi, unit));
                return;
            }
        }
        let t = Instant::now();
        match &baseline_enumerators {
            Some(baseline) => baseline[qi].run_work_unit(unit),
            None => enumerators[qi].run_work_unit(unit),
        }
        let nanos = t.elapsed().as_nanos() as u64;
        let out = &queries[qi].output;
        out.enumeration_nanos.fetch_add(nanos, Ordering::Relaxed);
        if budget.is_some() {
            out.batch_units_used.fetch_add(1, Ordering::Relaxed);
            out.batch_nanos_used.fetch_add(nanos, Ordering::Relaxed);
        }
    };

    if session.config.parallel {
        // Heaviest-first across *all* queries, deterministic tie-break: one
        // query's giant unit back-fills behind every other query's small
        // units instead of serialising its own engine. Sequential execution
        // runs every unit anyway, so it skips the re-sort.
        pooled.sort_by_cached_key(|&(qi, unit)| {
            (
                std::cmp::Reverse(enumerators[qi].unit_cost_estimate(&unit)),
                unit.edge.id,
                unit.start,
                qi,
            )
        });
        parallel::install(session.pool.as_ref(), || {
            pooled.par_iter().for_each(|&(qi, unit)| run_unit(qi, unit));
        });
    } else {
        for &(qi, unit) in &pooled {
            run_unit(qi, unit);
        }
    }

    {
        let mut units = session.scratch.units.lock();
        units.pooled = pooled;
        units.per_query = per_query;
    }

    // Park each query's over-budget units as one new epoch, stamped with
    // this batch's edge-id set so the masking rule replays exactly at drain
    // time. The exclusion set starts empty; later batches add their inserted
    // edges (`note_inserted_edges_for_carryover`).
    let parked = budget_deferred.into_inner();
    if !parked.is_empty() {
        let mut grouped: Vec<Vec<WorkUnit>> = vec![Vec::new(); queries.len()];
        for (qi, unit) in parked {
            grouped[qi].push(unit);
        }
        for (qi, units) in grouped.into_iter().enumerate() {
            if units.is_empty() {
                continue;
            }
            let out = &queries[qi].output;
            out.deferred_units
                .fetch_add(units.len() as u64, Ordering::Relaxed);
            out.deferral_batches.fetch_add(1, Ordering::Relaxed);
            queries[qi].deferred.lock().push(DeferredEpoch {
                units,
                batch_ids: frontier.batch_edge_ids.clone(),
                exclude: DenseBitSet::new(),
            });
        }
    }

    if let Some(before) = before {
        for (i, after) in emitted_counts(queries).into_iter().enumerate() {
            if attached[i].is_some() {
                queries[i]
                    .output
                    .accepted
                    .fetch_add(after - before[i], Ordering::Relaxed);
            }
        }
    }
}
