//! Embedding enumeration (Section VI).
//!
//! A batch of updates is decomposed into fine-grained work units — one per
//! (batch data edge, matching query edge) pair. Every work unit carries its
//! own matching order (starting at the matched query edge), is pruned by the
//! bottom-up support check, and is then explored by a backtracking search
//! that pulls candidates from DEBI (`getCandidates`), verifies non-tree
//! edges (`verifyNte`), applies the user's [`MatchSemantics`] and the
//! masking rule for duplicate elimination, and hands completed embeddings to
//! an [`EmbeddingSink`] (`saveEmbedding`).

use crate::api::{EdgeMatcher, MatchSemantics, MatcherContext};
use crate::debi::Debi;
use crate::embedding::{EmbeddingPool, EmbeddingSink, PartialEmbedding, Sign};
use crate::filter::BottomUpPass;
use crate::stats::EngineCounters;
use mnemonic_graph::bitset::DenseBitSet;
use mnemonic_graph::edge::Edge;
use mnemonic_graph::ids::QueryEdgeId;
use mnemonic_graph::multigraph::StreamingGraph;
use mnemonic_query::masking::MaskTable;
use mnemonic_query::matching_order::{MatchingOrder, MatchingOrderSet};
use mnemonic_query::query_graph::QueryGraph;
use mnemonic_query::query_tree::QueryTree;
use std::cell::RefCell;

thread_local! {
    /// Per-thread recycled [`PartialEmbedding`] shell. A work unit's search
    /// binds and unbinds in place, so the only per-unit cost of a fresh
    /// embedding is `PartialEmbedding::new` zeroing its inline arrays
    /// (~1.5 KiB) — at tens of thousands of units per batch that memset was
    /// the largest remaining constant of the enumeration phase. The scratch
    /// shell is instead re-readied with the count-bounded
    /// [`PartialEmbedding::reset_for`].
    static EMBEDDING_SCRATCH: RefCell<PartialEmbedding> =
        RefCell::new(PartialEmbedding::new(0, 0));
}

/// Counts of one work unit's search, kept on the worker's stack and added to
/// the query's [`EngineCounters`] once per unit: those counters share one
/// cache line that every worker running the query's units writes, so a
/// per-step atomic add would make the workers fight over it.
#[derive(Default)]
struct UnitTally {
    candidates_scanned: u64,
    embeddings_emitted: u64,
}

/// One work unit: a batch data edge paired with the query edge it matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkUnit {
    /// The batch data edge anchoring the enumeration.
    pub edge: Edge,
    /// The query edge the data edge is matched to.
    pub start: QueryEdgeId,
}

/// Shared context of the enumeration phase for one batch.
pub struct Enumerator<'a> {
    /// The data graph at enumeration time (for deletions this is the graph
    /// *before* the batch is applied).
    pub graph: &'a StreamingGraph,
    /// The query graph.
    pub query: &'a QueryGraph,
    /// The query tree.
    pub tree: &'a QueryTree,
    /// Precomputed matching orders (one per start query edge).
    pub orders: &'a MatchingOrderSet,
    /// The DEBI index.
    pub debi: &'a Debi,
    /// The user's edge matcher.
    pub matcher: &'a dyn EdgeMatcher,
    /// The user's structural semantics.
    pub semantics: &'a dyn MatchSemantics,
    /// The masking table.
    pub mask: &'a MaskTable,
    /// The ids of the edges in the current batch (for masking), as a dense
    /// bitset — every masking probe is a word index, never a hash. Empty
    /// when masking is disabled (e.g. from-scratch enumeration).
    pub batch: &'a DenseBitSet,
    /// Edges that must not participate in any embedding, or `None` on the
    /// normal path. Used when draining budget-deferred work units: edges
    /// inserted *after* the unit's original batch are excluded, so the
    /// deferred run reproduces exactly the embeddings the unit would have
    /// produced at its own batch (later batches' units cover the rest).
    pub exclude: Option<&'a DenseBitSet>,
    /// Whether emitted embeddings are newly formed or removed.
    pub sign: Sign,
    /// Where completed embeddings go.
    pub sink: &'a dyn EmbeddingSink,
    /// Instrumentation counters.
    pub counters: &'a EngineCounters,
}

impl<'a> Enumerator<'a> {
    fn ctx(&self) -> MatcherContext<'a> {
        MatcherContext::new(self.graph, self.query)
    }

    /// Generate the work units for a batch of data edges: one unit per
    /// (edge, query edge) pair accepted by the edge matcher and surviving the
    /// bottom-up support pruning.
    ///
    /// Units are ordered heaviest-first by a cheap cost estimate (the
    /// adjacency size around the anchor edge), so when the batch is fed to
    /// the work-stealing pool the dominant units start immediately and the
    /// cheap tail back-fills the other workers. The order is deterministic
    /// (ties broken by edge id and start edge).
    pub fn decompose(&self, batch_edges: &[Edge]) -> Vec<WorkUnit> {
        let mut units = Vec::new();
        self.decompose_into(batch_edges, &mut units);
        units
    }

    /// [`Enumerator::decompose`] into a caller-provided buffer: the new
    /// units are appended and only that appended segment is sorted
    /// heaviest-first (any pre-existing prefix is left untouched — callers
    /// pooling several queries' units re-sort the pool themselves, as the
    /// parallel enumeration stage does). Lets the per-batch pipeline recycle
    /// its work-unit vector instead of allocating one per query per batch.
    pub fn decompose_into(&self, batch_edges: &[Edge], units: &mut Vec<WorkUnit>) {
        let ctx = self.ctx();
        let bottom_up = BottomUpPass {
            graph: self.graph,
            tree: self.tree,
            debi: self.debi,
        };
        let before = units.len();
        for &edge in batch_edges {
            for q in self.query.edge_ids() {
                if !self.matcher.edge_matches(&ctx, q, &edge) {
                    continue;
                }
                let supported = match self.tree.tree_edge_of(q) {
                    Some(te) => bottom_up.tree_start_supported(
                        &edge,
                        te.parent,
                        te.child,
                        te.child_is_dst,
                        self.counters,
                    ),
                    None => {
                        let qe = self.query.edge(q);
                        bottom_up.non_tree_start_supported(&edge, qe.src, qe.dst, self.counters)
                    }
                };
                if supported {
                    units.push(WorkUnit { edge, start: q });
                }
            }
        }
        units[before..].sort_by_cached_key(|unit| {
            (
                std::cmp::Reverse(self.unit_cost_estimate(unit)),
                unit.edge.id,
                unit.start,
            )
        });
        EngineCounters::add(&self.counters.work_units, (units.len() - before) as u64);
    }

    /// Scheduling cost estimate of a work unit: the combined adjacency size
    /// of the anchor edge's endpoints, a proxy for how many candidates the
    /// first extension steps will scan. Shared with the session layer, which
    /// re-sorts the pooled units of all standing queries by the same key.
    pub(crate) fn unit_cost_estimate(&self, unit: &WorkUnit) -> usize {
        let deg = |v| self.graph.outgoing(v).len() + self.graph.incoming(v).len();
        deg(unit.edge.src) + deg(unit.edge.dst)
    }

    /// Run the backtracking search for one work unit.
    pub fn run_work_unit(&self, unit: WorkUnit) {
        let mut tally = UnitTally::default();
        EMBEDDING_SCRATCH.with(|cell| {
            let mut embedding = cell.borrow_mut();
            embedding.reset_for(self.query.vertex_count(), self.query.edge_count());
            self.run_work_unit_in(unit, &mut embedding, &mut tally);
        });
        self.add_tally(&tally);
    }

    /// Fold one unit's local counts into the shared counters.
    fn add_tally(&self, tally: &UnitTally) {
        EngineCounters::add(&self.counters.candidates_scanned, tally.candidates_scanned);
        EngineCounters::add(&self.counters.embeddings_emitted, tally.embeddings_emitted);
    }

    /// [`Enumerator::run_work_unit`] against a caller-provided (recycled)
    /// embedding, which must be freshly [`PartialEmbedding::reset_for`] this
    /// query's shape. Bindings made here are *not* unwound on the early-exit
    /// paths; the next `reset_for` clears them in O(query size).
    fn run_work_unit_in(
        &self,
        unit: WorkUnit,
        embedding: &mut PartialEmbedding,
        tally: &mut UnitTally,
    ) {
        let order = self.orders.for_start(unit.start);
        let qe = self.query.edge(unit.start);

        // Bind the start edge and its endpoints, honouring the semantics.
        if !self
            .semantics
            .edge_binding_allowed(&self.ctx(), embedding, unit.start, &unit.edge)
        {
            return;
        }
        if !self
            .semantics
            .vertex_binding_allowed(embedding, qe.src, unit.edge.src)
        {
            return;
        }
        embedding.bind_vertex(qe.src, unit.edge.src);
        if qe.src != qe.dst {
            if !self
                .semantics
                .vertex_binding_allowed(embedding, qe.dst, unit.edge.dst)
            {
                return;
            }
            embedding.bind_vertex(qe.dst, unit.edge.dst);
        } else if unit.edge.src != unit.edge.dst {
            // A query self-loop can only match a data self-loop.
            return;
        }
        embedding.bind_edge(unit.start, unit.edge.id);

        // Verify the non-tree edges already fully bound by the start, then
        // recurse over the steps.
        self.verify_non_tree_list(
            order,
            embedding,
            &order.initial_non_tree_checks,
            0,
            0,
            tally,
        );
    }

    /// From-scratch enumeration: bind every root candidate in turn and follow
    /// the full BFS matching order. Used for bootstrap verification and by
    /// index-rebuild paths; masking does not apply (the batch set should be
    /// empty).
    pub fn run_from_scratch(&self) {
        let order = self.orders.full();
        let mut tally = UnitTally::default();
        EMBEDDING_SCRATCH.with(|cell| {
            let mut embedding = cell.borrow_mut();
            for v in self.debi.root_candidates_iter() {
                let v = mnemonic_graph::ids::VertexId(v as u32);
                embedding.reset_for(self.query.vertex_count(), self.query.edge_count());
                if !self
                    .semantics
                    .vertex_binding_allowed(&embedding, self.tree.root(), v)
                {
                    continue;
                }
                embedding.bind_vertex(self.tree.root(), v);
                self.verify_non_tree_list(
                    order,
                    &mut embedding,
                    &order.initial_non_tree_checks,
                    0,
                    0,
                    &mut tally,
                );
            }
        });
        self.add_tally(&tally);
    }

    /// Verify the `pending` non-tree edges starting at `index`; once the list
    /// is exhausted, continue with step `next_step` of the matching order.
    fn verify_non_tree_list(
        &self,
        order: &MatchingOrder,
        embedding: &mut PartialEmbedding,
        pending: &[QueryEdgeId],
        index: usize,
        next_step: usize,
        tally: &mut UnitTally,
    ) {
        if index == pending.len() {
            self.extend(order, embedding, next_step, tally);
            return;
        }
        let q = pending[index];
        let qe = self.query.edge(q);
        let (Some(vs), Some(vd)) = (embedding.vertex(qe.src), embedding.vertex(qe.dst)) else {
            // Scheduling guarantees both endpoints are bound.
            debug_assert!(false, "non-tree verification scheduled too early");
            return;
        };
        let ctx = self.ctx();
        // The masking rule of Section VI is loop-invariant: whether query
        // edge `q` is masked depends only on the order's start edge, so the
        // per-candidate test reduces to one batch-bitset word probe.
        let batch_masked = order
            .start_edge()
            .is_some_and(|start| self.mask.is_masked(start, q));
        let shared_edges_ok = self.semantics.allow_shared_data_edges();
        // The candidate scan streams straight off the adjacency list
        // (edges_between_iter_balanced, which picks the shorter of the two
        // endpoint adjacencies) instead of materialising a Vec per
        // verification — this runs once per non-tree check per partial
        // embedding, the hottest allocation site of the old path.
        let mut scanned = 0u64;
        for cand in self.graph.edges_between_iter_balanced(vs, vd) {
            scanned += 1;
            if let Some(excluded) = self.exclude {
                if excluded.contains(cand.id.index()) {
                    continue;
                }
            }
            if !self.matcher.edge_matches(&ctx, q, &cand) {
                continue;
            }
            if batch_masked && self.batch.contains(cand.id.index()) {
                continue;
            }
            if !shared_edges_ok && embedding.uses_data_edge(cand.id) {
                continue;
            }
            if !self
                .semantics
                .edge_binding_allowed(&ctx, embedding, q, &cand)
            {
                continue;
            }
            embedding.bind_edge(q, cand.id);
            self.verify_non_tree_list(order, embedding, pending, index + 1, next_step, tally);
            embedding.unbind_edge(q);
        }
        tally.candidates_scanned += scanned;
    }

    /// Extend the embedding with step `step_idx` of the matching order.
    fn extend(
        &self,
        order: &MatchingOrder,
        embedding: &mut PartialEmbedding,
        step_idx: usize,
        tally: &mut UnitTally,
    ) {
        if step_idx == order.steps.len() {
            if embedding.is_complete() {
                // Pooled emit: freeze into a recycled shell so counting-only
                // sinks round-trip the buffers instead of allocating two
                // Vecs per embedding (retaining sinks keep the shell and the
                // pool backfills lazily).
                let mut shell = EmbeddingPool::acquire();
                embedding.freeze_into(&mut shell);
                self.sink.accept(shell, self.sign);
                tally.embeddings_emitted += 1;
            }
            return;
        }
        let step = &order.steps[step_idx];
        let te = step.tree_edge;
        let column = self
            .tree
            .debi_column(te.child)
            .expect("non-root child always has a column");
        let anchor = embedding
            .vertex(step.anchor_vertex)
            .expect("anchor is bound by construction of the matching order");
        let new_is_bound = embedding.vertex(step.new_vertex).is_some();
        let ctx = self.ctx();

        // getCandidates: scan the adjacency of the anchor in the direction
        // dictated by the tree edge and keep the edges whose DEBI bit for the
        // child column is set.
        // Hoisted loop invariants: the Section VI masking verdict for this
        // step's query edge (per candidate only the batch-bitset word probe
        // remains) and the semantics' shared-edge policy (a virtual call).
        let batch_masked = order
            .start_edge()
            .is_some_and(|start| self.mask.is_masked(start, te.query_edge));
        let shared_edges_ok = self.semantics.allow_shared_data_edges();

        let anchor_is_parent = step.anchor_vertex == te.parent;
        let scan_outgoing = anchor_is_parent == te.child_is_dst;
        let entries = if scan_outgoing {
            self.graph.outgoing(anchor)
        } else {
            self.graph.incoming(anchor)
        };
        tally.candidates_scanned += entries.len() as u64;

        for entry in entries {
            if let Some(excluded) = self.exclude {
                if excluded.contains(entry.edge.index()) {
                    continue;
                }
            }
            if !self.debi.get(entry.edge.index(), column) {
                continue;
            }
            // The data vertex that would be bound to the step's new vertex.
            // The adjacency entry already names both endpoints (the anchor
            // and `entry.neighbor`), so the edge-store lookup is deferred to
            // the candidates that survive the vertex-level checks.
            let (data_src, data_dst) = if scan_outgoing {
                (anchor, entry.neighbor)
            } else {
                (entry.neighbor, anchor)
            };
            let new_data_vertex = if (step.new_vertex == te.child) == te.child_is_dst {
                data_dst
            } else {
                data_src
            };
            if new_is_bound {
                // Degenerate step: both endpoints already bound, the edge
                // only has to connect them.
                if embedding.vertex(step.new_vertex) != Some(new_data_vertex) {
                    continue;
                }
            } else if !self.semantics.vertex_binding_allowed(
                embedding,
                step.new_vertex,
                new_data_vertex,
            ) {
                continue;
            }
            if batch_masked && self.batch.contains(entry.edge.index()) {
                continue;
            }
            if !shared_edges_ok && embedding.uses_data_edge(entry.edge) {
                continue;
            }
            let Some(edge) = self.graph.edge(entry.edge) else {
                continue;
            };
            if !self
                .semantics
                .edge_binding_allowed(&ctx, embedding, te.query_edge, &edge)
            {
                continue;
            }

            let newly_bound = !new_is_bound;
            if newly_bound {
                embedding.bind_vertex(step.new_vertex, new_data_vertex);
            }
            embedding.bind_edge(te.query_edge, edge.id);
            self.verify_non_tree_list(
                order,
                embedding,
                &step.verify_non_tree,
                0,
                step_idx + 1,
                tally,
            );
            embedding.unbind_edge(te.query_edge);
            if newly_bound {
                embedding.unbind_vertex(step.new_vertex);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::LabelEdgeMatcher;
    use crate::embedding::CollectingSink;
    use crate::filter::{QueryRequirements, TopDownPass, VertexCandidacy};
    use crate::frontier::UnifiedFrontier;
    use crate::variants::Isomorphism;
    use mnemonic_graph::builder::paper_example_graph;
    use mnemonic_graph::ids::{QueryVertexId, VertexId};
    use mnemonic_query::query_tree::paper_example_query;
    use std::collections::HashSet;

    struct Fixture {
        graph: StreamingGraph,
        query: QueryGraph,
        tree: QueryTree,
        orders: MatchingOrderSet,
        debi: Debi,
        mask: MaskTable,
    }

    fn fixture() -> Fixture {
        let graph = paper_example_graph();
        let (query, tree) = paper_example_query();
        let orders = MatchingOrderSet::build(&query, &tree);
        let requirements = QueryRequirements::build(&query);
        let mut debi = Debi::new(tree.debi_width());
        debi.ensure_rows(graph.edge_id_bound());
        debi.ensure_roots(graph.vertex_count());
        let mut candidacy = VertexCandidacy::new();
        candidacy.ensure(graph.vertex_count());
        let counters = EngineCounters::new();
        let frontier = UnifiedFrontier::build(&graph, graph.live_edges().collect(), false);
        TopDownPass {
            graph: &graph,
            query: &query,
            tree: &tree,
            matcher: &LabelEdgeMatcher,
            requirements: &requirements,
        }
        .run(&frontier, &candidacy, &debi, &counters, false);
        let mask = MaskTable::new(query.edge_count());
        Fixture {
            graph,
            query,
            tree,
            orders,
            debi,
            mask,
        }
    }

    #[test]
    fn from_scratch_enumeration_finds_the_two_paper_embeddings() {
        let f = fixture();
        let sink = CollectingSink::new();
        let counters = EngineCounters::new();
        let batch = DenseBitSet::new();
        let enumerator = Enumerator {
            graph: &f.graph,
            query: &f.query,
            tree: &f.tree,
            orders: &f.orders,
            debi: &f.debi,
            matcher: &LabelEdgeMatcher,
            semantics: &Isomorphism,
            mask: &f.mask,
            batch: &batch,
            exclude: None,
            sign: Sign::Positive,
            sink: &sink,
            counters: &counters,
        };
        enumerator.run_from_scratch();
        let embeddings = sink.take_positive();
        // Section II-B: the snapshot G contains exactly two isomorphic
        // embeddings of the query, differing in the match of (u2, u6):
        // (v4, v8) vs (v4, v0).
        assert_eq!(embeddings.len(), 2);
        for e in &embeddings {
            assert_eq!(e.vertex(QueryVertexId(0)), VertexId(1));
            assert_eq!(e.vertex(QueryVertexId(1)), VertexId(3));
            assert_eq!(e.vertex(QueryVertexId(2)), VertexId(4));
            assert_eq!(e.vertex(QueryVertexId(5)), VertexId(5));
        }
        let mut u6_matches: Vec<VertexId> = embeddings
            .iter()
            .map(|e| e.vertex(QueryVertexId(6)))
            .collect();
        u6_matches.sort();
        assert_eq!(u6_matches, vec![VertexId(0), VertexId(8)]);
    }

    #[test]
    fn work_unit_enumeration_matches_from_scratch() {
        // Treat every edge of the example graph as a batch inserted into an
        // empty graph: the per-work-unit enumeration with masking must find
        // exactly the same embeddings as the from-scratch enumeration.
        let f = fixture();
        let counters = EngineCounters::new();

        let scratch_sink = CollectingSink::new();
        let empty_batch = DenseBitSet::new();
        Enumerator {
            graph: &f.graph,
            query: &f.query,
            tree: &f.tree,
            orders: &f.orders,
            debi: &f.debi,
            matcher: &LabelEdgeMatcher,
            semantics: &Isomorphism,
            mask: &f.mask,
            batch: &empty_batch,
            exclude: None,
            sign: Sign::Positive,
            sink: &scratch_sink,
            counters: &counters,
        }
        .run_from_scratch();

        let batch_edges: Vec<Edge> = f.graph.live_edges().collect();
        let batch_ids: DenseBitSet = batch_edges.iter().map(|e| e.id.index()).collect();
        let unit_sink = CollectingSink::new();
        let enumerator = Enumerator {
            graph: &f.graph,
            query: &f.query,
            tree: &f.tree,
            orders: &f.orders,
            debi: &f.debi,
            matcher: &LabelEdgeMatcher,
            semantics: &Isomorphism,
            mask: &f.mask,
            batch: &batch_ids,
            exclude: None,
            sign: Sign::Positive,
            sink: &unit_sink,
            counters: &counters,
        };
        for unit in enumerator.decompose(&batch_edges) {
            enumerator.run_work_unit(unit);
        }

        let mut a = scratch_sink.take_positive();
        let mut b = unit_sink.take_positive();
        a.sort();
        b.sort();
        assert_eq!(a.len(), 2);
        assert_eq!(a, b, "masking must emit every embedding exactly once");
    }

    #[test]
    fn masking_prevents_duplicates_for_overlapping_batch() {
        // Insert the three edges of the paper's t1 snapshot on top of G and
        // check the two new embeddings are emitted exactly once each.
        let mut graph = paper_example_graph();
        let (query, tree) = paper_example_query();
        let orders = MatchingOrderSet::build(&query, &tree);
        let requirements = QueryRequirements::build(&query);
        let counters = EngineCounters::new();

        // ΔG1 insertions: (v2, v6), (v0, v2), (v0, v5) — ids 13, 14, 15.
        let new_edges: Vec<Edge> = [(2u32, 6u32), (0, 2), (0, 5)]
            .iter()
            .map(|&(s, d)| {
                let id = graph.insert_edge(mnemonic_graph::edge::EdgeTriple::new(
                    VertexId(s),
                    VertexId(d),
                    mnemonic_graph::ids::EdgeLabel(1),
                ));
                graph.edge(id).unwrap()
            })
            .collect();

        let mut debi = Debi::new(tree.debi_width());
        debi.ensure_rows(graph.edge_id_bound());
        debi.ensure_roots(graph.vertex_count());
        let mut candidacy = VertexCandidacy::new();
        candidacy.ensure(graph.vertex_count());
        let frontier = UnifiedFrontier::build(&graph, graph.live_edges().collect(), false);
        TopDownPass {
            graph: &graph,
            query: &query,
            tree: &tree,
            matcher: &LabelEdgeMatcher,
            requirements: &requirements,
        }
        .run(&frontier, &candidacy, &debi, &counters, false);

        let mask = MaskTable::new(query.edge_count());
        let batch_ids: DenseBitSet = new_edges.iter().map(|e| e.id.index()).collect();
        let sink = CollectingSink::new();
        let enumerator = Enumerator {
            graph: &graph,
            query: &query,
            tree: &tree,
            orders: &orders,
            debi: &debi,
            matcher: &LabelEdgeMatcher,
            semantics: &Isomorphism,
            mask: &mask,
            batch: &batch_ids,
            exclude: None,
            sign: Sign::Positive,
            sink: &sink,
            counters: &counters,
        };
        for unit in enumerator.decompose(&new_edges) {
            enumerator.run_work_unit(unit);
        }
        let embeddings = sink.take_positive();
        let unique: HashSet<_> = embeddings.iter().cloned().collect();
        assert_eq!(
            embeddings.len(),
            unique.len(),
            "no embedding may be emitted twice"
        );
        // Every emitted embedding must use at least one batch edge.
        for e in &embeddings {
            assert!(e.uses_any_edge_in(&batch_ids));
        }
    }
}
