//! Top-down filtering (Section V, rules f1–f3).
//!
//! The pass walks the unified traversal frontier **once for every standing
//! query** and refreshes the index state that depends on it:
//!
//! 1. *Vertex phase.* Each affected vertex's neighbourhood profile is
//!    collected once, and every query's candidacy mask (rules f2/f3: label
//!    and local degree profile) is evaluated against that one profile.
//! 2. *Roots.* Each query's `roots` bit vector is refreshed for the affected
//!    vertices from its new masks.
//! 3. *Row phase.* The affected edge ids are sorted once and recomputed in
//!    [`ROW_BLOCK`] runs. Within a run the queries loop outside and the
//!    run's edges inside: every DEBI gets a contiguous row span, and the
//!    run's edge records stay in L1 from one query to the next. Bit `u` of
//!    a row is set iff the edge matches the tree edge `(u_p, u)` under the
//!    user's `edgeMatcher()` *and* both endpoints are candidates of the
//!    respective query vertices.
//!
//! Each phase is one parallel region over the whole frontier, however many
//! queries share it. Every query's masks, roots, rows and counters come out
//! exactly as if the pass ran for that query alone: the profile depends
//! only on the graph and the vertex, and each query writes only its own
//! index.
//!
//! The resulting DEBI contents are a superset of the edges that can
//! participate in an embedding, which is the invariant enumeration relies
//! on; the deeper subtree condition (rule f4) is applied separately as
//! bottom-up pruning of the enumeration work units.

use crate::api::{EdgeMatcher, MatcherContext};
use crate::debi::{Debi, MAX_DEBI_COLUMNS, ROW_BLOCK};
use crate::filter::candidacy::VertexCandidacy;
use crate::filter::requirements::QueryRequirements;
use crate::frontier::UnifiedFrontier;
use crate::stats::EngineCounters;
use mnemonic_graph::ids::{EdgeId, QueryEdgeId, VertexId};
use mnemonic_graph::multigraph::StreamingGraph;
use mnemonic_query::query_graph::QueryGraph;
use mnemonic_query::query_tree::QueryTree;
use rayon::prelude::*;
use std::cell::RefCell;

thread_local! {
    /// Recycled sorted edge-id list for the row phase; sorting the
    /// frontier's affected edges makes each [`ROW_BLOCK`] run a contiguous
    /// span of every query's DEBI row array.
    static ROW_ORDER_SCRATCH: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// One query-tree edge, pre-resolved to plain bitmasks so the row kernel
/// tests candidacy with two AND operations per column instead of re-deriving
/// the DEBI column and re-loading both endpoint masks per `(edge, column)`
/// pair.
#[derive(Clone, Copy)]
struct ColumnPlan {
    /// Bit of this tree edge's DEBI column.
    row_bit: u64,
    /// Candidacy-mask bit of the parent query vertex.
    parent_bit: u64,
    /// Candidacy-mask bit of the child query vertex.
    child_bit: u64,
    /// Whether the child maps to the data edge's destination endpoint.
    child_is_dst: bool,
    /// The query edge the matcher is consulted about.
    query_edge: QueryEdgeId,
}

impl ColumnPlan {
    const EMPTY: ColumnPlan = ColumnPlan {
        row_bit: 0,
        parent_bit: 0,
        child_bit: 0,
        child_is_dst: false,
        query_edge: QueryEdgeId(0),
    };
}

/// One standing query's share of a [`SharedTopDownPass`]: its query-side
/// constants, the index state the pass refreshes, and its column plans,
/// hoisted once per pass.
pub struct FilterTarget<'a> {
    query: &'a QueryGraph,
    tree: &'a QueryTree,
    matcher: &'a dyn EdgeMatcher,
    requirements: &'a QueryRequirements,
    candidacy: &'a VertexCandidacy,
    debi: &'a Debi,
    counters: &'a EngineCounters,
    plans: [ColumnPlan; MAX_DEBI_COLUMNS],
}

impl<'a> FilterTarget<'a> {
    /// Bundle one query's filtering inputs and outputs. `candidacy` and
    /// `debi` must already cover the graph's vertex and edge id bounds.
    pub fn new(
        query: &'a QueryGraph,
        tree: &'a QueryTree,
        matcher: &'a dyn EdgeMatcher,
        requirements: &'a QueryRequirements,
        candidacy: &'a VertexCandidacy,
        debi: &'a Debi,
        counters: &'a EngineCounters,
    ) -> Self {
        let mut plans = [ColumnPlan::EMPTY; MAX_DEBI_COLUMNS];
        for (plan, te) in plans.iter_mut().zip(tree.tree_edges()) {
            let column = tree
                .debi_column(te.child)
                .expect("non-root child always has a column");
            *plan = ColumnPlan {
                row_bit: 1u64 << column,
                parent_bit: 1u64 << te.parent.index(),
                child_bit: 1u64 << te.child.index(),
                child_is_dst: te.child_is_dst,
                query_edge: te.query_edge,
            };
        }
        FilterTarget {
            query,
            tree,
            matcher,
            requirements,
            candidacy,
            debi,
            counters,
            plans,
        }
    }

    /// Recompute this query's rows for one sorted run of edge ids: one
    /// candidacy-mask load per endpoint per edge and one row store per
    /// edge, with the two mask ANDs short-circuiting ahead of the dynamic
    /// matcher call. A dead edge gets a zero row, which clears its recycled
    /// slot.
    fn recompute_run(&self, graph: &StreamingGraph, run: &[usize]) {
        let ctx = MatcherContext::new(graph, self.query);
        let plans = &self.plans[..self.tree.tree_edges().len()];
        self.debi.recompute_rows(run, |edge_idx| {
            let Some(edge) = graph.edge(EdgeId(edge_idx as u32)) else {
                return 0;
            };
            let src_mask = self.candidacy.mask(edge.src);
            let dst_mask = self.candidacy.mask(edge.dst);
            let mut row = 0u64;
            for plan in plans {
                let (parent_mask, child_mask) = if plan.child_is_dst {
                    (src_mask, dst_mask)
                } else {
                    (dst_mask, src_mask)
                };
                if parent_mask & plan.parent_bit != 0
                    && child_mask & plan.child_bit != 0
                    && self.matcher.edge_matches(&ctx, plan.query_edge, &edge)
                {
                    row |= plan.row_bit;
                }
            }
            row
        });
    }
}

/// The top-down pass of every standing query over one shared frontier (see
/// the module docs for its three phases).
pub struct SharedTopDownPass<'a> {
    /// The current data graph.
    pub graph: &'a StreamingGraph,
    /// The queries refreshed by this pass.
    pub targets: &'a [FilterTarget<'a>],
}

impl SharedTopDownPass<'_> {
    /// Run the pass over `frontier`, refreshing every target's candidacy,
    /// roots and DEBI rows.
    ///
    /// `parallel` selects whether the vertex and row phases are spread over
    /// the installed rayon pool; the sequential path exists for the
    /// batch-size scalability experiment (Figure 12), which isolates the
    /// benefit of shared traversal from thread-level parallelism.
    pub fn run(&self, frontier: &UnifiedFrontier, parallel: bool) {
        let graph = self.graph;
        let targets = self.targets;
        if targets.is_empty() {
            return;
        }

        // Vertex phase: one profile sweep per affected vertex answers the
        // f2/f3 counts of every query vertex of every query.
        let refresh = |&v: &VertexId| {
            let vertex_label = graph.vertex_label(v);
            graph.with_neighborhood_profile(v, |profile| {
                for t in targets {
                    let mask = t.requirements.mask_for_profile(vertex_label, profile);
                    t.candidacy.store(v, mask);
                }
            });
        };
        if parallel {
            frontier.affected_vertices.par_iter().for_each(refresh);
        } else {
            frontier.affected_vertices.iter().for_each(refresh);
        }

        // Roots: refresh each query's roots bit vector from its new masks.
        for t in targets {
            let root = t.tree.root();
            for &v in &frontier.affected_vertices {
                t.debi
                    .set_root(v.index(), t.candidacy.is_candidate(v, root));
            }
        }

        // Row phase: one sorted copy of the affected edges, cut into
        // cache-blocked runs; queries outside, the run's edges inside.
        ROW_ORDER_SCRATCH.with(|cell| {
            let mut order = cell.borrow_mut();
            order.clear();
            order.extend(frontier.affected_edges.iter().map(|e| e.index()));
            order.sort_unstable();
            let recompute = |run: &[usize]| {
                for t in targets {
                    t.recompute_run(graph, run);
                }
            };
            if parallel {
                order.par_chunks(ROW_BLOCK).for_each(recompute);
            } else {
                order.chunks(ROW_BLOCK).for_each(recompute);
            }
        });

        let edges = frontier.affected_edges.len();
        for t in targets {
            EngineCounters::add(&t.counters.edges_traversed_top_down, edges as u64);
            EngineCounters::add(
                &t.counters.debi_writes,
                (edges * t.tree.debi_width()) as u64,
            );
        }
    }
}

/// The top-down pass of a single query: the inputs that do not change
/// between batches, run through a one-query [`SharedTopDownPass`].
pub struct TopDownPass<'a> {
    /// The current data graph.
    pub graph: &'a StreamingGraph,
    /// The query graph.
    pub query: &'a QueryGraph,
    /// The query tree.
    pub tree: &'a QueryTree,
    /// The user's edge matcher.
    pub matcher: &'a dyn EdgeMatcher,
    /// Precomputed per-query-vertex requirements.
    pub requirements: &'a QueryRequirements,
}

impl<'a> TopDownPass<'a> {
    /// Run the pass over `frontier`, refreshing `candidacy` and `debi`
    /// (see [`SharedTopDownPass::run`] for `parallel`).
    pub fn run(
        &self,
        frontier: &UnifiedFrontier,
        candidacy: &VertexCandidacy,
        debi: &Debi,
        counters: &EngineCounters,
        parallel: bool,
    ) {
        let target = FilterTarget::new(
            self.query,
            self.tree,
            self.matcher,
            self.requirements,
            candidacy,
            debi,
            counters,
        );
        SharedTopDownPass {
            graph: self.graph,
            targets: std::slice::from_ref(&target),
        }
        .run(frontier, parallel);
    }

    /// [`TopDownPass::run`] through the retained pre-optimisation kernels:
    /// per-call-allocating candidacy checks
    /// ([`VertexCandidacy::recompute_baseline`]) and a row kernel that
    /// re-derives each DEBI column and probes candidacy bit-at-a-time.
    /// Identical results, pre-optimisation cost profile. Selected by the
    /// session when
    /// [`hot_path_baseline`](crate::engine::EngineConfig::hot_path_baseline)
    /// is set.
    pub fn run_baseline(
        &self,
        frontier: &UnifiedFrontier,
        candidacy: &VertexCandidacy,
        debi: &Debi,
        counters: &EngineCounters,
        parallel: bool,
    ) {
        let ctx = MatcherContext::new(self.graph, self.query);

        let refresh = |&v: &VertexId| {
            candidacy.recompute_baseline(self.graph, self.requirements, v);
        };
        if parallel {
            frontier.affected_vertices.par_iter().for_each(refresh);
        } else {
            frontier.affected_vertices.iter().for_each(refresh);
        }

        let root = self.tree.root();
        for &v in &frontier.affected_vertices {
            debi.set_root(v.index(), candidacy.is_candidate(v, root));
        }

        let tree_edges = self.tree.tree_edges();
        let recompute_row = |edge_id: &EdgeId| {
            let Some(edge) = self.graph.edge(*edge_id) else {
                // The edge died earlier in this batch; clear its row.
                debi.clear_row(edge_id.index());
                return;
            };
            let mut row = 0u64;
            for te in tree_edges {
                let column = self
                    .tree
                    .debi_column(te.child)
                    .expect("non-root child always has a column");
                let (vp, vc) = if te.child_is_dst {
                    (edge.src, edge.dst)
                } else {
                    (edge.dst, edge.src)
                };
                let bit = self.matcher.edge_matches(&ctx, te.query_edge, &edge)
                    && candidacy.is_candidate(vp, te.parent)
                    && candidacy.is_candidate(vc, te.child);
                if bit {
                    row |= 1u64 << column;
                }
            }
            debi.write_row(edge_id.index(), row);
        };
        if parallel {
            frontier.affected_edges.par_iter().for_each(recompute_row);
        } else {
            frontier.affected_edges.iter().for_each(recompute_row);
        }

        EngineCounters::add(
            &counters.edges_traversed_top_down,
            frontier.affected_edges.len() as u64,
        );
        EngineCounters::add(
            &counters.debi_writes,
            (frontier.affected_edges.len() * self.tree.debi_width()) as u64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::LabelEdgeMatcher;
    use mnemonic_graph::builder::paper_example_graph;
    use mnemonic_graph::ids::{EdgeId, QueryVertexId};
    use mnemonic_query::query_tree::paper_example_query;

    fn full_frontier(graph: &StreamingGraph) -> UnifiedFrontier {
        UnifiedFrontier::build(graph, graph.live_edges().collect(), false)
    }

    fn run_full_pass(
        graph: &StreamingGraph,
    ) -> (QueryGraph, QueryTree, Debi, VertexCandidacy, EngineCounters) {
        let (query, tree) = paper_example_query();
        let requirements = QueryRequirements::build(&query);
        let mut debi = Debi::new(tree.debi_width());
        debi.ensure_rows(graph.edge_id_bound());
        debi.ensure_roots(graph.vertex_count());
        let mut candidacy = VertexCandidacy::new();
        candidacy.ensure(graph.vertex_count());
        let counters = EngineCounters::new();
        let frontier = UnifiedFrontier::build(graph, graph.live_edges().collect(), false);
        // All vertices are endpoints of some edge here, so the frontier's
        // affected vertices cover the graph.
        let pass = TopDownPass {
            graph,
            query: &query,
            tree: &tree,
            matcher: &LabelEdgeMatcher,
            requirements: &requirements,
        };
        pass.run(&frontier, &candidacy, &debi, &counters, false);
        (query, tree, debi, candidacy, counters)
    }

    #[test]
    fn paper_example_debi_at_time_t() {
        // Figure 5(b): at time t, edge 0 = (v4,v1) matches u1's tree edge
        // (actually (u0,u1)) etc. Our vertex labels are uniform and the query
        // is wildcard-labelled, so the bits reflect the degree profile (f2)
        // only; we check a few structurally forced entries.
        let graph = paper_example_graph();
        let (_query, tree, debi, candidacy, counters) = run_full_pass(&graph);

        // v1 is the root match of the paper's first embedding (u0 -> v1): it
        // has the required two outgoing and one incoming wildcard edges.
        assert!(candidacy.is_candidate(mnemonic_graph::VertexId(1), QueryVertexId(0)));
        assert!(debi.is_root(1));
        // v4 maps to u2 in that embedding but cannot match u0 (it has no
        // incoming edge for (u2, u0)); leaves cannot match u0 either.
        assert!(!debi.is_root(4));
        assert!(!debi.is_root(6));
        assert!(!debi.is_root(7));

        // Edge (v1, v3) (id 1) must be a candidate of the tree edge (u0, u1):
        // column of u1.
        let col_u1 = tree.debi_column(QueryVertexId(1)).unwrap();
        assert!(debi.get(EdgeId(1).index(), col_u1));
        // Edge (v3, v6) (id 6) is a candidate of (u1, u3) — v6 carries label F
        // like u3 — while edge (v3, v7) (id 4) is the candidate of (u1, u4).
        let col_u3 = tree.debi_column(QueryVertexId(3)).unwrap();
        let col_u4 = tree.debi_column(QueryVertexId(4)).unwrap();
        assert!(debi.get(EdgeId(6).index(), col_u3));
        assert!(!debi.get(EdgeId(6).index(), col_u4));
        assert!(debi.get(EdgeId(4).index(), col_u4));
        // Edge (v4, v9) (id 9): v9 has no outgoing edges, so it cannot match
        // u1 (which needs two children); the u1 column must be clear.
        assert!(!debi.get(EdgeId(9).index(), col_u1));
        assert_eq!(counters.snapshot().edges_traversed_top_down, 13);
    }

    #[test]
    fn dead_edges_get_cleared_rows() {
        let mut graph = paper_example_graph();
        let (query, tree) = paper_example_query();
        let requirements = QueryRequirements::build(&query);
        let mut debi = Debi::new(tree.debi_width());
        debi.ensure_rows(graph.edge_id_bound());
        debi.ensure_roots(graph.vertex_count());
        let mut candidacy = VertexCandidacy::new();
        candidacy.ensure(graph.vertex_count());
        let counters = EngineCounters::new();

        // Prime the index.
        let frontier = full_frontier(&graph);
        TopDownPass {
            graph: &graph,
            query: &query,
            tree: &tree,
            matcher: &LabelEdgeMatcher,
            requirements: &requirements,
        }
        .run(&frontier, &candidacy, &debi, &counters, false);
        assert!(debi.any(EdgeId(1).index()));

        // Delete edge 1 and re-run the pass over a frontier that references it.
        let deleted = graph.delete_edge(EdgeId(1)).unwrap();
        let frontier = UnifiedFrontier::build(&graph, vec![deleted], true);
        TopDownPass {
            graph: &graph,
            query: &query,
            tree: &tree,
            matcher: &LabelEdgeMatcher,
            requirements: &requirements,
        }
        .run(&frontier, &candidacy, &debi, &counters, false);
        assert!(
            !debi.any(EdgeId(1).index()),
            "row of the dead edge is cleared"
        );
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let graph = paper_example_graph();
        let (query, tree) = paper_example_query();
        let requirements = QueryRequirements::build(&query);
        let counters = EngineCounters::new();
        let frontier = full_frontier(&graph);

        let run = |parallel: bool| {
            let mut debi = Debi::new(tree.debi_width());
            debi.ensure_rows(graph.edge_id_bound());
            debi.ensure_roots(graph.vertex_count());
            let mut candidacy = VertexCandidacy::new();
            candidacy.ensure(graph.vertex_count());
            TopDownPass {
                graph: &graph,
                query: &query,
                tree: &tree,
                matcher: &LabelEdgeMatcher,
                requirements: &requirements,
            }
            .run(&frontier, &candidacy, &debi, &counters, parallel);
            (0..graph.edge_id_bound())
                .map(|e| debi.row(e))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(false), run(true));
    }
}
