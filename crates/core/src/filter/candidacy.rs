//! Per-data-vertex candidacy cache.
//!
//! For every data vertex the engine caches a bitmask with one bit per query
//! vertex: bit `u` says the data vertex currently satisfies the label and
//! local-neighbourhood requirements (rules f2/f3) of query vertex `u`. DEBI
//! rows are then assembled from these bits plus the edge-level match, and the
//! `roots` bit vector is the column of the root query vertex.
//!
//! The cache is updated only for the vertices touched by the current batch
//! (the frontier's affected vertices), which is what bounds the incremental
//! maintenance cost.

use crate::filter::requirements::QueryRequirements;
use mnemonic_graph::ids::{QueryVertexId, VertexId};
use mnemonic_graph::multigraph::StreamingGraph;
use std::sync::atomic::{AtomicU64, Ordering};

/// Candidacy bitmask cache, indexed by data vertex id.
#[derive(Debug, Default)]
pub struct VertexCandidacy {
    bits: Vec<AtomicU64>,
}

impl VertexCandidacy {
    /// Create an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Make sure the cache covers vertex ids below `bound`.
    pub fn ensure(&mut self, bound: usize) {
        while self.bits.len() < bound {
            self.bits.push(AtomicU64::new(0));
        }
    }

    /// Number of covered vertices.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Recompute the bitmask of data vertex `v` from the current graph state
    /// and store it. Returns the new mask. The cache must already cover `v`.
    ///
    /// One neighbourhood-profile sweep per direction answers the f2/f3
    /// counts for every query vertex at once (see
    /// [`QueryRequirements::mask_for_profile`]). The shared top-down pass
    /// goes further and evaluates *every* standing query against one
    /// profile, storing each result with [`VertexCandidacy::store`].
    pub fn recompute(
        &self,
        graph: &StreamingGraph,
        requirements: &QueryRequirements,
        v: VertexId,
    ) -> u64 {
        let vertex_label = graph.vertex_label(v);
        let mask = graph.with_neighborhood_profile(v, |profile| {
            requirements.mask_for_profile(vertex_label, profile)
        });
        self.store(v, mask);
        mask
    }

    /// Store `mask` as the bitmask of `v`. The cache must already cover `v`.
    #[inline]
    pub fn store(&self, v: VertexId, mask: u64) {
        self.bits[v.index()].store(mask, Ordering::Relaxed);
    }

    /// [`VertexCandidacy::recompute`] through the retained
    /// per-call-allocating requirement checks (the pre-optimisation
    /// candidacy kernel; `hot_path_gate` A/B only).
    pub fn recompute_baseline(
        &self,
        graph: &StreamingGraph,
        requirements: &QueryRequirements,
        v: VertexId,
    ) -> u64 {
        let mut mask = 0u64;
        for u in 0..requirements.len() {
            if requirements
                .for_vertex(QueryVertexId(u as u16))
                .satisfied_by_baseline(graph, v)
            {
                mask |= 1u64 << u;
            }
        }
        self.store(v, mask);
        mask
    }

    /// The cached bitmask of `v` (0 for unknown vertices).
    #[inline]
    pub fn mask(&self, v: VertexId) -> u64 {
        self.bits
            .get(v.index())
            .map(|b| b.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Whether `v` is currently a candidate of query vertex `u`.
    #[inline]
    pub fn is_candidate(&self, v: VertexId, u: QueryVertexId) -> bool {
        self.mask(v) & (1u64 << u.index()) != 0
    }

    /// Drop every cached bit (periodic reset support).
    pub fn reset(&mut self) {
        self.bits.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnemonic_graph::builder::GraphBuilder;
    use mnemonic_graph::ids::{EdgeLabel, VertexLabel};
    use mnemonic_query::query_graph::QueryGraph;

    #[test]
    fn candidacy_tracks_graph_changes() {
        // Query: u0(label 1) -[7]-> u1(label 2)
        let mut q = QueryGraph::new();
        let a = q.add_vertex(VertexLabel(1));
        let b = q.add_vertex(VertexLabel(2));
        q.add_edge(a, b, EdgeLabel(7));
        let reqs = QueryRequirements::build(&q);

        let mut graph = GraphBuilder::new().vertex(0, 1).vertex(1, 2).build();
        let mut cand = VertexCandidacy::new();
        cand.ensure(2);
        // Without any edge, v0 lacks the outgoing label-7 edge.
        assert_eq!(cand.recompute(&graph, &reqs, VertexId(0)), 0);
        assert!(!cand.is_candidate(VertexId(0), a));

        graph.insert_edge(mnemonic_graph::edge::EdgeTriple::new(
            VertexId(0),
            VertexId(1),
            EdgeLabel(7),
        ));
        let mask = cand.recompute(&graph, &reqs, VertexId(0));
        assert_eq!(mask, 0b01);
        assert!(cand.is_candidate(VertexId(0), a));
        assert!(!cand.is_candidate(VertexId(0), b)); // wrong vertex label
        cand.recompute(&graph, &reqs, VertexId(1));
        assert!(cand.is_candidate(VertexId(1), b));
    }

    #[test]
    fn fused_recompute_agrees_with_baseline() {
        // Mixed labels, wildcard edges, parallel edges and a self-loop: the
        // fused profile kernel and the retained allocating baseline must
        // produce identical masks for every vertex.
        let mut q = QueryGraph::new();
        let a = q.add_vertex(VertexLabel(1));
        let b = q.add_wildcard_vertex();
        let c = q.add_vertex(VertexLabel(2));
        q.add_edge(a, b, EdgeLabel(5));
        q.add_edge(a, b, EdgeLabel(5));
        q.add_edge(b, c, mnemonic_graph::ids::WILDCARD_EDGE_LABEL);
        q.add_edge(c, a, EdgeLabel(7));
        let reqs = QueryRequirements::build(&q);

        let graph = GraphBuilder::new()
            .vertex(0, 1)
            .vertex(1, 2)
            .vertex(2, u16::MAX)
            .edge(0, 1, 5)
            .edge(0, 1, 5)
            .edge(0, 3, u16::MAX)
            .edge(1, 2, 9)
            .edge(2, 0, 7)
            .edge(3, 3, 5)
            .build();
        let mut cand = VertexCandidacy::new();
        cand.ensure(4);
        for raw in 0u32..4 {
            let v = VertexId(raw);
            let fused = cand.recompute(&graph, &reqs, v);
            let baseline = cand.recompute_baseline(&graph, &reqs, v);
            assert_eq!(fused, baseline, "mask mismatch at v{raw}");
        }
    }

    #[test]
    fn unknown_vertices_have_empty_mask() {
        let cand = VertexCandidacy::new();
        assert_eq!(cand.mask(VertexId(42)), 0);
        assert!(!cand.is_candidate(VertexId(42), QueryVertexId(0)));
    }
}
