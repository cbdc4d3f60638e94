//! Per-query-vertex neighbourhood requirements — the query-side constants of
//! the filtering rules f2 and f3 (Section V).
//!
//! For a query vertex `u`:
//! * **f2**: if `u` has `n_l` incoming (outgoing) query edges with label `l`,
//!   a data vertex matched to `u` must have at least `n_l` incoming
//!   (outgoing) edges of label `l`;
//! * **f3**: if `u` has `n_l` in-neighbours (out-neighbours) with vertex
//!   label `l`, the data vertex must have at least `n_l` in-neighbours
//!   (out-neighbours) of that label.
//!
//! These requirements only depend on the query, so they are computed once at
//! `initializeIndex` time and reused for every batch.

use mnemonic_graph::ids::{EdgeLabel, QueryVertexId, VertexLabel};
use mnemonic_graph::multigraph::StreamingGraph;
use mnemonic_graph::profile::NeighborhoodProfile;
use mnemonic_graph::VertexId;
use mnemonic_query::query_graph::QueryGraph;

/// Requirements of one query vertex.
#[derive(Debug, Clone)]
pub struct VertexRequirements {
    /// Required vertex label (possibly the wildcard).
    pub label: VertexLabel,
    /// Minimum number of outgoing data edges per edge label (f2, outgoing).
    pub out_edge_labels: Vec<(EdgeLabel, usize)>,
    /// Minimum number of incoming data edges per edge label (f2, incoming).
    pub in_edge_labels: Vec<(EdgeLabel, usize)>,
    /// Minimum number of distinct out-neighbours per vertex label (f3).
    pub out_neighbor_labels: Vec<(VertexLabel, usize)>,
    /// Minimum number of distinct in-neighbours per vertex label (f3).
    pub in_neighbor_labels: Vec<(VertexLabel, usize)>,
}

impl VertexRequirements {
    /// Whether data vertex `v` of `graph` satisfies every requirement.
    pub fn satisfied_by(&self, graph: &StreamingGraph, v: VertexId) -> bool {
        if !self.label.matches(graph.vertex_label(v)) {
            return false;
        }
        for &(label, need) in &self.out_edge_labels {
            if graph.out_label_count(v, label) < need {
                return false;
            }
        }
        for &(label, need) in &self.in_edge_labels {
            if graph.in_label_count(v, label) < need {
                return false;
            }
        }
        for &(label, need) in &self.out_neighbor_labels {
            if graph.out_neighbor_label_count(v, label) < need {
                return false;
            }
        }
        for &(label, need) in &self.in_neighbor_labels {
            if graph.in_neighbor_label_count(v, label) < need {
                return false;
            }
        }
        true
    }

    /// Whether a data vertex labelled `vertex_label` whose neighbourhood
    /// statistics are `profile` satisfies every requirement. This is the
    /// fused candidacy path: the profile is collected in one adjacency sweep
    /// per direction
    /// ([`StreamingGraph::with_neighborhood_profile`]), after which each
    /// query vertex is checked in O(requirements) with no further graph
    /// traffic — where [`VertexRequirements::satisfied_by`] re-walks the
    /// adjacency run once per required label.
    pub fn satisfied_by_profile(
        &self,
        vertex_label: VertexLabel,
        profile: &NeighborhoodProfile,
    ) -> bool {
        if !self.label.matches(vertex_label) {
            return false;
        }
        for &(label, need) in &self.out_edge_labels {
            if profile.out_edge_count(label) < need {
                return false;
            }
        }
        for &(label, need) in &self.in_edge_labels {
            if profile.in_edge_count(label) < need {
                return false;
            }
        }
        for &(label, need) in &self.out_neighbor_labels {
            if profile.out_neighbor_count(label) < need {
                return false;
            }
        }
        for &(label, need) in &self.in_neighbor_labels {
            if profile.in_neighbor_count(label) < need {
                return false;
            }
        }
        true
    }

    /// [`VertexRequirements::satisfied_by`] through the retained
    /// per-call-allocating neighbour counts — the pre-optimisation candidacy
    /// kernel, kept for the `hot_path_gate` wall-clock A/B.
    pub fn satisfied_by_baseline(&self, graph: &StreamingGraph, v: VertexId) -> bool {
        if !self.label.matches(graph.vertex_label(v)) {
            return false;
        }
        for &(label, need) in &self.out_edge_labels {
            if graph.out_label_count(v, label) < need {
                return false;
            }
        }
        for &(label, need) in &self.in_edge_labels {
            if graph.in_label_count(v, label) < need {
                return false;
            }
        }
        for &(label, need) in &self.out_neighbor_labels {
            if graph.out_neighbor_label_count_baseline(v, label) < need {
                return false;
            }
        }
        for &(label, need) in &self.in_neighbor_labels {
            if graph.in_neighbor_label_count_baseline(v, label) < need {
                return false;
            }
        }
        true
    }
}

/// Requirements for every query vertex, indexed by query vertex id.
#[derive(Debug, Default, Clone)]
pub struct QueryRequirements {
    per_vertex: Vec<VertexRequirements>,
}

impl QueryRequirements {
    /// Precompute the requirements of every query vertex.
    pub fn build(query: &QueryGraph) -> Self {
        let per_vertex = query
            .vertices()
            .map(|u| Self::build_vertex(query, u))
            .collect();
        QueryRequirements { per_vertex }
    }

    fn build_vertex(query: &QueryGraph, u: QueryVertexId) -> VertexRequirements {
        // Dense label-keyed accumulators instead of hashed maps: a query
        // vertex has a handful of incident labels, so a linear probe of a
        // small Vec beats SipHash even here on the cold path — and sorting
        // by raw label makes the requirement order (and therefore the
        // short-circuit order of `satisfied_by*`) deterministic.
        fn bump(counts: &mut Vec<(u16, usize)>, label: u16) {
            match counts.iter_mut().find(|(l, _)| *l == label) {
                Some((_, n)) => *n += 1,
                None => counts.push((label, 1)),
            }
        }

        let mut out_edge_labels: Vec<(u16, usize)> = Vec::new();
        let mut in_edge_labels: Vec<(u16, usize)> = Vec::new();
        let mut out_neighbor_labels: Vec<(u16, usize)> = Vec::new();
        let mut in_neighbor_labels: Vec<(u16, usize)> = Vec::new();

        for entry in query.outgoing(u) {
            let e = query.edge(entry.edge);
            bump(&mut out_edge_labels, e.label.0);
            bump(
                &mut out_neighbor_labels,
                query.vertex_label(entry.neighbor).0,
            );
        }
        for entry in query.incoming(u) {
            let e = query.edge(entry.edge);
            bump(&mut in_edge_labels, e.label.0);
            bump(
                &mut in_neighbor_labels,
                query.vertex_label(entry.neighbor).0,
            );
        }
        for counts in [
            &mut out_edge_labels,
            &mut in_edge_labels,
            &mut out_neighbor_labels,
            &mut in_neighbor_labels,
        ] {
            counts.sort_unstable_by_key(|&(l, _)| l);
        }

        VertexRequirements {
            label: query.vertex_label(u),
            out_edge_labels: out_edge_labels
                .into_iter()
                .map(|(l, n)| (EdgeLabel(l), n))
                .collect(),
            in_edge_labels: in_edge_labels
                .into_iter()
                .map(|(l, n)| (EdgeLabel(l), n))
                .collect(),
            out_neighbor_labels: out_neighbor_labels
                .into_iter()
                .map(|(l, n)| (VertexLabel(l), n))
                .collect(),
            in_neighbor_labels: in_neighbor_labels
                .into_iter()
                .map(|(l, n)| (VertexLabel(l), n))
                .collect(),
        }
    }

    /// The candidacy bitmask of a data vertex labelled `vertex_label` whose
    /// neighbourhood statistics are `profile`: bit `u` is set iff query
    /// vertex `u`'s requirements are satisfied. No graph traffic beyond the
    /// already collected profile.
    pub fn mask_for_profile(
        &self,
        vertex_label: VertexLabel,
        profile: &NeighborhoodProfile,
    ) -> u64 {
        let mut mask = 0u64;
        for (u, requirements) in self.per_vertex.iter().enumerate() {
            if requirements.satisfied_by_profile(vertex_label, profile) {
                mask |= 1u64 << u;
            }
        }
        mask
    }

    /// Requirements of query vertex `u`.
    pub fn for_vertex(&self, u: QueryVertexId) -> &VertexRequirements {
        &self.per_vertex[u.index()]
    }

    /// Number of query vertices covered.
    pub fn len(&self) -> usize {
        self.per_vertex.len()
    }

    /// Whether the query had no vertices.
    pub fn is_empty(&self) -> bool {
        self.per_vertex.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnemonic_graph::builder::GraphBuilder;
    use mnemonic_graph::ids::WILDCARD_EDGE_LABEL;

    #[test]
    fn requirements_count_labels_per_direction() {
        let mut q = QueryGraph::new();
        let a = q.add_vertex(VertexLabel(1));
        let b = q.add_vertex(VertexLabel(2));
        let c = q.add_vertex(VertexLabel(2));
        q.add_edge(a, b, EdgeLabel(5));
        q.add_edge(a, c, EdgeLabel(5));
        q.add_edge(b, a, EdgeLabel(6));
        let reqs = QueryRequirements::build(&q);
        let ra = reqs.for_vertex(a);
        assert_eq!(ra.label, VertexLabel(1));
        assert_eq!(ra.out_edge_labels, vec![(EdgeLabel(5), 2)]);
        assert_eq!(ra.in_edge_labels, vec![(EdgeLabel(6), 1)]);
        assert_eq!(ra.out_neighbor_labels, vec![(VertexLabel(2), 2)]);
        assert_eq!(reqs.len(), 3);
    }

    #[test]
    fn satisfied_by_checks_degree_profile() {
        // Query: u0 -[5]-> u1, u0 -[5]-> u2 — a data match for u0 needs two
        // outgoing label-5 edges to label-2 vertices.
        let mut q = QueryGraph::new();
        let a = q.add_vertex(VertexLabel(1));
        let b = q.add_vertex(VertexLabel(2));
        let c = q.add_vertex(VertexLabel(2));
        q.add_edge(a, b, EdgeLabel(5));
        q.add_edge(a, c, EdgeLabel(5));
        let reqs = QueryRequirements::build(&q);

        let graph = GraphBuilder::new()
            .vertex(0, 1)
            .vertex(1, 2)
            .vertex(2, 2)
            .vertex(3, 1)
            .vertex(4, 2)
            .edge(0, 1, 5)
            .edge(0, 2, 5)
            .edge(3, 4, 5)
            .build();
        // v0 has two label-5 out-edges to label-2 vertices: satisfied.
        assert!(reqs.for_vertex(a).satisfied_by(&graph, VertexId(0)));
        // v3 has only one: not satisfied.
        assert!(!reqs.for_vertex(a).satisfied_by(&graph, VertexId(3)));
        // v1 has the wrong vertex label for u0.
        assert!(!reqs.for_vertex(a).satisfied_by(&graph, VertexId(1)));
        // v1 satisfies u1 (label 2, needs one incoming label-5 edge from a label-1 vertex).
        assert!(reqs.for_vertex(b).satisfied_by(&graph, VertexId(1)));
    }

    #[test]
    fn requirement_lists_are_sorted_by_label() {
        let mut q = QueryGraph::new();
        let a = q.add_vertex(VertexLabel(1));
        let b = q.add_vertex(VertexLabel(9));
        let c = q.add_vertex(VertexLabel(2));
        q.add_edge(a, b, EdgeLabel(8));
        q.add_edge(a, c, EdgeLabel(3));
        q.add_edge(a, b, EdgeLabel(8));
        let reqs = QueryRequirements::build(&q);
        let ra = reqs.for_vertex(a);
        assert_eq!(
            ra.out_edge_labels,
            vec![(EdgeLabel(3), 1), (EdgeLabel(8), 2)]
        );
        assert_eq!(
            ra.out_neighbor_labels,
            vec![(VertexLabel(2), 1), (VertexLabel(9), 2)]
        );
    }

    #[test]
    fn satisfied_by_profile_agrees_with_graph_scans() {
        let mut q = QueryGraph::new();
        let a = q.add_vertex(VertexLabel(1));
        let b = q.add_vertex(VertexLabel(2));
        let c = q.add_wildcard_vertex();
        q.add_edge(a, b, EdgeLabel(5));
        q.add_edge(a, c, WILDCARD_EDGE_LABEL);
        q.add_edge(b, a, EdgeLabel(6));
        let reqs = QueryRequirements::build(&q);

        let graph = GraphBuilder::new()
            .vertex(0, 1)
            .vertex(1, 2)
            .vertex(3, 1)
            .edge(0, 1, 5)
            .edge(0, 2, 7)
            .edge(1, 0, 6)
            .edge(3, 1, 5)
            .build();

        let mut profile = NeighborhoodProfile::default();
        for raw in 0u32..4 {
            let v = VertexId(raw);
            profile.collect(&graph, v);
            let vlabel = graph.vertex_label(v);
            for u in [a, b, c] {
                let r = reqs.for_vertex(u);
                assert_eq!(
                    r.satisfied_by_profile(vlabel, &profile),
                    r.satisfied_by(&graph, v),
                    "v={raw} u={u:?}"
                );
            }
        }
    }

    #[test]
    fn wildcard_query_requires_only_degree() {
        let mut q = QueryGraph::new();
        let a = q.add_wildcard_vertex();
        let b = q.add_wildcard_vertex();
        let c = q.add_wildcard_vertex();
        q.add_edge(a, b, WILDCARD_EDGE_LABEL);
        q.add_edge(a, c, WILDCARD_EDGE_LABEL);
        let reqs = QueryRequirements::build(&q);
        let graph = GraphBuilder::new()
            .edge(0, 1, 3)
            .edge(0, 2, 9)
            .edge(5, 6, 0)
            .build();
        // v0 has out-degree 2 (any labels) — satisfies u0's two wildcard edges.
        assert!(reqs.for_vertex(a).satisfied_by(&graph, VertexId(0)));
        // v5 has out-degree 1 — does not.
        assert!(!reqs.for_vertex(a).satisfied_by(&graph, VertexId(5)));
        // Leaves only need one incoming edge.
        assert!(reqs.for_vertex(b).satisfied_by(&graph, VertexId(1)));
        assert!(!reqs.for_vertex(b).satisfied_by(&graph, VertexId(0)));
    }
}
