//! Index-level differential test of the shared filtering pass: a K-query
//! session, whose queries are refreshed together by one
//! [`SharedTopDownPass`](crate::filter::SharedTopDownPass) per frontier,
//! must leave every query's candidacy masks, roots, DEBI rows and filtering
//! counters exactly where a 1-query session holding that query alone leaves
//! them — after every batch, on a stream with inserts, explicit deletions
//! and window eviction, in-memory and through the paged spill tier,
//! parallel and sequential.

use crate::api::LabelEdgeMatcher;
use crate::session::{MnemonicSession, QueryState};
use crate::variants::Isomorphism;
use mnemonic_graph::ids::{EdgeLabel, Timestamp, VertexId, VertexLabel, WILDCARD_EDGE_LABEL};
use mnemonic_graph::spill::SpillConfig;
use mnemonic_graph::storage::StorageConfig;
use mnemonic_query::patterns;
use mnemonic_query::query_graph::QueryGraph;
use mnemonic_stream::event::StreamEvent;
use mnemonic_stream::snapshot::Snapshot;
use std::sync::atomic::Ordering;

/// Queries that differ in labelling, size and multiplicity.
fn query_mix() -> Vec<QueryGraph> {
    // A multi-edge query: two parallel label-5 edges a -> b, then b -> c.
    let mut multi = QueryGraph::new();
    let a = multi.add_vertex(VertexLabel(1));
    let b = multi.add_wildcard_vertex();
    let c = multi.add_wildcard_vertex();
    multi.add_edge(a, b, EdgeLabel(5));
    multi.add_edge(a, b, EdgeLabel(5));
    multi.add_edge(b, c, WILDCARD_EDGE_LABEL);

    // A self-loop query: a -> b with a self-loop on b.
    let mut self_loop = QueryGraph::new();
    let a = self_loop.add_wildcard_vertex();
    let b = self_loop.add_vertex(VertexLabel(2));
    self_loop.add_edge(a, b, WILDCARD_EDGE_LABEL);
    self_loop.add_edge(b, b, EdgeLabel(6));

    vec![
        // Wildcard, 3 vertices.
        patterns::triangle(),
        // Labelled, 4 vertices.
        patterns::labelled_path(&[1, 2, 1, 2], &[5, 6, 5]),
        // Wildcard, 4 vertices, two cycles.
        patterns::dual_triangle(),
        // Wildcard, 5 vertices.
        patterns::path(5),
        multi,
        self_loop,
    ]
}

/// Tiny xorshift generator: the stream must not depend on any crate.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A seeded stream cut into snapshots: labelled vertices, parallel edges,
/// data self-loops, explicit deletions of live edges and, every few
/// batches, a window eviction cutoff.
fn snapshots(seed: u64, batches: usize, per_batch: usize) -> Vec<Snapshot> {
    let mut rng = XorShift(seed | 1);
    let mut live: Vec<(u32, u32, u16)> = Vec::new();
    let mut ts = 0u64;
    let mut out = Vec::with_capacity(batches);
    for id in 0..batches {
        let mut events = Vec::with_capacity(per_batch);
        for _ in 0..per_batch {
            ts += 1;
            if !live.is_empty() && rng.below(10) < 2 {
                let (s, d, l) = live.swap_remove(rng.below(live.len() as u64) as usize);
                events.push(StreamEvent::delete(s, d, l).at(ts));
                continue;
            }
            let src = rng.below(24) as u32;
            let dst = if rng.below(16) == 0 {
                src
            } else {
                rng.below(24) as u32
            };
            let label = [5u16, 6, 7, u16::MAX][rng.below(4) as usize];
            live.push((src, dst, label));
            // Vertex labels depend on the id only, so relabelling is stable.
            let vlabel = |v: u32| {
                if v % 5 == 0 {
                    u16::MAX
                } else {
                    1 + (v % 2) as u16
                }
            };
            events.push(
                StreamEvent::insert(src, dst, label)
                    .with_vertex_labels(vlabel(src), vlabel(dst))
                    .at(ts),
            );
        }
        let mut snapshot = Snapshot::from_events(id as u64, events);
        if id % 4 == 3 {
            // Evict the oldest third of what has been streamed so far.
            let cutoff = ts / 3;
            snapshot.evict_before = Some(Timestamp(cutoff));
        }
        out.push(snapshot);
    }
    out
}

fn session(parallel: bool, paged: bool) -> MnemonicSession {
    let mut builder = MnemonicSession::builder();
    builder = if parallel {
        builder.threads(2)
    } else {
        builder.sequential()
    };
    if paged {
        builder = builder
            .storage(StorageConfig::paged().page_size(4096).cache_pages(2))
            .spill(SpillConfig {
                in_memory_window: 32,
                buffer_capacity: 8,
            });
    }
    builder.build().expect("session builds")
}

fn register(session: &mut MnemonicSession, query: QueryGraph) {
    session
        .register_query(query, Box::new(LabelEdgeMatcher), Box::new(Isomorphism))
        .expect("connected query registers");
}

/// Everything the filtering pass writes for one query, read back in id
/// order.
#[derive(Debug, PartialEq, Eq)]
struct IndexImage {
    masks: Vec<u64>,
    roots: Vec<usize>,
    rows: Vec<u64>,
    edges_traversed_top_down: u64,
    debi_writes: u64,
}

fn image(session: &MnemonicSession, qs: &QueryState) -> IndexImage {
    let graph = &session.graph;
    IndexImage {
        masks: (0..graph.vertex_count())
            .map(|v| qs.candidacy.mask(VertexId(v as u32)))
            .collect(),
        roots: qs.debi.root_candidates(),
        rows: (0..graph.edge_id_bound()).map(|e| qs.debi.row(e)).collect(),
        edges_traversed_top_down: qs.counters.edges_traversed_top_down.load(Ordering::Relaxed),
        debi_writes: qs.counters.debi_writes.load(Ordering::Relaxed),
    }
}

fn assert_shared_matches_solo(parallel: bool, paged: bool, seed: u64) {
    let queries = query_mix();
    let mut shared = session(parallel, paged);
    let mut solos: Vec<MnemonicSession> = queries
        .iter()
        .map(|q| {
            let mut solo = session(parallel, paged);
            register(&mut solo, q.clone());
            solo
        })
        .collect();
    for q in &queries {
        register(&mut shared, q.clone());
    }

    let stream = snapshots(seed, 16, 40);
    assert!(stream.iter().any(|s| !s.deletions.is_empty()));
    assert!(stream.iter().any(|s| s.evict_before.is_some()));
    // Per query: whether some batch left a candidate vertex and a set row,
    // so the comparison is never between two empty indexes.
    let mut populated = vec![(false, false); queries.len()];
    for snapshot in &stream {
        shared
            .apply_snapshot(snapshot)
            .expect("shared batch applies");
        for solo in &mut solos {
            solo.apply_snapshot(snapshot).expect("solo batch applies");
        }
        for (qi, solo) in solos.iter().enumerate() {
            let together = image(&shared, &shared.queries[qi]);
            assert_eq!(
                together,
                image(solo, &solo.queries[0]),
                "query {qi} diverged after batch {} (parallel={parallel}, paged={paged})",
                snapshot.id
            );
            populated[qi].0 |= together.masks.iter().any(|&m| m != 0);
            populated[qi].1 |= together.rows.iter().any(|&r| r != 0);
        }
    }
    assert!(
        populated.iter().all(|&(masks, rows)| masks && rows),
        "every query must see candidates and set rows: {populated:?}"
    );
    if paged {
        let spill = shared.spill_stats().expect("paged session spills");
        assert!(spill.edges_on_disk > 0, "the window must reach the pages");
        assert_eq!(shared.spill_io_errors(), 0);
    }
}

#[test]
fn shared_pass_matches_solo_sessions_sequential() {
    assert_shared_matches_solo(false, false, 0x5EED_0001);
}

#[test]
fn shared_pass_matches_solo_sessions_parallel() {
    assert_shared_matches_solo(true, false, 0x5EED_0002);
}

#[test]
fn shared_pass_matches_solo_sessions_paged_sequential() {
    assert_shared_matches_solo(false, true, 0x5EED_0003);
}

#[test]
fn shared_pass_matches_solo_sessions_paged_parallel() {
    assert_shared_matches_solo(true, true, 0x5EED_0004);
}
