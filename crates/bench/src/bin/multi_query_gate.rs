//! CI shared-ingest gate: a 4-query [`MnemonicSession`] must beat 4
//! sequential independent engines in total wall-clock on the shared-ingest
//! workload, because the session pays the graph update, frontier
//! construction and deletion resolution once per batch instead of once per
//! query. Both sides also have to agree exactly on every per-query
//! embedding count (the differential sanity check).
//!
//! Everything runs single-threaded with the same delta-batch size, so the
//! comparison isolates the architectural saving from scheduling noise. The
//! session also shares the filtering pass (one neighbourhood profile per
//! affected vertex, one sorted edge order for all queries), but the row
//! kernel and enumeration — the dominant phases on enumeration-heavy
//! queries — remain per-query work, so the gate margin stays modest.
//!
//! Exit status 0 = all gates passed; 1 = a gate failed.
//!
//! ```text
//! cargo run --release -p mnemonic-bench --bin multi_query_gate
//! ```
//!
//! [`MnemonicSession`]: mnemonic_core::session::MnemonicSession

use mnemonic_bench::workloads::{multi_query_set, scaled_netflow, WorkloadScale};
use mnemonic_core::api::LabelEdgeMatcher;
use mnemonic_core::embedding::{CountingSink, EmbeddingSink};
use mnemonic_core::engine::{EngineConfig, Mnemonic};
use mnemonic_core::session::MnemonicSession;
use mnemonic_core::variants::Isomorphism;
use std::time::{Duration, Instant};

/// Number of standing queries in the gate workload.
const QUERIES: usize = 4;
/// Delta-batch size shared by both sides.
const BATCH: usize = 512;
/// Gate: the session must be at least this much faster than running the
/// same queries in sequential independent engines.
///
/// Lowered from 1.05 when the word-parallel kernel pass landed: the shared
/// session's advantage is exactly the per-engine ingest work it deduplicates
/// (graph update + frontier build), and that work got ~2.5x cheaper, so the
/// *ratio* mechanically compressed (measured ≈ 1.10–1.14x idle, dipping
/// near 1.03x under CI box load) even though the shared session's absolute
/// wall-clock improved. The gate still pins the invariant that sharing is
/// a strict win.
const MIN_SPEEDUP: f64 = 1.02;
/// Runs per side; the median is compared.
const RUNS: usize = 7;

fn config() -> EngineConfig {
    EngineConfig {
        num_threads: 1,
        parallel: false,
        ..EngineConfig::with_batch_size(BATCH)
    }
}

fn median(mut xs: Vec<Duration>) -> Duration {
    xs.sort();
    xs[xs.len() / 2]
}

/// One session run: K standing queries, the stream ingested once. Returns
/// (wall, per-query embedding counts).
fn run_session(events: &[mnemonic_stream::event::StreamEvent]) -> (Duration, Vec<u64>) {
    let mut session = MnemonicSession::new(config()).expect("valid gate configuration");
    let handles: Vec<_> = multi_query_set(QUERIES)
        .into_iter()
        .map(|q| {
            let h = session
                .register_query(q, Box::new(LabelEdgeMatcher), Box::new(Isomorphism))
                .expect("connected query");
            h.attach_sink(std::sync::Arc::new(CountingSink::new()));
            h
        })
        .collect();
    let t = Instant::now();
    session
        .run_events(events.iter().copied())
        .expect("gate replay succeeds");
    let wall = t.elapsed();
    (wall, handles.iter().map(|h| h.accepted()).collect())
}

/// One independent run: K engines each ingesting the stream on its own.
/// Returns (total wall, per-query embedding counts).
fn run_independent(events: &[mnemonic_stream::event::StreamEvent]) -> (Duration, Vec<u64>) {
    let mut counts = Vec::with_capacity(QUERIES);
    let mut wall = Duration::ZERO;
    for q in multi_query_set(QUERIES) {
        let mut engine = Mnemonic::new(
            q,
            Box::new(LabelEdgeMatcher),
            Box::new(Isomorphism),
            config(),
        );
        let sink = CountingSink::new();
        let t = Instant::now();
        engine.run_events(events.iter().copied(), &sink);
        wall += t.elapsed();
        counts.push(sink.count());
    }
    (wall, counts)
}

fn main() {
    let events = scaled_netflow(&WorkloadScale::tiny());

    let mut session_walls = Vec::with_capacity(RUNS);
    let mut independent_walls = Vec::with_capacity(RUNS);
    let mut session_counts = Vec::new();
    let mut independent_counts = Vec::new();
    for _ in 0..RUNS {
        let (wall, counts) = run_session(&events);
        session_walls.push(wall);
        session_counts = counts;
        let (wall, counts) = run_independent(&events);
        independent_walls.push(wall);
        independent_counts = counts;
    }

    assert_eq!(
        session_counts, independent_counts,
        "the session and the independent engines must report identical per-query embedding counts"
    );

    let session_wall = median(session_walls);
    let independent_wall = median(independent_walls);
    let speedup = independent_wall.as_secs_f64() / session_wall.as_secs_f64().max(1e-9);

    println!(
        "multi_query_gate: {} events, {QUERIES} standing queries, batch {BATCH}, per-query embeddings {session_counts:?}",
        events.len(),
    );
    println!("  median wall, {QUERIES} independent engines : {independent_wall:>12.3?}");
    println!("  median wall, one shared session       : {session_wall:>12.3?}");
    println!(
        "  shared-ingest speedup                 : {speedup:>12.2}x  (gate: >= {MIN_SPEEDUP}x)"
    );

    println!("gate-ratio: multi_query {speedup:.2}x (floor {MIN_SPEEDUP}x)");

    if speedup < MIN_SPEEDUP {
        eprintln!(
            "GATE FAILED: shared-ingest session speedup {speedup:.2}x below the {MIN_SPEEDUP}x floor"
        );
        std::process::exit(1);
    }
    println!("multi_query_gate: all gates passed");
}
