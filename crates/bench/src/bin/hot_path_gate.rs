//! CI hot-path gate: the allocation-free dense ingest path must beat the
//! retained pre-optimisation baseline path in **wall-clock** batched-ingest
//! throughput on this very box — the first gate in the repo that measures a
//! real single-thread wall-clock win rather than a projected makespan
//! (1-core CI boxes hide thread speedups, they do not hide hashing and
//! allocator traffic).
//!
//! Both sides run the identical stream through the identical engine; the
//! only difference is [`EngineConfig::hot_path_baseline`], which routes the
//! frontier build, batch masking and enumeration kernels through the
//! retained `HashSet`/allocating implementations
//! (see `mnemonic_core::hot_path_baseline`). Per-query embedding counts
//! must agree exactly — the differential sanity check that keeps the
//! baseline honest.
//!
//! Exit status 0 = all gates passed; 1 = a gate failed.
//!
//! ```text
//! cargo run --release -p mnemonic-bench --bin hot_path_gate
//! ```
//!
//! [`EngineConfig::hot_path_baseline`]: mnemonic_core::engine::EngineConfig

use mnemonic_bench::workloads::{scaled_netflow, WorkloadScale};
use mnemonic_core::api::LabelEdgeMatcher;
use mnemonic_core::embedding::CountingSink;
use mnemonic_core::engine::{EngineConfig, Mnemonic};
use mnemonic_core::variants::Isomorphism;
use mnemonic_query::patterns;
use std::time::{Duration, Instant};

/// Delta-batch size shared by both sides (the sweet spot of the
/// `engine_batch_size` baseline in ROADMAP.md).
const BATCH: usize = 512;
/// Gate: the dense path must be at least this much faster than the retained
/// baseline path in batched-ingest wall-clock. Raised from 1.2x after the
/// word-parallel kernel pass (fused candidacy profiles, batched DEBI row
/// recompute, pooled embedding shells, hoisted enumeration invariants):
/// measured 1.42-1.50x on the CI box, floored at 1.4x to absorb load drift.
const MIN_SPEEDUP: f64 = 1.4;
/// Interleaved dense/baseline pairs; the gate takes the median of the
/// per-pair ratios. Raised from 7 runs per side (whose medians were
/// compared) together with the stream size: at 7 runs of a ≈ 20 ms replay
/// the measured ratio sat within jitter of the floor.
const RUNS: usize = 11;
/// NetFlow-like stream length. Four times the `tiny` scale, so one replay
/// takes ≈ 0.1 s per side instead of ≈ 20 ms and a scheduler hiccup moves
/// one sample by a few per cent instead of tens.
const EVENTS: usize = 24_000;
/// Fixed stream seed, so every CI run replays the identical input.
const SEED: u64 = 0x5EED_0007;

fn config(baseline: bool) -> EngineConfig {
    EngineConfig {
        num_threads: 1,
        parallel: false,
        hot_path_baseline: baseline,
        ..EngineConfig::with_batch_size(BATCH)
    }
}

fn median(mut xs: Vec<Duration>) -> Duration {
    xs.sort();
    xs[xs.len() / 2]
}

/// One full batched ingest of the stream. Returns (wall, embeddings).
fn run_ingest(events: &[mnemonic_stream::event::StreamEvent], baseline: bool) -> (Duration, u64) {
    let mut engine = Mnemonic::new(
        patterns::triangle(),
        Box::new(LabelEdgeMatcher),
        Box::new(Isomorphism),
        config(baseline),
    );
    let sink = CountingSink::new();
    let t = Instant::now();
    engine.run_events(events.iter().copied(), &sink);
    (t.elapsed(), sink.positive())
}

fn main() {
    let events = scaled_netflow(&WorkloadScale {
        netflow_events: EVENTS,
        seed: SEED,
        ..WorkloadScale::tiny()
    });

    // Each pair runs both sides back to back, alternating which goes first,
    // and the gate compares the median of the per-pair ratios: a host slow
    // phase that spans one pair scales both of its walls and cancels out.
    let mut dense_walls = Vec::with_capacity(RUNS);
    let mut baseline_walls = Vec::with_capacity(RUNS);
    let mut ratios = Vec::with_capacity(RUNS);
    let mut dense_found = 0;
    for pair in 0..RUNS {
        let ((dense, found), (baseline, baseline_found)) = if pair % 2 == 0 {
            let dense = run_ingest(&events, false);
            (dense, run_ingest(&events, true))
        } else {
            let baseline = run_ingest(&events, true);
            (run_ingest(&events, false), baseline)
        };
        assert_eq!(
            found, baseline_found,
            "dense and baseline paths must report identical embedding counts"
        );
        dense_found = found;
        dense_walls.push(dense);
        baseline_walls.push(baseline);
        ratios.push(baseline.as_secs_f64() / dense.as_secs_f64().max(1e-9));
    }

    let dense_wall = median(dense_walls);
    let baseline_wall = median(baseline_walls);
    ratios.sort_by(f64::total_cmp);
    let speedup = ratios[RUNS / 2];

    println!(
        "hot_path_gate: {} events, triangle query, batch {BATCH}, {dense_found} embeddings",
        events.len(),
    );
    println!("  median wall, retained baseline path  : {baseline_wall:>12.3?}");
    println!("  median wall, dense hot path          : {dense_wall:>12.3?}");
    println!(
        "  hot-path speedup (median pair ratio) : {speedup:>12.2}x  (gate: >= {MIN_SPEEDUP}x)"
    );
    println!("gate-ratio: hot_path {speedup:.2}x (floor {MIN_SPEEDUP}x)");

    if speedup < MIN_SPEEDUP {
        eprintln!(
            "GATE FAILED: dense hot path only {speedup:.2}x faster than the retained baseline (need {MIN_SPEEDUP}x)"
        );
        std::process::exit(1);
    }
    println!("hot_path_gate: all gates passed");
}
