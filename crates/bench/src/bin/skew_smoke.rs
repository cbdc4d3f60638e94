//! CI skew-balancing smoke check: on a skewed enumeration workload (all
//! triangles share one edge), the work-stealing pool must (a) not regress
//! wall-clock against the legacy static-chunking policy and (b) balance the
//! load markedly better.
//!
//! Wall-clock speedup from threads cannot be observed on a single-core CI
//! box (and the observed thread split under timesharing is arbitrary), so
//! the balance gate uses *projected* makespans computed from each unit's
//! measured solo execution time: exact chunk sums for the static split,
//! greedy list scheduling over the pool's real task granularity for work
//! stealing — what the wall-clock times converge to on `width` free cores.
//!
//! Exit status 0 = all gates passed; 1 = a gate failed.
//!
//! ```text
//! cargo run --release -p mnemonic-bench --bin skew_smoke
//! ```

use mnemonic_bench::skew::{
    projected_makespan_chunked, projected_makespan_stealing, Policy, SkewConfig, SkewFixture,
};
use std::time::Duration;

/// Gate: stealing must balance at least this much better than chunking
/// (matches the bench-baseline target recorded in ROADMAP.md).
const MIN_MAKESPAN_SPEEDUP: f64 = 1.3;
/// Gate: stealing wall-clock must not regress past this factor of chunking.
/// The sections measured are sub-millisecond, so this margin is deliberately
/// wide: it catches a systemic regression (e.g. the pool serialising the
/// batch) without tripping on scheduler noise on a loaded CI box. The tight,
/// deterministic gate is the projected-makespan one above.
const MAX_WALL_REGRESSION: f64 = 1.5;
/// Fan size of the skewed fixture. Raised from the default 192 spokes
/// (≈ 1.7k work units, ≈ 0.5 ms of solo load, where a unit costs a few
/// hundred nanoseconds and the per-unit timer overhead blurred the skew):
/// the projected ratio read 1.28–1.36 there, on its floor.
const SPOKES: u32 = 3072;
/// Solo measurements per unit; the per-unit median is the weight.
const WEIGHT_SAMPLES: usize = 7;
/// Measured wall-clock runs per policy, interleaved chunked/stealing.
const WALL_RUNS: usize = 5;

fn median(mut xs: Vec<Duration>) -> Duration {
    xs.sort();
    xs[xs.len() / 2]
}

fn main() {
    let threads = 4;
    let fixture = SkewFixture::build(SkewConfig { spokes: SPOKES });
    let units = fixture.work_units();
    // Per-unit weights: median of the solo measurements per unit.
    let samples: Vec<Vec<Duration>> = (0..WEIGHT_SAMPLES)
        .map(|_| fixture.unit_weights(&units))
        .collect();
    let weights: Vec<Duration> = (0..units.len())
        .map(|i| median(samples.iter().map(|s| s[i]).collect()))
        .collect();

    // Measured wall clocks, median per policy; the policies alternate so
    // host-load drift hits both equally.
    let mut chunked_walls = Vec::with_capacity(WALL_RUNS);
    let mut stealing_walls = Vec::with_capacity(WALL_RUNS);
    let mut chunked_found = 0;
    let mut stealing_found = 0;
    for _ in 0..WALL_RUNS {
        let run = fixture.enumerate_parallel(&units, &weights, threads, Policy::StaticChunking);
        chunked_walls.push(run.wall);
        chunked_found = run.embeddings;
        let run = fixture.enumerate_parallel(&units, &weights, threads, Policy::WorkStealing);
        stealing_walls.push(run.wall);
        stealing_found = run.embeddings;
    }
    let chunked_wall = median(chunked_walls);
    let stealing_wall = median(stealing_walls);
    assert_eq!(
        chunked_found, stealing_found,
        "policies must find the same embeddings"
    );

    let total: Duration = weights.iter().sum();
    let chunked_makespan = projected_makespan_chunked(&weights, threads);
    let stealing_makespan = projected_makespan_stealing(&weights, threads);
    let makespan_speedup =
        chunked_makespan.as_secs_f64() / stealing_makespan.as_secs_f64().max(1e-9);
    let wall_ratio = stealing_wall.as_secs_f64() / chunked_wall.as_secs_f64().max(1e-9);

    println!(
        "skew_smoke: {} work units, {} embeddings, total solo load {total:.3?}",
        units.len(),
        stealing_found
    );
    println!("  measured wall, chunked  ({threads}t)          : {chunked_wall:>12.3?}");
    println!("  measured wall, stealing ({threads}t)          : {stealing_wall:>12.3?}");
    println!("  projected makespan, chunked  ({threads} cores): {chunked_makespan:>12.3?}");
    println!("  projected makespan, stealing ({threads} cores): {stealing_makespan:>12.3?}");
    println!(
        "  makespan speedup (chunked/stealing)   : {makespan_speedup:.2}x (gate >= {MIN_MAKESPAN_SPEEDUP}x)"
    );
    println!(
        "  wall ratio (stealing/chunked)         : {wall_ratio:.2} (gate <= {MAX_WALL_REGRESSION})"
    );

    println!(
        "gate-ratio: skew {makespan_speedup:.2}x (floor {MIN_MAKESPAN_SPEEDUP}x), wall {wall_ratio:.2} (ceiling {MAX_WALL_REGRESSION})"
    );

    let mut failed = false;
    if makespan_speedup < MIN_MAKESPAN_SPEEDUP {
        eprintln!(
            "FAIL: work stealing balanced the skewed workload only {makespan_speedup:.2}x better than chunking (need {MIN_MAKESPAN_SPEEDUP}x)"
        );
        failed = true;
    }
    if wall_ratio > MAX_WALL_REGRESSION {
        eprintln!(
            "FAIL: work stealing wall-clock regressed {wall_ratio:.2}x vs the chunking shim (allowed {MAX_WALL_REGRESSION})"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("skew_smoke: OK");
}
