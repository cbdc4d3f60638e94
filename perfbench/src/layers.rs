//! The traced run: per-layer figures from replays that time every call
//! into the public pipeline stages from this package.

use crate::alloc::AllocCount;
use crate::closed_loop::{self, Pool, Replay, TracedReplay};
use crate::report::{ms, Metrics};
use crate::serve;
use crate::workloads::{ClosedLoopInput, WORKERS};
use crate::Outcome;
use mnemonic_core::MnemonicError;
use std::time::Duration;

/// The stage self times of a traced replay must sum to at least this share
/// of its batch wall time.
const CLOSURE_TOLERANCE: f64 = 0.97;

/// Per-layer figures of one traced session configuration.
pub struct Layers {
    pub(crate) untraced: Replay,
    pub(crate) traced: TracedReplay,
    pub(crate) batches: f64,
    pub(crate) closure: f64,
    pub(crate) speedup_2w: f64,
    /// Allocations of the untraced run and the batches they cover.
    pub(crate) alloc: (AllocCount, f64),
}

/// The traced run: one untraced replay (allocation counts, overhead
/// denominator), one traced replay on the measured pool and one traced
/// replay on a single worker (the measured 2-worker speed-up). All three
/// must agree on every embedding count.
pub fn trace_layers(
    input: &ClosedLoopInput,
    outcome: &mut Outcome,
) -> Result<Layers, MnemonicError> {
    let untraced = closed_loop::replay(input, Pool::Workers(WORKERS))?;
    let traced = closed_loop::replay_traced(input, Pool::Workers(WORKERS))?;
    let single = closed_loop::replay_traced(input, Pool::Workers(1))?;
    outcome.check(traced.staged == untraced.totals, || {
        format!(
            "traced stage deltas {:?} differ from the untraced replay {:?}",
            traced.staged.sum(),
            untraced.totals.sum()
        )
    });
    outcome.check(traced.totals == untraced.totals, || {
        format!(
            "traced sinks {:?} differ from the untraced replay {:?}",
            traced.totals.sum(),
            untraced.totals.sum()
        )
    });
    outcome.check(single.totals == untraced.totals, || {
        format!(
            "1-worker traced replay {:?} differs from the 2-worker replay {:?}",
            single.totals.sum(),
            untraced.totals.sum()
        )
    });
    outcome.failed += untraced.spill_io_errors + traced.spill_io_errors + single.spill_io_errors;
    outcome.attempted = 3 * input.timed.len() as u64;
    let (pos, neg) = untraced.totals.sum();
    outcome.counters = vec![
        ("timed_batches", input.timed.len() as u64),
        ("embeddings_positive", pos),
        ("embeddings_negative", neg),
    ];
    let closure = traced.stages.total().as_secs_f64() / traced.batch_wall.as_secs_f64().max(1e-9);
    if closure < CLOSURE_TOLERANCE {
        outcome.warnings.push(format!(
            "stage self times cover only {:.1} % of the traced batch wall",
            closure * 100.0
        ));
    }
    let speedup_2w =
        single.stages.enumerate().as_secs_f64() / traced.stages.enumerate().as_secs_f64().max(1e-9);
    let batches = input.timed.len().max(1) as f64;
    Ok(Layers {
        batches,
        closure,
        alloc: (untraced.alloc, batches),
        untraced,
        traced,
        speedup_2w,
    })
}

impl Layers {
    pub fn put(&self, metrics: &mut Metrics) {
        let per_batch = |d: Duration| ms(d) / self.batches;
        let st = &self.traced.stages;
        metrics.put(
            "pipeline.graph_update.ins_ms",
            per_batch(st.graph_update_ins),
            "ms",
        );
        metrics.put(
            "pipeline.frontier_build.ins_ms",
            per_batch(st.frontier_build_ins),
            "ms",
        );
        metrics.put(
            "pipeline.filtering.ins_ms",
            per_batch(st.filtering_ins),
            "ms",
        );
        metrics.put(
            "pipeline.enumerate.pos_ms",
            per_batch(st.enumerate_pos),
            "ms",
        );
        metrics.put(
            "pipeline.deletion_resolve_ms",
            per_batch(st.deletion_resolve),
            "ms",
        );
        metrics.put(
            "pipeline.frontier_build.del_ms",
            per_batch(st.frontier_build_del),
            "ms",
        );
        metrics.put(
            "pipeline.enumerate.neg_ms",
            per_batch(st.enumerate_neg),
            "ms",
        );
        metrics.put(
            "pipeline.graph_update.del_ms",
            per_batch(st.graph_update_del),
            "ms",
        );
        metrics.put(
            "pipeline.filtering.refresh_ms",
            per_batch(st.filtering_refresh),
            "ms",
        );

        let c = &self.traced.counters;
        let embeddings = c.embeddings_emitted as f64;
        metrics.put(
            "enumerate.candidates_scanned",
            c.candidates_scanned as f64 / self.batches,
            "count",
        );
        metrics.put(
            "enumerate.work_units",
            c.work_units as f64 / self.batches,
            "count",
        );
        metrics.put(
            "enumerate.yield",
            1e3 * embeddings / (c.candidates_scanned as f64).max(1.0),
            "count",
        );
        metrics.put(
            "filter.edges_traversed",
            c.total_traversals() as f64 / self.batches,
            "count",
        );
        metrics.put("debi.writes", c.debi_writes as f64 / self.batches, "count");

        let enumerate_wall = st.enumerate().as_secs_f64();
        metrics.put(
            "pool.busy_ratio",
            self.traced.enumeration_time.as_secs_f64()
                / (enumerate_wall * WORKERS as f64).max(1e-9),
            "ratio",
        );
        metrics.put("pool.speedup_2w", self.speedup_2w, "ratio");

        let spill = self.traced.spill.unwrap_or_default();
        let paged = spill.paged.unwrap_or_default();
        metrics.put("spill.edges_on_disk", spill.edges_on_disk as f64, "count");
        metrics.put(
            "spill.compressed_bytes",
            paged.compressed_bytes as f64,
            "bytes",
        );
        metrics.put(
            "spill.compression_ratio",
            paged.compression_ratio(),
            "ratio",
        );
        metrics.put(
            "storage.cache_evictions",
            paged.cache.evictions as f64,
            "count",
        );
        metrics.put(
            "storage.write_backs",
            paged.cache.write_backs as f64,
            "count",
        );
        metrics.put(
            "spill.io_errors",
            self.traced.spill_io_errors as f64,
            "count",
        );
        metrics.put("spill.io_retries", paged.io_retries as f64, "count");

        let g = &self.traced.graph;
        metrics.put("graph.recycle_ratio", g.recycle_ratio(), "ratio");
        metrics.put("graph.placeholders", g.edge_placeholders as f64, "count");

        let (alloc, alloc_batches) = self.alloc;
        metrics.put(
            "alloc.per_batch",
            alloc.allocations as f64 / alloc_batches,
            "count",
        );
        metrics.put(
            "alloc.bytes_per_batch",
            alloc.bytes as f64 / alloc_batches,
            "bytes",
        );

        metrics.put("trace.closure", self.closure, "ratio");
        let untraced_wall: f64 = self.untraced.batch_ms.iter().sum::<f64>() / 1e3;
        metrics.put(
            "trace.overhead",
            self.traced.batch_wall.as_secs_f64() / untraced_wall.max(1e-9),
            "ratio",
        );
    }
}

/// The ingest/shard layer metrics on workloads that do not pass through the
/// ingest ring: the layer does no work there.
pub fn put_ingest_absent(metrics: &mut Metrics) {
    for (name, unit) in serve::INGEST_METRICS {
        metrics.put(name, 0.0, unit);
    }
}
