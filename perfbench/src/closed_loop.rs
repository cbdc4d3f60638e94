//! Closed-loop replays through `MnemonicSession`: the measured (untraced)
//! replay, the reference replay, and the traced replay that drives the
//! public pipeline stages by hand and times every call.

use crate::alloc::AllocCount;
use crate::report::ms;
use crate::workloads::ClosedLoopInput;
use mnemonic_core::api::LabelEdgeMatcher;
use mnemonic_core::embedding::CountingSink;
use mnemonic_core::pipeline::{
    DeletionResolve, DeltaBatch, Enumerate, Filtering, FrontierBuild, GraphUpdate,
};
use mnemonic_core::session::{MnemonicSession, QueryHandle};
use mnemonic_core::stats::CounterSnapshot;
use mnemonic_core::variants::Isomorphism;
use mnemonic_core::MnemonicError;
use mnemonic_graph::spill::SpillStats;
use mnemonic_graph::stats::GraphStats;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How a session executes: without any pool (the reference), or on a
/// work-stealing pool of the given width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pool {
    Sequential,
    Workers(usize),
}

/// Per-query embedding counts, positive and negative, in registration order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Totals {
    pub positive: Vec<u64>,
    pub negative: Vec<u64>,
}

impl Totals {
    /// The counts seen so far by one counting sink per query.
    pub fn of(sinks: &[Arc<CountingSink>]) -> Totals {
        Totals {
            positive: sinks.iter().map(|s| s.positive()).collect(),
            negative: sinks.iter().map(|s| s.negative()).collect(),
        }
    }

    pub fn since(&self, earlier: &Totals) -> Totals {
        let sub = |a: &[u64], b: &[u64]| a.iter().zip(b).map(|(x, y)| x - y).collect();
        Totals {
            positive: sub(&self.positive, &earlier.positive),
            negative: sub(&self.negative, &earlier.negative),
        }
    }

    pub fn sum(&self) -> (u64, u64) {
        (self.positive.iter().sum(), self.negative.iter().sum())
    }
}

/// A session with one counting sink per standing query.
pub struct Measured {
    pub session: MnemonicSession,
    handles: Vec<QueryHandle>,
    sinks: Vec<Arc<CountingSink>>,
}

impl Measured {
    pub fn totals(&self) -> Totals {
        Totals::of(&self.sinks)
    }

    /// Engine counters summed over every standing query.
    pub fn counters(&self) -> CounterSnapshot {
        self.handles
            .iter()
            .map(QueryHandle::counters)
            .fold(CounterSnapshot::default(), |a, c| CounterSnapshot {
                edges_traversed_top_down: a.edges_traversed_top_down + c.edges_traversed_top_down,
                edges_traversed_bottom_up: a.edges_traversed_bottom_up
                    + c.edges_traversed_bottom_up,
                debi_writes: a.debi_writes + c.debi_writes,
                candidates_scanned: a.candidates_scanned + c.candidates_scanned,
                work_units: a.work_units + c.work_units,
                embeddings_emitted: a.embeddings_emitted + c.embeddings_emitted,
                insertions_applied: a.insertions_applied + c.insertions_applied,
                deletions_applied: a.deletions_applied + c.deletions_applied,
            })
    }

    /// Summed per-work-unit enumeration time over every standing query.
    pub fn enumeration_time(&self) -> Duration {
        self.handles.iter().map(QueryHandle::enumeration_time).sum()
    }
}

/// Attach a fresh counting sink to a standing query: results are counted,
/// never buffered, so memory stays flat however many embeddings a run finds.
pub fn count_into_sink(handle: &QueryHandle) -> Arc<CountingSink> {
    let sink = Arc::new(CountingSink::new());
    handle.attach_sink(sink.clone());
    sink
}

/// Everything before the first timed event: session build, query
/// registration, base-graph bootstrap and the untimed warm-up batches.
pub fn set_up(input: &ClosedLoopInput, pool: Pool) -> Result<(Measured, Duration), MnemonicError> {
    let start = Instant::now();
    let mut builder = match pool {
        Pool::Sequential => MnemonicSession::builder().sequential(),
        Pool::Workers(n) => MnemonicSession::builder().threads(n),
    };
    if let Some((storage, spill)) = input.storage {
        builder = builder.storage(storage).spill(spill);
    }
    let mut session = builder.build()?;
    let mut handles = Vec::new();
    let mut sinks = Vec::new();
    for query in &input.queries {
        let handle = session.register_query(
            query.clone(),
            Box::new(LabelEdgeMatcher),
            Box::new(Isomorphism),
        )?;
        sinks.push(count_into_sink(&handle));
        handles.push(handle);
    }
    if !input.base.is_empty() {
        session.bootstrap(&input.base)?;
    }
    for snapshot in &input.warmup {
        session.apply_snapshot(snapshot)?;
    }
    let measured = Measured {
        session,
        handles,
        sinks,
    };
    Ok((measured, start.elapsed()))
}

/// One untraced replay of the timed batches through `apply_snapshot`.
pub struct Replay {
    pub setup: Duration,
    /// Wall time of every timed `apply_snapshot` call, in milliseconds.
    pub batch_ms: Vec<f64>,
    pub wall: Duration,
    /// Embeddings seen by the sinks during the timed phase.
    pub totals: Totals,
    /// Embeddings reported by the batch outcomes (must equal the sinks').
    pub reported: (u64, u64),
    pub alloc: AllocCount,
    pub spill_io_errors: u64,
}

pub fn replay(input: &ClosedLoopInput, pool: Pool) -> Result<Replay, MnemonicError> {
    let (mut m, setup) = set_up(input, pool)?;
    let before = m.totals();
    let mut batch_ms = Vec::with_capacity(input.timed.len());
    let mut reported = (0u64, 0u64);
    let alloc_before = AllocCount::now();
    let start = Instant::now();
    for snapshot in &input.timed {
        let t = Instant::now();
        let outcome = m.session.apply_snapshot(snapshot)?;
        batch_ms.push(ms(t.elapsed()));
        reported.0 += outcome.total_new_embeddings();
        reported.1 += outcome.total_removed_embeddings();
    }
    let wall = start.elapsed();
    let alloc = AllocCount::now().since(alloc_before);
    Ok(Replay {
        setup,
        batch_ms,
        wall,
        totals: m.totals().since(&before),
        reported,
        alloc,
        spill_io_errors: m.session.spill_io_errors(),
    })
}

/// Summed self time of every public pipeline stage over a traced replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimes {
    pub graph_update_ins: Duration,
    pub frontier_build_ins: Duration,
    pub filtering_ins: Duration,
    pub enumerate_pos: Duration,
    pub deletion_resolve: Duration,
    pub frontier_build_del: Duration,
    pub enumerate_neg: Duration,
    pub graph_update_del: Duration,
    pub filtering_refresh: Duration,
}

impl StageTimes {
    pub fn total(&self) -> Duration {
        self.graph_update_ins
            + self.frontier_build_ins
            + self.filtering_ins
            + self.enumerate_pos
            + self.deletion_resolve
            + self.frontier_build_del
            + self.enumerate_neg
            + self.graph_update_del
            + self.filtering_refresh
    }

    pub fn enumerate(&self) -> Duration {
        self.enumerate_pos + self.enumerate_neg
    }
}

/// One traced replay: the same timed batches, staged by hand.
pub struct TracedReplay {
    pub stages: StageTimes,
    /// Summed wall time of the traced batches (batch construction included).
    pub batch_wall: Duration,
    /// Embeddings counted by the stages' per-query deltas.
    pub staged: Totals,
    /// Embeddings seen by the sinks during the timed phase.
    pub totals: Totals,
    pub counters: CounterSnapshot,
    pub enumeration_time: Duration,
    pub graph: GraphStats,
    pub spill: Option<SpillStats>,
    pub spill_io_errors: u64,
}

/// Time one stage call into `slot`.
fn span<R>(slot: &mut Duration, stage: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let out = stage();
    *slot += start.elapsed();
    out
}

/// Replay the timed batches by driving the public stages on
/// `DeltaBatch::from_snapshot`, in the order `MnemonicSession` runs them
/// (no fairness budget is configured, so no deferred work is carried).
pub fn replay_traced(input: &ClosedLoopInput, pool: Pool) -> Result<TracedReplay, MnemonicError> {
    let (mut m, _) = set_up(input, pool)?;
    let before = m.totals();
    let counters_before = m.counters();
    let enum_before = m.enumeration_time();
    let queries = input.queries.len();
    let mut staged = Totals {
        positive: vec![0; queries],
        negative: vec![0; queries],
    };
    let mut st = StageTimes::default();
    let mut batch_wall = Duration::ZERO;
    for snapshot in &input.timed {
        let start = Instant::now();
        let s = &mut m.session;
        let mut batch = DeltaBatch::from_snapshot(snapshot);
        if !batch.insertions.is_empty() {
            span(&mut st.graph_update_ins, || {
                GraphUpdate::apply_insertions(s, &mut batch)
            })?;
            span(&mut st.frontier_build_ins, || {
                FrontierBuild::for_insertions(s, &mut batch)
            });
            span(&mut st.filtering_ins, || {
                Filtering::insertions(s, &mut batch)
            });
            span(&mut st.enumerate_pos, || Enumerate::positive(s, &mut batch));
        }
        if batch.has_deletions() {
            span(&mut st.deletion_resolve, || {
                DeletionResolve::run(s, &mut batch)
            });
            span(&mut st.frontier_build_del, || {
                FrontierBuild::for_deletions(s, &mut batch)
            });
            if !batch.doomed_edges.is_empty() {
                span(&mut st.enumerate_neg, || Enumerate::negative(s, &mut batch));
                span(&mut st.graph_update_del, || {
                    GraphUpdate::apply_deletions(s, &mut batch)
                });
                span(&mut st.filtering_refresh, || {
                    Filtering::deletions(s, &mut batch)
                });
            }
        }
        batch_wall += start.elapsed();
        for (acc, n) in staged.positive.iter_mut().zip(&batch.new_embeddings) {
            *acc += n;
        }
        for (acc, n) in staged.negative.iter_mut().zip(&batch.removed_embeddings) {
            *acc += n;
        }
    }
    let counters = m.counters().since(&counters_before);
    Ok(TracedReplay {
        stages: st,
        batch_wall,
        staged,
        totals: m.totals().since(&before),
        counters,
        enumeration_time: m.enumeration_time() - enum_before,
        graph: m.session.graph_stats(),
        spill: m.session.spill_stats(),
        spill_io_errors: m.session.spill_io_errors(),
    })
}
