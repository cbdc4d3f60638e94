//! The staged update pipeline: the paper's fixed batch-processing sequence —
//! graph update, frontier construction, incremental filtering, deletion
//! resolution, enumeration — as explicit, individually testable stages.
//!
//! A [`DeltaBatch`] is the value that flows through the stages. It starts as
//! a plain restatement of one [`Snapshot`]
//! (the raw insertion/deletion events plus the eviction cutoff) and each
//! stage fills in its own outputs: the materialised
//! [`inserted`](DeltaBatch::inserted) edges, the shared
//! [`UnifiedFrontier`]s, the resolved
//! deletion set, the per-query embedding deltas, and a [`PhaseTimings`]
//! breakdown in which every stage records its own slice.
//!
//! The stages mirror Algorithm 2 of the paper:
//!
//! ```text
//!             ┌──────────────────── batchInserts ────────────────────┐
//!  Snapshot → │ GraphUpdate → FrontierBuild → Filtering → Enumerate │
//!             └──────────────────────────────────────────────────────┘
//!             ┌──────────────────── batchDeletes ────────────────────┐
//!           → │ DeletionResolve → FrontierBuild → Enumerate(−)       │
//!             │   → GraphUpdate(delete) → Filtering(refresh)         │ → SessionBatchResult
//!             └──────────────────────────────────────────────────────┘
//! ```
//!
//! [`MnemonicSession::apply_snapshot`](crate::session::MnemonicSession::apply_snapshot)
//! is nothing but this orchestration; driving the stages by hand against a
//! session produces bit-identical results (the `tests/sharding.rs` pipeline
//! test does exactly that). Keeping the stages explicit is what lets the
//! query-sharded executor ([`crate::shard::ShardedSession`]) and future
//! async-ingest frontends reuse the pipeline without going through the
//! session's buffering layer.

mod stages;

#[cfg(test)]
mod filtering_differential;

pub use stages::{DeletionResolve, Enumerate, Filtering, FrontierBuild, GraphUpdate};

use crate::enumerate::WorkUnit;
use crate::frontier::{FrontierScratch, UnifiedFrontier};
use crate::stats::PhaseTimings;
use mnemonic_graph::bitset::DenseBitSet;
use mnemonic_graph::edge::Edge;
use mnemonic_graph::ids::{EdgeId, Timestamp};
use mnemonic_stream::event::StreamEvent;
use mnemonic_stream::snapshot::Snapshot;
use parking_lot::Mutex;

/// One delta batch flowing through the staged update pipeline.
///
/// Construction ([`DeltaBatch::from_snapshot`]) captures the raw events;
/// every other field is an intermediate product owned by the stage that
/// produces it (named in each field's documentation). Timings accumulate in
/// [`DeltaBatch::timings`], each stage adding to its own phase slice.
#[derive(Debug, Default)]
pub struct DeltaBatch {
    /// Snapshot sequence number, echoed into the batch outcome.
    pub snapshot_id: u64,
    /// The batch's raw insertion events (input).
    pub insertions: Vec<StreamEvent>,
    /// The batch's raw deletion events (input).
    pub deletions: Vec<StreamEvent>,
    /// Sliding-window eviction cutoff: edges older than this are deleted
    /// (input).
    pub evict_before: Option<Timestamp>,
    /// Edges materialised in the graph by [`GraphUpdate::apply_insertions`].
    pub inserted: Vec<Edge>,
    /// The insertion pipeline's shared traversal frontier, built by
    /// [`FrontierBuild::for_insertions`].
    pub insert_frontier: Option<UnifiedFrontier>,
    /// Edge ids chosen for deletion by [`DeletionResolve::run`] (explicit
    /// deletion events plus the eviction cutoff), in resolution order.
    pub doomed_ids: Vec<EdgeId>,
    /// The doomed edges, still alive, looked up by [`DeletionResolve::run`]
    /// against the pre-deletion graph.
    pub doomed_edges: Vec<Edge>,
    /// The deletion pipeline's traversal frontier (built *before* the graph
    /// is mutated, so the disappearing neighbourhood is captured), by
    /// [`FrontierBuild::for_deletions`].
    pub delete_frontier: Option<UnifiedFrontier>,
    /// Deletions actually applied to the graph by
    /// [`GraphUpdate::apply_deletions`].
    pub deletions_applied: usize,
    /// Newly formed embeddings per standing query (registration order),
    /// filled by [`Enumerate::positive`]. Empty when the batch had no
    /// insertions.
    pub new_embeddings: Vec<u64>,
    /// Removed embeddings per standing query (registration order), filled by
    /// [`Enumerate::negative`]. Empty when the batch had no deletions.
    pub removed_embeddings: Vec<u64>,
    /// Wall-clock phase breakdown; every stage records its own slice.
    pub timings: PhaseTimings,
}

impl DeltaBatch {
    /// Start a batch from a snapshot's events. Nothing is applied yet; the
    /// stages do all the work.
    pub fn from_snapshot(snapshot: &Snapshot) -> Self {
        DeltaBatch {
            snapshot_id: snapshot.id,
            insertions: snapshot.insertions.clone(),
            deletions: snapshot.deletions.clone(),
            evict_before: snapshot.evict_before,
            ..DeltaBatch::default()
        }
    }

    /// Whether the deletion half of the pipeline has anything to do.
    pub fn has_deletions(&self) -> bool {
        !self.deletions.is_empty() || self.evict_before.is_some()
    }

    /// Fill a (possibly recycled) batch from a snapshot's events: the same
    /// construction as [`DeltaBatch::from_snapshot`] but appending into
    /// retained capacity.
    pub(crate) fn fill_from_snapshot(&mut self, snapshot: &Snapshot) {
        self.snapshot_id = snapshot.id;
        self.insertions.extend_from_slice(&snapshot.insertions);
        self.deletions.extend_from_slice(&snapshot.deletions);
        self.evict_before = snapshot.evict_before;
    }

    /// Clear every field while retaining buffer capacity, readying the batch
    /// for recycling. The frontiers must already have been taken by the
    /// caller (they recycle into the [`FrontierScratch`]).
    pub(crate) fn reset(&mut self) {
        debug_assert!(self.insert_frontier.is_none() && self.delete_frontier.is_none());
        self.snapshot_id = 0;
        self.insertions.clear();
        self.deletions.clear();
        self.evict_before = None;
        self.inserted.clear();
        self.doomed_ids.clear();
        self.doomed_edges.clear();
        self.deletions_applied = 0;
        self.new_embeddings.clear();
        self.removed_embeddings.clear();
        self.timings = PhaseTimings::default();
    }
}

/// Per-session reusable buffers for the batch hot path: frontier
/// construction state, the pooled work-unit vectors of the enumeration
/// stage, recycled [`DeltaBatch`] shells and the deletion-resolution dedup
/// set. Allocated once per session (lazily, on the first batch) and
/// recycled across batches, so the steady-state ingest path performs no
/// per-batch heap allocation in these components — the invariant the
/// `alloc_budget` tier-1 test pins down.
///
/// Interior mutability (cheap uncontended [`Mutex`]es, locked once per
/// stage, never across a parallel section) keeps the public stage
/// signatures on `&MnemonicSession` unchanged.
#[derive(Debug, Default)]
pub(crate) struct BatchScratch {
    /// Frontier dedup bitsets + recycled frontier shells.
    pub(crate) frontier: Mutex<FrontierScratch>,
    /// Work-unit buffers of the pooled enumeration stage.
    pub(crate) units: Mutex<UnitScratch>,
    /// Dedup set of [`DeletionResolve`].
    pub(crate) resolve_seen: Mutex<DenseBitSet>,
    /// Batch-insertion id set reused by the deferred-epoch carryover: built
    /// once per batch, then merged into every parked epoch's exclusion set
    /// word-at-a-time (`union_with`).
    pub(crate) carryover_ids: Mutex<DenseBitSet>,
    /// Recycled batch shells with retained capacity.
    spare_batches: Mutex<Vec<DeltaBatch>>,
}

/// The enumeration stage's reusable vectors.
#[derive(Debug, Default)]
pub(crate) struct UnitScratch {
    /// All queries' work units, tagged with the owning query's index.
    pub(crate) pooled: Vec<(usize, WorkUnit)>,
    /// Per-query decomposition buffer.
    pub(crate) per_query: Vec<WorkUnit>,
}

impl BatchScratch {
    /// Take a recycled batch shell (or a fresh one on the cold path).
    pub(crate) fn take_batch(&self) -> DeltaBatch {
        self.spare_batches.lock().pop().unwrap_or_default()
    }

    /// Return a sealed batch's buffers to the pool: its frontiers go back to
    /// the [`FrontierScratch`], the shell to the spare list.
    pub(crate) fn recycle_batch(&self, mut batch: DeltaBatch) {
        {
            let mut frontier = self.frontier.lock();
            if let Some(f) = batch.insert_frontier.take() {
                frontier.recycle(f);
            }
            if let Some(f) = batch.delete_frontier.take() {
                frontier.recycle(f);
            }
        }
        batch.reset();
        self.spare_batches.lock().push(batch);
    }
}
