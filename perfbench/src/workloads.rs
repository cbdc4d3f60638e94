//! Seeded input generation for the three workloads. The program under test
//! only ever sees the generated events and query graphs; the seed stays on
//! the benchmark's side.

use mnemonic_datagen::{
    lanl_like, lsbench_like, netflow_like, LanlConfig, LsbenchConfig, NetflowConfig, QueryClass,
    QueryWorkloadGenerator, SECONDS_PER_DAY,
};
use mnemonic_graph::ids::WILDCARD_VERTEX_LABEL;
use mnemonic_graph::spill::SpillConfig;
use mnemonic_graph::storage::StorageConfig;
use mnemonic_query::patterns;
use mnemonic_query::query_graph::QueryGraph;
use mnemonic_stream::config::StreamConfig;
use mnemonic_stream::event::StreamEvent;
use mnemonic_stream::generator::SnapshotGenerator;
use mnemonic_stream::snapshot::Snapshot;
use mnemonic_stream::source::VecSource;

/// `Full` is what the benchmark measures; `Micro` is a seconds-scale
/// variant for the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Micro,
}

/// Worker threads of every measured session: the hosts this benchmark
/// targets have two logical CPUs.
pub const WORKERS: usize = 2;

/// Seed of the reference stream `window-churn` extracts its queries from.
const QUERY_SOURCE_SEED: u64 = 1234;

/// Inputs of a closed-loop workload: a base graph loaded without reporting
/// embeddings, untimed warm-up batches, then the timed batches.
pub struct ClosedLoopInput {
    pub queries: Vec<QueryGraph>,
    pub base: Vec<StreamEvent>,
    pub warmup: Vec<Snapshot>,
    pub timed: Vec<Snapshot>,
    /// Paged spill tier, when the workload uses one.
    pub storage: Option<(StorageConfig, SpillConfig)>,
    /// Nominal length of one replay's timed phase on a 2-vCPU VM: a
    /// run makes `ceil(--seconds / replay_seconds)` replays (at least
    /// three), so every run of a workload collects the same number of
    /// batch samples.
    pub replay_seconds: f64,
}

impl ClosedLoopInput {
    pub fn timed_events(&self) -> usize {
        self.timed.iter().map(Snapshot::event_count).sum()
    }

    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::default();
        h.events(&self.base);
        for s in self.warmup.iter().chain(&self.timed) {
            h.events(&s.insertions);
            h.events(&s.deletions);
            h.word(s.evict_before.map_or(u64::MAX, |t| t.0));
        }
        h.queries(&self.queries);
        h.0
    }
}

/// `enum-heavy`: a NetFlow-like insert-only heavy-tailed multigraph, a
/// bootstrapped base graph, then large batches; four wildcard-heavy standing
/// queries, so enumeration dominates.
pub fn enum_heavy(seed: u64, scale: Scale) -> ClosedLoopInput {
    let (vertices, base, warmup, timed, batch) = match scale {
        Scale::Full => (40_000, 100_000, 10_000, 60_000, 1_000),
        Scale::Micro => (2_000, 4_000, 400, 2_000, 200),
    };
    let events = netflow_like(NetflowConfig {
        vertices,
        events: base + warmup + timed,
        edge_labels: 8,
        seed,
    });
    let (base_events, rest) = events.split_at(base);
    let (warm, timed_events) = rest.split_at(warmup);
    let w = WILDCARD_VERTEX_LABEL.0;
    ClosedLoopInput {
        queries: vec![
            patterns::triangle(),
            patterns::rectangle(),
            patterns::dual_triangle(),
            patterns::labelled_path(&[w, w, w, w], &[0, 1, 2]),
        ],
        base: base_events.to_vec(),
        warmup: batches(warm, batch, 0),
        timed: batches(timed_events, batch, (warmup / batch) as u64),
        storage: None,
        replay_seconds: 2.5,
    }
}

/// `window-churn`: a LANL-like diurnal stream under a half-day sliding
/// window with a 10-minute stride, spilling through the paged tier with a
/// page cache far below the spilled history; extracted T_6/G_6 queries.
/// The first window's worth of snapshots is the untimed warm-up.
pub fn window_churn(seed: u64, scale: Scale) -> ClosedLoopInput {
    let (vertices, events, days) = match scale {
        Scale::Full => (3_000, 200_000, 3),
        Scale::Micro => (400, 6_000, 2),
    };
    let config = LanlConfig {
        vertices,
        events,
        days,
        ..LanlConfig::default()
    };
    let events = lanl_like(LanlConfig { seed, ..config });
    // The queries are extracted (TurboFlux methodology) from the first day
    // of a fixed reference stream with the same statistics, not from the
    // seeded one: a query extracted per seed can differ in cost by several
    // times, which would make the seed, not the program, set the figures.
    let reference = lanl_like(LanlConfig {
        seed: QUERY_SOURCE_SEED,
        ..config
    });
    let first_day: Vec<StreamEvent> = reference
        .into_iter()
        .filter(|e| e.timestamp.0 < SECONDS_PER_DAY)
        .collect();
    let mut extractor = QueryWorkloadGenerator::from_events(&first_day, QUERY_SOURCE_SEED);
    let mut queries = extractor.workload(QueryClass::Tree(6), 2, false);
    queries.extend(extractor.workload(QueryClass::Graph(6), 2, false));

    let window = SECONDS_PER_DAY / 2;
    let mut generator = SnapshotGenerator::new(
        VecSource::new(events),
        StreamConfig::sliding_window(window, 600),
    );
    // Warm up past the point where the window is full and evicting.
    let warmup_end = 18 * 3600;
    let mut warmup = Vec::new();
    let mut timed = Vec::new();
    while let Some(snapshot) = generator.next_snapshot() {
        if snapshot.watermark.0 < warmup_end {
            warmup.push(snapshot);
        } else {
            timed.push(snapshot);
        }
    }
    ClosedLoopInput {
        queries,
        base: Vec::new(),
        warmup,
        timed,
        storage: Some((
            StorageConfig::paged().page_size(4096).cache_pages(8),
            SpillConfig {
                in_memory_window: 4_096,
                buffer_capacity: 256,
            },
        )),
        replay_seconds: 3.0,
    }
}

/// Inputs of the open-loop `serve` workload.
pub struct ServeInput {
    pub queries: Vec<QueryGraph>,
    pub base: Vec<StreamEvent>,
    pub warmup: Vec<StreamEvent>,
    pub timed: Vec<StreamEvent>,
    pub batch: usize,
    /// Offered load of the producer, in events per second.
    pub rate: f64,
    /// Length of one replay's timed phase (`timed.len() / rate`); a run
    /// repeats replays, each with a fresh session, until `--seconds` are
    /// covered.
    pub replay_seconds: f64,
}

impl ServeInput {
    /// The same stream cut into the batches the serve front-end forms, for
    /// replays through a single `MnemonicSession`.
    pub fn as_closed_loop(&self) -> ClosedLoopInput {
        ClosedLoopInput {
            queries: self.queries.clone(),
            base: self.base.clone(),
            warmup: batches(&self.warmup, self.batch, 0),
            timed: batches(
                &self.timed,
                self.batch,
                (self.warmup.len() / self.batch) as u64,
            ),
            storage: None,
            replay_seconds: self.replay_seconds,
        }
    }

    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::default();
        h.events(&self.base);
        h.events(&self.warmup);
        h.events(&self.timed);
        h.queries(&self.queries);
        h.0
    }
}

/// `serve`: an LSBench-like stream (insertion phase bootstrapped, then an
/// update phase with explicit deletions) pushed by one open-loop producer at
/// a fixed rate into a bounded ring served by a 2-shard session.
pub fn serve(seed: u64, scale: Scale) -> ServeInput {
    let (vertices, base, rate, batch, replay_seconds) = match scale {
        Scale::Full => (60_000, 300_000, 10_000.0, 2_048, 2.5),
        Scale::Micro => (1_000, 4_000, 4_000.0, 64, 0.5),
    };
    let warmup = 4 * batch;
    // Whole batches only, so every sample is a full batch.
    let timed = (rate * replay_seconds / batch as f64).round() as usize * batch;
    let events = lsbench_like(LsbenchConfig {
        vertices,
        insertions: base,
        updates: warmup + timed,
        deletion_fraction: 0.1,
        edge_labels: 8,
        seed,
    });
    let (base_events, rest) = events.split_at(base);
    let (warm, timed_events) = rest.split_at(warmup);
    let w = WILDCARD_VERTEX_LABEL.0;
    ServeInput {
        queries: vec![
            patterns::triangle(),
            patterns::labelled_path(&[w, w, w], &[0, 1]),
            patterns::labelled_path(&[w, w, w], &[1, 2]),
            patterns::rectangle(),
        ],
        base: base_events.to_vec(),
        warmup: warm.to_vec(),
        timed: timed_events.to_vec(),
        batch,
        rate,
        replay_seconds,
    }
}

fn batches(events: &[StreamEvent], batch: usize, first_id: u64) -> Vec<Snapshot> {
    events
        .chunks(batch)
        .zip(first_id..)
        .map(|(chunk, id)| Snapshot::from_events(id, chunk.iter().copied()))
        .collect()
}

/// FNV-1a over the generated inputs: two seeds must give two fingerprints.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn events(&mut self, events: &[StreamEvent]) {
        for e in events {
            self.word(u64::from(e.src.0) << 32 | u64::from(e.dst.0));
            self.word(u64::from(e.label.0) << 32 | u64::from(e.is_insert()));
            self.word(e.timestamp.0);
        }
    }

    fn queries(&mut self, queries: &[QueryGraph]) {
        for q in queries {
            for b in format!("{:?}", q.edges()).bytes() {
                self.word(u64::from(b));
            }
        }
    }
}
