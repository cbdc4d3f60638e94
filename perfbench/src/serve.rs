//! The open-loop `serve` workload: one producer thread pushes the timed
//! events at their due times into a bounded ring (`BackpressurePolicy::Block`)
//! that `ShardedSession::serve` drains into two shard lanes.

use crate::alloc::AllocCount;
use crate::closed_loop::{count_into_sink, Totals};
use crate::layers::Layers;
use crate::report::{median, ms, percentile, Metrics};
use crate::workloads::{ServeInput, WORKERS};
use crate::{latency_metrics, replays, Args, Outcome, Workload};
use mnemonic_core::api::LabelEdgeMatcher;
use mnemonic_core::embedding::CountingSink;
use mnemonic_core::ingest::{BackpressurePolicy, IngestProducer, IngestQueue, PipelinedRun};
use mnemonic_core::shard::ShardedSession;
use mnemonic_core::variants::Isomorphism;
use mnemonic_core::MnemonicError;
use mnemonic_stream::event::StreamEvent;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SHARDS: usize = 2;
const RING_CAPACITY: usize = 4096;
/// Head start between scheduling the first event and its due time, so the
/// serve loop is parked on the ring before the first push.
const LEAD: Duration = Duration::from_millis(20);
/// The producer's shortest sleep.
const TICK: Duration = Duration::from_millis(1);
/// A replay whose last batch completes later than this after its last
/// event was due did not keep its backlog bounded.
const BACKLOG_LIMIT: Duration = Duration::from_secs(1);

/// The ingest and shard layer metrics (name, unit).
pub const INGEST_METRICS: [(&str, &str); 8] = [
    ("ingest.gen_late_ms", "ms"),
    ("ingest.push_blocked_ms", "ms"),
    ("ingest.queue_wait_p50_ms", "ms"),
    ("ingest.log_wait_p50_ms", "ms"),
    ("shard.lane_busy_ms", "ms"),
    ("shard.lane_skew", "ratio"),
    ("ingest.shed", "count"),
    ("ingest.rejected", "count"),
];

struct Sharded {
    session: ShardedSession,
    sinks: Vec<Arc<CountingSink>>,
}

impl Sharded {
    fn totals(&self) -> Totals {
        Totals::of(&self.sinks)
    }
}

/// Session build, query registration, base-graph bootstrap and the untimed
/// warm-up batches (a whole number of batches, so the timed phase starts on
/// a batch boundary).
fn set_up(input: &ServeInput) -> Result<(Sharded, Duration), MnemonicError> {
    let start = Instant::now();
    let mut session = ShardedSession::builder()
        .shards(SHARDS)
        .threads(WORKERS)
        .batch_size(input.batch)
        .build()?;
    let mut sinks = Vec::new();
    for query in &input.queries {
        let handle = session.register_query(
            query.clone(),
            Box::new(LabelEdgeMatcher),
            Box::new(Isomorphism),
        )?;
        sinks.push(count_into_sink(&handle));
    }
    session.bootstrap(&input.base)?;
    session.run_events(input.warmup.iter().copied())?;
    Ok((Sharded { session, sinks }, start.elapsed()))
}

/// What the producer observed.
struct Produced {
    /// Instant each push returned (the event was admitted by then).
    pushed_at: Vec<Instant>,
    /// How late each push started against its due time, in milliseconds.
    late_ms: Vec<f64>,
    /// Time spent inside `push` (waiting for ring space).
    blocked: Duration,
    push_errors: u64,
}

/// Due time of event `i` of an open-loop schedule starting at `t0`.
fn due(t0: Instant, rate: f64, i: usize) -> Instant {
    t0 + Duration::from_secs_f64(i as f64 / rate)
}

/// Push every event at its due time `t0 + i / rate`. The producer sleeps
/// (never spins) until the next event is due, but at least [`TICK`], and
/// then pushes every event that is due: at most one wake-up per tick, so
/// the generator does not compete with the two shard lanes for the CPUs.
fn produce(producer: IngestProducer, events: &[StreamEvent], rate: f64, t0: Instant) -> Produced {
    let due = |i| due(t0, rate, i);
    let mut out = Produced {
        pushed_at: Vec::with_capacity(events.len()),
        late_ms: Vec::with_capacity(events.len()),
        blocked: Duration::ZERO,
        push_errors: 0,
    };
    let mut i = 0;
    while i < events.len() {
        let now = Instant::now();
        if now < due(i) {
            std::thread::sleep((due(i) - now).max(TICK));
        }
        let wake = Instant::now();
        while i < events.len() && due(i) <= wake {
            let start = Instant::now();
            out.late_ms.push(ms(start - due(i)));
            if producer.push(events[i]).is_err() {
                out.push_errors += 1;
            }
            let end = Instant::now();
            out.blocked += end - start;
            out.pushed_at.push(end);
            i += 1;
        }
    }
    out
}

struct Replay {
    setup: Duration,
    run: PipelinedRun,
    produced: Produced,
    /// Per batch: due time of its last event to the last lane finishing it.
    result_ms: Vec<f64>,
    /// Per batch: the slowest lane's service time.
    service_ms: Vec<f64>,
    throughput: f64,
    final_lag: Duration,
    totals: Totals,
    alloc: AllocCount,
    /// Checks of this replay's own output that did not hold.
    mismatches: Vec<String>,
}

fn replay(input: &ServeInput) -> Result<Replay, MnemonicError> {
    let (mut s, setup) = set_up(input)?;
    let before = s.totals();
    let (producer, consumer) = IngestQueue::bounded(RING_CAPACITY, BackpressurePolicy::Block);
    let events = &input.timed;
    let rate = input.rate;
    let alloc_before = AllocCount::now();
    let t0 = Instant::now() + LEAD;
    let session = &mut s.session;
    let (run, produced) = std::thread::scope(|scope| {
        let producer = scope.spawn(move || produce(producer, events, rate, t0));
        let run = session.serve(consumer);
        (run, producer.join().expect("producer thread panicked"))
    });
    let alloc = AllocCount::now().since(alloc_before);
    let run = run?;
    let due = |i| due(t0, rate, i);
    let n = events.len();
    let expected_batches = n.div_ceil(input.batch);
    let mut mismatches = Vec::new();
    if run.batch_count() != expected_batches {
        mismatches.push(format!(
            "serve formed {} batches, expected {expected_batches}",
            run.batch_count()
        ));
    }
    let mut result_ms = Vec::with_capacity(run.batch_count());
    let mut service_ms = Vec::with_capacity(run.batch_count());
    let mut last_done = t0;
    for (k, b) in run.batches().iter().enumerate() {
        let first = (k * input.batch).min(n - 1);
        let last = ((k + 1) * input.batch).min(n) - 1;
        let done = produced.pushed_at[first] + b.queue_wait + b.latency;
        last_done = last_done.max(done);
        result_ms.push(ms(done.saturating_duration_since(due(last))));
        service_ms.push(ms(b.lane_times.iter().copied().max().unwrap_or_default()));
    }
    let totals = s.totals().since(&before);
    if run.total_new_embeddings() != totals.sum().0 {
        mismatches.push(format!(
            "serve batch outcomes report {} new embeddings, sinks saw {}",
            run.total_new_embeddings(),
            totals.sum().0
        ));
    }
    let span = last_done.saturating_duration_since(t0).as_secs_f64();
    Ok(Replay {
        setup,
        throughput: n as f64 / span.max(1e-9),
        final_lag: last_done.saturating_duration_since(due(n - 1)),
        run,
        produced,
        result_ms,
        service_ms,
        totals,
        alloc,
        mismatches,
    })
}

/// Failure accounting of one replay: its own mismatches, push errors,
/// shed/rejected/stranded events, and a backlog that was not bounded.
fn account(r: &Replay, outcome: &mut Outcome) {
    outcome.mismatches.extend(r.mismatches.iter().cloned());
    outcome.attempted += r.produced.pushed_at.len() as u64;
    outcome.failed += r.produced.push_errors;
    if let Some(q) = r.run.queue_stats() {
        outcome.failed += q.shed + q.rejected + q.queued_at_disconnect;
    }
    if r.final_lag > BACKLOG_LIMIT {
        outcome.failed += 1;
        outcome.warnings.push(format!(
            "backlog grew: last batch done {:.0} ms after its last event was due",
            ms(r.final_lag)
        ));
    }
}

/// The synchronous reference: the same set-up, then `run_events` over the
/// timed stream.
fn reference(input: &ServeInput) -> Result<Totals, MnemonicError> {
    let (mut s, _) = set_up(input)?;
    let before = s.totals();
    s.session.run_events(input.timed.iter().copied())?;
    Ok(s.totals().since(&before))
}

pub fn end_to_end(
    args: &Args,
    input: &ServeInput,
    outcome: &mut Outcome,
    metrics: &mut Metrics,
) -> Result<(), MnemonicError> {
    let replays = replays(args.seconds, input.replay_seconds, outcome, || {
        replay(input)
    })?;
    for r in &replays {
        account(r, outcome);
    }
    let expected = reference(input)?;
    let mut result_ms = Vec::new();
    let mut service_ms = Vec::new();
    for (i, r) in replays.iter().enumerate() {
        outcome.check(r.totals == expected, || {
            format!(
                "serve replay {i}: embeddings {:?} differ from the synchronous reference {:?}",
                r.totals.sum(),
                expected.sum()
            )
        });
        result_ms.extend_from_slice(&r.result_ms);
        service_ms.extend_from_slice(&r.service_ms);
    }
    let late: Vec<f64> = replays
        .iter()
        .flat_map(|r| r.produced.late_ms.iter().copied())
        .collect();
    let (pos, neg) = expected.sum();
    outcome.counters.extend([
        ("replays", replays.len() as u64),
        ("events_offered", (replays.len() * input.timed.len()) as u64),
        ("batches", service_ms.len() as u64),
        ("embeddings_positive_per_replay", pos),
        ("embeddings_negative_per_replay", neg),
    ]);
    outcome.observations.extend([
        ("offered_events_per_s", input.rate),
        ("generator_late_p50_ms", percentile(&late, 50.0)),
        ("generator_late_p99_ms", percentile(&late, 99.0)),
        (
            "worst_final_lag_ms",
            replays.iter().map(|r| ms(r.final_lag)).fold(0.0, f64::max),
        ),
    ]);
    let throughput: Vec<f64> = replays.iter().map(|r| r.throughput).collect();
    let setup: Vec<f64> = replays.iter().map(|r| r.setup.as_secs_f64()).collect();
    latency_metrics(Workload::Serve, &service_ms, &result_ms, outcome, metrics);
    metrics.put("throughput_eps", median(&throughput), "1/s");
    metrics.put("setup_s", median(&setup), "s");
    Ok(())
}

/// The traced run's ingest and shard layers: one serve replay, checked
/// against the single-session replays of the same batches.
pub fn ingest_layers(
    input: &ServeInput,
    layers: &mut Layers,
    outcome: &mut Outcome,
    metrics: &mut Metrics,
) -> Result<(), MnemonicError> {
    let r = replay(input)?;
    account(&r, outcome);
    outcome.check(r.totals == layers.untraced.totals, || {
        format!(
            "serve replay {:?} differs from the single-session replay {:?}",
            r.totals.sum(),
            layers.untraced.totals.sum()
        )
    });
    layers.alloc = (r.alloc, r.run.batch_count().max(1) as f64);
    let log_wait: Vec<f64> = r
        .run
        .batches()
        .iter()
        .map(|b| {
            ms(b.latency
                .saturating_sub(b.lane_times.iter().copied().max().unwrap_or_default()))
        })
        .collect();
    let lanes = r.run.lanes().len().max(1);
    let busy: Vec<f64> = (0..lanes)
        .map(|l| {
            r.run
                .batches()
                .iter()
                .map(|b| ms(b.lane_times.get(l).copied().unwrap_or_default()))
                .sum()
        })
        .collect();
    let mean_busy = busy.iter().sum::<f64>() / lanes as f64;
    let max_busy = busy.iter().copied().fold(0.0, f64::max);
    let queue = r.run.queue_stats().copied().unwrap_or_default();
    let values = [
        percentile(&r.produced.late_ms, 99.0),
        ms(r.produced.blocked),
        r.run.queue_wait_percentile(50.0).map_or(0.0, ms),
        percentile(&log_wait, 50.0),
        mean_busy,
        max_busy / mean_busy.max(1e-9),
        queue.shed as f64,
        queue.rejected as f64,
    ];
    for ((name, unit), value) in INGEST_METRICS.into_iter().zip(values) {
        metrics.put(name, value, unit);
    }
    Ok(())
}
