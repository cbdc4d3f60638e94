//! `perfbench`: the end-to-end and per-layer benchmark of the Mnemonic
//! workspace.
//!
//! ```text
//! perfbench --workload <enum-heavy|window-churn|serve> --seed <n> --seconds <s> --trace <0|1> [--scale micro]
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics, with `--trace 1` the
//! per-layer ones (see `README.md`). The last stdout line is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`; the line before
//! it is the run manifest. The exit code is non-zero when a check failed.

mod alloc;
mod closed_loop;
mod host;
mod layers;
mod report;
mod serve;
mod workloads;

use closed_loop::Pool;
use report::{median, percentile, JsonObject, Metrics};
use std::process::ExitCode;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};
use workloads::{ClosedLoopInput, Scale, WORKERS};

#[global_allocator]
static ALLOCATOR: alloc::CountingAllocator = alloc::CountingAllocator;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    EnumHeavy,
    WindowChurn,
    Serve,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::EnumHeavy => "enum-heavy",
            Workload::WindowChurn => "window-churn",
            Workload::Serve => "serve",
        }
    }

    /// The fixed tail percentile of each workload's latency metrics: the
    /// highest that keeps at least ten samples beyond it at the sample count
    /// of a full-scale 20-second run (480, about 2270 and 96 batches).
    fn tail_percentile(self) -> f64 {
        match self {
            Workload::EnumHeavy => 97.0,
            Workload::WindowChurn => 99.5,
            Workload::Serve => 89.0,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale = Scale::Full;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "enum-heavy" => Workload::EnumHeavy,
                    "window-churn" => Workload::WindowChurn,
                    "serve" => Workload::Serve,
                    other => return Err(format!("unknown workload {other:?}")),
                })
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--scale" => {
                scale = match value.as_str() {
                    "full" => Scale::Full,
                    "micro" => Scale::Micro,
                    _ => return Err("--scale takes full or micro".into()),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale,
    })
}

/// What one run found, besides its metrics.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted: timed batches (every replay) plus the events a
    /// serve producer offered.
    pub attempted: u64,
    /// Failed operations: errored batches, shed/rejected/stranded events,
    /// spill I/O errors, and a serve backlog that grew.
    pub failed: u64,
    /// Checks against the reference that did not hold.
    pub mismatches: Vec<String>,
    pub warnings: Vec<String>,
    /// Disjoint counters for the manifest.
    pub counters: Vec<(&'static str, u64)>,
    /// Other readings for the manifest (generator lateness, backlog).
    pub observations: Vec<(&'static str, f64)>,
    pub fingerprint: u64,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.mismatches.push(what());
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Spill files go to the temporary directory; keep them inside the build
    // directory of the checkout and remove them afterwards.
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into());
    let tmp = std::path::Path::new(&target).join(format!("perfbench-tmp-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("perfbench: cannot create {}: {e}", tmp.display());
        return ExitCode::from(1);
    }
    std::env::set_var("TMPDIR", &tmp);
    let result = run(&args);
    let _ = std::fs::remove_dir_all(&tmp);
    match result {
        Ok((outcome, metrics, manifest)) => {
            let correct = outcome.mismatches.is_empty();
            for m in &outcome.mismatches {
                eprintln!("perfbench: MISMATCH: {m}");
            }
            println!(
                "{}",
                JsonObject::default().object("manifest", manifest).finish()
            );
            let line = JsonObject::default()
                .boolean("correct", correct)
                .int("attempted", outcome.attempted.max(1))
                .int("failed", outcome.failed)
                .object("metrics", metrics.to_json())
                .finish();
            println!("{line}");
            if correct && outcome.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            // A batch that errors aborts the run: report it as one failed
            // operation.
            eprintln!("perfbench: {e}");
            let line = JsonObject::default()
                .boolean("correct", false)
                .int("attempted", 1)
                .int("failed", 1)
                .object("metrics", JsonObject::default())
                .finish();
            println!("{line}");
            ExitCode::from(1)
        }
    }
}

type RunResult = Result<(Outcome, Metrics, JsonObject), String>;

fn run(args: &Args) -> RunResult {
    let started = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap_or_default();
    let probe = host::Probe::new();
    let mut outcome = Outcome::default();
    let mut metrics = Metrics::default();
    let probe_before;
    let baseline_rss;
    match args.workload {
        Workload::EnumHeavy | Workload::WindowChurn => {
            let input = if args.workload == Workload::EnumHeavy {
                workloads::enum_heavy(args.seed, args.scale)
            } else {
                workloads::window_churn(args.seed, args.scale)
            };
            outcome.fingerprint = input.fingerprint();
            baseline_rss = host::rss_mib().unwrap_or(0.0);
            probe_before = probe.measure_ms();
            if args.trace {
                let layers =
                    layers::trace_layers(&input, &mut outcome).map_err(|e| e.to_string())?;
                layers.put(&mut metrics);
                layers::put_ingest_absent(&mut metrics);
            } else {
                closed_loop_end_to_end(args, &input, &mut outcome, &mut metrics)
                    .map_err(|e| e.to_string())?;
            }
        }
        Workload::Serve => {
            let input = workloads::serve(args.seed, args.scale);
            outcome.fingerprint = input.fingerprint();
            baseline_rss = host::rss_mib().unwrap_or(0.0);
            probe_before = probe.measure_ms();
            if args.trace {
                let mut layers = layers::trace_layers(&input.as_closed_loop(), &mut outcome)
                    .map_err(|e| e.to_string())?;
                serve::ingest_layers(&input, &mut layers, &mut outcome, &mut metrics)
                    .map_err(|e| e.to_string())?;
                layers.put(&mut metrics);
            } else {
                serve::end_to_end(args, &input, &mut outcome, &mut metrics)
                    .map_err(|e| e.to_string())?;
            }
        }
    }
    let probe_after = probe.measure_ms();
    if args.trace {
        metrics.put("host.probe_ms", (probe_before + probe_after) / 2.0, "ms");
    } else {
        let peak = host::peak_rss_mib().unwrap_or(0.0) - baseline_rss;
        if peak <= 0.0 {
            outcome
                .warnings
                .push("resident-set readings unavailable".to_string());
        }
        metrics.put("peak_rss_mb", peak, "MiB");
    }
    let manifest = JsonObject::default()
        .string(
            "run_id",
            &format!(
                "{}-{}-{}",
                args.workload.name(),
                args.seed,
                started.as_millis()
            ),
        )
        .int("started_at_unix_ms", started.as_millis() as u64)
        .string("git_rev", &host::git_rev())
        .int("nproc", host::nproc() as u64)
        .string("workload", args.workload.name())
        .int("seed", args.seed)
        .num("seconds", args.seconds)
        .int("trace", u64::from(args.trace))
        .string(
            "scale",
            if args.scale == Scale::Full {
                "full"
            } else {
                "micro"
            },
        )
        .string(
            "input_fingerprint",
            &format!("{:016x}", outcome.fingerprint),
        )
        .num("probe_ms_before", probe_before)
        .num("probe_ms_after", probe_after)
        .object(
            "outcomes",
            outcome
                .counters
                .iter()
                .fold(JsonObject::default(), |o, &(k, v)| o.int(k, v)),
        )
        .object(
            "observations",
            outcome
                .observations
                .iter()
                .fold(JsonObject::default(), |o, &(k, v)| o.num(k, v)),
        )
        .strings("mismatches", &outcome.mismatches)
        .strings("warnings", &outcome.warnings);
    Ok((outcome, metrics, manifest))
}

/// The replay loop of the closed-loop workloads: a fixed number of fresh
/// sessions replayed (enough to cover `--seconds` at the nominal replay
/// length), then one sequential reference replay to check the embedding
/// counts against.
fn closed_loop_end_to_end(
    args: &Args,
    input: &ClosedLoopInput,
    outcome: &mut Outcome,
    metrics: &mut Metrics,
) -> Result<(), mnemonic_core::MnemonicError> {
    let replays = replays(args.seconds, input.replay_seconds, outcome, || {
        closed_loop::replay(input, Pool::Workers(WORKERS))
    })?;
    let reference = closed_loop::replay(input, Pool::Sequential)?;
    let events = input.timed_events() as f64;
    let mut batch_ms = Vec::new();
    for (i, r) in replays.iter().enumerate() {
        outcome.check(r.totals == reference.totals, || {
            format!(
                "replay {i}: embeddings {:?} differ from the sequential reference {:?}",
                r.totals.sum(),
                reference.totals.sum()
            )
        });
        outcome.check(r.reported == r.totals.sum(), || {
            format!(
                "replay {i}: batch outcomes report {:?} embeddings, sinks saw {:?}",
                r.reported,
                r.totals.sum()
            )
        });
        outcome.failed += r.spill_io_errors;
        batch_ms.extend_from_slice(&r.batch_ms);
    }
    outcome.failed += reference.spill_io_errors;
    outcome.attempted = (batch_ms.len() + input.timed.len()) as u64;
    let (pos, neg) = reference.totals.sum();
    outcome.counters = vec![
        ("replays", replays.len() as u64),
        ("timed_batches", batch_ms.len() as u64),
        ("reference_batches", input.timed.len() as u64),
        ("embeddings_positive_per_replay", pos),
        ("embeddings_negative_per_replay", neg),
    ];
    let throughput: Vec<f64> = replays
        .iter()
        .map(|r| events / r.wall.as_secs_f64())
        .collect();
    let setup: Vec<f64> = replays.iter().map(|r| r.setup.as_secs_f64()).collect();
    latency_metrics(args.workload, &batch_ms, &batch_ms, outcome, metrics);
    metrics.put("throughput_eps", median(&throughput), "1/s");
    metrics.put("setup_s", median(&setup), "s");
    Ok(())
}

/// Run `ceil(seconds / replay_seconds)` replays, at least three so the
/// medians over replays have something to reject. On a host so slow that
/// they take more than twice `seconds`, stop early (after three) with a
/// warning rather than overrun the run's time limit.
pub fn replays<T, E>(
    seconds: f64,
    replay_seconds: f64,
    outcome: &mut Outcome,
    mut replay: impl FnMut() -> Result<T, E>,
) -> Result<Vec<T>, E> {
    let planned = ((seconds / replay_seconds).ceil() as usize).max(3);
    let limit = Duration::from_secs_f64(2.0 * seconds);
    let start = Instant::now();
    let mut done = Vec::with_capacity(planned);
    while done.len() < planned && (done.len() < 3 || start.elapsed() < limit) {
        done.push(replay()?);
    }
    if done.len() < planned {
        outcome.warnings.push(format!(
            "host too slow: stopped after {} of {planned} replays",
            done.len()
        ));
    }
    Ok(done)
}

/// Batch service-time and result-latency metrics. In a closed loop every
/// event of a batch is due when the batch is submitted, so the two samples
/// are the same.
fn latency_metrics(
    workload: Workload,
    service_ms: &[f64],
    result_ms: &[f64],
    outcome: &mut Outcome,
    metrics: &mut Metrics,
) {
    let p = workload.tail_percentile();
    for (name, sample) in [("batch", service_ms), ("result", result_ms)] {
        let beyond = sample.len() - ((p / 100.0) * sample.len() as f64).ceil() as usize;
        if beyond < 10 {
            outcome.warnings.push(format!(
                "{name} latency: only {beyond} of {} samples beyond p{p}",
                sample.len()
            ));
        }
    }
    outcome
        .counters
        .push(("latency_samples", service_ms.len() as u64));
    metrics.put("batch_latency_p50_ms", percentile(service_ms, 50.0), "ms");
    metrics.put("batch_latency_tail_ms", percentile(service_ms, p), "ms");
    metrics.put("result_latency_p50_ms", percentile(result_ms, 50.0), "ms");
    metrics.put("result_latency_tail_ms", percentile(result_ms, p), "ms");
}
