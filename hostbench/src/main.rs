//! Host-speed benchmark of the Sweeper simulator.
//!
//! ```text
//! cargo run --release --manifest-path hostbench/Cargo.toml -- \
//!     --workload kvs_sweeper|l3fwd_queued|kvs_peak --seed N --seconds S --trace 0|1
//! ```
//!
//! Each process runs one workload, single-threaded, with the simulation
//! seeded from `--seed`. `BENCHMARK.json` lists `kvs_sweeper` and `kvs_peak`
//! only: between them they reach every layer, and two workloads leave room
//! for runs long enough that a shared host's noise settles. `l3fwd_queued`
//! (the §IV-B leak path) stays available for runs by hand.
//!
//! * `--trace 0` repeats the workload's timed call (a `Server::run`, or a
//!   whole `Experiment::find_peak`) until `--seconds` have passed and
//!   reports the end-to-end metrics of the fastest repetition: `wall_ref`
//!   (its host time over that of a fixed reference loop, see
//!   [`probe::reference_s`]), `sim_requests_per_ref`, and
//!   `sim_accesses_per_ref`, plus `setup_s` and the process's
//!   `peak_rss_mb`. The same figures in host seconds are printed as text
//!   lines. Failed runs over attempted runs (the fail ratio) are the
//!   `failed` and `attempted` fields of the result.
//! * `--trace 1` repeats an untraced run, a traced run of the same
//!   configuration, and a replay of its memtrace (see [`replay`]), and
//!   reports the medians of the per-layer metrics: host time per
//!   `hierarchy` call, the `workload` and `server` shares, the `experiment`
//!   counts, and the exact simulated counts a speed-only change must leave
//!   identical.
//!
//! A run fails if it panics, times out, misses its request quota, or gives
//! simulated outputs that differ from the other repetitions, from its
//! traced twin, or from its replay. The last line of stdout is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! `BENCH_sim.json`'s `fig1_kvs_e2e` point is not comparable with these
//! numbers: it uses another seed, runs with Sweeper off, and counts set-up
//! inside its wall time.

mod probe;
mod replay;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use sweeper_sim::hierarchy::MemorySystem;
use sweeper_sim::telemetry::{Record, Value};

use probe::{median, summarize};
use replay::CALLS;
use workloads::{Bench, RunSpec};

const USAGE: &str = "usage: hostbench --workload kvs_sweeper|l3fwd_queued|kvs_peak \
                     --seed N --seconds S --trace 0|1";

struct Args {
    bench: Bench,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut bench, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                bench = Some(
                    Bench::parse(&value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => {
                seed =
                    Some(value.parse::<u64>().map_err(|_| {
                        format!("--seed must be an unsigned integer, got '{value}'")
                    })?)
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("--seconds must be positive, got '{value}'"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got '{value}'")),
                })
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        bench: bench.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One reported metric.
#[derive(Debug, Clone)]
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// Metrics in report order.
#[derive(Debug, Default)]
struct Metrics(Vec<Metric>);

impl Metrics {
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Per metric, the median over `samples`, which all hold the same
    /// metrics in the same order.
    fn medians(samples: &[Metrics]) -> Metrics {
        let Some(first) = samples.first() else {
            return Metrics::default();
        };
        let metrics = first
            .0
            .iter()
            .enumerate()
            .map(|(i, m)| Metric {
                value: median(&samples.iter().map(|s| s.0[i].value).collect::<Vec<_>>()),
                ..m.clone()
            })
            .collect();
        Metrics(metrics)
    }
}

/// Attempted and failed runs. A run fails on an error or when its
/// simulated outputs differ from the first passing run's.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    reference: Option<String>,
}

impl Tally {
    fn fail(&mut self, reason: &str) {
        self.failed += 1;
        eprintln!("run {} failed: {reason}", self.attempted);
    }

    /// Records a passing run's outputs; returns whether they match.
    fn same_result(&mut self, digest: &str) -> bool {
        match &self.reference {
            None => self.reference = Some(digest.to_string()),
            Some(reference) if reference != digest => {
                self.fail("simulated outputs differ from the first repetition");
                return false;
            }
            Some(_) => {}
        }
        true
    }
}

/// Runs `f`, turning a panic into an error.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        Err(format!("panicked: {msg}"))
    })
}

/// The end-to-end metrics of the fastest of the repeated timed calls.
///
/// Every repetition simulates exactly the same thing (their outputs must be
/// identical), so host noise can only add time: the fastest repetition is
/// the best estimate of the call's cost, and it is less sensitive to other
/// tenants of a shared host than the median is. Each repetition is preceded
/// by one set-up build and one pass of the reference loop, so their fastest
/// values come from the same stretch of time as the fastest call. The call's
/// host time is reported in passes of the reference loop (unit `ref`); the
/// raw seconds are printed as text lines.
fn end_to_end(args: &Args, tally: &mut Tally) -> Metrics {
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let (mut setup_s, mut reference_s) = (f64::INFINITY, f64::INFINITY);
    let mut fastest: Option<workloads::Timed> = None;
    while tally.attempted == 0 || Instant::now() < deadline {
        setup_s = setup_s.min(workloads::setup_s(args.bench, args.seed));
        reference_s = reference_s.min(probe::reference_s());
        tally.attempted += 1;
        match guarded(|| workloads::timed_call(args.bench, args.seed)) {
            Err(e) => tally.fail(&e),
            Ok(t) => {
                eprintln!("run {}: {:.4} s", tally.attempted, t.wall_s);
                if tally.same_result(&t.digest)
                    && fastest.as_ref().is_none_or(|f| t.wall_s < f.wall_s)
                {
                    fastest = Some(t);
                }
            }
        }
    }
    let peak_rss = probe::peak_rss_mib().unwrap_or_else(|e| {
        tally.fail(&e);
        f64::NAN
    });
    let (wall, requests, accesses) = fastest.map_or((f64::NAN, 0.0, 0.0), |t| {
        (t.wall_s, t.requests as f64, t.accesses)
    });
    let name = args.bench.name();
    println!("{name} wall_s = {wall} s");
    println!("{name} sim_requests_per_s = {} 1/s", requests / wall);
    println!("{name} sim_accesses_per_s = {} 1/s", accesses / wall);
    println!("{name} reference_s = {reference_s} s");
    let wall_ref = wall / reference_s;
    let mut m = Metrics::default();
    m.push("setup_s", setup_s, "s");
    m.push("wall_ref", wall_ref, "ref");
    m.push("sim_requests_per_ref", requests / wall_ref, "1/ref");
    m.push("sim_accesses_per_ref", accesses / wall_ref, "1/ref");
    m.push("peak_rss_mb", peak_rss, "MiB");
    m
}

/// What the experiment layer did for the run the per-layer split replays.
struct ExperimentCounts {
    builds: f64,
    requests: Option<f64>,
    peak_mrps: f64,
}

/// The per-layer metrics: medians over repeated traced pairs.
fn per_layer(args: &Args, tally: &mut Tally) -> Metrics {
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let overhead_ns = probe::timer_overhead_ns();
    let machine = *args.bench.config(args.seed).machine();
    let new_s = median(
        &(0..3)
            .map(|_| {
                let start = Instant::now();
                drop(MemorySystem::new(machine));
                start.elapsed().as_secs_f64()
            })
            .collect::<Vec<_>>(),
    );

    // The peak search is the experiment layer's work; the hierarchy split
    // replays one cold run at the rate it found.
    let (arrivals, experiment) = match args.bench.fixed_arrivals() {
        Some(arrivals) => (
            arrivals,
            ExperimentCounts {
                builds: 1.0,
                requests: None,
                peak_mrps: 0.0,
            },
        ),
        None => {
            tally.attempted += 1;
            match guarded(|| workloads::timed_search(args.seed)) {
                Err(e) => {
                    tally.fail(&e);
                    return Metrics::default();
                }
                Ok(search) => (
                    sweeper_nic::traffic::ArrivalProcess::Poisson { rate: search.rate },
                    ExperimentCounts {
                        builds: search.builds as f64,
                        requests: Some(search.timed.requests as f64),
                        peak_mrps: search.peak_mrps,
                    },
                ),
            }
        }
    };
    let spec = args.bench.run_spec(args.seed, arrivals);

    let mut samples = Vec::new();
    while samples.is_empty() || Instant::now() < deadline {
        tally.attempted += 1;
        match guarded(|| traced_pair(&spec, overhead_ns, new_s, &experiment)) {
            Err(e) => tally.fail(&e),
            Ok((metrics, digest, problem)) => {
                match problem {
                    Some(problem) => tally.fail(&problem),
                    None => {
                        tally.same_result(&digest);
                    }
                }
                samples.push(metrics);
            }
        }
        if tally.failed > 0 && samples.is_empty() {
            break;
        }
    }
    let mut m = Metrics::medians(&samples);
    let reference_s = (0..3)
        .map(|_| probe::reference_s())
        .fold(f64::INFINITY, f64::min);
    m.push("host.reference_s", reference_s, "s");
    m
}

/// One untraced run, its traced twin, and the replay of the twin's
/// memtrace. Returns the pair's metrics, the simulated outputs, and the
/// first check the pair failed, if any.
fn traced_pair(
    spec: &RunSpec,
    overhead_ns: u64,
    new_s: f64,
    experiment: &ExperimentCounts,
) -> Result<(Metrics, String, Option<String>), String> {
    let untraced = workloads::timed_run(spec)?;
    let mut traced = replay::run_traced(spec, overhead_ns)?;
    let mut rep = replay::replay(spec, &traced.events, overhead_ns);
    let problem = if traced.digest != untraced.digest {
        Some("the traced run's outputs differ from the untraced run's".to_string())
    } else if let Some(mismatch) = rep.first_mismatch.clone() {
        Some(format!(
            "{} replay mismatches; first: {mismatch}",
            rep.mismatches
        ))
    } else if rep.fingerprint != traced.fingerprint {
        Some("replayed memory statistics differ from the live run's".to_string())
    } else {
        None
    };

    let wall = traced.wall_s;
    let mut m = Metrics::default();
    let mut hierarchy_s = 0.0;
    for (i, call) in CALLS.iter().enumerate() {
        let s = summarize(&mut rep.ns[i]);
        let blocks = rep.blocks[i] as f64;
        hierarchy_s += s.total_s;
        m.push(format!("hierarchy.{call}.calls"), s.calls as f64, "count");
        m.push(format!("hierarchy.{call}.blocks"), blocks, "count");
        m.push(format!("hierarchy.{call}.total_s"), s.total_s, "s");
        m.push(format!("hierarchy.{call}.share"), s.total_s / wall, "ratio");
        let per_block = if blocks > 0.0 {
            s.total_s * 1e9 / blocks
        } else {
            0.0
        };
        m.push(format!("hierarchy.{call}.ns_per_block"), per_block, "ns");
        m.push(format!("hierarchy.{call}.ns_p50"), s.p50_ns, "ns");
        m.push(format!("hierarchy.{call}.ns_tail"), s.tail_ns, "ns");
        m.push(format!("hierarchy.{call}.tail_pct"), s.tail_pct, "%");
    }
    let stats = &traced.report.mem;
    m.push("hierarchy.total_s", hierarchy_s, "s");
    m.push("hierarchy.share", hierarchy_s / wall, "ratio");
    m.push("hierarchy.new_s", new_s, "s");
    m.push(
        "hierarchy.replay_mismatches",
        rep.mismatches as f64,
        "count",
    );
    m.push(
        "hierarchy.block_accesses",
        stats.block_accesses as f64,
        "count",
    );
    m.push("hierarchy.llc_hits", stats.llc_hits as f64, "count");
    m.push("hierarchy.llc_misses", stats.llc_misses as f64, "count");
    m.push("hierarchy.ddio_allocs", stats.ddio_allocs as f64, "count");
    m.push(
        "coherence.invalidations",
        stats.invalidations as f64,
        "count",
    );
    m.push(
        "coherence.c2c_transfers",
        stats.c2c_transfers as f64,
        "count",
    );
    m.push("dram.reads", stats.dram_reads.total() as f64, "count");
    m.push("dram.writes", stats.dram_writes.total() as f64, "count");
    m.push("dram.row_hit_rate", traced.row_hit_rate, "ratio");
    m.push("sweep.swept_blocks", stats.swept_blocks as f64, "count");
    m.push(
        "sweep.saved_writebacks",
        stats.sweep_saved_writebacks as f64,
        "count",
    );
    m.push("nic.dropped", traced.report.dropped as f64, "count");

    let w = summarize(&mut traced.workload.handle_ns);
    m.push("workload.handle_packet.calls", w.calls as f64, "count");
    let ops_per_call = traced.workload.ops as f64 / (w.calls.max(1)) as f64;
    m.push(
        "workload.handle_packet.ops_per_call",
        ops_per_call,
        "ops/call",
    );
    m.push("workload.handle_packet.total_s", w.total_s, "s");
    m.push("workload.handle_packet.share", w.total_s / wall, "ratio");
    m.push("workload.handle_packet.ns_p50", w.p50_ns, "ns");
    m.push("workload.handle_packet.ns_tail", w.tail_ns, "ns");
    m.push("workload.handle_packet.tail_pct", w.tail_pct, "%");
    m.push(
        "workload.setup_s",
        traced.workload.setup_ns as f64 / 1e9,
        "s",
    );

    // Everything in the traced run that neither the workload nor the
    // hierarchy replay accounts for: the event loop, arrivals, NIC rings,
    // and the cost of recording the memtrace.
    let self_s = wall - w.total_s - hierarchy_s;
    m.push("server.traced_wall_s", wall, "s");
    m.push("server.self_s", self_s, "s");
    m.push("server.self_share", self_s / wall, "ratio");
    m.push("server.completed", traced.report.completed as f64, "count");
    m.push("server.sim_mrps", traced.report.throughput_mrps(), "Mrps");
    let p99 = traced.report.request_latency.percentile(0.99) as f64;
    m.push("server.p99_cycles", p99, "cycles");

    m.push("experiment.builds", experiment.builds, "count");
    let requests = experiment.requests.unwrap_or(w.calls as f64);
    m.push("experiment.requests", requests, "count");
    m.push("experiment.peak_mrps", experiment.peak_mrps, "Mrps");

    m.push("trace.untraced_wall_s", untraced.wall_s, "s");
    m.push("trace.overhead_ratio", wall / untraced.wall_s, "ratio");
    m.push("trace.events", traced.events.len() as f64, "count");
    m.push("trace.timer_overhead_ns", overhead_ns as f64, "ns");
    Ok((m, untraced.digest, problem))
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        eprintln!("{USAGE}");
        std::process::exit(2);
    });
    let mut tally = Tally::default();
    let metrics = if args.trace {
        per_layer(&args, &mut tally)
    } else {
        end_to_end(&args, &mut tally)
    };

    let name = args.bench.name();
    for m in &metrics.0 {
        println!("{name} {} = {} {}", m.name, m.value, m.unit);
    }
    let fail_ratio = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!(
        "{name} fail_ratio = {fail_ratio} ({} of {} runs failed)",
        tally.failed, tally.attempted
    );
    if args.trace {
        let layers = ["workload.handle_packet.share", "server.self_share"];
        let largest = metrics
            .0
            .iter()
            .filter(|m| {
                (m.name.starts_with("hierarchy.")
                    && m.name.ends_with(".share")
                    && m.name != "hierarchy.share")
                    || layers.contains(&m.name.as_str())
            })
            .max_by(|a, b| a.value.total_cmp(&b.value));
        if let Some(m) = largest {
            println!(
                "{name} largest layer: {} ({:.1}% of the traced run's host time)",
                m.name.trim_end_matches(".share"),
                m.value * 100.0
            );
        }
    }

    let mut values = Record::new();
    for m in metrics.0 {
        values.push(
            m.name,
            Record::new().with("value", m.value).with("unit", m.unit),
        );
    }
    let result = Record::new()
        .with("correct", tally.failed == 0 && tally.attempted > 0)
        .with("attempted", tally.attempted)
        .with("failed", tally.failed)
        .with("metrics", values);
    println!("{}", Value::from(result).to_cell());
}
