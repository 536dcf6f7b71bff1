//! The benchmark's three workloads and their timed calls, built directly
//! from `ExperimentConfig`, `Experiment` and `Server`.
//!
//! Every workload runs on the paper machine (24 cores, 4 DRAM channels)
//! with DDIO confined to 2 LLC ways and 1 KB packets or items, seeded from
//! the command line. Cache policy: the fixed-rate runs start with empty
//! caches and no warm-up (which is also what lets their memtrace replay
//! exactly) and run until every RX ring has wrapped at least once; the peak
//! search warms up for 1.2 ring wraps before each measured window.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use sweeper_core::experiment::{ExperimentConfig, PeakCriteria};
use sweeper_core::server::{RunOptions, RunReport, Server, ServerConfig, SweeperMode};
use sweeper_core::workload::Workload;
use sweeper_nic::traffic::ArrivalProcess;
use sweeper_sim::hierarchy::InjectionPolicy;
use sweeper_workloads::kvs::{KvsConfig, MicaKvs, HEADER_BYTES};
use sweeper_workloads::l3fwd::{L3Forwarder, L3fwdConfig};

use crate::probe::Probed;

/// Active cores of the paper machine.
const CORES: u64 = 24;

/// KVS request packets carry a 64 B header plus a 1 KB value.
const KVS_PACKET_BYTES: u64 = 1024 + HEADER_BYTES;

/// Open-loop Poisson rate of `kvs_sweeper`: below the configuration's peak,
/// so queues stay bounded.
const KVS_RATE: f64 = 15.0e6;

/// Per-core RX ring of the peak search.
const PEAK_RX_ENTRIES: u64 = 512;

/// Smoke-sized run lengths of the peak search, warming up for 1.2 ring
/// wraps before each measured window.
pub const PEAK_OPTIONS: RunOptions = RunOptions {
    warmup_requests: CORES * PEAK_RX_ENTRIES * 12 / 10,
    measure_requests: 2_000,
    max_cycles: 30_000_000_000,
    min_warmup_cycles: 0,
    min_measure_cycles: 0,
};

/// Cold-start run options: no warm-up, `requests` measured.
fn cold(requests: u64) -> RunOptions {
    RunOptions {
        warmup_requests: 0,
        measure_requests: requests,
        max_cycles: 120_000_000_000,
        min_warmup_cycles: 0,
        min_measure_cycles: 0,
    }
}

fn kvs() -> Box<dyn Workload> {
    Box::new(MicaKvs::new(KvsConfig::paper_default()))
}

fn l3fwd() -> Box<dyn Workload> {
    Box::new(L3Forwarder::new(L3fwdConfig::l2_resident()))
}

/// A workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bench {
    /// MICA KVS with Sweeper at 15 Mrps: the only workload on the sweep path.
    KvsSweeper,
    /// L3fwd keep-queued at depth 250, Sweeper off: the §IV-B leak path.
    L3fwdQueued,
    /// The Appendix-A peak search on KVS: what a figure user waits on.
    KvsPeak,
}

impl Bench {
    /// Every workload, in report order.
    pub const ALL: [Bench; 3] = [Bench::KvsSweeper, Bench::L3fwdQueued, Bench::KvsPeak];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Bench::KvsSweeper => "kvs_sweeper",
            Bench::L3fwdQueued => "l3fwd_queued",
            Bench::KvsPeak => "kvs_peak",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Bench> {
        Self::ALL.into_iter().find(|b| b.name() == name)
    }

    /// The experiment point: machine, NIC rings, Sweeper mode, and seed.
    pub fn config(self, seed: u64) -> ExperimentConfig {
        let (rx_entries, sweeper, packet_bytes) = match self {
            Bench::KvsSweeper => (1024, SweeperMode::Enabled, KVS_PACKET_BYTES),
            Bench::L3fwdQueued => (2048, SweeperMode::Disabled, 1024),
            Bench::KvsPeak => (
                PEAK_RX_ENTRIES as usize,
                SweeperMode::Disabled,
                KVS_PACKET_BYTES,
            ),
        };
        ExperimentConfig::paper_default()
            .injection(InjectionPolicy::Ddio)
            .ddio_ways(2)
            .channels(4)
            .sweeper(sweeper)
            .rx_buffers_per_core(rx_entries)
            .packet_bytes(packet_bytes)
            .seed(seed)
    }

    /// Arrivals of the fixed-rate workloads; `None` for the peak search,
    /// whose rate is what it finds.
    pub fn fixed_arrivals(self) -> Option<ArrivalProcess> {
        match self {
            Bench::KvsSweeper => Some(ArrivalProcess::Poisson { rate: KVS_RATE }),
            Bench::L3fwdQueued => Some(ArrivalProcess::KeepQueued { depth: 250 }),
            Bench::KvsPeak => None,
        }
    }

    /// One cold run of this workload's configuration under `arrivals`. For
    /// the fixed-rate workloads this is the timed call; for the peak search
    /// it is the run the per-layer split replays, as long as one of the
    /// search's runs.
    pub fn run_spec(self, seed: u64, arrivals: ArrivalProcess) -> RunSpec {
        // Requests for one wrap of every RX ring: 24 cores × ring entries
        // (keep-queued also holds 24 × 250 packets in flight).
        let options = match self {
            Bench::KvsSweeper => cold(30_000),
            Bench::L3fwdQueued => cold(50_000),
            Bench::KvsPeak => cold(PEAK_OPTIONS.warmup_requests + PEAK_OPTIONS.measure_requests),
        };
        let mut server = self.config(seed).server_config().clone();
        server.arrivals = arrivals;
        RunSpec {
            server,
            options,
            make: self.app(),
        }
    }

    /// Builds a fresh instance of the workload's application.
    fn app(self) -> fn() -> Box<dyn Workload> {
        match self {
            Bench::L3fwdQueued => l3fwd,
            Bench::KvsSweeper | Bench::KvsPeak => kvs,
        }
    }
}

/// One simulation run: server configuration, stop rule, and application.
#[derive(Clone)]
pub struct RunSpec {
    /// The server to build.
    pub server: ServerConfig,
    /// When the run stops.
    pub options: RunOptions,
    /// Builds a fresh application instance.
    pub make: fn() -> Box<dyn Workload>,
}

/// Fails a run that timed out or missed its request quota.
pub fn check_run(report: &RunReport, options: &RunOptions) -> Result<(), String> {
    if report.timed_out {
        return Err(format!(
            "timed out at {} simulated cycles",
            options.max_cycles
        ));
    }
    if report.completed < options.measure_requests {
        return Err(format!(
            "completed {} of {} requests",
            report.completed, options.measure_requests
        ));
    }
    Ok(())
}

/// The simulated outputs of a run, as text: equal text means an identical
/// result.
pub fn digest(report: &RunReport) -> String {
    format!(
        "completed {} offered {} dropped {} cycles {} timed_out {} mem {:?} latency {:?} service {:?} channels {:?}",
        report.completed,
        report.offered,
        report.dropped,
        report.elapsed_cycles,
        report.timed_out,
        report.mem,
        report.request_latency.summary(),
        report.service_time.summary(),
        report.channel_transfers,
    )
}

/// Host seconds to build the workload and its `Server` once.
pub fn setup_s(bench: Bench, seed: u64) -> f64 {
    let cfg = bench.config(seed).server_config().clone();
    let start = Instant::now();
    let server = Server::new(cfg, bench.app()());
    let elapsed = start.elapsed().as_secs_f64();
    drop(server);
    elapsed
}

/// One timed call and what it simulated.
#[derive(Debug)]
pub struct Timed {
    /// Host seconds of the timed call.
    pub wall_s: f64,
    /// Requests handled, counted at the `handle_packet` boundary.
    pub requests: u64,
    /// Simulated block accesses (estimated for the peak search, see
    /// [`timed_search`]).
    pub accesses: f64,
    /// The simulated outputs (see [`digest`]).
    pub digest: String,
}

/// Builds and runs `spec` untraced, timing `Server::run`.
pub fn timed_run(spec: &RunSpec) -> Result<Timed, String> {
    let requests = Arc::new(AtomicU64::new(0));
    let app = Probed::counting((spec.make)(), Arc::clone(&requests));
    let mut server = Server::new(spec.server.clone(), Box::new(app));
    let start = Instant::now();
    let report = server.run(spec.options);
    let wall_s = start.elapsed().as_secs_f64();
    check_run(&report, &spec.options)?;
    Ok(Timed {
        wall_s,
        requests: requests.load(Ordering::Relaxed),
        accesses: report.mem.block_accesses as f64,
        digest: digest(&report),
    })
}

/// A timed peak search.
#[derive(Debug)]
pub struct Search {
    /// The search as a timed call.
    pub timed: Timed,
    /// Peak offered rate found, packets per second.
    pub rate: f64,
    /// Throughput of the peak run, Mrps.
    pub peak_mrps: f64,
    /// Servers the search built.
    pub builds: u64,
}

/// Runs `Experiment::find_peak` for `kvs_peak`, timing the whole search.
pub fn timed_search(seed: u64) -> Result<Search, String> {
    let requests = Arc::new(AtomicU64::new(0));
    let builds = Arc::new(AtomicU64::new(0));
    let experiment = {
        let requests = Arc::clone(&requests);
        let builds = Arc::clone(&builds);
        Bench::KvsPeak
            .config(seed)
            .run_options(PEAK_OPTIONS)
            .experiment(move || {
                builds.fetch_add(1, Ordering::Relaxed);
                Probed::counting(kvs(), Arc::clone(&requests))
            })
    };
    let start = Instant::now();
    let peak = experiment.find_peak(PeakCriteria::default());
    let wall_s = start.elapsed().as_secs_f64();
    check_run(&peak.report, &PEAK_OPTIONS)?;

    let requests = requests.load(Ordering::Relaxed);
    let builds = builds.load(Ordering::Relaxed);
    // The search keeps only the peak run's report, so its block accesses are
    // extrapolated from that run's accesses per completed request.
    let accesses =
        requests as f64 * peak.report.mem.block_accesses as f64 / peak.report.completed as f64;
    let digest = format!(
        "rate {} slo {} builds {builds} requests {requests} peak {}",
        peak.rate.to_bits(),
        peak.slo_cycles,
        digest(&peak.report)
    );
    Ok(Search {
        timed: Timed {
            wall_s,
            requests,
            accesses,
            digest,
        },
        rate: peak.rate,
        peak_mrps: peak.throughput_mrps(),
        builds,
    })
}

/// The timed call of `bench`.
pub fn timed_call(bench: Bench, seed: u64) -> Result<Timed, String> {
    match bench.fixed_arrivals() {
        Some(arrivals) => timed_run(&bench.run_spec(seed, arrivals)),
        None => timed_search(seed).map(|search| search.timed),
    }
}
