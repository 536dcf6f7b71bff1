//! Experiment harness: load sweeps, the Appendix-A SLO rule, and
//! peak-throughput search.
//!
//! The paper does not cap network bandwidth; instead it reports "the peak
//! network bandwidth the CPU can effectively handle in each system
//! configuration" (§III), defined as the highest Poisson arrival rate whose
//! p99 request latency stays within 100× the workload's unloaded average
//! service time (Appendix A). [`Experiment::find_peak`] implements that
//! search; [`Experiment::run_at_rate`] and
//! [`Experiment::run_keep_queued`] drive single configurations for the
//! breakdown and CDF figures.

use sweeper_nic::traffic::ArrivalProcess;
use sweeper_sim::hierarchy::{InjectionPolicy, MachineConfig};
use sweeper_sim::Cycle;

use crate::server::{RunOptions, RunReport, Server, ServerConfig, SweeperMode};
use crate::workload::{BackgroundTenant, Workload};

/// Declarative configuration of one experiment point.
///
/// Thin builder over [`ServerConfig`] + [`RunOptions`] with the knobs the
/// paper sweeps: injection policy, DDIO ways, RX buffers per core, packet
/// size, memory channels, and Sweeper mode.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    server: ServerConfig,
    options: RunOptions,
}

impl ExperimentConfig {
    /// Paper-sized machine (Table I) with default run lengths.
    pub fn paper_default() -> Self {
        Self {
            server: ServerConfig::paper_default(),
            options: RunOptions::default(),
        }
    }

    /// Tiny machine and short runs, for tests and doctests.
    pub fn tiny_for_tests() -> Self {
        Self {
            server: ServerConfig::tiny_for_tests(),
            options: RunOptions::quick(),
        }
    }

    /// Sets the injection policy (DMA / DDIO / Ideal-DDIO).
    pub fn injection(mut self, policy: InjectionPolicy) -> Self {
        self.server.machine.injection = policy;
        self
    }

    /// Sets the number of DDIO LLC ways.
    pub fn ddio_ways(mut self, ways: u32) -> Self {
        self.server.machine.ddio_ways = ways;
        self
    }

    /// Sets the DRAM channel count (§VI-D sweeps 3, 4, 8).
    pub fn channels(mut self, channels: usize) -> Self {
        self.server.machine = self.server.machine.with_channels(channels);
        self
    }

    /// Sets the Sweeper RX-path mode.
    pub fn sweeper(mut self, mode: SweeperMode) -> Self {
        self.server.sweeper = mode;
        self
    }

    /// Enables NIC-driven sweeping of copied TX buffers (§V-D extension).
    pub fn tx_sweep(mut self, on: bool) -> Self {
        self.server.tx_sweep = on;
        self
    }

    /// Sets RX ring entries per core (the paper's *B*).
    pub fn rx_buffers_per_core(mut self, entries: usize) -> Self {
        self.server.rx_entries = entries;
        self
    }

    /// Sets the number of communicating endpoints per core, each with its
    /// own RX ring (VIA/RDMA provisioning, §II-C). Multiplies the aggregate
    /// buffer footprint.
    pub fn endpoints_per_core(mut self, endpoints: usize) -> Self {
        self.server.endpoints_per_core = endpoints;
        self
    }

    /// Sets TX ring entries per core (transmit-side buffer bloat, §V-D).
    pub fn tx_buffers_per_core(mut self, entries: usize) -> Self {
        self.server.tx_entries = entries;
        self
    }

    /// Sets the request packet size in bytes (and grows buffer entries to
    /// fit).
    pub fn packet_bytes(mut self, bytes: u64) -> Self {
        self.server.packet_bytes = bytes;
        self.server.buffer_bytes = self.server.buffer_bytes.max(bytes);
        self
    }

    /// Sets how many cores run the networked workload (the rest may host a
    /// background tenant).
    pub fn active_cores(mut self, cores: u16) -> Self {
        self.server.active_cores = cores;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.server.seed = seed;
        self
    }

    /// Enables in-run time-series sampling every `every` cycles (see
    /// [`TimeSeries`](crate::observe::TimeSeries)); the resulting reports
    /// carry a `timeseries`.
    pub fn sampling(mut self, every: Cycle) -> Self {
        self.server.sample_every = Some(every);
        self
    }

    /// Enables request-level span recording with a ring of `capacity`
    /// spans; the resulting reports carry `spans`.
    pub fn spans(mut self, capacity: usize) -> Self {
        self.server.spans = Some(capacity);
        self
    }

    /// Enables the hierarchical cycle/DRAM profiler; the resulting reports
    /// carry a `profile` tree.
    pub fn profiler(mut self) -> Self {
        self.server.profiler = true;
        self
    }

    /// Enables the tail-latency flight recorder (see
    /// [`FlightRecorderConfig`](crate::observe::FlightRecorderConfig));
    /// forces span recording on and the resulting reports carry `outliers`.
    pub fn flight(mut self, cfg: crate::observe::FlightRecorderConfig) -> Self {
        self.server.flight = Some(cfg);
        self
    }

    /// Enables memory-event tracing with a ring of `capacity` events; the
    /// resulting reports carry a `memtrace`.
    pub fn memtrace(mut self, capacity: usize) -> Self {
        self.server.memtrace = Some(capacity);
        self
    }

    /// Enables the correctness harness (shadow-memory oracle + invariant
    /// walks, see [`CheckConfig`](sweeper_sim::check::CheckConfig)); the
    /// resulting reports carry a `check` section.
    pub fn check(mut self, check: sweeper_sim::check::CheckConfig) -> Self {
        self.server.check = Some(check);
        self
    }

    /// Finishes the builder into an [`Experiment`] over a workload factory
    /// — `cfg.experiment(f)` reads as the build step of the chain:
    ///
    /// ```
    /// use sweeper_core::experiment::ExperimentConfig;
    /// use sweeper_core::workload::EchoWorkload;
    ///
    /// let exp = ExperimentConfig::tiny_for_tests()
    ///     .seed(7)
    ///     .experiment(EchoWorkload::default);
    /// assert_eq!(exp.config().server_config().seed, 7);
    /// ```
    pub fn experiment<W, F>(self, make: F) -> Experiment
    where
        W: Workload + 'static,
        F: Fn() -> W + Send + Sync + 'static,
    {
        Experiment::new(self, make)
    }

    /// A compact human-readable summary of the sweep-relevant knobs —
    /// the default point label when a caller doesn't provide one.
    pub fn summary(&self) -> String {
        let policy = match self.server.machine.injection {
            InjectionPolicy::Dma => "dma".to_string(),
            InjectionPolicy::Ideal => "ideal".to_string(),
            InjectionPolicy::Ddio => format!("ddio{}", self.server.machine.ddio_ways),
        };
        let sweeper = if self.server.sweeper.is_enabled() {
            "+sweeper"
        } else {
            ""
        };
        format!(
            "{policy}{sweeper} rx={} pkt={} ch={}",
            self.server.rx_entries, self.server.packet_bytes, self.server.machine.dram.channels,
        )
    }

    /// Overrides run lengths (warmup / measured requests, time cap).
    pub fn run_options(mut self, options: RunOptions) -> Self {
        self.options = options;
        self
    }

    /// The underlying server configuration.
    pub fn server_config(&self) -> &ServerConfig {
        &self.server
    }

    /// The underlying machine configuration.
    pub fn machine(&self) -> &MachineConfig {
        &self.server.machine
    }

    /// Replaces the whole machine configuration (fine-grained overrides the
    /// named builder methods don't cover, e.g. DRAM timing ablations).
    pub fn with_machine(mut self, machine: MachineConfig) -> Self {
        self.server.machine = machine;
        self
    }

    /// Aggregate RX buffer footprint in bytes implied by this configuration.
    pub fn rx_footprint_bytes(&self) -> u64 {
        self.server.active_cores as u64
            * self.server.endpoints_per_core as u64
            * self.server.rx_entries as u64
            * self.server.buffer_bytes
    }
}

/// Pass/fail criteria for the peak-throughput search.
#[derive(Debug, Clone, Copy)]
pub struct PeakCriteria {
    /// SLO = `slo_multiplier` × unloaded mean service time (Appendix A:
    /// 100×).
    pub slo_multiplier: f64,
    /// Maximum tolerated packet-drop fraction. The paper's main experiments
    /// effectively require no drops; Figure 10a explicitly reports "peak
    /// throughput achievable without packet drops" (use 0.0 there).
    pub max_drop_rate: f64,
    /// Minimum completed/offered ratio (stability guard).
    pub min_goodput: f64,
    /// Relative rate precision at which bisection stops.
    pub rate_tolerance: f64,
}

impl Default for PeakCriteria {
    fn default() -> Self {
        Self {
            slo_multiplier: 100.0,
            max_drop_rate: 0.001,
            // Coarse overload guard only — the binding rule is the p99 SLO,
            // exactly as in Appendix A. A tight goodput bound would make the
            // search knife-edge on transient backlog drift.
            min_goodput: 0.90,
            rate_tolerance: 0.03,
        }
    }
}

impl PeakCriteria {
    /// Figure 10a's rule: any packet drop fails the rate, and — per
    /// Appendix A, which excludes §VI-F from the p99 SLO rule — latency is
    /// unconstrained (the spiky workload's p99 *is* its spike tail, so an
    /// SLO would bind at every rate).
    pub fn no_drops() -> Self {
        Self {
            max_drop_rate: 0.0,
            slo_multiplier: f64::INFINITY,
            ..Self::default()
        }
    }
}

/// Result of a peak-throughput search.
#[derive(Debug, Clone)]
pub struct PeakResult {
    /// Highest passing offered rate (packets/second).
    pub rate: f64,
    /// Report of the run at that rate.
    pub report: RunReport,
    /// The SLO applied, in cycles.
    pub slo_cycles: Cycle,
    /// Unloaded mean service time used as the SLO base, in cycles.
    pub unloaded_service_cycles: f64,
}

impl PeakResult {
    /// Peak application throughput in Mrps (the paper's headline metric).
    pub fn throughput_mrps(&self) -> f64 {
        self.report.throughput_mrps()
    }
}

// Factories are `Send + Sync` so an `Experiment` can move to a fleet worker
// thread; the workloads they *create* live and die on that worker.
type WorkloadFactory = Box<dyn Fn() -> Box<dyn Workload> + Send + Sync>;
type BackgroundFactory = Box<dyn Fn() -> Box<dyn BackgroundTenant> + Send + Sync>;
type ServerHook = Box<dyn Fn(&mut Server) + Send + Sync>;

/// A repeatable experiment: a configuration plus workload factories.
///
/// Each run builds a fresh, independent server so that load points do not
/// contaminate each other.
pub struct Experiment {
    cfg: ExperimentConfig,
    make_workload: WorkloadFactory,
    make_background: Option<BackgroundFactory>,
    hook: Option<ServerHook>,
}

impl std::fmt::Debug for Experiment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Experiment")
            .field("cfg", &self.cfg)
            .field("background", &self.make_background.is_some())
            .finish_non_exhaustive()
    }
}

impl Experiment {
    /// Creates an experiment from a configuration and a workload factory.
    pub fn new<W, F>(cfg: ExperimentConfig, make: F) -> Self
    where
        W: Workload + 'static,
        F: Fn() -> W + Send + Sync + 'static,
    {
        Self {
            cfg,
            make_workload: Box::new(move || Box::new(make())),
            make_background: None,
            hook: None,
        }
    }

    /// Adds a collocated background tenant on the spare cores (§VI-E).
    pub fn with_background<B, F>(mut self, make: F) -> Self
    where
        B: BackgroundTenant + 'static,
        F: Fn() -> B + Send + Sync + 'static,
    {
        self.make_background = Some(Box::new(move || Box::new(make())));
        self
    }

    /// Registers a hook run on every freshly-built server, e.g. to install
    /// LLC way partitions before the run starts.
    pub fn with_server_hook<F>(mut self, hook: F) -> Self
    where
        F: Fn(&mut Server) + Send + Sync + 'static,
    {
        self.hook = Some(Box::new(hook));
        self
    }

    /// The experiment's configuration.
    pub fn config(&self) -> &ExperimentConfig {
        &self.cfg
    }

    /// Enables the correctness harness in place (`--validate` and
    /// `sweeper check` retrofit existing experiments this way).
    pub fn enable_check(&mut self, check: sweeper_sim::check::CheckConfig) {
        self.cfg.server.check = Some(check);
    }

    fn build(&self, arrivals: ArrivalProcess) -> Server {
        let mut server_cfg = self.cfg.server.clone();
        server_cfg.arrivals = arrivals;
        let mut server = Server::new(server_cfg, (self.make_workload)());
        if let Some(make_bg) = &self.make_background {
            server = server.with_background(make_bg());
        }
        if let Some(hook) = &self.hook {
            hook(&mut server);
        }
        server
    }

    /// Runs once with Poisson arrivals at `rate` packets/second.
    pub fn run_at_rate(&self, rate: f64) -> RunReport {
        self.build(ArrivalProcess::Poisson { rate })
            .run(self.cfg.options)
    }

    /// Runs once in keep-queued mode with per-core depth `depth` (§IV-B's
    /// batching emulation).
    pub fn run_keep_queued(&self, depth: usize) -> RunReport {
        self.build(ArrivalProcess::KeepQueued { depth })
            .run(self.cfg.options)
    }

    /// Measures the unloaded mean service time (cycles) with a light Poisson
    /// probe.
    pub fn unloaded_service_time(&self) -> f64 {
        let mut opts = self.cfg.options;
        opts.warmup_requests = (opts.warmup_requests / 4).max(50);
        opts.measure_requests = (opts.measure_requests / 4).max(200);
        let probe_rate = 1.0e5 * self.cfg.server.active_cores as f64 / 24.0;
        let report = self
            .build(ArrivalProcess::Poisson {
                rate: probe_rate.max(1.0e4),
            })
            .run(opts);
        report.service_time.mean().max(1.0)
    }

    fn passes(&self, report: &RunReport, slo: Cycle, criteria: &PeakCriteria) -> bool {
        !report.timed_out
            && report.goodput_ratio() >= criteria.min_goodput
            && report.drop_rate() <= criteria.max_drop_rate
            && report.request_latency.percentile(0.99) <= slo
    }

    /// Finds the peak sustainable throughput under `criteria`.
    ///
    /// The search brackets the knee geometrically from a capacity estimate
    /// (`cores / unloaded service time`) and then bisects to
    /// `criteria.rate_tolerance` relative precision. Cost: ~10 full runs.
    pub fn find_peak(&self, criteria: PeakCriteria) -> PeakResult {
        let unloaded = self.unloaded_service_time();
        let slo = (criteria.slo_multiplier * unloaded).ceil() as Cycle;
        let capacity =
            self.cfg.server.active_cores as f64 * sweeper_sim::engine::CLOCK_HZ as f64 / unloaded;

        // Grow an upper bound that fails.
        let mut lo = capacity * 0.05;
        let mut lo_report = None;
        let mut hi = capacity * 0.6;
        loop {
            let report = self.run_at_rate(hi);
            if self.passes(&report, slo, &criteria) {
                lo = hi;
                lo_report = Some(report);
                hi *= 1.5;
                if hi > capacity * 16.0 {
                    break; // workload never saturates under these criteria
                }
            } else {
                break;
            }
        }

        // Bisect the knee.
        while hi - lo > criteria.rate_tolerance * hi {
            let mid = 0.5 * (lo + hi);
            let report = self.run_at_rate(mid);
            if self.passes(&report, slo, &criteria) {
                lo = mid;
                lo_report = Some(report);
            } else {
                hi = mid;
            }
        }

        let report = lo_report.unwrap_or_else(|| self.run_at_rate(lo));
        PeakResult {
            rate: lo,
            report,
            slo_cycles: slo,
            unloaded_service_cycles: unloaded,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::EchoWorkload;
    use sweeper_sim::stats::TrafficClass;

    fn echo_experiment(cfg: ExperimentConfig) -> Experiment {
        Experiment::new(cfg, || EchoWorkload::with_think(200))
    }

    #[test]
    fn builder_round_trip() {
        let cfg = ExperimentConfig::tiny_for_tests()
            .injection(InjectionPolicy::Dma)
            .ddio_ways(1)
            .sweeper(SweeperMode::Enabled)
            .rx_buffers_per_core(32)
            .packet_bytes(512)
            .seed(99);
        assert_eq!(cfg.machine().injection, InjectionPolicy::Dma);
        assert_eq!(cfg.machine().ddio_ways, 1);
        assert_eq!(cfg.server_config().sweeper, SweeperMode::Enabled);
        assert_eq!(cfg.server_config().rx_entries, 32);
        assert_eq!(cfg.server_config().packet_bytes, 512);
        assert_eq!(cfg.server_config().seed, 99);
        assert_eq!(cfg.rx_footprint_bytes(), 2 * 32 * 1024);
    }

    #[test]
    fn config_summary_and_build_access() {
        let cfg = ExperimentConfig::tiny_for_tests()
            .injection(InjectionPolicy::Ddio)
            .ddio_ways(4)
            .sweeper(SweeperMode::Enabled)
            .rx_buffers_per_core(128);
        let summary = cfg.summary();
        assert!(summary.contains("ddio4+sweeper"), "summary: {summary}");
        assert!(summary.contains("rx=128"), "summary: {summary}");
        let exp = cfg.experiment(EchoWorkload::default);
        assert_eq!(exp.config().server_config().rx_entries, 128);
    }

    #[test]
    fn run_at_rate_produces_report() {
        let exp = echo_experiment(ExperimentConfig::tiny_for_tests());
        let report = exp.run_at_rate(1.0e6);
        assert!(report.completed > 0);
        assert!(report.throughput_mrps() > 0.0);
    }

    #[test]
    fn keep_queued_run_works() {
        let exp = echo_experiment(ExperimentConfig::tiny_for_tests());
        let report = exp.run_keep_queued(4);
        assert!(report.completed > 0);
        // Closed loop: offered tracks completions, no huge backlog.
        assert!(report.offered >= report.completed);
    }

    #[test]
    fn unloaded_service_time_is_sane() {
        let exp = echo_experiment(ExperimentConfig::tiny_for_tests());
        let s = exp.unloaded_service_time();
        // Echo with think=200 plus some memory access: hundreds of cycles.
        assert!(s > 200.0, "service {s}");
        assert!(s < 100_000.0, "service {s}");
    }

    #[test]
    fn find_peak_brackets_a_knee() {
        let cfg = ExperimentConfig::tiny_for_tests().run_options(RunOptions {
            warmup_requests: 100,
            measure_requests: 600,
            max_cycles: 4_000_000_000,
            min_warmup_cycles: 0,
            min_measure_cycles: 0,
        });
        let exp = echo_experiment(cfg);
        let peak = exp.find_peak(PeakCriteria::default());
        assert!(peak.rate > 0.0);
        assert!(peak.throughput_mrps() > 0.0);
        // The peak must not exceed the nominal capacity estimate wildly.
        let capacity_mrps =
            2.0 * sweeper_sim::engine::CLOCK_HZ as f64 / peak.unloaded_service_cycles / 1e6;
        assert!(
            peak.throughput_mrps() <= capacity_mrps * 1.3,
            "peak {} vs capacity {}",
            peak.throughput_mrps(),
            capacity_mrps
        );
    }

    #[test]
    fn sweeper_peak_at_least_matches_baseline_with_big_buffers() {
        let cfg = ExperimentConfig::tiny_for_tests()
            .rx_buffers_per_core(64)
            .run_options(RunOptions {
                warmup_requests: 100,
                measure_requests: 500,
                max_cycles: 4_000_000_000,
                min_warmup_cycles: 0,
                min_measure_cycles: 0,
            });
        let base = echo_experiment(cfg.clone()).find_peak(PeakCriteria::default());
        let swept =
            echo_experiment(cfg.sweeper(SweeperMode::Enabled)).find_peak(PeakCriteria::default());
        assert!(
            swept.throughput_mrps() >= base.throughput_mrps() * 0.9,
            "sweeper {} vs base {}",
            swept.throughput_mrps(),
            base.throughput_mrps()
        );
    }

    #[test]
    fn no_drops_criteria_drops_the_slo() {
        let strict = PeakCriteria::no_drops();
        let default = PeakCriteria::default();
        assert_eq!(strict.max_drop_rate, 0.0);
        assert!(default.max_drop_rate > 0.0);
        // §VI-F is excluded from the Appendix-A SLO rule.
        assert!(strict.slo_multiplier.is_infinite());
    }

    #[test]
    fn no_drop_peak_really_has_no_drops() {
        let cfg = ExperimentConfig::tiny_for_tests()
            .rx_buffers_per_core(4) // shallow: drops appear early
            .run_options(RunOptions {
                warmup_requests: 100,
                measure_requests: 600,
                max_cycles: 4_000_000_000,
                min_warmup_cycles: 0,
                min_measure_cycles: 0,
            });
        let exp = echo_experiment(cfg);
        let strict = exp.find_peak(PeakCriteria::no_drops());
        assert_eq!(strict.report.dropped, 0, "no-drop peak must not drop");
        assert!(strict.rate > 0.0);
    }

    #[test]
    fn server_hook_runs() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let fired = Arc::new(AtomicBool::new(false));
        let flag = fired.clone();
        let exp = echo_experiment(ExperimentConfig::tiny_for_tests())
            .with_server_hook(move |_s| flag.store(true, Ordering::SeqCst));
        exp.run_at_rate(1.0e6);
        assert!(fired.load(Ordering::SeqCst));
    }

    #[test]
    fn ideal_ddio_has_no_network_traffic() {
        let exp =
            echo_experiment(ExperimentConfig::tiny_for_tests().injection(InjectionPolicy::Ideal));
        let report = exp.run_at_rate(1.0e6);
        let counts = report.class_counts();
        assert_eq!(counts[TrafficClass::NicRxWr], 0);
        assert_eq!(counts[TrafficClass::NicTxRd], 0);
        assert_eq!(counts[TrafficClass::RxEvct], 0);
        assert_eq!(counts[TrafficClass::TxEvct], 0);
        assert_eq!(counts[TrafficClass::CpuRxRd], 0);
    }
}
