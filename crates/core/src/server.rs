//! The simulated networked server: cores, rings, the Work Queue, and Sweeper.
//!
//! Reproduces the paper's system model (§III, Appendix A): a 24-core server
//! with an integrated Scale-Out-NUMA-style NIC, per-core RX rings, and a
//! traffic generator injecting packets at a configurable Poisson rate (or
//! keeping per-core queues topped up to a batching depth *D*, §IV-B).
//!
//! Each core runs a run-to-completion request loop:
//!
//! 1. dequeue the next packet from the core's RX ring,
//! 2. run the workload's handler, which records the request's
//!    memory-reference trace (RX buffer reads, application data accesses,
//!    compute),
//! 3. construct the response and hand its Work Queue entry to the NIC,
//! 4. with Sweeper enabled, `relinquish` the consumed RX buffer (§V-A) —
//!    or, for zero-copy forwarding, set the Work Queue entry's
//!    `sweep_buffer` flag so the NIC sweeps after transmission (§V-D).
//!
//! The engine is event-driven at *operation* granularity: each memory
//! access of each request is its own event, so accesses from all cores and
//! the NIC interleave in global simulated time. The engine is fully
//! deterministic for a given seed.

use std::collections::VecDeque;

use sweeper_nic::nic::{Nic, NicConfig};
use sweeper_nic::packet::Packet;
use sweeper_nic::queue::WqEntry;
use sweeper_nic::traffic::{ArrivalProcess, PoissonArrivals};
use sweeper_sim::addr::{Addr, RegionKind};
use sweeper_sim::check::{CheckConfig, CheckReport, ViolationKind};
use sweeper_sim::engine::{EventQueue, SimRng};
use sweeper_sim::hierarchy::{MachineConfig, MemorySystem};
use sweeper_sim::span::{OutlierSnapshot, ProfileNode, SpanKind, SpanRing};
use sweeper_sim::stats::{ClassCounts, Histogram, MemStats};
use sweeper_sim::trace::Trace;
use sweeper_sim::Cycle;

use crate::observe::{
    nic_stage, ActiveProfile, FlightRecorderConfig, NicStage, Observers, TimeSeries,
};
use crate::workload::{execute_op, BackgroundTenant, CoreEnv, Op, TxAction, Workload};

// Re-exported so callers configuring a server find the mode where they need
// it; it is defined alongside the mechanism in [`crate::sweep`].
pub use crate::sweep::SweeperMode;

/// Server configuration for one simulation run.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The simulated machine (Table I).
    pub machine: MachineConfig,
    /// Cores running the networked workload; the remaining cores are free
    /// for a background tenant (§VI-E).
    pub active_cores: u16,
    /// RX ring entries per core per endpoint (the paper's *B*).
    pub rx_entries: usize,
    /// Communicating endpoints per core (VIA/RDMA provisioning, §II-C).
    pub endpoints_per_core: usize,
    /// TX ring entries per core.
    pub tx_entries: usize,
    /// Bytes per RX/TX buffer entry (≥ packet size).
    pub buffer_bytes: u64,
    /// Request packet size in bytes.
    pub packet_bytes: u64,
    /// Packet arrival process.
    pub arrivals: ArrivalProcess,
    /// Sweeper RX-path mode.
    pub sweeper: SweeperMode,
    /// NIC-driven sweeping of (copied) TX buffers after transmission (§V-D
    /// extension; the paper's evaluation leaves this off).
    pub tx_sweep: bool,
    /// RNG seed; equal seeds give bit-identical runs.
    pub seed: u64,
    /// In-run time-series sampling period in cycles (`None` — the default
    /// — disables it and keeps the event loop's sampling cost to a single
    /// branch).
    pub sample_every: Option<Cycle>,
    /// Request-level span recording: ring capacity in spans (`None` — the
    /// default — disables it; every hook is one branch when off).
    pub spans: Option<usize>,
    /// Hierarchical cycle/DRAM attribution per pipeline stage (the
    /// [`RunReport::profile`] tree).
    pub profiler: bool,
    /// Tail-latency flight recorder; forces span recording on.
    pub flight: Option<FlightRecorderConfig>,
    /// Memory-event tracing: ring capacity in events (`None` disables;
    /// dumped by the `sweeper trace` subcommand).
    pub memtrace: Option<usize>,
    /// Correctness harness: shadow-memory oracle plus periodic hierarchy
    /// invariant walks (`None` — the default — disables it; every hook is
    /// one branch when off).
    pub check: Option<CheckConfig>,
}

impl ServerConfig {
    /// Paper-shaped defaults: 24 cores, 1 KB packets, 1024 RX buffers per
    /// core, Poisson arrivals at a placeholder rate, Sweeper off.
    pub fn paper_default() -> Self {
        let machine = MachineConfig::paper_default();
        Self {
            active_cores: machine.cores as u16,
            machine,
            rx_entries: 1024,
            endpoints_per_core: 1,
            tx_entries: 256,
            buffer_bytes: 1024,
            packet_bytes: 1024,
            arrivals: ArrivalProcess::Poisson { rate: 1.0e6 },
            sweeper: SweeperMode::Disabled,
            tx_sweep: false,
            seed: 0x5eed,
            sample_every: None,
            spans: None,
            profiler: false,
            flight: None,
            memtrace: None,
            check: None,
        }
    }

    /// Checks every field [`Server::new`] depends on, the machine's
    /// included, so callers can reject a bad configuration with a message
    /// before building anything.
    pub fn validate(&self) -> Result<(), String> {
        self.machine.validate()?;
        if self.active_cores == 0 || self.active_cores as usize > self.machine.cores {
            return Err(format!(
                "active cores out of range: got {}, expected 1..={}",
                self.active_cores, self.machine.cores
            ));
        }
        if self.rx_entries == 0 || self.tx_entries == 0 {
            return Err("RX and TX rings need at least one entry".into());
        }
        if self.endpoints_per_core == 0 {
            return Err("need at least one endpoint per core".into());
        }
        if self.buffer_bytes == 0 || self.packet_bytes > self.buffer_bytes {
            return Err(format!(
                "packets must fit in a buffer entry: got {} B packets, {} B buffers",
                self.packet_bytes, self.buffer_bytes
            ));
        }
        if self.sample_every == Some(0) {
            return Err("sampling period must be positive".into());
        }
        if let Some(flight) = &self.flight {
            if !(flight.quantile > 0.0 && flight.quantile < 1.0) {
                return Err("flight-recorder quantile must be in (0, 1)".into());
            }
            if flight.max_snapshots == 0 {
                return Err("flight-recorder snapshot budget must be positive".into());
            }
        }
        Ok(())
    }

    /// Tiny configuration for fast unit tests: the paper defaults on the
    /// tiny machine, with short rings.
    pub fn tiny_for_tests() -> Self {
        let machine = MachineConfig::tiny_for_tests();
        Self {
            active_cores: machine.cores as u16,
            machine,
            rx_entries: 16,
            tx_entries: 8,
            ..Self::paper_default()
        }
    }
}

/// Stop conditions for a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOptions {
    /// Requests completed before measurement starts (statistics reset).
    pub warmup_requests: u64,
    /// Requests measured after warmup; the run stops once reached.
    pub measure_requests: u64,
    /// Hard wall on simulated time; exceeded ⇒ `timed_out` in the report.
    pub max_cycles: Cycle,
    /// Minimum simulated warmup duration: measurement does not start before
    /// this many cycles even if the request quota is met. Used when a slow
    /// collocated tenant needs its cold pass covered (§VI-E).
    pub min_warmup_cycles: Cycle,
    /// Minimum measurement-window duration: the run continues past the
    /// request quota until the window spans this many cycles.
    pub min_measure_cycles: Cycle,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self {
            warmup_requests: 5_000,
            measure_requests: 20_000,
            max_cycles: 20_000_000_000, // 6.25 s of simulated time
            min_warmup_cycles: 0,
            min_measure_cycles: 0,
        }
    }
}

impl RunOptions {
    /// Quick options for unit tests.
    pub fn quick() -> Self {
        Self {
            warmup_requests: 200,
            measure_requests: 1_000,
            max_cycles: 2_000_000_000,
            min_warmup_cycles: 0,
            min_measure_cycles: 0,
        }
    }
}

/// Breakdown classes at or below this many accesses per request are left
/// out of [`RunReport::breakdown`].
pub(crate) const MIN_CLASS: f64 = 0.005;

/// Measured results of one run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Workload name.
    pub workload: String,
    /// Requests completed inside the measurement window.
    pub completed: u64,
    /// Packets offered (delivered + dropped) inside the window.
    pub offered: u64,
    /// Packets dropped (RX ring full) inside the window.
    pub dropped: u64,
    /// Length of the measurement window in cycles.
    pub elapsed_cycles: Cycle,
    /// Memory-system statistics over the window.
    pub mem: MemStats,
    /// End-to-end request latency (arrival → response transmitted), cycles.
    pub request_latency: Histogram,
    /// Per-request service time (dequeue → response transmitted), cycles.
    pub service_time: Histogram,
    /// DRAM read access latency over the window, cycles (Figure 6).
    pub dram_latency: Histogram,
    /// Background-tenant iterations completed inside the window (§VI-E).
    pub background_iterations: u64,
    /// Whether the run hit `max_cycles` before completing its quota.
    pub timed_out: bool,
    /// Per-channel `(reads, writes)` DRAM transfer counts over the window —
    /// a channel-imbalance diagnostic.
    pub channel_transfers: Vec<(u64, u64)>,
    /// In-run time series, present when [`ServerConfig::sample_every`] was
    /// set.
    pub timeseries: Option<TimeSeries>,
    /// Retained request spans, present when [`ServerConfig::spans`] (or the
    /// flight recorder, which forces them on) was set.
    pub spans: Option<SpanRing>,
    /// Hierarchical cycle/DRAM attribution, present when
    /// [`ServerConfig::profiler`] was set.
    pub profile: Option<ProfileNode>,
    /// Tail-latency outlier snapshots, present when
    /// [`ServerConfig::flight`] was set (possibly empty).
    pub outliers: Option<Vec<OutlierSnapshot>>,
    /// Retained memory-event trace, present when
    /// [`ServerConfig::memtrace`] was set.
    pub memtrace: Option<Trace>,
    /// Correctness-harness verdict, present when [`ServerConfig::check`]
    /// was set.
    pub check: Option<CheckReport>,
}

impl RunReport {
    /// Application throughput in millions of requests per second.
    pub fn throughput_mrps(&self) -> f64 {
        if self.elapsed_cycles == 0 {
            return 0.0;
        }
        self.completed as f64 / sweeper_sim::engine::cycles_to_secs(self.elapsed_cycles) / 1e6
    }

    /// Memory bandwidth utilization in GB/s over the window (Figures 1b,
    /// 2b, 5b, 8b).
    pub fn memory_bandwidth_gbps(&self) -> f64 {
        self.mem.bandwidth_gbps(self.elapsed_cycles)
    }

    /// Memory accesses per completed request, split by traffic class
    /// (Figures 1c, 2c, 5c, 7b).
    pub fn accesses_per_request(&self) -> Vec<(sweeper_sim::stats::TrafficClass, f64)> {
        let combined = self.mem.combined();
        let n = self.completed.max(1) as f64;
        combined.iter().map(|(c, v)| (c, v as f64 / n)).collect()
    }

    /// The breakdown every report and figure renders: the classes of
    /// [`accesses_per_request`](Self::accesses_per_request) above 0.005
    /// accesses per request.
    pub fn breakdown(&self) -> impl Iterator<Item = (sweeper_sim::stats::TrafficClass, f64)> {
        self.accesses_per_request()
            .into_iter()
            .filter(|&(_, v)| v > MIN_CLASS)
    }

    /// Total memory accesses per completed request.
    pub fn total_accesses_per_request(&self) -> f64 {
        self.mem.dram_accesses() as f64 / self.completed.max(1) as f64
    }

    /// Fraction of offered packets dropped in the window (Figure 10b).
    pub fn drop_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.dropped as f64 / self.offered as f64
        }
    }

    /// Fraction of offered packets completed; < 1 under overload.
    pub fn goodput_ratio(&self) -> f64 {
        if self.offered == 0 {
            1.0
        } else {
            self.completed as f64 / self.offered as f64
        }
    }

    /// Background-tenant progress in million iterations per second.
    pub fn background_mips(&self) -> f64 {
        if self.elapsed_cycles == 0 {
            return 0.0;
        }
        self.background_iterations as f64
            / sweeper_sim::engine::cycles_to_secs(self.elapsed_cycles)
            / 1e6
    }

    /// Raw per-class DRAM transfer counts over the window.
    pub fn class_counts(&self) -> ClassCounts {
        self.mem.combined()
    }
}

/// Simple round-robin TX buffer ring.
#[derive(Debug, Clone)]
struct TxRing {
    base: Addr,
    entries: u64,
    entry_bytes: u64,
    next: u64,
}

impl TxRing {
    fn new(
        map: &mut sweeper_sim::addr::AddressMap,
        core: u16,
        entries: usize,
        entry_bytes: u64,
    ) -> Self {
        let base = map.alloc(entries as u64 * entry_bytes, RegionKind::Tx { core });
        Self {
            base,
            entries: entries as u64,
            entry_bytes,
            next: 0,
        }
    }

    fn next_addr(&mut self) -> Addr {
        let a = self
            .base
            .offset((self.next % self.entries) * self.entry_bytes);
        self.next += 1;
        a
    }
}

/// An in-flight request on one core.
#[derive(Debug)]
struct Active {
    pkt: Packet,
    ops: VecDeque<Op>,
    wq: Option<WqEntry>,
    start: Cycle,
    prof: ActiveProfile,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    Arrival,
    CoreStep { core: u16 },
    BackgroundStep { core: u16 },
}

/// The simulated server.
pub struct Server {
    cfg: ServerConfig,
    mem: MemorySystem,
    nic: Nic,
    workload: Box<dyn Workload>,
    background: Option<Box<dyn BackgroundTenant>>,
    background_cores: Vec<u16>,
    tx_rings: Vec<TxRing>,
    arrivals: Option<PoissonArrivals>,
    /// The core the next Poisson arrival goes to: arrivals are spread
    /// round-robin (receive-side scaling with perfect balance).
    next_core: u16,
    wl_rng: SimRng,
    events: EventQueue<Event>,
    busy: Vec<bool>,
    active: Vec<Option<Active>>,
    bg_ops: Vec<VecDeque<Op>>,
    // Measurement state.
    measuring: bool,
    opts: RunOptions,
    warmup_left: u64,
    measure_left: u64,
    measure_start: Cycle,
    offered: u64,
    completed: u64,
    background_iterations: u64,
    request_latency: Histogram,
    service_time: Histogram,
    obs: Option<Box<Observers>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("workload", &self.workload.name())
            .field("cfg", &self.cfg)
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Builds a server around `workload`.
    ///
    /// # Panics
    ///
    /// Panics if [`ServerConfig::validate`] rejects `cfg`.
    pub fn new(cfg: ServerConfig, workload: Box<dyn Workload>) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("{e}");
        }
        let mut root_rng = SimRng::seeded(cfg.seed);
        let mut mem = MemorySystem::new(cfg.machine);
        let nic = Nic::new(
            NicConfig {
                rx_entries: cfg.rx_entries,
                buffer_bytes: cfg.buffer_bytes,
                cores: cfg.active_cores,
                endpoints_per_core: cfg.endpoints_per_core,
            },
            &mut mem,
        );
        let tx_rings = (0..cfg.active_cores)
            .map(|c| TxRing::new(mem.address_map_mut(), c, cfg.tx_entries, cfg.buffer_bytes))
            .collect();
        let mut workload = workload;
        workload.setup(&mut mem);
        let arrivals = match cfg.arrivals {
            ArrivalProcess::Poisson { rate } => Some(PoissonArrivals::new(rate, root_rng.fork())),
            ArrivalProcess::KeepQueued { .. } => None,
        };
        // Drawn and dropped on purpose: the workload's stream is the next
        // fork, and moving it would change every recorded result.
        let _ = root_rng.fork();
        let wl_rng = root_rng.fork();
        let cores = cfg.machine.cores;
        // Event population is bounded by the cores in flight (one CoreStep
        // each, active + background) plus the single pending Arrival; ring
        // depths bound how much work can queue behind them. Reserving that
        // up front keeps `EventQueue::push` reallocation-free for the whole
        // run.
        let event_capacity = (cores + 1) + cfg.rx_entries + cfg.tx_entries;
        // The flight recorder triages span windows, so it forces span
        // recording on; an explicit capacity wins.
        match (cfg.spans, &cfg.flight) {
            (Some(capacity), _) => mem.enable_spans(capacity),
            (None, Some(_)) => mem.enable_spans(4096),
            (None, None) => {}
        }
        if let Some(capacity) = cfg.memtrace {
            mem.enable_trace(capacity);
        }
        if let Some(check) = cfg.check {
            mem.enable_check(check);
        }
        // With Sweeper enabled, a request's `relinquish` sweep executes
        // *after* its packet was popped. Immediate slot recycling would let
        // the NIC refill the slot inside that window, so the sweep would
        // destroy the new packet's live data. Deferred recycling holds each
        // slot until the request (including its sweep) has finished.
        let mut nic = nic;
        if cfg.sweeper.is_enabled() {
            for core in 0..cfg.active_cores {
                nic.ring_mut(core).set_defer_recycle(true);
            }
        }
        Self {
            obs: Observers::new(&cfg, mem.spans().is_some()),
            busy: vec![false; cfg.active_cores as usize],
            active: (0..cfg.active_cores).map(|_| None).collect(),
            bg_ops: vec![VecDeque::new(); cores],
            cfg,
            mem,
            nic,
            workload,
            background: None,
            background_cores: Vec::new(),
            tx_rings,
            arrivals,
            next_core: 0,
            wl_rng,
            events: EventQueue::with_capacity(event_capacity),
            measuring: false,
            opts: RunOptions::default(),
            warmup_left: 0,
            measure_left: 0,
            measure_start: 0,
            offered: 0,
            completed: 0,
            background_iterations: 0,
            request_latency: Histogram::new(),
            service_time: Histogram::new(),
        }
    }

    /// Adds a collocated background tenant on the cores *not* running the
    /// networked workload (§VI-E).
    ///
    /// # Panics
    ///
    /// Panics if there are no spare cores.
    pub fn with_background(mut self, mut tenant: Box<dyn BackgroundTenant>) -> Self {
        let first = self.cfg.active_cores;
        let total = self.cfg.machine.cores as u16;
        assert!(first < total, "no spare cores for a background tenant");
        self.background_cores = (first..total).collect();
        for &core in &self.background_cores {
            tenant.setup(core, &mut self.mem);
        }
        self.background = Some(tenant);
        self
    }

    /// The memory system (inspection in tests and reports).
    pub fn memory(&self) -> &MemorySystem {
        &self.mem
    }

    /// Mutable memory-system access, used by experiment hooks to configure
    /// LLC way partitions before a run (§VI-E).
    pub fn memory_mut(&mut self) -> &mut MemorySystem {
        &mut self.mem
    }

    /// The NIC (inspection in tests and reports).
    pub fn nic(&self) -> &Nic {
        &self.nic
    }

    fn deliver_packet(&mut self, core: u16, now: Cycle) -> bool {
        if self.measuring {
            self.offered += 1;
        }
        let (nic, bytes) = (&mut self.nic, self.cfg.packet_bytes);
        let delivered = nic_stage(
            &mut self.obs,
            self.measuring,
            &mut self.mem,
            NicStage::Delivery,
            |mem| nic.deliver(core, bytes, now, mem).is_some(),
        );
        if delivered && !self.busy[core as usize] {
            self.busy[core as usize] = true;
            self.events.push(now, Event::CoreStep { core });
        }
        delivered
    }

    fn refill_keep_queued(&mut self, core: u16, now: Cycle) {
        if let ArrivalProcess::KeepQueued { depth } = self.cfg.arrivals {
            while self.nic.ring(core).occupancy() < depth {
                // A delivery can still drop when its flow's endpoint ring is
                // full; stop rather than spin (the hot peer is saturated).
                if !self.deliver_packet(core, now) {
                    break;
                }
            }
        }
    }

    fn start_measurement(&mut self, now: Cycle) {
        // Drain point: the warmed-up hierarchy must already satisfy every
        // invariant before measurement begins.
        self.run_check_walk();
        self.measuring = true;
        self.measure_start = now;
        self.offered = 0;
        self.mem.reset_stats();
        self.nic.reset_stats();
        self.request_latency.clear();
        self.service_time.clear();
        self.background_iterations = 0;
        // Warmup traffic is not part of any report: drop its spans and
        // trace events, restart the observers.
        self.mem.restart_recording();
        if let Some(obs) = &mut self.obs {
            obs.restart(now, self.completed);
        }
    }

    /// Periodic invariant walk, every `walk_every_requests` completed
    /// requests. One branch when the harness is disabled.
    fn maybe_check_walk(&mut self) {
        if let Some(cfg) = self.mem.check_config() {
            let every = cfg.walk_every_requests;
            if every > 0 && self.completed.is_multiple_of(every) {
                self.run_check_walk();
            }
        }
    }

    /// Verifies the RX rings' index/slot invariants, then walks every
    /// hierarchy invariant. No-op when the harness is disabled.
    fn run_check_walk(&mut self) {
        if self.mem.check_config().is_none() {
            return;
        }
        for core in 0..self.cfg.active_cores {
            if let Err(e) = self.nic.ring(core).check_consistency() {
                self.mem
                    .check_note_violation(ViolationKind::RingInconsistency, || {
                        format!("core {core}: {e}")
                    });
            }
        }
        self.mem.check_walk();
    }

    /// Builds the trace and transmission plan for a dequeued packet.
    fn begin_request(&mut self, core: u16, pkt: Packet, now: Cycle) {
        let c = core as usize;
        self.mem
            .record_span(pkt.id.0, SpanKind::RxRingWait, core, pkt.delivered, now);
        let mut env = CoreEnv::new(core, &mut self.wl_rng);
        let action = self.workload.handle_packet(&pkt, &mut env);
        let mut ops: VecDeque<Op> = env.into_ops().into();

        let wq = match action {
            TxAction::None => None,
            TxAction::Reply { bytes } => {
                let tx_addr = self.tx_rings[c].next_addr();
                let resp_bytes = bytes.min(self.cfg.buffer_bytes);
                ops.push_back(Op::Write {
                    addr: tx_addr,
                    len: resp_bytes,
                });
                Some(WqEntry {
                    transfer_length: resp_bytes,
                    buffer_addr: tx_addr,
                    sweep_buffer: self.cfg.tx_sweep,
                    packet: pkt.id,
                })
            }
            TxAction::ForwardInPlace => Some(WqEntry {
                transfer_length: pkt.bytes,
                buffer_addr: pkt.addr,
                // §V-D: for zero-copy TX the *NIC* performs the sweep.
                sweep_buffer: self.cfg.sweeper.is_enabled(),
                packet: pkt.id,
            }),
        };

        // RX-path Sweeper (§V-A): relinquish before the slot can be reused —
        // except for zero-copy forwarding, where the buffer is still live
        // until the NIC reads it.
        if self.cfg.sweeper.is_enabled() && action != TxAction::ForwardInPlace {
            ops.push_back(Op::Sweep {
                addr: pkt.addr,
                len: pkt.bytes,
            });
        }

        self.active[c] = Some(Active {
            pkt,
            ops,
            wq,
            start: now,
            prof: ActiveProfile::default(),
        });
    }

    /// Transmits, records metrics, and handles the warmup transition.
    fn finish_request(&mut self, core: u16, active: Active, now: Cycle) {
        if let Some(entry) = active.wq {
            let nic = &mut self.nic;
            nic_stage(
                &mut self.obs,
                self.measuring,
                &mut self.mem,
                NicStage::Transmit,
                |mem| nic.transmit(entry, now, mem),
            );
        }
        // Deferred recycling: the buffer (swept by now, including the NIC's
        // zero-copy TX sweep in `transmit` above) goes back to the producer.
        // No-op with immediate recycling.
        self.nic.ring_mut(core).recycle(active.pkt.addr);

        if self.measuring {
            self.completed += 1;
            self.measure_left = self.measure_left.saturating_sub(1);
            self.request_latency.record(now - active.pkt.arrival);
            self.service_time.record(now - active.start);
            if let Some(obs) = &mut self.obs {
                obs.finish(
                    &active.pkt,
                    active.start,
                    &active.prof,
                    now,
                    &self.request_latency,
                    &self.mem,
                );
            }
            self.maybe_check_walk();
        } else {
            self.warmup_left = self.warmup_left.saturating_sub(1);
            if self.warmup_left == 0 && now >= self.opts.min_warmup_cycles {
                self.start_measurement(now);
            } else if self.warmup_left == 0 {
                // Quota met but the time floor not yet reached: keep warming
                // up one request at a time until it is.
                self.warmup_left = 1;
            }
        }
    }

    /// Advances one core by one operation (or request boundary).
    fn core_step(&mut self, core: u16, now: Cycle) {
        let c = core as usize;
        if let Some(active) = &mut self.active[c] {
            if let Some(op) = active.ops.pop_front() {
                let lat = match self.obs.as_deref() {
                    None => execute_op(&mut self.mem, core, now, &op),
                    Some(obs) => {
                        let (trace, prof) = (active.pkt.id.0, &mut active.prof);
                        obs.op(&mut self.mem, trace, prof, core, now, &op)
                    }
                };
                self.events.push(now + lat, Event::CoreStep { core });
                return;
            }
            let done = self.active[c].take().expect("active request");
            self.finish_request(core, done, now);
        }
        // The head packet may still be in flight (NIC backpressure); wait
        // for its delivery before starting service.
        if let Some(head) = self.nic.ring(core).peek() {
            if head.delivered > now {
                let at = self
                    .nic
                    .ring(core)
                    .earliest_delivery()
                    .unwrap_or(head.delivered);
                self.events.push(at.max(now + 1), Event::CoreStep { core });
                return;
            }
        }
        match self.nic.ring_mut(core).pop() {
            None => {
                self.busy[c] = false;
            }
            Some(pkt) => {
                // The pop is the consumption point: from here on, sweeping
                // this buffer is legal. One branch when the harness is off.
                self.mem.mark_consumed(pkt.addr, pkt.bytes);
                self.refill_keep_queued(core, now);
                self.begin_request(core, pkt, now);
                self.events.push(now, Event::CoreStep { core });
            }
        }
    }

    /// Advances one background-tenant core by one operation.
    fn background_step(&mut self, core: u16, now: Cycle) {
        let c = core as usize;
        match self.bg_ops[c].pop_front() {
            Some(op) => {
                let lat = execute_op(&mut self.mem, core, now, &op).max(1);
                if self.bg_ops[c].is_empty() && self.measuring {
                    self.background_iterations += 1;
                }
                self.events.push(now + lat, Event::BackgroundStep { core });
            }
            None => {
                let mut tenant = self.background.take().expect("background scheduled");
                let mut env = CoreEnv::new(core, &mut self.wl_rng);
                tenant.step(core, &mut env);
                self.background = Some(tenant);
                self.bg_ops[c] = env.into_ops().into();
                assert!(
                    !self.bg_ops[c].is_empty(),
                    "background tenant must make progress"
                );
                self.events.push(now, Event::BackgroundStep { core });
            }
        }
    }

    /// Runs the simulation and returns the measured report.
    pub fn run(&mut self, opts: RunOptions) -> RunReport {
        assert!(opts.measure_requests > 0, "nothing to measure");
        self.opts = opts;
        self.warmup_left = opts.warmup_requests;
        self.measure_left = opts.measure_requests;
        self.measuring = false;
        self.completed = 0;
        if opts.warmup_requests == 0 {
            self.start_measurement(0);
        }

        // Prime the event queue.
        match self.cfg.arrivals {
            ArrivalProcess::Poisson { .. } => {
                let t = self
                    .arrivals
                    .as_mut()
                    .expect("poisson generator")
                    .next_arrival();
                self.events.push(t, Event::Arrival);
            }
            ArrivalProcess::KeepQueued { .. } => {
                for core in 0..self.cfg.active_cores {
                    self.refill_keep_queued(core, 0);
                }
            }
        }
        for &core in &self.background_cores.clone() {
            self.events.push(0, Event::BackgroundStep { core });
        }

        let mut now = 0;
        let mut timed_out = false;
        while let Some((t, ev)) = self.events.pop() {
            now = t;
            if now > opts.max_cycles {
                timed_out = true;
                break;
            }
            match ev {
                Event::Arrival => {
                    let core = self.next_core;
                    self.next_core = (core + 1) % self.cfg.active_cores;
                    self.deliver_packet(core, now);
                    let next = self
                        .arrivals
                        .as_mut()
                        .expect("poisson generator")
                        .next_arrival()
                        .max(now + 1);
                    self.events.push(next, Event::Arrival);
                }
                Event::CoreStep { core } => self.core_step(core, now),
                Event::BackgroundStep { core } => self.background_step(core, now),
            }
            if let Some(obs) = self.obs.as_deref_mut().filter(|_| self.measuring) {
                obs.sample(
                    now,
                    self.measure_start,
                    &self.mem,
                    &self.nic,
                    self.offered,
                    self.completed,
                );
            }
            if self.measuring
                && self.measure_left == 0
                && now.saturating_sub(self.measure_start) >= opts.min_measure_cycles
            {
                break;
            }
        }

        let elapsed_cycles = if self.measuring {
            now.saturating_sub(self.measure_start)
        } else {
            timed_out = true;
            0
        };
        // Final drain point: whatever state the run ended in must satisfy
        // every invariant.
        self.run_check_walk();
        let (timeseries, profile, outliers) = self
            .obs
            .as_deref()
            .map_or((None, None, None), Observers::outputs);
        RunReport {
            workload: self.workload.name().to_string(),
            completed: self.completed,
            offered: self.offered,
            dropped: self.nic.stats().dropped,
            elapsed_cycles,
            mem: self.mem.stats().clone(),
            request_latency: self.request_latency.clone(),
            service_time: self.service_time.clone(),
            dram_latency: self.mem.dram().read_latency().clone(),
            background_iterations: self.background_iterations,
            timed_out,
            channel_transfers: self.mem.dram().channel_counts(),
            timeseries,
            spans: self.mem.spans().cloned(),
            profile,
            outliers,
            memtrace: self.mem.trace().cloned(),
            check: self.mem.check_report(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::{FLIGHT_WINDOW, SAMPLES_RETAINED};
    use crate::workload::EchoWorkload;
    use sweeper_sim::stats::TrafficClass;
    use sweeper_sim::telemetry::Value;

    fn run_echo(cfg: ServerConfig) -> RunReport {
        let mut server = Server::new(cfg, Box::new(EchoWorkload::with_think(100)));
        server.run(RunOptions::quick())
    }

    #[test]
    fn echo_run_completes_quota() {
        let report = run_echo(ServerConfig::tiny_for_tests());
        assert_eq!(report.completed, 1_000);
        assert!(!report.timed_out);
        assert!(report.throughput_mrps() > 0.0);
        assert!(report.elapsed_cycles > 0);
        assert_eq!(report.workload, "echo");
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run_echo(ServerConfig::tiny_for_tests());
        let b = run_echo(ServerConfig::tiny_for_tests());
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.elapsed_cycles, b.elapsed_cycles);
        assert_eq!(a.mem.dram_accesses(), b.mem.dram_accesses());
        assert_eq!(a.request_latency.mean(), b.request_latency.mean());
    }

    #[test]
    fn different_seeds_differ() {
        let mut cfg = ServerConfig::tiny_for_tests();
        cfg.seed = 123;
        let a = run_echo(cfg.clone());
        cfg.seed = 456;
        let b = run_echo(cfg);
        assert_ne!(a.elapsed_cycles, b.elapsed_cycles);
    }

    #[test]
    fn sweeper_eliminates_rx_evictions_in_echo() {
        let mut cfg = ServerConfig::tiny_for_tests();
        cfg.rx_entries = 64; // footprint far beyond the tiny LLC
        let base = run_echo(cfg.clone());
        cfg.sweeper = SweeperMode::Enabled;
        let swept = run_echo(cfg);
        assert!(
            base.class_counts()[TrafficClass::RxEvct] > 0,
            "baseline should leak"
        );
        // With Sweeper, every residual RX eviction is premature (§VI-C):
        // the eviction counts match the CPU's later RX read misses, and
        // consumed-buffer evictions are gone.
        let swept_rx = swept.class_counts()[TrafficClass::RxEvct];
        let swept_premature = swept.class_counts()[TrafficClass::CpuRxRd];
        assert!(
            swept_rx <= swept_premature + 8,
            "sweeper residual evictions ({swept_rx}) must be premature ({swept_premature})"
        );
        assert!(
            swept_rx * 3 < base.class_counts()[TrafficClass::RxEvct],
            "sweeper must remove most RX evictions"
        );
        assert!(swept.mem.sweep_saved_writebacks > 0);
    }

    #[test]
    fn keep_queued_mode_sustains_depth() {
        let mut cfg = ServerConfig::tiny_for_tests();
        cfg.arrivals = ArrivalProcess::KeepQueued { depth: 4 };
        let mut server = Server::new(cfg, Box::new(EchoWorkload::with_think(100)));
        let report = server.run(RunOptions::quick());
        assert_eq!(report.completed, 1_000);
        // Rings stay topped up to ~depth.
        for core in 0..2 {
            assert!(server.nic().ring(core).occupancy() >= 3);
        }
    }

    #[test]
    fn overload_drops_packets() {
        let mut cfg = ServerConfig::tiny_for_tests();
        cfg.rx_entries = 4;
        cfg.arrivals = ArrivalProcess::Poisson { rate: 1.0e9 }; // absurd load
        let report = run_echo(cfg);
        assert!(report.dropped > 0);
        assert!(report.drop_rate() > 0.0);
        assert!(report.goodput_ratio() < 1.0);
    }

    #[test]
    fn latencies_grow_with_load() {
        let mut cfg = ServerConfig::tiny_for_tests();
        cfg.arrivals = ArrivalProcess::Poisson { rate: 0.2e6 };
        let light = run_echo(cfg.clone());
        cfg.arrivals = ArrivalProcess::Poisson { rate: 6.0e6 };
        let heavy = run_echo(cfg);
        assert!(
            heavy.request_latency.mean() > light.request_latency.mean(),
            "heavy {} vs light {}",
            heavy.request_latency.mean(),
            light.request_latency.mean()
        );
    }

    #[test]
    fn tx_sweep_extension_eliminates_tx_evictions() {
        let mut cfg = ServerConfig::tiny_for_tests();
        cfg.rx_entries = 64;
        cfg.tx_entries = 64;
        let base = run_echo(cfg.clone());
        cfg.tx_sweep = true;
        let swept = run_echo(cfg);
        assert!(base.class_counts()[TrafficClass::TxEvct] > 0);
        assert_eq!(swept.class_counts()[TrafficClass::TxEvct], 0);
    }

    #[test]
    fn report_breakdown_sums_to_total() {
        let report = run_echo(ServerConfig::tiny_for_tests());
        let total: f64 = report.accesses_per_request().iter().map(|(_, v)| v).sum();
        assert!((total - report.total_accesses_per_request()).abs() < 1e-9);
    }

    #[test]
    fn requests_from_different_cores_interleave() {
        // With op-granular events, two cores' requests overlap in time: the
        // run must be much shorter than the sum of all service times.
        let mut cfg = ServerConfig::tiny_for_tests();
        cfg.arrivals = ArrivalProcess::KeepQueued { depth: 4 };
        let mut server = Server::new(cfg, Box::new(EchoWorkload::with_think(500)));
        let report = server.run(RunOptions::quick());
        let sum_service: f64 = report.service_time.mean() * report.completed as f64;
        assert!(
            (report.elapsed_cycles as f64) < 0.7 * sum_service,
            "elapsed {} vs serial {}",
            report.elapsed_cycles,
            sum_service
        );
    }

    #[test]
    fn min_measure_cycles_extends_the_window() {
        let mut opts = RunOptions::quick();
        opts.min_measure_cycles = 50_000_000;
        let mut server = Server::new(
            ServerConfig::tiny_for_tests(),
            Box::new(EchoWorkload::with_think(100)),
        );
        let report = server.run(opts);
        assert!(report.elapsed_cycles >= 50_000_000);
        // More requests than the quota completed while the clock ran out.
        assert!(report.completed >= 1_000);
    }

    #[test]
    fn min_warmup_cycles_delays_measurement() {
        let mut opts = RunOptions::quick();
        opts.min_warmup_cycles = 20_000_000;
        let mut server = Server::new(
            ServerConfig::tiny_for_tests(),
            Box::new(EchoWorkload::with_think(100)),
        );
        let report = server.run(opts);
        assert!(!report.timed_out);
        assert_eq!(
            report.completed, 1_000,
            "quota still respected after the floor"
        );
    }

    #[test]
    fn endpoint_provisioning_multiplies_footprint_and_runs() {
        let mut cfg = ServerConfig::tiny_for_tests();
        cfg.rx_entries = 4;
        cfg.endpoints_per_core = 4;
        let server = Server::new(cfg, Box::new(EchoWorkload::with_think(100)));
        // 2 cores x 4 endpoints x 4 entries x 1KB buffers.
        assert_eq!(server.nic().total_rx_footprint(), 2 * 4 * 4 * 1024);
        let mut server = server;
        let report = server.run(RunOptions::quick());
        assert_eq!(report.completed, 1_000);
        assert!(!report.timed_out);
    }

    #[test]
    fn delivered_time_never_precedes_arrival() {
        // NIC backpressure can only delay delivery; service then waits for
        // it. Request latency therefore is at least the service time.
        let mut cfg = ServerConfig::tiny_for_tests();
        cfg.rx_entries = 64;
        cfg.arrivals = ArrivalProcess::Poisson { rate: 8.0e6 };
        let report = {
            let mut server = Server::new(cfg, Box::new(EchoWorkload::with_think(100)));
            server.run(RunOptions::quick())
        };
        assert!(report.request_latency.mean() >= report.service_time.mean());
        assert!(report.request_latency.percentile(0.99) >= report.service_time.percentile(0.99));
    }

    #[test]
    fn sampler_off_by_default() {
        let report = run_echo(ServerConfig::tiny_for_tests());
        assert!(report.timeseries.is_none());
    }

    #[test]
    fn sampler_snapshots_the_run() {
        let mut cfg = ServerConfig::tiny_for_tests();
        cfg.sample_every = Some(100_000);
        let report = run_echo(cfg);
        let ts = report.timeseries.clone().expect("sampler enabled");
        assert_eq!(ts.every, 100_000);
        assert!(!ts.samples.is_empty());
        assert_eq!(
            ts.samples.recorded(),
            ts.samples.len() as u64,
            "window not exceeded"
        );
        // Samples land on the sampling grid, strictly increasing.
        for (i, s) in ts.samples.iter().enumerate() {
            assert_eq!(s.at, (i as u64 + 1) * 100_000);
        }
        // Interval deltas sum to the run totals the report carries.
        let completed: u64 = ts.samples.iter().map(|s| s.completed_delta).sum();
        assert!(completed <= report.completed);
        assert!(
            completed >= report.completed * 9 / 10,
            "samples cover the window: {completed} vs {}",
            report.completed
        );
        // Bandwidth deltas agree with the aggregate within sampling slack.
        let mean_gbps: f64 =
            ts.samples.iter().map(|s| s.bandwidth_gbps).sum::<f64>() / ts.samples.len() as f64;
        assert!((mean_gbps - report.memory_bandwidth_gbps()).abs() < 1.0 + mean_gbps * 0.5);
    }

    #[test]
    fn sampler_is_deterministic() {
        let mut cfg = ServerConfig::tiny_for_tests();
        cfg.sample_every = Some(100_000);
        let a = run_echo(cfg.clone());
        let b = run_echo(cfg);
        assert_eq!(a.timeseries, b.timeseries);
    }

    #[test]
    fn sampler_does_not_perturb_the_simulation() {
        let base = run_echo(ServerConfig::tiny_for_tests());
        let mut cfg = ServerConfig::tiny_for_tests();
        cfg.sample_every = Some(50_000);
        let sampled = run_echo(cfg);
        assert_eq!(base.completed, sampled.completed);
        assert_eq!(base.elapsed_cycles, sampled.elapsed_cycles);
        assert_eq!(base.mem.dram_accesses(), sampled.mem.dram_accesses());
    }

    #[test]
    fn check_does_not_perturb_the_simulation() {
        let base = run_echo(ServerConfig::tiny_for_tests());
        let mut cfg = ServerConfig::tiny_for_tests();
        cfg.check = Some(CheckConfig::default());
        let checked = run_echo(cfg);
        assert_eq!(base.completed, checked.completed);
        assert_eq!(base.elapsed_cycles, checked.elapsed_cycles);
        assert_eq!(base.mem.dram_accesses(), checked.mem.dram_accesses());
        assert_eq!(base.request_latency.mean(), checked.request_latency.mean());
        let check = checked.check.expect("check enabled");
        assert!(check.passed(), "echo run violates an invariant: {check:?}");
        assert!(check.events > 0, "oracle mirrored no events");
        assert!(check.walks > 0, "invariant walker never ran");
        assert!(base.check.is_none(), "check report without check config");
    }

    #[test]
    fn zero_request_report_rates_are_finite() {
        // A run that times out before completing anything (or a report built
        // from an empty window) must render zeros, not NaN, in every derived
        // rate. Pin that by building the empty report directly.
        let report = RunReport {
            workload: "empty".into(),
            completed: 0,
            offered: 0,
            dropped: 0,
            elapsed_cycles: 0,
            mem: MemStats::default(),
            request_latency: Histogram::new(),
            service_time: Histogram::new(),
            dram_latency: Histogram::new(),
            background_iterations: 0,
            timed_out: true,
            channel_transfers: Vec::new(),
            timeseries: None,
            spans: None,
            profile: None,
            outliers: None,
            memtrace: None,
            check: None,
        };
        assert_eq!(report.throughput_mrps(), 0.0);
        assert_eq!(report.memory_bandwidth_gbps(), 0.0);
        for (class, per) in report.accesses_per_request() {
            assert!(per.is_finite(), "{class:?} per-request rate is not finite");
        }
        assert_eq!(report.total_accesses_per_request(), 0.0);
        assert_eq!(report.drop_rate(), 0.0);
        assert_eq!(report.goodput_ratio(), 1.0);
        assert_eq!(report.background_mips(), 0.0);
    }

    #[test]
    fn sampler_ring_retains_newest() {
        let mut cfg = ServerConfig::tiny_for_tests();
        cfg.sample_every = Some(500);
        let report = run_echo(cfg);
        let ts = report.timeseries.expect("sampler enabled");
        let total = ts.samples.recorded();
        assert!(total > SAMPLES_RETAINED as u64, "run long enough to wrap");
        assert_eq!(ts.samples.len(), SAMPLES_RETAINED);
        let last = ts.samples.iter().last().expect("non-empty").at;
        assert_eq!(last, total * 500);
    }

    #[test]
    fn timeseries_exports_are_structured() {
        let mut cfg = ServerConfig::tiny_for_tests();
        cfg.sample_every = Some(100_000);
        let report = run_echo(cfg);
        let ts = report.timeseries.expect("sampler enabled");
        let rec = ts.to_record();
        assert_eq!(rec.get("every_cycles"), Some(&Value::U64(100_000)));
        assert!(matches!(rec.get("samples"), Some(Value::Array(a)) if a.len() == ts.samples.len()));
        let csv = ts.to_csv_with_comments(&[("seed".into(), "1".into())]);
        assert!(csv.starts_with("# artifact: timeseries\n"));
        assert!(csv.contains("# seed: 1\n"));
        assert!(csv.contains("\nat_cycles,bandwidth_gbps,llc_rx"));
        // Header + one row per retained sample + 4 comment lines.
        assert_eq!(csv.lines().count(), 4 + 1 + ts.samples.len());
    }

    #[test]
    #[should_panic(expected = "sampling period must be positive")]
    fn zero_sampling_period_rejected() {
        let mut cfg = ServerConfig::tiny_for_tests();
        cfg.sample_every = Some(0);
        Server::new(cfg, Box::new(EchoWorkload::default()));
    }

    #[test]
    fn validate_rejects_each_out_of_range_field() {
        assert_eq!(ServerConfig::paper_default().validate(), Ok(()));
        assert_eq!(ServerConfig::tiny_for_tests().validate(), Ok(()));
        let rejects = |expect: &str, mutate: fn(&mut ServerConfig)| {
            let mut cfg = ServerConfig::paper_default();
            mutate(&mut cfg);
            let err = cfg.validate().expect_err(expect);
            assert!(err.contains(expect), "{err:?} should mention {expect:?}");
        };
        rejects("core count", |c| c.machine.cores = 65);
        rejects("core count", |c| c.machine.cores = 0);
        rejects("DDIO ways", |c| c.machine.ddio_ways = 20);
        rejects("DDIO ways", |c| c.machine.ddio_ways = 0);
        rejects("active cores", |c| c.active_cores = 100);
        rejects("at least one entry", |c| c.rx_entries = 0);
        rejects("at least one entry", |c| c.tx_entries = 0);
        rejects("endpoint", |c| c.endpoints_per_core = 0);
        rejects("buffer entry", |c| c.buffer_bytes = 0);
    }

    #[test]
    #[should_panic(expected = "packets must fit in a buffer entry")]
    fn oversized_packets_rejected() {
        let mut cfg = ServerConfig::tiny_for_tests();
        cfg.packet_bytes = 4096;
        Server::new(cfg, Box::new(EchoWorkload::default()));
    }

    #[test]
    fn tracing_features_off_by_default() {
        let report = run_echo(ServerConfig::tiny_for_tests());
        assert!(report.spans.is_none());
        assert!(report.profile.is_none());
        assert!(report.outliers.is_none());
        assert!(report.memtrace.is_none());
    }

    #[test]
    fn spans_cover_the_request_pipeline() {
        let mut cfg = ServerConfig::tiny_for_tests();
        cfg.spans = Some(65_536);
        cfg.sweeper = SweeperMode::Enabled;
        let report = run_echo(cfg);
        let spans = report.spans.expect("span recording enabled");
        assert!(spans.recorded() > 0);
        for kind in [
            SpanKind::NicDma,
            SpanKind::RxRingWait,
            SpanKind::CpuRead,
            SpanKind::AppService,
            SpanKind::Sweep,
            SpanKind::Tx,
        ] {
            assert!(
                spans.iter().any(|e| e.kind == kind),
                "no {kind} spans recorded"
            );
        }
        // Request-stage spans are tagged with their packet's trace id.
        for event in spans.iter().filter(|e| e.kind == SpanKind::RxRingWait) {
            assert_ne!(event.trace, sweeper_sim::span::NO_TRACE);
            assert!(event.end >= event.start);
        }
    }

    #[test]
    fn observability_does_not_perturb_the_simulation() {
        // Sweeper on, so the sweep, DRAM-queue and LLC-fill hooks fire too.
        let mut cfg = ServerConfig::tiny_for_tests();
        cfg.sweeper = SweeperMode::Enabled;
        let outputs = |r: &RunReport| {
            format!(
                "{} {} {} {} {:?} {:?} {:?} {:?} {:?} {}",
                r.completed,
                r.offered,
                r.dropped,
                r.elapsed_cycles,
                r.mem,
                r.request_latency.summary(),
                r.service_time.summary(),
                r.dram_latency.summary(),
                r.channel_transfers,
                r.timed_out,
            )
        };
        let base = run_echo(cfg.clone());
        cfg.sample_every = Some(50_000);
        cfg.spans = Some(4096);
        cfg.profiler = true;
        cfg.flight = Some(FlightRecorderConfig::default());
        cfg.memtrace = Some(1024);
        cfg.check = Some(CheckConfig::default());
        let observed = run_echo(cfg);
        assert!(observed.check.as_ref().is_some_and(CheckReport::passed));
        assert!(observed.timeseries.is_some() && observed.outliers.is_some());
        assert_eq!(outputs(&base), outputs(&observed));
    }

    #[test]
    fn profiler_accounts_every_request_cycle() {
        let mut cfg = ServerConfig::tiny_for_tests();
        cfg.profiler = true;
        cfg.sweeper = SweeperMode::Enabled;
        let report = run_echo(cfg);
        let profile = report.profile.expect("profiler enabled");
        assert_eq!(profile.label, "request");
        assert_eq!(profile.count, report.completed);
        // The engine chains operation events with no gaps, so attribution
        // is exact at both tree levels.
        assert_eq!(profile.cycles, profile.child_cycles());
        let service = profile
            .children
            .iter()
            .find(|c| c.label == "service")
            .expect("service node");
        assert_eq!(service.cycles, service.child_cycles());
        // Total attributed cycles equal the latency histogram's mass.
        let total = (report.request_latency.mean() * report.completed as f64).round() as u64;
        assert!(
            profile.cycles.abs_diff(total) <= report.completed,
            "profiled {} vs histogram {total}",
            profile.cycles
        );
        assert!(profile.dram_accesses() > 0);
    }

    #[test]
    fn profiler_is_deterministic() {
        let mut cfg = ServerConfig::tiny_for_tests();
        cfg.profiler = true;
        let a = run_echo(cfg.clone());
        let b = run_echo(cfg);
        assert_eq!(a.profile, b.profile);
    }

    #[test]
    fn flight_recorder_captures_outliers() {
        let mut cfg = ServerConfig::tiny_for_tests();
        cfg.flight = Some(FlightRecorderConfig {
            quantile: 0.9,
            min_samples: 100,
            max_snapshots: 4,
        });
        let report = run_echo(cfg);
        // Forcing spans on is part of the contract.
        assert!(report.spans.is_some());
        let outliers = report.outliers.expect("flight recorder enabled");
        assert!(
            !outliers.is_empty(),
            "p90 trigger must fire in 1000 requests"
        );
        assert!(outliers.len() <= 4);
        for (i, snap) in outliers.iter().enumerate() {
            assert_eq!(snap.seq, i as u64);
            assert!(snap.latency > snap.threshold);
            assert!(!snap.window.is_empty());
            assert!(snap.window.len() <= FLIGHT_WINDOW);
        }
    }

    #[test]
    fn memtrace_rides_the_report_and_carries_trace_ids() {
        let mut cfg = ServerConfig::tiny_for_tests();
        cfg.memtrace = Some(1024);
        cfg.spans = Some(1024);
        let report = run_echo(cfg);
        let trace = report.memtrace.expect("memtrace enabled");
        assert!(trace.recorded() > 0);
        let csv = trace.to_csv();
        assert!(
            csv.contains(",latency,trace\n"),
            "span-tagged trace must export the trace column"
        );
    }

    #[test]
    fn memtrace_alone_keeps_the_golden_columns() {
        let mut cfg = ServerConfig::tiny_for_tests();
        // Room for the whole measured window. The warmup's events are
        // discarded but still counted, so `recorded > retained` tells a
        // consumer that needs every event (the host-speed benchmark's
        // replay) that some were lost.
        cfg.memtrace = Some(1 << 16);
        let report = run_echo(cfg);
        let trace = report.memtrace.expect("memtrace enabled");
        assert!(!trace.events().is_empty());
        assert!(trace.recorded() > trace.events().len() as u64);
        let csv = trace.to_csv();
        assert!(csv.contains("\ncycle,kind,core,block,blocks,latency\n"));
        assert!(!csv.contains(",latency,trace"));
    }

    #[test]
    #[should_panic(expected = "nothing to measure")]
    fn zero_measure_rejected() {
        let mut server = Server::new(
            ServerConfig::tiny_for_tests(),
            Box::new(EchoWorkload::default()),
        );
        server.run(RunOptions {
            warmup_requests: 0,
            measure_requests: 0,
            max_cycles: 1000,
            min_warmup_cycles: 0,
            min_measure_cycles: 0,
        });
    }
}
