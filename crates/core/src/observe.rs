//! The server's observers: the time-series sampler, the cycle-attribution
//! profiler, and the tail-latency flight recorder.
//!
//! None of them steers the simulation. The [`Server`](crate::server::Server)
//! holds them behind one `Option<Box<Observers>>`, present whenever one of
//! them or the memory system's request spans is on (spans need each op's
//! request context), and calls a handful of hooks, each one branch when
//! every observer is off: `restart` when measurement starts, `op` around
//! each executed op, `nic_stage` around NIC delivery and transmit, `sample`
//! after each measured event, `finish` for each measured request, and
//! `outputs` for the report. The memory system's own observers (memtrace,
//! spans, correctness harness) live in `sweeper_sim::hierarchy`.

use sweeper_nic::nic::Nic;
use sweeper_nic::packet::Packet;
use sweeper_sim::engine::cycles_to_secs;
use sweeper_sim::hierarchy::{LlcOccupancy, MemorySystem};
use sweeper_sim::ring::Ring;
use sweeper_sim::span::{OutlierSnapshot, ProfileNode, SpanKind};
use sweeper_sim::stats::{ClassCounts, Histogram, TrafficClass};
use sweeper_sim::telemetry::{CsvTable, Record, Value};
use sweeper_sim::Cycle;

use crate::server::ServerConfig;
use crate::workload::{execute_op, Op};

/// Samples a [`TimeSeries`] retains. When a run outlives the window the
/// oldest samples fall out of the ring; `samples.recorded()` still counts
/// them.
pub const SAMPLES_RETAINED: usize = 4096;

/// Spans the flight recorder captures per snapshot (the tail of the span
/// ring).
pub const FLIGHT_WINDOW: usize = 256;

/// Configuration of the tail-latency flight recorder.
///
/// The recorder keeps an online percentile estimate of the end-to-end
/// request latency and, once enough requests have been measured, snapshots
/// the [`FLIGHT_WINDOW`] spans surrounding any request whose latency
/// exceeds the estimate
/// ([`RunReport::outliers`](crate::server::RunReport::outliers)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlightRecorderConfig {
    /// The latency quantile whose online estimate is the trigger threshold.
    pub quantile: f64,
    /// Measured requests before the estimate is trusted and triggering
    /// starts.
    pub min_samples: u64,
    /// Snapshot budget per run; once exhausted, later outliers are only
    /// counted in the latency histogram.
    pub max_snapshots: usize,
}

impl Default for FlightRecorderConfig {
    /// p99.9 trigger after 512 requests, 32 snapshots.
    fn default() -> Self {
        Self {
            quantile: 0.999,
            min_samples: 512,
            max_snapshots: 32,
        }
    }
}

/// One time-series sample: deltas cover the interval since the previous
/// sample; occupancy and ring depth are instantaneous at the boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Cycles since measurement start (a multiple of the sampling period).
    pub at: Cycle,
    /// DRAM bandwidth over the interval, GB/s.
    pub bandwidth_gbps: f64,
    /// LLC occupancy by region kind at the boundary, in cache lines.
    pub llc: LlcOccupancy,
    /// Packets queued across all RX rings at the boundary.
    pub rx_ring_depth: usize,
    /// Packets offered during the interval.
    pub offered_delta: u64,
    /// Requests completed during the interval.
    pub completed_delta: u64,
    /// Packets dropped during the interval.
    pub dropped_delta: u64,
    /// DRAM transfers during the interval, per traffic class.
    pub class_delta: ClassCounts,
}

impl Sample {
    /// Structured export for the telemetry layer.
    pub fn to_record(&self) -> Record {
        Record::new()
            .with("at_cycles", self.at)
            .with("bandwidth_gbps", self.bandwidth_gbps)
            .with(
                "llc",
                Record::new()
                    .with("rx", self.llc.rx)
                    .with("tx", self.llc.tx)
                    .with("app", self.llc.app)
                    .with("other", self.llc.other),
            )
            .with("rx_ring_depth", self.rx_ring_depth)
            .with("offered_delta", self.offered_delta)
            .with("completed_delta", self.completed_delta)
            .with("dropped_delta", self.dropped_delta)
            .with("class_delta", self.class_delta.to_record())
    }
}

/// The sampled time series of one run (attached to
/// [`RunReport`](crate::server::RunReport) when
/// [`ServerConfig::sample_every`] is set).
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    /// The sampling period in cycles.
    pub every: Cycle,
    /// The last [`SAMPLES_RETAINED`] samples, oldest first. `recorded()`
    /// counts every sample since measurement start, including any that fell
    /// out of the window.
    pub samples: Ring<Sample>,
}

impl TimeSeries {
    /// Structured export for the telemetry layer.
    pub fn to_record(&self) -> Record {
        Record::new()
            .with("every_cycles", self.every)
            .with("total_samples", self.samples.recorded())
            .with("retained", self.samples.len())
            .with(
                "samples",
                self.samples
                    .iter()
                    .map(|s| Value::from(s.to_record()))
                    .collect::<Vec<_>>(),
            )
    }

    /// CSV export in the workspace's shared dialect, one row per sample,
    /// with extra caller-supplied manifest comment lines.
    pub fn to_csv_with_comments(&self, comments: &[(String, String)]) -> String {
        let mut headers = vec![
            "at_cycles",
            "bandwidth_gbps",
            "llc_rx",
            "llc_tx",
            "llc_app",
            "llc_other",
            "rx_ring_depth",
            "offered_delta",
            "completed_delta",
            "dropped_delta",
        ];
        let class_headers: Vec<String> = TrafficClass::ALL
            .iter()
            .map(|c| format!("delta[{}]", c.label()))
            .collect();
        headers.extend(class_headers.iter().map(|s| s.as_str()));
        let mut table = CsvTable::new(&headers)
            .comment("artifact", "timeseries")
            .comment("every_cycles", self.every.to_string())
            .comment("total_samples", self.samples.recorded().to_string())
            .comments(comments);
        for s in self.samples.iter() {
            let mut row = vec![
                Value::from(s.at),
                Value::from(s.bandwidth_gbps),
                Value::from(s.llc.rx),
                Value::from(s.llc.tx),
                Value::from(s.llc.app),
                Value::from(s.llc.other),
                Value::from(s.rx_ring_depth),
                Value::from(s.offered_delta),
                Value::from(s.completed_delta),
                Value::from(s.dropped_delta),
            ];
            row.extend(s.class_delta.iter().map(|(_, n)| Value::from(n)));
            table.value_row(row);
        }
        table.to_csv()
    }
}

/// Live sampler state inside a running server.
#[derive(Debug, Clone)]
struct SamplerState {
    next: Cycle,
    prev_classes: ClassCounts,
    prev_offered: u64,
    prev_completed: u64,
    prev_dropped: u64,
    series: TimeSeries,
}

impl SamplerState {
    /// A sampler whose first interval starts at `now`, diffing against
    /// freshly reset counters and `completed` requests.
    fn starting(every: Cycle, now: Cycle, completed: u64) -> Self {
        Self {
            next: now + every,
            prev_classes: ClassCounts::new(),
            prev_offered: 0,
            prev_completed: completed,
            prev_dropped: 0,
            series: TimeSeries {
                every,
                samples: Ring::new(SAMPLES_RETAINED),
            },
        }
    }
}

/// Cycles, executions, and DRAM-transfer classes attributed to one stage.
#[derive(Debug, Clone, Copy, Default)]
struct StageDelta {
    cycles: u64,
    count: u64,
    classes: ClassCounts,
}

impl StageDelta {
    fn add(&mut self, cycles: Cycle, classes: ClassCounts) {
        self.cycles += cycles;
        self.count += 1;
        for (class, n) in classes.iter() {
            self.classes[class] += n;
        }
    }

    fn merge(&mut self, other: &StageDelta) {
        self.cycles += other.cycles;
        self.count += other.count;
        for (class, n) in other.classes.iter() {
            self.classes[class] += n;
        }
    }

    fn into_node(self, label: &str) -> ProfileNode {
        ProfileNode {
            label: label.to_string(),
            cycles: self.cycles,
            count: self.count,
            classes: self.classes,
            children: Vec::new(),
        }
    }
}

/// Per-request service-stage accumulator, embedded in the server's
/// in-flight request so the hot path stays allocation-free. Folded into the
/// profiler only when the request finishes inside the measurement window.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ActiveProfile {
    cpu_read: StageDelta,
    app: StageDelta,
    sweep: StageDelta,
}

/// Run-wide cycle-attribution accumulator (the profiler).
#[derive(Debug, Clone, Default)]
struct ProfilerState {
    requests: u64,
    total_cycles: u64,
    nic_dma: StageDelta,
    rx_wait: StageDelta,
    cpu_read: StageDelta,
    app: StageDelta,
    sweep: StageDelta,
    tx: StageDelta,
}

impl ProfilerState {
    /// Builds the report's profile tree. The engine chains a request's
    /// operation events with no gaps, so the cycle accounting is exact:
    /// `request.cycles == nic_dma + rx_ring_wait + service` and
    /// `service.cycles == cpu_read + app_service + sweep + tx`.
    fn to_tree(&self) -> ProfileNode {
        let mut service = ProfileNode::new("service");
        service.count = self.requests;
        for node in [
            self.cpu_read.into_node(SpanKind::CpuRead.label()),
            self.app.into_node(SpanKind::AppService.label()),
            self.sweep.into_node(SpanKind::Sweep.label()),
            self.tx.into_node(SpanKind::Tx.label()),
        ] {
            service.cycles += node.cycles;
            for (class, n) in node.classes.iter() {
                service.classes[class] += n;
            }
            service.children.push(node);
        }
        let mut root = ProfileNode::new("request");
        root.cycles = self.total_cycles;
        root.count = self.requests;
        for node in [
            self.nic_dma.into_node(SpanKind::NicDma.label()),
            self.rx_wait.into_node(SpanKind::RxRingWait.label()),
            service,
        ] {
            for (class, n) in node.classes.iter() {
                root.classes[class] += n;
            }
            root.children.push(node);
        }
        root
    }
}

/// Live flight-recorder state inside a running server.
#[derive(Debug, Clone)]
struct FlightState {
    cfg: FlightRecorderConfig,
    snapshots: Vec<OutlierSnapshot>,
}

/// The server's observers (see the [module documentation](self)).
#[derive(Debug)]
pub(crate) struct Observers {
    sampler: Option<SamplerState>,
    profiler: Option<ProfilerState>,
    flight: Option<FlightState>,
}

/// The NIC-side stages [`nic_stage`] attributes DRAM traffic to.
pub(crate) enum NicStage {
    /// Packet injection, charged to `nic_dma`.
    Delivery,
    /// Response transmit, charged to `tx`.
    Transmit,
}

/// Runs the NIC step `f` and, while the profiler measures, attributes the
/// DRAM traffic it causes to `stage`. A delivery's traffic (the injection
/// and any writebacks it displaces) is taken at delivery time, so it is
/// per window rather than per finished request; the boundary slack is at
/// most the requests in flight when measurement starts or stops. A transmit
/// is posted, zero cycles on the request's critical path, but its DRAM
/// traffic is attributed.
pub(crate) fn nic_stage<R>(
    obs: &mut Option<Box<Observers>>,
    measuring: bool,
    mem: &mut MemorySystem,
    stage: NicStage,
    f: impl FnOnce(&mut MemorySystem) -> R,
) -> R {
    let profiler = obs.as_deref_mut().and_then(|o| o.profiler.as_mut());
    let Some(prof) = profiler.filter(|_| measuring) else {
        return f(mem);
    };
    let before = mem.stats().combined();
    let out = f(mem);
    let delta = mem.stats().combined().since(&before);
    match stage {
        NicStage::Delivery => {
            for (class, n) in delta.iter() {
                prof.nic_dma.classes[class] += n;
            }
        }
        NicStage::Transmit => prof.tx.add(0, delta),
    }
    out
}

impl Observers {
    /// The observers `cfg` turns on, or `None` when none of them nor the
    /// memory system's request spans (`spans_on`) are on.
    pub(crate) fn new(cfg: &ServerConfig, spans_on: bool) -> Option<Box<Self>> {
        let on = cfg.sample_every.is_some() || cfg.profiler || spans_on;
        on.then(|| {
            Box::new(Self {
                sampler: cfg
                    .sample_every
                    .map(|every| SamplerState::starting(every, 0, 0)),
                profiler: cfg.profiler.then(ProfilerState::default),
                flight: cfg.flight.map(|cfg| FlightState {
                    cfg,
                    snapshots: Vec::new(),
                }),
            })
        })
    }

    /// Restarts every observer when measurement starts at `now` with
    /// `completed` requests done: warmup is not part of any report.
    pub(crate) fn restart(&mut self, now: Cycle, completed: u64) {
        if let Some(prof) = &mut self.profiler {
            *prof = ProfilerState::default();
        }
        if let Some(flight) = &mut self.flight {
            flight.snapshots.clear();
        }
        if let Some(state) = &mut self.sampler {
            *state = SamplerState::starting(state.series.every, now, completed);
        }
    }

    /// Executes one op of request `trace` under its trace id, so
    /// interleaved cores' memory events stay attributable, and records its
    /// span and profile into `prof`. Sweeps record their span inside
    /// `sweep_range` (shared with the NIC's zero-copy TX path); the
    /// CPU-visible stages are recorded here, after the fact, when the
    /// latency is known.
    pub(crate) fn op(
        &self,
        mem: &mut MemorySystem,
        trace: u64,
        prof: &mut ActiveProfile,
        core: u16,
        now: Cycle,
        op: &Op,
    ) -> Cycle {
        mem.set_request(trace);
        let before = self.profiler.as_ref().map(|_| mem.stats().combined());
        let lat = execute_op(mem, core, now, op);
        let (kind, stage) = match op {
            Op::Read { .. } | Op::ReadScatter { .. } => {
                (Some(SpanKind::CpuRead), &mut prof.cpu_read)
            }
            Op::Write { .. } | Op::Compute { .. } => (Some(SpanKind::AppService), &mut prof.app),
            Op::Sweep { .. } => (None, &mut prof.sweep),
        };
        if let Some(kind) = kind {
            mem.record_span(trace, kind, core, now, now + lat);
        }
        if let Some(before) = before {
            stage.add(lat, mem.stats().combined().since(&before));
        }
        lat
    }

    /// Takes every sample due by `now` (stamped at its interval boundary).
    /// Deltas spanning multiple periods land in the first due sample; later
    /// boundaries in the same gap record zero deltas, so the series stays
    /// aligned to the sampling grid regardless of event spacing.
    pub(crate) fn sample(
        &mut self,
        now: Cycle,
        measure_start: Cycle,
        mem: &MemorySystem,
        nic: &Nic,
        offered: u64,
        completed: u64,
    ) {
        let Some(state) = &mut self.sampler else {
            return;
        };
        while now >= state.next {
            let classes = mem.stats().combined();
            let class_delta = classes.since(&state.prev_classes);
            let dropped = nic.stats().dropped;
            let bandwidth_gbps = class_delta.total() as f64 * sweeper_sim::BLOCK_BYTES as f64
                / cycles_to_secs(state.series.every)
                / 1e9;
            let rx_ring_depth = (0..nic.config().cores)
                .map(|c| nic.ring(c).occupancy())
                .sum::<usize>();
            state.series.samples.record(Sample {
                at: state.next - measure_start,
                bandwidth_gbps,
                llc: mem.llc_occupancy_by_region(),
                rx_ring_depth,
                offered_delta: offered - state.prev_offered,
                completed_delta: completed - state.prev_completed,
                dropped_delta: dropped - state.prev_dropped,
                class_delta,
            });
            state.prev_classes = classes;
            state.prev_offered = offered;
            state.prev_completed = completed;
            state.prev_dropped = dropped;
            state.next += state.series.every;
        }
    }

    /// Folds one measured request (`pkt`, served from `start` to `now`)
    /// into the profiler and, once the online percentile estimate over
    /// `request_latency` is trustworthy, snapshots the span window around a
    /// tail-latency outlier. At most `max_snapshots` window copies per run.
    pub(crate) fn finish(
        &mut self,
        pkt: &Packet,
        start: Cycle,
        active: &ActiveProfile,
        now: Cycle,
        request_latency: &Histogram,
        mem: &MemorySystem,
    ) {
        let latency = now - pkt.arrival;
        if let Some(prof) = &mut self.profiler {
            prof.requests += 1;
            prof.total_cycles += latency;
            prof.nic_dma.cycles += pkt.delivered - pkt.arrival;
            prof.nic_dma.count += 1;
            prof.rx_wait.add(start - pkt.delivered, ClassCounts::new());
            prof.cpu_read.merge(&active.cpu_read);
            prof.app.merge(&active.app);
            prof.sweep.merge(&active.sweep);
        }
        let Some(flight) = &mut self.flight else {
            return;
        };
        if flight.snapshots.len() >= flight.cfg.max_snapshots
            || request_latency.count() < flight.cfg.min_samples
        {
            return;
        }
        let threshold = request_latency.percentile(flight.cfg.quantile);
        if latency <= threshold {
            return;
        }
        let window = mem
            .spans()
            .expect("flight recorder forces span recording")
            .last(FLIGHT_WINDOW);
        flight.snapshots.push(OutlierSnapshot {
            seq: flight.snapshots.len() as u64,
            trace: pkt.id.0,
            core: pkt.core,
            at: now,
            latency,
            threshold,
            quantile: flight.cfg.quantile,
            window,
        });
    }

    /// The report's time series, profile tree and outlier snapshots, each
    /// present when its observer is on.
    pub(crate) fn outputs(
        &self,
    ) -> (
        Option<TimeSeries>,
        Option<ProfileNode>,
        Option<Vec<OutlierSnapshot>>,
    ) {
        (
            self.sampler.as_ref().map(|s| s.series.clone()),
            self.profiler.as_ref().map(ProfilerState::to_tree),
            self.flight.as_ref().map(|f| f.snapshots.clone()),
        )
    }
}
