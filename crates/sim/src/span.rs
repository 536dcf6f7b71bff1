//! Request-level causal spans, cycle-attribution profiles, and outlier
//! snapshots.
//!
//! A *span* is one stage of one request's life — NIC DMA, ring wait, LLC
//! fill, CPU reads, application service, sweep, transmit, DRAM queuing —
//! tagged with the request's trace id (its `PacketId` value) so the stages
//! of a single request can be correlated across the NIC, the memory
//! system, and the server engine. A
//! [`MemorySystem`](crate::hierarchy::MemorySystem) with spans on
//! ([`enable_spans`](crate::hierarchy::MemorySystem::enable_spans)) keeps
//! them in a [`SpanRing`] — the same overwrite-oldest [`Ring`] as the
//! memory trace — behind the same single observer seam: the observer holds
//! the current request id, every span and (span-tagged) trace event is
//! stamped with it, and with every observer off each hook costs one branch.
//!
//! Three consumers build on the ring:
//!
//! * [`perfetto_events`] renders retained spans as Chrome-trace-event
//!   JSON values (`ph: "X"` complete events) that `ui.perfetto.dev` opens
//!   directly;
//! * [`ProfileNode`] is the hierarchical cycle/DRAM-attribution tree the
//!   profiler reports through the `ReportSink` traversal;
//! * [`OutlierSnapshot`] captures the span window surrounding a
//!   tail-latency outlier for the flight recorder.
//!
//! The trace id of untagged events is [`NO_TRACE`]; exports omit it.

use crate::ring::Ring;
use crate::stats::ClassCounts;
use crate::telemetry::{Record, Value};
use crate::Cycle;

/// Trace id of events recorded outside any request context.
pub const NO_TRACE: u64 = u64::MAX;

/// The pipeline stage a span attributes its cycles to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// NIC DMA of the arriving packet (arrival → delivered; includes
    /// memory backpressure stalls).
    NicDma,
    /// Delivered packet waiting in the RX ring for its core.
    RxRingWait,
    /// DDIO write-allocate of the packet into the LLC's DDIO ways.
    LlcFill,
    /// CPU demand reads of the request's data (RX buffer, application
    /// state).
    CpuRead,
    /// Application service work: compute and stores.
    AppService,
    /// `relinquish`/`clsweep` of a consumed buffer (§V-A, §V-D).
    Sweep,
    /// Transmit-path Work Queue execution.
    Tx,
    /// Time spent queued in a DRAM channel behind other transfers.
    DramQueue,
}

impl SpanKind {
    /// Every kind, in pipeline order.
    pub const ALL: [SpanKind; 8] = [
        SpanKind::NicDma,
        SpanKind::RxRingWait,
        SpanKind::LlcFill,
        SpanKind::CpuRead,
        SpanKind::AppService,
        SpanKind::Sweep,
        SpanKind::Tx,
        SpanKind::DramQueue,
    ];

    /// Stable label used by exports (Perfetto category, profile keys).
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::NicDma => "nic_dma",
            SpanKind::RxRingWait => "rx_ring_wait",
            SpanKind::LlcFill => "llc_fill",
            SpanKind::CpuRead => "cpu_read",
            SpanKind::AppService => "app_service",
            SpanKind::Sweep => "sweep",
            SpanKind::Tx => "tx",
            SpanKind::DramQueue => "dram_queue",
        }
    }
}

impl std::fmt::Display for SpanKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Trace id of the owning request ([`NO_TRACE`] when untagged).
    pub trace: u64,
    /// Stage.
    pub kind: SpanKind,
    /// Core the stage ran on (`u16::MAX` for NIC/memory-side stages).
    pub core: u16,
    /// Start cycle.
    pub start: Cycle,
    /// End cycle (`start` for instantaneous events).
    pub end: Cycle,
}

impl SpanEvent {
    /// Span duration in cycles.
    pub fn duration(&self) -> Cycle {
        self.end.saturating_sub(self.start)
    }

    /// Structured export for the telemetry layer.
    pub fn to_record(&self) -> Record {
        let mut rec = Record::new();
        if self.trace != NO_TRACE {
            rec.push("trace", self.trace);
        }
        rec.push("kind", self.kind.label());
        rec.push("core", self.core as u64);
        rec.push("start", self.start);
        rec.push("end", self.end);
        rec
    }
}

/// Bounded ring of span events (see [`Ring`]).
pub type SpanRing = Ring<SpanEvent>;

/// Microseconds per cycle, the unit Chrome trace events use for `ts`/`dur`.
fn cycles_to_us(cycles: Cycle) -> f64 {
    crate::engine::cycles_to_ns(cycles) / 1e3
}

/// Renders spans as Chrome-trace-event values (`ph: "X"` complete events,
/// timestamps in microseconds of simulated time), one per span. The
/// resulting array is the `traceEvents` section of a Perfetto-loadable
/// document; each span's stage is both the event name and its category, the
/// core its `tid`, and the trace id rides in `args` so Perfetto's query
/// engine can group a request's stages.
pub fn perfetto_events(events: &[SpanEvent]) -> Vec<Value> {
    events
        .iter()
        .map(|e| {
            let mut args = Record::new();
            if e.trace != NO_TRACE {
                args.push("trace_id", e.trace);
            }
            args.push("start_cycles", e.start);
            args.push("cycles", e.duration());
            Value::from(
                Record::new()
                    .with("name", e.kind.label())
                    .with("cat", e.kind.label())
                    .with("ph", "X")
                    .with("ts", cycles_to_us(e.start))
                    .with("dur", cycles_to_us(e.duration()))
                    .with("pid", 1u64)
                    .with("tid", e.core as u64)
                    .with("args", args),
            )
        })
        .collect()
}

/// One node of the hierarchical cycle-attribution profile.
///
/// `cycles` and `count` are this node's own totals; `classes` attributes
/// the DRAM transfers observed while the stage ran, per
/// [`TrafficClass`](crate::stats::TrafficClass). Children refine a stage
/// into sub-stages; a well-formed profile keeps the invariant that a
/// parent's cycles equal the sum of its children's (enforced by the
/// profiler's construction, checked by tests).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileNode {
    /// Stage label (stable machine key).
    pub label: String,
    /// Simulated cycles attributed to this stage.
    pub cycles: u64,
    /// Times the stage executed.
    pub count: u64,
    /// DRAM transfers attributed to the stage, per traffic class.
    pub classes: ClassCounts,
    /// Sub-stages.
    pub children: Vec<ProfileNode>,
}

impl ProfileNode {
    /// An empty node.
    pub fn new(label: impl Into<String>) -> Self {
        Self {
            label: label.into(),
            ..Self::default()
        }
    }

    /// DRAM transfers attributed directly to this stage.
    pub fn dram_accesses(&self) -> u64 {
        self.classes.total()
    }

    /// Sum of the children's cycles.
    pub fn child_cycles(&self) -> u64 {
        self.children.iter().map(|c| c.cycles).sum()
    }

    /// The child named `label`, created on first use.
    pub fn child_mut(&mut self, label: &str) -> &mut ProfileNode {
        if let Some(i) = self.children.iter().position(|c| c.label == label) {
            return &mut self.children[i];
        }
        self.children.push(ProfileNode::new(label));
        self.children.last_mut().expect("just pushed")
    }

    /// Structured export for the telemetry layer, recursing into children.
    pub fn to_record(&self) -> Record {
        Record::new()
            .with("label", self.label.as_str())
            .with("cycles", self.cycles)
            .with("count", self.count)
            .with("dram_accesses", self.dram_accesses())
            .with("classes", self.classes.to_record())
            .with(
                "children",
                self.children
                    .iter()
                    .map(|c| Value::from(c.to_record()))
                    .collect::<Vec<_>>(),
            )
    }
}

/// The span window captured around one tail-latency outlier.
#[derive(Debug, Clone, PartialEq)]
pub struct OutlierSnapshot {
    /// Snapshot ordinal within the run (0-based).
    pub seq: u64,
    /// Trace id of the outlier request.
    pub trace: u64,
    /// Core that served the request.
    pub core: u16,
    /// Completion cycle.
    pub at: Cycle,
    /// The request's end-to-end latency, cycles.
    pub latency: Cycle,
    /// The online percentile threshold the latency exceeded, cycles.
    pub threshold: Cycle,
    /// The quantile the threshold estimates (e.g. 0.999).
    pub quantile: f64,
    /// Retained spans surrounding the completion (oldest first).
    pub window: Vec<SpanEvent>,
}

impl OutlierSnapshot {
    /// Structured export for the telemetry layer.
    pub fn to_record(&self) -> Record {
        Record::new()
            .with("seq", self.seq)
            .with("trace", self.trace)
            .with("core", self.core as u64)
            .with("at_cycles", self.at)
            .with("latency_cycles", self.latency)
            .with("threshold_cycles", self.threshold)
            .with("quantile", self.quantile)
            .with(
                "spans",
                self.window
                    .iter()
                    .map(|e| Value::from(e.to_record()))
                    .collect::<Vec<_>>(),
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(start: Cycle) -> SpanEvent {
        SpanEvent {
            trace: 7,
            kind: SpanKind::CpuRead,
            core: 0,
            start,
            end: start + 10,
        }
    }

    #[test]
    fn labels_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for kind in SpanKind::ALL {
            assert!(seen.insert(kind.label()), "duplicate label {kind}");
        }
    }

    #[test]
    fn perfetto_events_carry_chrome_fields() {
        // 3200 cycles = 1 µs at the 3.2 GHz clock.
        let events = vec![SpanEvent {
            trace: 3,
            kind: SpanKind::NicDma,
            core: 5,
            start: 3200,
            end: 6400,
        }];
        let out = perfetto_events(&events);
        assert_eq!(out.len(), 1);
        let Value::Record(rec) = &out[0] else {
            panic!("perfetto event must be a record");
        };
        assert_eq!(rec.get("name"), Some(&Value::Str("nic_dma".into())));
        assert_eq!(rec.get("ph"), Some(&Value::Str("X".into())));
        assert_eq!(rec.get("ts"), Some(&Value::F64(1.0)));
        assert_eq!(rec.get("dur"), Some(&Value::F64(1.0)));
        assert_eq!(rec.get("tid"), Some(&Value::U64(5)));
        let Some(Value::Record(args)) = rec.get("args") else {
            panic!("args missing");
        };
        assert_eq!(args.get("trace_id"), Some(&Value::U64(3)));
        assert_eq!(args.get("cycles"), Some(&Value::U64(3200)));
    }

    #[test]
    fn untagged_span_omits_trace_id() {
        let events = vec![SpanEvent {
            trace: NO_TRACE,
            kind: SpanKind::Sweep,
            core: u16::MAX,
            start: 0,
            end: 0,
        }];
        let Value::Record(rec) = &perfetto_events(&events)[0] else {
            panic!("record expected");
        };
        let Some(Value::Record(args)) = rec.get("args") else {
            panic!("args missing");
        };
        assert!(args.get("trace_id").is_none());
        assert!(events[0].to_record().get("trace").is_none());
    }

    #[test]
    fn profile_node_finds_or_creates_children() {
        let mut root = ProfileNode::new("request");
        root.child_mut("service").cycles += 10;
        root.child_mut("service").cycles += 5;
        root.child_mut("nic_dma").cycles += 3;
        assert_eq!(root.children.len(), 2);
        assert_eq!(root.children[0].cycles, 15);
        assert_eq!(root.child_cycles(), 18);
    }

    #[test]
    fn profile_record_recurses() {
        let mut root = ProfileNode::new("request");
        root.cycles = 20;
        root.count = 2;
        root.child_mut("service").cycles = 20;
        let rec = root.to_record();
        assert_eq!(rec.get("cycles"), Some(&Value::U64(20)));
        let Some(Value::Array(children)) = rec.get("children") else {
            panic!("children missing");
        };
        assert_eq!(children.len(), 1);
    }

    #[test]
    fn outlier_snapshot_exports_window() {
        let snap = OutlierSnapshot {
            seq: 0,
            trace: 11,
            core: 2,
            at: 500,
            latency: 400,
            threshold: 300,
            quantile: 0.999,
            window: vec![ev(100)],
        };
        let rec = snap.to_record();
        assert_eq!(rec.get("latency_cycles"), Some(&Value::U64(400)));
        let Some(Value::Array(spans)) = rec.get("spans") else {
            panic!("spans missing");
        };
        assert_eq!(spans.len(), 1);
    }
}
