//! Memory-event tracing.
//!
//! A [`MemorySystem`](crate::hierarchy::MemorySystem) with its memtrace on
//! ([`enable_trace`](crate::hierarchy::MemorySystem::enable_trace)) records
//! one [`TraceEvent`] per CPU read or store, NIC write or read, sweep and
//! writeback, for debugging simulations and for exporting access streams to
//! external tools. The events land in a [`Trace`], the workspace's one
//! overwrite-oldest [`Ring`], through the memory system's single observer
//! seam; with every observer off, each hook costs one branch.
//! [`Trace::to_csv`] exports the retained window.

use crate::addr::BlockAddr;
use crate::ring::Ring;
use crate::span::NO_TRACE;
use crate::telemetry::{CsvTable, Value};
use crate::Cycle;

/// The kinds of memory-system events recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// CPU demand read (per range access).
    CpuRead,
    /// CPU store (per range access).
    CpuWrite,
    /// NIC packet injection.
    NicWrite,
    /// NIC transmit-path read.
    NicRead,
    /// `clsweep`/relinquish invalidation.
    Sweep,
    /// Dirty eviction written back to DRAM.
    Writeback,
}

impl TraceKind {
    /// Short label used by the CSV export.
    pub fn label(self) -> &'static str {
        match self {
            TraceKind::CpuRead => "cpu_rd",
            TraceKind::CpuWrite => "cpu_wr",
            TraceKind::NicWrite => "nic_wr",
            TraceKind::NicRead => "nic_rd",
            TraceKind::Sweep => "sweep",
            TraceKind::Writeback => "wb",
        }
    }
}

/// One recorded event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated time of the event.
    pub at: Cycle,
    /// Event kind.
    pub kind: TraceKind,
    /// Requesting core (`u16::MAX` for NIC-originated events).
    pub core: u16,
    /// First block touched.
    pub block: BlockAddr,
    /// Blocks touched by the operation.
    pub blocks: u32,
    /// Latency observed by the requester (0 for posted operations).
    pub latency: Cycle,
    /// Trace id of the request the event belongs to
    /// ([`NO_TRACE`] when span tracing is off or the
    /// event happened outside any request context).
    pub trace: u64,
}

/// Bounded ring of trace events (see [`Ring`]).
pub type Trace = Ring<TraceEvent>;

impl Trace {
    /// CSV export of the retained window, in the workspace's shared CSV
    /// dialect: `# key: value` manifest comment lines (artifact name,
    /// totals), then a header row, then one row per event.
    pub fn to_csv(&self) -> String {
        self.to_csv_with_comments(&[])
    }

    /// Like [`Trace::to_csv`], with extra caller-supplied manifest comment
    /// lines (run configuration, seed, …) prepended after the artifact's
    /// own.
    ///
    /// When span tracing tagged any retained event with a request trace id,
    /// the export grows a trailing `trace` column (empty for untagged
    /// events). Runs without span tracing keep the original column set
    /// byte-identical.
    pub fn to_csv_with_comments(&self, comments: &[(String, String)]) -> String {
        let tagged = self.iter().any(|e| e.trace != NO_TRACE);
        let headers: &[&str] = if tagged {
            &[
                "cycle", "kind", "core", "block", "blocks", "latency", "trace",
            ]
        } else {
            &["cycle", "kind", "core", "block", "blocks", "latency"]
        };
        let mut table = CsvTable::new(headers)
            .comment("artifact", "memtrace")
            .comment("events_recorded", self.recorded().to_string())
            .comment("events_retained", self.len().to_string())
            .comments(comments);
        for e in self.iter() {
            let mut row = vec![
                Value::U64(e.at),
                Value::Str(e.kind.label().to_string()),
                Value::U64(e.core as u64),
                Value::U64(e.block.0),
                Value::U64(e.blocks as u64),
                Value::U64(e.latency),
            ];
            if tagged {
                row.push(if e.trace == NO_TRACE {
                    Value::Str(String::new())
                } else {
                    Value::U64(e.trace)
                });
            }
            table.value_row(row);
        }
        table.to_csv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: Cycle) -> TraceEvent {
        TraceEvent {
            at,
            kind: TraceKind::CpuRead,
            core: 0,
            block: BlockAddr(at),
            blocks: 1,
            latency: 4,
            trace: NO_TRACE,
        }
    }

    #[test]
    fn csv_export_shape() {
        let mut t = Trace::new(2);
        t.record(ev(5));
        let csv = t.to_csv();
        assert!(csv.starts_with("# artifact: memtrace\n"));
        assert!(csv.contains("# events_recorded: 1\n"));
        assert!(csv.contains("\ncycle,kind,core,block,blocks,latency\n"));
        assert!(csv.contains("5,cpu_rd,0,5,1,4"));
    }

    #[test]
    fn csv_gains_trace_column_only_when_tagged() {
        let mut t = Trace::new(4);
        t.record(ev(5));
        t.record(TraceEvent { trace: 17, ..ev(6) });
        let csv = t.to_csv();
        assert!(csv.contains("\ncycle,kind,core,block,blocks,latency,trace\n"));
        // Untagged events leave the trailing cell empty.
        assert!(csv.contains("5,cpu_rd,0,5,1,4,\n"));
        assert!(csv.contains("6,cpu_rd,0,6,1,4,17"));
    }

    #[test]
    fn csv_export_extra_comments() {
        let mut t = Trace::new(2);
        t.record(ev(5));
        let csv = t.to_csv_with_comments(&[("seed".to_string(), "42".to_string())]);
        assert!(csv.contains("# seed: 42\n"));
    }
}
