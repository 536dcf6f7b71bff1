//! Exact record-and-replay of the memory hierarchy's host time.
//!
//! A traced run records every call the server makes into the memory system
//! (`ServerConfig::memtrace`). A second, identical server is then built and
//! each recorded `cpu_read`/`cpu_write`/`nic_write`/`nic_read`/`sweep_range`
//! is re-issued through its `memory_mut()`, in recorded order and at the
//! recorded cycle, and timed on its own. `Writeback` events are consequences
//! of those calls, so they are skipped. From a cold start the replay is an
//! exact re-execution: every latency and the final statistics must match the
//! live run, which doubles as an output check.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use sweeper_core::server::{RunReport, Server};
use sweeper_sim::hierarchy::MemorySystem;
use sweeper_sim::trace::{TraceEvent, TraceKind};
use sweeper_sim::BLOCK_BYTES;

use crate::probe::{ns_since, Probed, WorkloadTimes};
use crate::workloads::{check_run, digest, RunSpec};

/// The hierarchy calls the replay times, in report order.
pub const CALLS: [&str; 5] = [
    "cpu_read",
    "cpu_write",
    "nic_write",
    "nic_read",
    "sweep_range",
];

/// Memtrace capacity per measured request. A request makes about eight
/// traced calls plus one `Writeback` event per dirty block it evicts; the
/// ring is allocated lazily, so headroom costs address space only.
const EVENTS_PER_REQUEST: u64 = 128;

/// Everything the memory system measured: its statistics plus the DRAM's
/// read-latency histogram, per-channel counts, and row-hit rate.
pub fn fingerprint(mem: &MemorySystem) -> String {
    let dram = mem.dram();
    format!(
        "{:?} {:?} {:?} {}",
        mem.stats(),
        dram.read_latency().summary(),
        dram.channel_counts(),
        dram.row_hit_rate()
    )
}

/// A traced run, ready to replay.
#[derive(Debug)]
pub struct TracedRun {
    /// Host seconds of `Server::run`, tracing and workload timing included.
    pub wall_s: f64,
    /// The run's report (its memtrace moved into `events`).
    pub report: RunReport,
    /// The simulated outputs (see [`digest`]).
    pub digest: String,
    /// Every memtrace event, oldest first.
    pub events: Vec<TraceEvent>,
    /// Host time of the workload layer.
    pub workload: WorkloadTimes,
    /// The live memory system's [`fingerprint`] at the end of the run.
    pub fingerprint: String,
    /// DRAM row-hit rate at the end of the run.
    pub row_hit_rate: f64,
}

/// Runs `spec` with the memtrace on and the workload timed.
///
/// Fails if the ring overwrote any event or the workload emitted an op the
/// memtrace does not record: either would make the replay inexact.
pub fn run_traced(spec: &RunSpec, overhead_ns: u64) -> Result<TracedRun, String> {
    let mut cfg = spec.server.clone();
    cfg.memtrace = Some((spec.options.measure_requests * EVENTS_PER_REQUEST) as usize);
    let times = Rc::new(RefCell::new(WorkloadTimes::default()));
    let app = Probed::timing((spec.make)(), Rc::clone(&times), overhead_ns);
    let mut server = Server::new(cfg, Box::new(app));
    let start = Instant::now();
    let mut report = server.run(spec.options);
    let wall_s = start.elapsed().as_secs_f64();
    check_run(&report, &spec.options)?;
    let fingerprint = fingerprint(server.memory());
    let row_hit_rate = server.memory().dram().row_hit_rate();
    drop(server);

    let trace = report
        .memtrace
        .take()
        .ok_or("the traced run returned no memtrace")?;
    let events = trace.events();
    if trace.recorded() != events.len() as u64 {
        return Err(format!(
            "memtrace kept {} of {} events; the replay would be inexact",
            events.len(),
            trace.recorded()
        ));
    }
    let workload = times.take();
    if workload.unrecorded > 0 {
        return Err(format!(
            "{} requests emitted ops the memtrace does not record (cpu_read_scatter); \
             the run cannot be replayed",
            workload.unrecorded
        ));
    }
    Ok(TracedRun {
        wall_s,
        digest: digest(&report),
        report,
        events,
        workload,
        fingerprint,
        row_hit_rate,
    })
}

/// Host time of each hierarchy call, measured by replaying a memtrace.
#[derive(Debug)]
pub struct Replay {
    /// Host nanoseconds of each call, per entry of [`CALLS`].
    pub ns: [Vec<u64>; 5],
    /// Blocks the calls touched, per entry of [`CALLS`].
    pub blocks: [u64; 5],
    /// Calls whose latency or block count differed from the recording.
    pub mismatches: u64,
    /// The first such difference, described.
    pub first_mismatch: Option<String>,
    /// The replayed memory system's [`fingerprint`].
    pub fingerprint: String,
}

/// Replays `events` on a fresh server built from `spec`.
pub fn replay(spec: &RunSpec, events: &[TraceEvent], overhead_ns: u64) -> Replay {
    let mut cfg = spec.server.clone();
    cfg.memtrace = None;
    let mut server = Server::new(cfg, (spec.make)());
    let mem = server.memory_mut();
    let mut out = Replay {
        ns: Default::default(),
        blocks: [0; 5],
        mismatches: 0,
        first_mismatch: None,
        fingerprint: String::new(),
    };
    for (seq, e) in events.iter().enumerate() {
        let addr = e.block.base();
        let len = u64::from(e.blocks) * BLOCK_BYTES;
        let start = Instant::now();
        let (call, blocks, latency) = match e.kind {
            TraceKind::CpuRead => {
                let acc = mem.cpu_read(e.core, addr, len, e.at);
                (0, acc.blocks, acc.latency)
            }
            TraceKind::CpuWrite => {
                let acc = mem.cpu_write(e.core, addr, len, e.at);
                (1, acc.blocks, acc.latency)
            }
            TraceKind::NicWrite => (2, mem.nic_write(addr, len, e.at).blocks, 0),
            TraceKind::NicRead => (3, mem.nic_read(addr, len, e.at).blocks, 0),
            TraceKind::Sweep => (4, u64::from(e.blocks), mem.sweep_range(addr, len, e.at)),
            TraceKind::Writeback => continue,
        };
        out.ns[call].push(ns_since(start, overhead_ns));
        out.blocks[call] += blocks;
        if blocks != u64::from(e.blocks) || latency != e.latency {
            out.mismatches += 1;
            out.first_mismatch.get_or_insert_with(|| {
                format!(
                    "event {seq} ({} at cycle {}): replay gave {blocks} blocks in {latency} \
                     cycles, the run recorded {} in {}",
                    CALLS[call], e.at, e.blocks, e.latency
                )
            });
        }
    }
    out.fingerprint = fingerprint(mem);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sweeper_core::experiment::ExperimentConfig;
    use sweeper_core::server::{RunOptions, SweeperMode};
    use sweeper_core::workload::{CoreEnv, TxAction, Workload};
    use sweeper_nic::packet::Packet;
    use sweeper_sim::addr::RegionKind;
    use sweeper_workloads::kvs::{KvsConfig, MicaKvs};

    fn small_kvs() -> Box<dyn Workload> {
        Box::new(MicaKvs::new(KvsConfig::small_for_tests()))
    }

    fn tiny_sweeper_spec(make: fn() -> Box<dyn Workload>) -> RunSpec {
        RunSpec {
            server: ExperimentConfig::tiny_for_tests()
                .sweeper(SweeperMode::Enabled)
                .seed(7)
                .server_config()
                .clone(),
            options: RunOptions {
                warmup_requests: 0,
                ..RunOptions::quick()
            },
            make,
        }
    }

    #[test]
    fn replay_of_a_sweeper_run_is_exact() {
        let spec = tiny_sweeper_spec(small_kvs);
        let traced = run_traced(&spec, 0).expect("traced run");
        let replay = replay(&spec, &traced.events, 0);
        assert_eq!(replay.mismatches, 0, "{:?}", replay.first_mismatch);
        assert_eq!(replay.fingerprint, traced.fingerprint);
        // Every timed call kind occurs, the sweep path included.
        for (call, ns) in CALLS.iter().zip(&replay.ns) {
            assert!(!ns.is_empty(), "no {call} calls replayed");
        }
        assert_eq!(
            traced.workload.handle_ns.len() as u64,
            traced.report.completed
        );
    }

    #[test]
    fn replay_detects_a_perturbed_recording() {
        let spec = tiny_sweeper_spec(small_kvs);
        let mut traced = run_traced(&spec, 0).expect("traced run");
        let read = traced
            .events
            .iter_mut()
            .find(|e| e.kind == TraceKind::CpuRead)
            .expect("a cpu_read event");
        read.latency += 1;
        let replay = replay(&spec, &traced.events, 0);
        assert!(replay.mismatches >= 1);
        assert!(replay.first_mismatch.is_some());
    }

    /// Reads its packet through `cpu_read_scatter`, which the memtrace does
    /// not record.
    struct ScatterReader;

    impl Workload for ScatterReader {
        fn name(&self) -> &str {
            "scatter"
        }

        fn setup(&mut self, mem: &mut MemorySystem) {
            mem.address_map_mut().alloc(BLOCK_BYTES, RegionKind::App);
        }

        fn handle_packet(&mut self, packet: &Packet, env: &mut CoreEnv<'_>) -> TxAction {
            env.read_scatter(vec![packet.addr]);
            TxAction::None
        }
    }

    #[test]
    fn unrecorded_ops_fail_the_traced_run() {
        let spec = tiny_sweeper_spec(|| Box::new(ScatterReader));
        let err = run_traced(&spec, 0).expect_err("scatter reads cannot be replayed");
        assert!(err.contains("cpu_read_scatter"), "{err}");
    }

    #[test]
    fn an_overwritten_ring_fails_the_traced_run() {
        let mut spec = tiny_sweeper_spec(small_kvs);
        // A warm-up clears the ring when measurement starts, so the events
        // recorded before it are lost.
        spec.options.warmup_requests = 100;
        let err = run_traced(&spec, 0).expect_err("lost events make the replay inexact");
        assert!(err.contains("memtrace kept"), "{err}");
    }
}
