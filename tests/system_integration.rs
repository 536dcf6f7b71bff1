//! Cross-crate integration tests of the system plumbing: determinism,
//! queue-pair flow, collocation hooks, way partitioning, keep-queued load
//! generation, and the OS privacy model — everything below the level of the
//! paper-claim assertions in `paper_claims.rs`.

use sweeper::core::experiment::{Experiment, ExperimentConfig};
use sweeper::core::os::{probe_page_recycling, PageZeroMode};
use sweeper::core::server::{RunOptions, Server, SweeperMode};
use sweeper::core::workload::{CoreEnv, TxAction, Workload};
use sweeper::nic::packet::Packet;
use sweeper::nic::traffic::ArrivalProcess;
use sweeper::sim::cache::WayMask;
use sweeper::sim::hierarchy::{MachineConfig, MemorySystem};
use sweeper::workloads::kvs::{KvsConfig, MicaKvs};
use sweeper::workloads::l3fwd::{L3Forwarder, L3fwdConfig};
use sweeper::workloads::xmem::{Xmem, XmemConfig};

fn quick_opts() -> RunOptions {
    RunOptions {
        warmup_requests: 2_000,
        measure_requests: 6_000,
        max_cycles: 60_000_000_000,
        min_warmup_cycles: 0,
        min_measure_cycles: 0,
    }
}

#[test]
fn paper_scale_runs_are_bit_identical() {
    let run = || {
        let cfg = ExperimentConfig::paper_default()
            .rx_buffers_per_core(512)
            .packet_bytes(1024)
            .seed(1234)
            .run_options(quick_opts());
        Experiment::new(cfg, || MicaKvs::new(KvsConfig::paper_default())).run_at_rate(8.0e6)
    };
    let a = run();
    let b = run();
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.elapsed_cycles, b.elapsed_cycles);
    assert_eq!(a.mem.dram_accesses(), b.mem.dram_accesses());
    assert_eq!(a.dram_latency.mean(), b.dram_latency.mean());
    assert_eq!(
        a.request_latency.percentile(0.99),
        b.request_latency.percentile(0.99)
    );
}

#[test]
fn paper_machine_directory_never_grows() {
    // The memory system sizes its directory for every private L2 line, which
    // bounds the blocks it can track, so a full KVS + Sweeper run on the
    // paper machine must never rehash it.
    let cfg = ExperimentConfig::paper_default()
        .rx_buffers_per_core(1024)
        .packet_bytes(1024)
        .sweeper(SweeperMode::Enabled)
        .seed(7);
    let mut server_cfg = cfg.server_config().clone();
    server_cfg.arrivals = ArrivalProcess::Poisson { rate: 15.0e6 };
    let workload = Box::new(MicaKvs::new(KvsConfig::paper_default()));
    let mut server = Server::new(server_cfg, workload);
    let capacity = server.memory().directory().capacity();
    let report = server.run(quick_opts());
    assert!(!report.timed_out && report.completed >= 6_000);
    let dir = server.memory().directory();
    assert!(dir.tracked_blocks() > 10_000, "too few blocks tracked");
    assert_eq!(dir.capacity(), capacity, "the directory grew");
}

#[test]
fn keep_queued_maintains_batching_depth() {
    // §IV-B's load generator: every core's queue holds ≥ D unconsumed
    // packets; completions therefore proceed with zero idle gaps.
    let cfg = ExperimentConfig::paper_default()
        .rx_buffers_per_core(512)
        .packet_bytes(1024)
        .run_options(quick_opts());
    let exp = Experiment::new(cfg, || L3Forwarder::new(L3fwdConfig::l1_resident()));
    let report = exp.run_keep_queued(50);
    assert!(report.completed >= 6_000);
    assert!(!report.timed_out);
    // Closed loop: offered ≈ completed within one queue depth per core
    // (the warmup-filled queue completes inside the window without being
    // re-offered there).
    assert!(report.offered + 24 * 51 >= report.completed);
    assert!(report.offered <= report.completed + 24 * 51);
}

#[test]
fn collocated_tenants_progress_and_partitions_bind() {
    // Test-sized collocation: an 8-core machine (4 L3fwd + 4 X-Mem) instead
    // of the paper's 24 cuts the event cost ~3× while preserving the
    // capacity contrast. The X-Mem datasets stay at the paper's 2 MB — they
    // must exceed the 1.28 MB private L2 for the LLC partition to matter —
    // so 4 instances × 2 MB = 8 MB thrashes the narrow 2-way partition
    // (6 MB) and fits the wide 10-way one (30 MB).
    let build = |xmem_ways: WayMask| {
        let mut machine = MachineConfig::paper_default();
        machine.cores = 8;
        let cfg = ExperimentConfig::paper_default()
            .with_machine(machine)
            .active_cores(4)
            .rx_buffers_per_core(256)
            .packet_bytes(1024)
            .run_options(RunOptions {
                // X-Mem's cold pass over 2 MB takes ~15 M cycles; capacity
                // effects only appear once it re-reads a warm dataset.
                min_measure_cycles: 18_000_000,
                min_warmup_cycles: 16_000_000,
                ..quick_opts()
            });
        Experiment::new(cfg, || L3Forwarder::new(L3fwdConfig::l1_resident()))
            .with_background(|| Xmem::new(XmemConfig::paper_default()))
            .with_server_hook(move |server| {
                let mem = server.memory_mut();
                for core in 4..8 {
                    mem.set_cpu_llc_mask(core, xmem_ways);
                }
            })
            .run_keep_queued(8)
    };
    let wide = build(WayMask::range(2, 12));
    let narrow = build(WayMask::range(10, 12));
    assert!(wide.background_iterations > 0);
    assert!(narrow.background_iterations > 0);
    assert!(
        wide.background_mips() > narrow.background_mips() * 1.1,
        "X-Mem with 10 ways ({:.1}) must beat 2 ways ({:.1})",
        wide.background_mips(),
        narrow.background_mips()
    );
}

#[test]
fn tx_sweep_extension_works_at_paper_scale() {
    let run = |tx_sweep: bool| {
        // Overprovisioned TX rings (transmit-side buffer bloat, §V-D): the
        // 25 MB aggregate TX footprint cannot stay cache-resident, so the
        // baseline leaks TX writebacks.
        let cfg = ExperimentConfig::paper_default()
            .rx_buffers_per_core(1024)
            .tx_buffers_per_core(1024)
            .packet_bytes(1024)
            .sweeper(SweeperMode::Enabled)
            .tx_sweep(tx_sweep)
            .run_options(RunOptions {
                warmup_requests: 60_000,
                ..quick_opts()
            });
        Experiment::new(cfg, || L3Forwarder::new(L3fwdConfig::l2_resident())).run_at_rate(20.0e6)
    };
    let base = run(false);
    let swept = run(true);
    use sweeper::sim::stats::TrafficClass;
    assert_eq!(
        swept.class_counts()[TrafficClass::TxEvct],
        0,
        "NIC-driven TX sweeping must remove TX writebacks"
    );
    assert!(
        base.class_counts()[TrafficClass::TxEvct] > 0,
        "baseline must leak TX"
    );
    // Note: sweeping a TX ring that would otherwise stay cache-resident
    // trades writebacks for fresh RFOs, so *total* accesses may rise — the
    // extension pays off when TX buffers would leak (§V-D), which is what
    // the TxEvct assertions capture.
}

#[test]
fn zero_copy_forwarding_sweeps_via_the_work_queue() {
    let run = |sweeper: SweeperMode| {
        let cfg = ExperimentConfig::paper_default()
            .rx_buffers_per_core(1024)
            .packet_bytes(1024)
            .sweeper(sweeper)
            .run_options(RunOptions {
                warmup_requests: 30_000,
                ..quick_opts()
            });
        Experiment::new(cfg, || {
            L3Forwarder::new(L3fwdConfig::l2_resident().with_zero_copy())
        })
        .run_keep_queued(16)
    };
    use sweeper::sim::stats::TrafficClass;
    let base = run(SweeperMode::Disabled);
    let swept = run(SweeperMode::Enabled);
    assert!(base.class_counts()[TrafficClass::RxEvct] > 0);
    // §V-D: the NIC sweeps after transmit; consumed (already-transmitted)
    // buffers stop leaking.
    assert!(
        swept.class_counts()[TrafficClass::RxEvct] * 3 < base.class_counts()[TrafficClass::RxEvct],
        "NIC-driven sweeping must remove most RX evictions (swept {} vs base {})",
        swept.class_counts()[TrafficClass::RxEvct],
        base.class_counts()[TrafficClass::RxEvct]
    );
    assert!(swept.mem.sweep_saved_writebacks > 0);
}

#[test]
fn os_privacy_mitigations_hold_under_all_policies() {
    for mode in [
        PageZeroMode::CachedStores,
        PageZeroMode::CachedStoresWithClwb,
        PageZeroMode::DmaBypass,
    ] {
        let mut mem = MemorySystem::new(MachineConfig::paper_default());
        let probe = probe_page_recycling(&mut mem, mode);
        assert!(!probe.breached(), "{mode:?} must protect recycled pages");
    }
}

/// A workload that exercises the manual relinquish API from inside the
/// handler (zero-copy stacks manage lifetimes themselves).
struct ManualSweep;

impl Workload for ManualSweep {
    fn name(&self) -> &str {
        "manual-sweep"
    }
    fn setup(&mut self, _mem: &mut MemorySystem) {}
    fn handle_packet(&mut self, packet: &Packet, env: &mut CoreEnv<'_>) -> TxAction {
        env.read(packet.addr, packet.bytes);
        env.compute(100);
        // Application-managed relinquish instead of the engine's automatic
        // one (Sweeper mode stays Disabled in the config).
        env.relinquish(packet.addr, packet.bytes);
        TxAction::None
    }
}

#[test]
fn manual_relinquish_matches_engine_sweeping() {
    let cfg = ExperimentConfig::paper_default()
        .rx_buffers_per_core(1024)
        .packet_bytes(1024)
        .run_options(RunOptions {
            warmup_requests: 30_000,
            ..quick_opts()
        });
    let report = Experiment::new(cfg, || ManualSweep).run_at_rate(20.0e6);
    use sweeper::sim::stats::TrafficClass;
    assert!(report.mem.sweep_saved_writebacks > 0);
    assert!(
        report.class_counts()[TrafficClass::RxEvct]
            <= report.class_counts()[TrafficClass::CpuRxRd] + 64
    );
}

#[test]
fn run_reports_are_internally_consistent() {
    let cfg = ExperimentConfig::paper_default()
        .rx_buffers_per_core(512)
        .packet_bytes(512)
        .run_options(quick_opts());
    let report = Experiment::new(cfg, || {
        MicaKvs::new(KvsConfig::paper_default().with_item_bytes(512))
    })
    .run_at_rate(10.0e6);
    // Breakdown sums to the total.
    let sum: f64 = report.accesses_per_request().iter().map(|(_, v)| v).sum();
    assert!((sum - report.total_accesses_per_request()).abs() < 1e-9);
    // Bandwidth is consistent with the access count and window.
    let bytes = report.mem.dram_bytes() as f64;
    let secs = report.elapsed_cycles as f64 / 3.2e9;
    assert!((report.memory_bandwidth_gbps() - bytes / secs / 1e9).abs() < 1e-6);
    // Channel counters agree with the class totals.
    let channel_total: u64 = report.channel_transfers.iter().map(|(r, w)| r + w).sum();
    assert_eq!(channel_total, report.mem.dram_accesses());
    // Latency percentiles are ordered.
    let h = &report.request_latency;
    assert!(h.percentile(0.5) <= h.percentile(0.99));
    assert!(h.percentile(0.99) <= h.max());
}
