//! Figure 9 — *Performance of collocated network- and memory-intensive
//! applications* (§VI-E).
//!
//! 12 instances of L3fwd (L1-resident dataset, 2048 RX buffers per core,
//! 1 KB packets) collocated with 12 instances of X-Mem (2 MB private
//! random-access datasets).
//!
//! * **(a)** non-overlapping LLC way partitions: DDIO in partition A,
//!   X-Mem restricted to partition B, A + B = 12.
//! * **(b)** overlapping partitions: X-Mem may use the whole LLC while the
//!   DDIO ways grow from 2 to 12.

use sweeper_core::experiment::Experiment;
use sweeper_core::fleet::{ExperimentPoint, PointOutcome};
use sweeper_core::profile::RunProfile;
use sweeper_core::scenario::{Scenario, ScenarioWorkload};
use sweeper_sim::cache::WayMask;

use super::Figure;
use crate::{f1, figure_run_options, Table};
use sweeper_workloads::l3fwd::{L3Forwarder, L3fwdConfig};
use sweeper_workloads::xmem::{Xmem, XmemConfig};

/// L3fwd tenant cores (the remaining 12 run X-Mem).
pub const NET_CORES: u16 = 12;

/// DDIO-partition sizes of the disjoint study (X-Mem gets `12 - A` ways).
pub const DISJOINT_WAYS: [u32; 5] = [2, 4, 6, 8, 10];

/// DDIO way counts of the overlapping study.
pub const OVERLAP_WAYS: [u32; 6] = [2, 4, 6, 8, 10, 12];

/// Keep-queued depth of the network tenant — a DPDK-like batching depth
/// that keeps the cores busy without driving the memory system into deep
/// saturation (the paper's collocation study measures capacity effects, not
/// overload collapse).
const DEPTH: usize = 16;

/// The network tenant's scenario: DDIO in `ways` ways (± Sweeper) for
/// L3fwd on [`NET_CORES`] cores, 1 KB packets, 2048 RX buffers per core.
fn network_tenant(ways: u32, sweeper: bool, seed: u64) -> Scenario {
    let system = if sweeper {
        Scenario::ddio_sweeper(ways)
    } else {
        Scenario::ddio(ways)
    };
    Scenario {
        workload: ScenarioWorkload::L3fwd,
        cores: NET_CORES,
        buffers: 2048,
        packet: 1024,
        seed,
        ..system
    }
}

/// Builds the collocated experiment for one network-tenant scenario: the
/// scenario's configuration running the L1-resident forwarder, plus the
/// X-Mem tenant on the remaining cores and the two tenants' LLC way masks.
fn collocated(
    profile: RunProfile,
    s: &Scenario,
    xmem_mask: WayMask,
    net_mask: WayMask,
) -> Experiment {
    // X-Mem is orders of magnitude slower per "request" than L3fwd, so the
    // windows are time-based: warmup must cover X-Mem's cold pass over its
    // 2 MB dataset (~15 M cycles) and the measurement must span several
    // dataset wraps.
    let mut opts = figure_run_options(profile, s);
    let scale = match profile {
        RunProfile::Full => 1,
        RunProfile::Fast => 2,
        RunProfile::Smoke => 8,
    };
    opts.min_warmup_cycles = 24_000_000 / scale;
    opts.min_measure_cycles = 40_000_000 / scale;
    let cfg = s.to_config().run_options(opts);
    let total_cores = cfg.machine().cores as u16;
    cfg.experiment(|| L3Forwarder::new(L3fwdConfig::l1_resident()))
        .with_background(|| Xmem::new(XmemConfig::paper_default()))
        .with_server_hook(move |server| {
            let mem = server.memory_mut();
            for core in 0..NET_CORES {
                mem.set_cpu_llc_mask(core, net_mask);
            }
            for core in NET_CORES..total_cores {
                mem.set_cpu_llc_mask(core, xmem_mask);
            }
        })
}

fn mode_name(sweeper: bool) -> &'static str {
    if sweeper {
        "DDIO + Sweeper"
    } else {
        "DDIO"
    }
}

/// The §VI-E collocation study.
pub struct Fig9;

impl Figure for Fig9 {
    fn name(&self) -> &'static str {
        "fig9"
    }

    fn description(&self) -> &'static str {
        "Collocated L3fwd + X-Mem under LLC way partitioning (§VI-E)"
    }

    /// The disjoint-partition points first (ways × ±Sweeper), then the
    /// overlapping-partition points.
    fn points(&self, profile: RunProfile, seed: u64) -> Vec<ExperimentPoint> {
        let mut out = Vec::new();
        for a in DISJOINT_WAYS {
            for sweeper in [false, true] {
                out.push(ExperimentPoint::keep_queued(
                    format!("a ({a},{}) {}", 12 - a, mode_name(sweeper)),
                    collocated(
                        profile,
                        &network_tenant(a, sweeper, seed),
                        WayMask::range(a, 12),
                        WayMask::first(a),
                    ),
                    DEPTH,
                ));
            }
        }
        for ways in OVERLAP_WAYS {
            for sweeper in [false, true] {
                out.push(ExperimentPoint::keep_queued(
                    format!("b ways={ways} {}", mode_name(sweeper)),
                    collocated(
                        profile,
                        &network_tenant(ways, sweeper, seed),
                        WayMask::ALL,
                        WayMask::ALL,
                    ),
                    DEPTH,
                ));
            }
        }
        out
    }

    fn render(&self, _profile: RunProfile, outcomes: &[PointOutcome]) {
        let split = DISJOINT_WAYS.len() * 2;
        let (raw_a, raw_b) = outcomes.split_at(split);

        // ---- (a) non-overlapping partitions: (A, B) with A + B = 12 ----
        let mut fig_a = Table::new(
            "Figure 9a — disjoint partitions (DDIO ways A, X-Mem ways B)",
            &[
                "(A,B)",
                "mode",
                "l3fwd Mrps",
                "xmem Mit/s",
                "l3fwd norm",
                "xmem norm",
            ],
        );
        // Normalize to the (4,8) Sweeper point, as the paper's axes do.
        let norm_idx = DISJOINT_WAYS
            .iter()
            .position(|&a| a == 4)
            .expect("(4,8) point present")
            * 2
            + 1;
        let norm = (
            raw_a[norm_idx].throughput_mrps(),
            raw_a[norm_idx].report.background_mips(),
        );
        let mut it = raw_a.iter();
        for a in DISJOINT_WAYS {
            for sweeper in [false, true] {
                let outcome = it.next().expect("one outcome per disjoint point");
                fig_a.row(vec![
                    format!("({a},{})", 12 - a),
                    mode_name(sweeper).to_string(),
                    f1(outcome.throughput_mrps()),
                    f1(outcome.report.background_mips()),
                    f1(outcome.throughput_mrps() / norm.0),
                    f1(outcome.report.background_mips() / norm.1),
                ]);
            }
        }
        fig_a.emit("fig9a");

        // ---- (b) overlapping partitions: X-Mem uses the whole LLC ----
        let mut fig_b = Table::new(
            "Figure 9b — overlapping partitions (X-Mem uses all 12 ways)",
            &[
                "DDIO ways",
                "mode",
                "l3fwd Mrps",
                "xmem Mit/s",
                "l3fwd norm",
                "xmem norm",
            ],
        );
        // Paper normalizes L3fwd to its 2-way-Sweeper and X-Mem to the
        // 6-way-Sweeper values.
        let idx_of = |target: u32| {
            OVERLAP_WAYS
                .iter()
                .position(|&w| w == target)
                .expect("normalization point present")
                * 2
                + 1
        };
        let l3_norm = raw_b[idx_of(2)].throughput_mrps();
        let xm_norm = raw_b[idx_of(6)].report.background_mips();
        let mut it = raw_b.iter();
        for ways in OVERLAP_WAYS {
            for sweeper in [false, true] {
                let outcome = it.next().expect("one outcome per overlap point");
                fig_b.row(vec![
                    ways.to_string(),
                    mode_name(sweeper).to_string(),
                    f1(outcome.throughput_mrps()),
                    f1(outcome.report.background_mips()),
                    f1(outcome.throughput_mrps() / l3_norm),
                    f1(outcome.report.background_mips() / xm_norm),
                ]);
            }
        }
        fig_b.emit("fig9b");
    }
}
