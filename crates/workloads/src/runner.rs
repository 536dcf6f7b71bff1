//! Turn-key construction of experiments from [`Scenario`] descriptions.
//!
//! [`Scenario`] lives in `sweeper-core`,
//! which cannot know about concrete workloads; this module closes the loop,
//! mapping a parsed scenario onto a ready-to-run
//! [`Experiment`] with the right
//! workload factory and ring-wrapping warmup.

use sweeper_core::experiment::Experiment;
use sweeper_core::scenario::{Scenario, ScenarioWorkload};
use sweeper_core::server::RunOptions;

use crate::kvs::{KvsConfig, MicaKvs, HEADER_BYTES};
use crate::l3fwd::{L3Forwarder, L3fwdConfig};
use crate::synthetic::{Synthetic, SyntheticConfig};

/// Run lengths matched to a scenario: the warmup wraps every RX ring at
/// least 1.2×, with a floor of `measure_requests / 2`.
pub fn run_options_for(scenario: &Scenario, measure_requests: u64) -> RunOptions {
    let ring_wrap = scenario.cores as u64
        * scenario.endpoints as u64
        * scenario.buffers as u64
        * 12
        / 10;
    RunOptions {
        warmup_requests: ring_wrap.max(measure_requests / 2),
        measure_requests,
        max_cycles: 600_000_000_000,
        min_warmup_cycles: 0,
        min_measure_cycles: 0,
    }
}

/// Builds the experiment a scenario describes.
///
/// The KVS item size is derived from the scenario's packet size (SET
/// requests carry the value); L3fwd uses the §IV-B L2-resident table.
pub fn experiment_for(scenario: &Scenario, measure_requests: u64) -> Experiment {
    let cfg = scenario
        .to_config()
        .run_options(run_options_for(scenario, measure_requests));
    match scenario.workload {
        ScenarioWorkload::Kvs => {
            let item = scenario.packet.saturating_sub(HEADER_BYTES).max(64);
            let kvs = KvsConfig::paper_default().with_item_bytes(item);
            Experiment::new(cfg, move || MicaKvs::new(kvs))
        }
        ScenarioWorkload::L3fwd => {
            Experiment::new(cfg, || L3Forwarder::new(L3fwdConfig::l2_resident()))
        }
        ScenarioWorkload::Synthetic => {
            Experiment::new(cfg, || Synthetic::new(SyntheticConfig::balanced()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_wrap_the_rings() {
        let mut s = Scenario {
            cores: 4,
            buffers: 100,
            endpoints: 2,
            ..Scenario::default()
        };
        let opts = run_options_for(&s, 1_000);
        assert_eq!(opts.warmup_requests, 4 * 2 * 100 * 12 / 10);
        assert_eq!(opts.measure_requests, 1_000);
        // Tiny rings fall back to the measure-based floor.
        s.buffers = 1;
        s.endpoints = 1;
        let opts = run_options_for(&s, 1_000);
        assert_eq!(opts.warmup_requests, 500);
    }

    #[test]
    fn scenario_runs_end_to_end() {
        let s = Scenario::parse(
            "workload = synthetic\ncores = 2\nbuffers = 16\npacket = 512\nrate_mrps = 1\n",
        )
        .unwrap();
        let exp = experiment_for(&s, 500);
        let report = exp.run_at_rate(s.rate_mrps * 1e6);
        assert!(report.completed >= 500);
        assert_eq!(report.workload, "synthetic");
    }

    #[test]
    fn kvs_item_size_tracks_packet() {
        let s = Scenario::parse("workload = kvs\npacket = 576\ncores = 2\nbuffers = 16\n").unwrap();
        let exp = experiment_for(&s, 300);
        let report = exp.run_at_rate(1.0e6);
        assert_eq!(report.workload, "mica-kvs");
        assert!(report.completed >= 300);
    }
}
