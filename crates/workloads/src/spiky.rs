//! The §VI-F "spiky" microbenchmark.
//!
//! "With the KVS workload as a base, we develop a microbenchmark where, with
//! a small probability, each request suffers a processing delay randomly
//! sampled from the [1, 100] µs range, causing temporal queue buildup
//! spikes — an effect also functionally equivalent to packet arrival
//! bursts."
//!
//! [`Spiky`] is a decorator over any [`Workload`]; the buffer-provisioning
//! study of Figure 10 wraps the MICA KVS with it.

use sweeper_core::workload::{CoreEnv, TxAction, Workload};
use sweeper_nic::packet::Packet;
use sweeper_sim::engine::us_to_cycles;
use sweeper_sim::hierarchy::MemorySystem;

/// Spike parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpikeConfig {
    /// Per-request probability of a delay spike ("small probability").
    pub probability: f64,
    /// Minimum spike duration in microseconds (paper: 1).
    pub min_us: f64,
    /// Maximum spike duration in microseconds (paper: 100).
    pub max_us: f64,
}

impl SpikeConfig {
    /// The paper's range with a 1% spike probability.
    pub fn paper_default() -> Self {
        Self {
            probability: 0.01,
            min_us: 1.0,
            max_us: 100.0,
        }
    }
}

/// Decorator adding random processing-delay spikes to a workload.
#[derive(Debug)]
pub struct Spiky<W> {
    inner: W,
    cfg: SpikeConfig,
    name: String,
    spikes: u64,
}

impl<W: Workload> Spiky<W> {
    /// Wraps `inner` with the given spike behaviour.
    ///
    /// # Panics
    ///
    /// Panics if the probability is outside `[0, 1]` or the range is
    /// inverted or non-positive.
    pub fn new(inner: W, cfg: SpikeConfig) -> Self {
        assert!(
            (0.0..=1.0).contains(&cfg.probability),
            "spike probability out of range"
        );
        assert!(
            cfg.min_us > 0.0 && cfg.min_us <= cfg.max_us,
            "invalid spike duration range"
        );
        let name = format!("spiky-{}", inner.name());
        Self {
            inner,
            cfg,
            name,
            spikes: 0,
        }
    }

    /// Spikes injected so far.
    pub fn spikes(&self) -> u64 {
        self.spikes
    }

    /// The wrapped workload.
    pub fn inner(&self) -> &W {
        &self.inner
    }
}

impl<W: Workload> Workload for Spiky<W> {
    fn name(&self) -> &str {
        &self.name
    }

    fn setup(&mut self, mem: &mut MemorySystem) {
        self.inner.setup(mem);
    }

    fn handle_packet(&mut self, packet: &Packet, env: &mut CoreEnv<'_>) -> TxAction {
        let action = self.inner.handle_packet(packet, env);
        if env.rng().chance(self.cfg.probability) {
            self.spikes += 1;
            let us = self.cfg.min_us + env.rng().next_f64() * (self.cfg.max_us - self.cfg.min_us);
            env.compute(us_to_cycles(us));
        }
        action
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sweeper_core::workload::EchoWorkload;
    use sweeper_nic::packet::PacketId;
    use sweeper_sim::addr::RegionKind;
    use sweeper_sim::engine::SimRng;
    use sweeper_sim::hierarchy::MachineConfig;

    fn run_requests(prob: f64, n: u64) -> (u64, Vec<u64>) {
        let mut mem = MemorySystem::new(MachineConfig::tiny_for_tests());
        let rx = mem
            .address_map_mut()
            .alloc(1024, RegionKind::Rx { core: 0 });
        mem.nic_write(rx, 1024, 0);
        let pkt = Packet {
            id: PacketId(0),
            core: 0,
            bytes: 1024,
            arrival: 0,
            delivered: 0,
            addr: rx,
        };
        let mut wl = Spiky::new(
            EchoWorkload::with_think(100),
            SpikeConfig {
                probability: prob,
                min_us: 1.0,
                max_us: 100.0,
            },
        );
        wl.setup(&mut mem);
        let mut rng = SimRng::seeded(9);
        let mut times = Vec::new();
        for i in 0..n {
            let (_, elapsed) = sweeper_core::workload::drive_packet(
                &mut wl,
                &pkt,
                &mut mem,
                &mut rng,
                i * 1_000_000,
            );
            times.push(elapsed);
        }
        (wl.spikes(), times)
    }

    #[test]
    fn no_spikes_at_zero_probability() {
        let (spikes, times) = run_requests(0.0, 500);
        assert_eq!(spikes, 0);
        assert!(times.iter().all(|&t| t < us_to_cycles(1.0)));
    }

    #[test]
    fn spike_rate_matches_probability() {
        let (spikes, _) = run_requests(0.05, 5_000);
        let rate = spikes as f64 / 5_000.0;
        assert!((rate - 0.05).abs() < 0.015, "rate {rate}");
    }

    #[test]
    fn spikes_are_within_the_paper_range() {
        let (spikes, times) = run_requests(1.0, 300);
        assert_eq!(spikes, 300);
        for &t in &times {
            // Base echo service is tiny; the spike dominates.
            assert!(t >= us_to_cycles(1.0) && t <= us_to_cycles(101.0));
        }
    }

    #[test]
    fn name_reflects_inner() {
        let wl = Spiky::new(EchoWorkload::default(), SpikeConfig::paper_default());
        assert_eq!(wl.name(), "spiky-echo");
        assert_eq!(wl.inner().think_cycles, 0);
    }

    #[test]
    #[should_panic(expected = "probability out of range")]
    fn rejects_bad_probability() {
        Spiky::new(
            EchoWorkload::default(),
            SpikeConfig {
                probability: 1.5,
                min_us: 1.0,
                max_us: 2.0,
            },
        );
    }

    #[test]
    #[should_panic(expected = "invalid spike duration")]
    fn rejects_inverted_range() {
        Spiky::new(
            EchoWorkload::default(),
            SpikeConfig {
                probability: 0.1,
                min_us: 5.0,
                max_us: 2.0,
            },
        );
    }
}
