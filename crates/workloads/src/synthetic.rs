//! A configurable synthetic networked workload.
//!
//! Real applications fix their reference pattern; calibration and sweeps
//! need a dial. [`Synthetic`] services each packet with a parameterized mix
//! of RX-buffer consumption, random reads and sequential writes over a
//! private dataset, and pure compute — enough to place any workload in the
//! compute-bound ↔ memory-bound spectrum, or to emulate a missing
//! application's footprint when reproducing someone else's setup.

use sweeper_core::workload::{CoreEnv, TxAction, Workload};
use sweeper_nic::packet::Packet;
use sweeper_sim::addr::{Addr, RegionKind};
use sweeper_sim::hierarchy::MemorySystem;
use sweeper_sim::Cycle;
use sweeper_sim::BLOCK_BYTES;

/// Parameters of the synthetic request loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyntheticConfig {
    /// Bytes of the packet consumed from the RX buffer (clamped to the
    /// packet size at run time).
    pub rx_read_bytes: u64,
    /// Random single-block reads over the private dataset per request.
    pub random_reads: u32,
    /// Bytes written sequentially (streaming) into the dataset per request.
    pub stream_write_bytes: u64,
    /// Pure compute per request, cycles.
    pub compute_cycles: Cycle,
    /// Private per-instance dataset size in bytes.
    pub dataset_bytes: u64,
    /// Response payload size in bytes (0 ⇒ no reply).
    pub response_bytes: u64,
}

impl SyntheticConfig {
    /// A compute-bound profile: tiny footprint, long think time.
    pub fn compute_bound() -> Self {
        Self {
            rx_read_bytes: 64,
            random_reads: 0,
            stream_write_bytes: 0,
            compute_cycles: 2_000,
            dataset_bytes: 64 * 1024,
            response_bytes: 64,
        }
    }

    /// A memory-bound profile: heavy random reads over a large dataset.
    pub fn memory_bound() -> Self {
        Self {
            rx_read_bytes: 1024,
            random_reads: 12,
            stream_write_bytes: 1024,
            compute_cycles: 100,
            dataset_bytes: 64 << 20,
            response_bytes: 1024,
        }
    }

    /// A balanced profile resembling a small-object store.
    pub fn balanced() -> Self {
        Self {
            rx_read_bytes: 512,
            random_reads: 2,
            stream_write_bytes: 512,
            compute_cycles: 300,
            dataset_bytes: 16 << 20,
            response_bytes: 512,
        }
    }
}

/// The synthetic workload.
#[derive(Debug)]
pub struct Synthetic {
    cfg: SyntheticConfig,
    dataset: Addr,
    stream_head: u64,
    served: u64,
}

impl Synthetic {
    /// Creates a synthetic workload; the dataset is allocated in
    /// [`Workload::setup`].
    ///
    /// # Panics
    ///
    /// Panics if the dataset cannot hold one stream write or one block.
    pub fn new(cfg: SyntheticConfig) -> Self {
        assert!(
            cfg.dataset_bytes >= cfg.stream_write_bytes.max(BLOCK_BYTES),
            "dataset too small for the configured accesses"
        );
        Self {
            cfg,
            dataset: Addr(0),
            stream_head: 0,
            served: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SyntheticConfig {
        &self.cfg
    }

    /// Requests served so far.
    pub fn served(&self) -> u64 {
        self.served
    }
}

impl Workload for Synthetic {
    fn name(&self) -> &str {
        "synthetic"
    }

    fn setup(&mut self, mem: &mut MemorySystem) {
        self.dataset = mem
            .address_map_mut()
            .alloc(self.cfg.dataset_bytes, RegionKind::App);
    }

    fn handle_packet(&mut self, packet: &Packet, env: &mut CoreEnv<'_>) -> TxAction {
        self.served += 1;
        let rx = self.cfg.rx_read_bytes.min(packet.bytes).max(1);
        env.read(packet.addr, rx);
        if self.cfg.random_reads > 0 {
            let blocks = self.cfg.dataset_bytes / BLOCK_BYTES;
            let addrs = (0..self.cfg.random_reads)
                .map(|_| {
                    self.dataset
                        .offset(env.rng().next_u64_in(blocks) * BLOCK_BYTES)
                })
                .collect();
            env.read_scatter(addrs);
        }
        if self.cfg.stream_write_bytes > 0 {
            let len = self.cfg.stream_write_bytes;
            if self.stream_head + len > self.cfg.dataset_bytes {
                self.stream_head = 0;
            }
            env.write(self.dataset.offset(self.stream_head), len);
            self.stream_head += len;
        }
        env.compute(self.cfg.compute_cycles.max(1));
        if self.cfg.response_bytes == 0 {
            TxAction::None
        } else {
            TxAction::Reply {
                bytes: self.cfg.response_bytes,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sweeper_core::workload::drive_packet;
    use sweeper_nic::packet::PacketId;
    use sweeper_sim::engine::SimRng;
    use sweeper_sim::hierarchy::MachineConfig;

    fn rx_packet(mem: &mut MemorySystem, bytes: u64) -> Packet {
        let addr = mem
            .address_map_mut()
            .alloc(bytes, RegionKind::Rx { core: 0 });
        mem.nic_write(addr, bytes, 0);
        Packet {
            id: PacketId(0),
            core: 0,
            bytes,
            arrival: 0,
            delivered: 0,
            addr,
        }
    }

    fn serve_n(cfg: SyntheticConfig, n: u64) -> (Synthetic, MemorySystem, u64) {
        let mut mem = MemorySystem::new(MachineConfig::tiny_for_tests());
        let mut wl = Synthetic::new(cfg);
        wl.setup(&mut mem);
        let pkt = rx_packet(&mut mem, 1024);
        let mut rng = SimRng::seeded(1);
        let mut total = 0;
        for i in 0..n {
            let (_, elapsed) = drive_packet(&mut wl, &pkt, &mut mem, &mut rng, i * 100_000);
            total += elapsed;
        }
        (wl, mem, total)
    }

    #[test]
    fn profiles_have_expected_relative_cost() {
        let (_, _, compute) = serve_n(SyntheticConfig::compute_bound(), 50);
        let (_, _, memory) = serve_n(SyntheticConfig::memory_bound(), 50);
        // Compute-bound: dominated by think cycles, ~2000/request.
        assert!(compute >= 50 * 2_000);
        // Memory-bound on the tiny machine misses constantly.
        assert!(memory > 50 * 500);
    }

    #[test]
    fn stream_writes_wrap_within_dataset() {
        let cfg = SyntheticConfig {
            dataset_bytes: 4 * 1024,
            stream_write_bytes: 1024,
            ..SyntheticConfig::balanced()
        };
        let (wl, _, _) = serve_n(cfg, 37);
        assert!(wl.stream_head <= wl.config().dataset_bytes);
        assert_eq!(wl.served(), 37);
    }

    #[test]
    fn no_response_profile_returns_none() {
        let mut mem = MemorySystem::new(MachineConfig::tiny_for_tests());
        let mut wl = Synthetic::new(SyntheticConfig {
            response_bytes: 0,
            ..SyntheticConfig::compute_bound()
        });
        wl.setup(&mut mem);
        let pkt = rx_packet(&mut mem, 256);
        let mut rng = SimRng::seeded(2);
        let (action, _) = drive_packet(&mut wl, &pkt, &mut mem, &mut rng, 0);
        assert_eq!(action, TxAction::None);
    }

    #[test]
    fn rx_read_is_clamped_to_packet() {
        let mut mem = MemorySystem::new(MachineConfig::tiny_for_tests());
        let mut wl = Synthetic::new(SyntheticConfig {
            rx_read_bytes: 1 << 20,
            ..SyntheticConfig::balanced()
        });
        wl.setup(&mut mem);
        let pkt = rx_packet(&mut mem, 128);
        let mut rng = SimRng::seeded(3);
        let mut env = CoreEnv::new(0, &mut rng);
        wl.handle_packet(&pkt, &mut env);
        let first = env.ops().first().unwrap();
        match first {
            sweeper_core::workload::Op::Read { len, .. } => assert_eq!(*len, 128),
            other => panic!("expected RX read first, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "dataset too small")]
    fn rejects_inconsistent_config() {
        Synthetic::new(SyntheticConfig {
            dataset_bytes: 64,
            stream_write_bytes: 1024,
            ..SyntheticConfig::balanced()
        });
    }
}
