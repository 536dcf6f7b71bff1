//! X-Mem: the collocated memory-intensive tenant of §VI-E.
//!
//! "Each X-Mem process performs sequential random accesses to a private 2 MB
//! dataset, which exceeds the aggregate capacity of private L1 and L2
//! caches" — so its working set lives in the LLC and its performance is a
//! direct probe of how much LLC capacity and memory bandwidth the network
//! tenant (and DDIO) leave available.

use std::collections::HashMap;

use sweeper_core::workload::{BackgroundTenant, CoreEnv};
use sweeper_sim::addr::{Addr, RegionKind};
use sweeper_sim::hierarchy::MemorySystem;
use sweeper_sim::Cycle;
use sweeper_sim::BLOCK_BYTES;

/// X-Mem configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XmemConfig {
    /// Private dataset size per instance (paper: 2 MB).
    pub dataset_bytes: u64,
    /// Random block reads per [`BackgroundTenant::step`] iteration.
    pub accesses_per_step: u32,
    /// Compute cycles between accesses (address generation, loop overhead).
    pub compute_per_access: Cycle,
}

impl XmemConfig {
    /// The paper's §VI-E instance: 2 MB random-access dataset.
    pub fn paper_default() -> Self {
        Self {
            dataset_bytes: 2 << 20,
            accesses_per_step: 8,
            compute_per_access: 25,
        }
    }

    /// Scaled-down instance for tests (fits the tiny test machine's LLC
    /// with room to spare, but exceeds its private caches).
    pub fn small_for_tests() -> Self {
        Self {
            dataset_bytes: 4 * 1024,
            accesses_per_step: 4,
            compute_per_access: 4,
        }
    }

    /// Dataset size in cache blocks.
    pub fn dataset_blocks(&self) -> u64 {
        self.dataset_bytes / BLOCK_BYTES
    }
}

/// One X-Mem tenant serving any number of cores, each with its own private
/// dataset.
#[derive(Debug)]
pub struct Xmem {
    cfg: XmemConfig,
    datasets: HashMap<u16, Addr>,
    iterations: u64,
}

impl Xmem {
    /// Creates the tenant.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is smaller than one block or
    /// `accesses_per_step` is zero.
    pub fn new(cfg: XmemConfig) -> Self {
        assert!(cfg.dataset_bytes >= BLOCK_BYTES, "dataset too small");
        assert!(cfg.accesses_per_step > 0, "steps must access memory");
        Self {
            cfg,
            datasets: HashMap::new(),
            iterations: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &XmemConfig {
        &self.cfg
    }

    /// Iterations executed (all cores).
    pub fn iterations(&self) -> u64 {
        self.iterations
    }
}

impl BackgroundTenant for Xmem {
    fn name(&self) -> &str {
        "x-mem"
    }

    fn setup(&mut self, core: u16, mem: &mut MemorySystem) {
        let base = mem
            .address_map_mut()
            .alloc(self.cfg.dataset_bytes, RegionKind::App);
        self.datasets.insert(core, base);
    }

    fn step(&mut self, core: u16, env: &mut CoreEnv<'_>) {
        let base = *self
            .datasets
            .get(&core)
            .expect("setup must run before step");
        let blocks = self.cfg.dataset_blocks();
        // X-Mem's address stream is data-independent, so its loads overlap
        // in the memory system (the real tool sustains high MLP): a batch of
        // scattered block reads costs one loaded-latency, not a sum.
        let addrs = (0..self.cfg.accesses_per_step)
            .map(|_| base.offset(env.rng().next_u64_in(blocks) * BLOCK_BYTES))
            .collect();
        env.read_scatter(addrs);
        env.compute(self.cfg.compute_per_access * self.cfg.accesses_per_step as u64);
        self.iterations += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sweeper_sim::engine::SimRng;
    use sweeper_sim::hierarchy::MachineConfig;

    fn drive_step(
        xmem: &mut Xmem,
        core: u16,
        mem: &mut MemorySystem,
        rng: &mut SimRng,
        t: u64,
    ) -> u64 {
        let mut env = CoreEnv::new(core, rng);
        xmem.step(core, &mut env);
        sweeper_core::workload::execute_ops(mem, core, t, env.ops())
    }

    fn setup() -> (Xmem, MemorySystem, SimRng) {
        let mut mem = MemorySystem::new(MachineConfig::tiny_for_tests());
        let mut xmem = Xmem::new(XmemConfig::small_for_tests());
        xmem.setup(0, &mut mem);
        xmem.setup(1, &mut mem);
        (xmem, mem, SimRng::seeded(1))
    }

    #[test]
    fn paper_config_is_2mb() {
        let cfg = XmemConfig::paper_default();
        assert_eq!(cfg.dataset_bytes, 2 << 20);
        assert_eq!(cfg.dataset_blocks(), 32 * 1024);
    }

    #[test]
    fn per_core_datasets_are_private() {
        let (xmem, _mem, _) = setup();
        let a = xmem.datasets[&0];
        let b = xmem.datasets[&1];
        assert_ne!(a, b);
        let bytes = xmem.config().dataset_bytes;
        assert!(a.0 + bytes <= b.0 || b.0 + bytes <= a.0, "must not overlap");
    }

    #[test]
    fn step_consumes_cycles_and_counts() {
        let (mut xmem, mut mem, mut rng) = setup();
        let elapsed = drive_step(&mut xmem, 0, &mut mem, &mut rng, 0);
        assert!(elapsed > 0);
        assert_eq!(xmem.iterations(), 1);
    }

    #[test]
    fn accesses_stay_inside_the_dataset() {
        let (mut xmem, mut mem, mut rng) = setup();
        for i in 0..200u64 {
            drive_step(&mut xmem, 0, &mut mem, &mut rng, i * 1000);
        }
        // Nothing outside the App regions was touched: no RX/TX traffic.
        let counts = mem.stats().combined();
        use sweeper_sim::stats::TrafficClass as T;
        assert_eq!(counts[T::CpuRxRd], 0);
        assert_eq!(counts[T::CpuTxRdWr], 0);
        assert_eq!(counts[T::RxEvct], 0);
        assert_eq!(counts[T::TxEvct], 0);
    }

    #[test]
    fn warm_small_dataset_runs_from_cache() {
        let (mut xmem, mut mem, mut rng) = setup();
        for i in 0..500u64 {
            drive_step(&mut xmem, 0, &mut mem, &mut rng, i * 1000);
        }
        let before = mem.stats().dram_reads.total();
        for i in 500..1_000u64 {
            drive_step(&mut xmem, 0, &mut mem, &mut rng, i * 1000);
        }
        let delta = mem.stats().dram_reads.total() - before;
        assert!(delta < 50, "warm dataset fetched {delta} blocks from DRAM");
    }

    #[test]
    #[should_panic(expected = "setup must run before step")]
    fn step_without_setup_panics() {
        let mut mem = MemorySystem::new(MachineConfig::tiny_for_tests());
        let mut xmem = Xmem::new(XmemConfig::small_for_tests());
        let mut rng = SimRng::seeded(0);
        drive_step(&mut xmem, 0, &mut mem, &mut rng, 0);
    }

    #[test]
    #[should_panic(expected = "dataset too small")]
    fn rejects_tiny_dataset() {
        Xmem::new(XmemConfig {
            dataset_bytes: 32,
            accesses_per_step: 1,
            compute_per_access: 1,
        });
    }
}
