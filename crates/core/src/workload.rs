//! Workload abstractions: what the simulated cores execute.
//!
//! A [`Workload`] is a networked request handler (the paper's MICA KVS or L3
//! forwarder); a [`BackgroundTenant`] is a non-networked collocated
//! application (the paper's X-Mem, §VI-E).
//!
//! Handlers do not touch the memory system directly. They record their
//! memory-reference *trace* — a sequence of [`Op`]s — into a [`CoreEnv`].
//! The server engine then executes one operation per event, so accesses
//! from all cores (and the NIC) interleave in global simulated time exactly
//! as they would in hardware. Executing whole requests atomically instead
//! would serialize concurrent requests behind each other's DRAM
//! reservations and cap throughput far below the memory system's real
//! capacity.
//!
//! Workload control flow may depend on randomness (drawn from the
//! environment's [`SimRng`]) but not on loaded values — none of the paper's
//! workloads needs value-dependent control flow.

use sweeper_nic::packet::Packet;
use sweeper_sim::addr::Addr;
use sweeper_sim::engine::SimRng;
use sweeper_sim::hierarchy::MemorySystem;
use sweeper_sim::Cycle;

/// One step of a request's memory-reference trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Load `[addr, addr+len)`.
    Read {
        /// Start address.
        addr: Addr,
        /// Length in bytes.
        len: u64,
    },
    /// Store to `[addr, addr+len)` (write-allocate, RFO).
    Write {
        /// Start address.
        addr: Addr,
        /// Length in bytes.
        len: u64,
    },
    /// Pure compute (hashing, parsing, business logic).
    Compute {
        /// Duration in cycles.
        cycles: Cycle,
    },
    /// `relinquish(addr, len)` (§V-A): invalidate the buffer's cache blocks
    /// everywhere without writebacks.
    Sweep {
        /// Start address.
        addr: Addr,
        /// Length in bytes.
        len: u64,
    },
    /// Independent single-block loads issued together (memory-level
    /// parallelism): the latency is the slowest access, not the sum. Used
    /// by tenants like X-Mem whose address streams are data-independent.
    ReadScatter {
        /// One block-sized load per address.
        addrs: Vec<Addr>,
    },
}

/// Executes a recorded trace synchronously against a memory system,
/// returning the elapsed service cycles.
///
/// The server engine executes traces one [`Op`] per event instead; this
/// helper serves unit tests, calibration probes, and simple drivers.
pub fn execute_ops(mem: &mut MemorySystem, core: u16, start: Cycle, ops: &[Op]) -> Cycle {
    let mut elapsed = 0;
    for op in ops {
        elapsed += execute_op(mem, core, start + elapsed, op);
    }
    elapsed
}

/// Executes a single [`Op`] at time `now`, returning its latency.
pub fn execute_op(mem: &mut MemorySystem, core: u16, now: Cycle, op: &Op) -> Cycle {
    match op {
        Op::Read { addr, len } => mem.cpu_read(core, *addr, *len, now).latency,
        Op::Write { addr, len } => mem.cpu_write(core, *addr, *len, now).latency,
        Op::Compute { cycles } => *cycles,
        Op::Sweep { addr, len } => mem.sweep_range(*addr, *len, now),
        Op::ReadScatter { addrs } => mem.cpu_read_scatter(core, addrs, now).latency,
    }
}

/// Convenience driver: records a workload's trace for one packet and
/// executes it immediately against `mem` starting at cycle `start`.
///
/// Returns the transmit action and the elapsed service cycles. The server
/// engine does *not* use this (it interleaves operations across cores); it
/// serves unit tests, calibration probes, and single-core examples.
pub fn drive_packet(
    workload: &mut dyn Workload,
    packet: &Packet,
    mem: &mut MemorySystem,
    rng: &mut SimRng,
    start: Cycle,
) -> (TxAction, Cycle) {
    let mut env = CoreEnv::new(packet.core, rng);
    let action = workload.handle_packet(packet, &mut env);
    let elapsed = execute_ops(mem, packet.core, start, env.ops());
    (action, elapsed)
}

/// What a workload wants transmitted after handling a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxAction {
    /// No response (e.g. one-way ingest).
    None,
    /// Construct a `bytes`-byte response in the core's next TX buffer and
    /// transmit it.
    Reply {
        /// Response payload size in bytes.
        bytes: u64,
    },
    /// Zero-copy receive-to-transmit (§V-D): transmit the (possibly
    /// modified) RX buffer in place. The CPU must *not* relinquish the
    /// buffer — the NIC sweeps it after transmission when Sweeper is on.
    ForwardInPlace,
}

/// Trace recorder handed to a workload while it services one packet.
#[derive(Debug)]
pub struct CoreEnv<'a> {
    core: u16,
    ops: Vec<Op>,
    rng: &'a mut SimRng,
}

impl<'a> CoreEnv<'a> {
    /// Creates an empty environment for `core`.
    pub fn new(core: u16, rng: &'a mut SimRng) -> Self {
        Self {
            core,
            ops: Vec::with_capacity(8),
            rng,
        }
    }

    /// The executing core.
    pub fn core(&self) -> u16 {
        self.core
    }

    /// Records a load of `[addr, addr+len)`.
    pub fn read(&mut self, addr: Addr, len: u64) {
        self.ops.push(Op::Read { addr, len });
    }

    /// Records a batch of independent block loads that overlap in the
    /// memory system (high MLP).
    pub fn read_scatter(&mut self, addrs: Vec<Addr>) {
        self.ops.push(Op::ReadScatter { addrs });
    }

    /// Records a store to `[addr, addr+len)`.
    pub fn write(&mut self, addr: Addr, len: u64) {
        self.ops.push(Op::Write { addr, len });
    }

    /// Records pure compute cycles.
    pub fn compute(&mut self, cycles: Cycle) {
        self.ops.push(Op::Compute { cycles });
    }

    /// Records an explicit `relinquish` (§V-A). The server engine also
    /// issues one automatically after each request when Sweeper is enabled;
    /// this entry point exists for zero-copy stacks and examples that manage
    /// buffer lifetimes themselves.
    pub fn relinquish(&mut self, addr: Addr, len: u64) {
        self.ops.push(Op::Sweep { addr, len });
    }

    /// Deterministic per-run randomness (key popularity, delays, ...).
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// The trace recorded so far.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Consumes the environment, yielding the trace.
    pub fn into_ops(self) -> Vec<Op> {
        self.ops
    }
}

/// A networked request-processing application.
///
/// Implementations must be deterministic given the [`SimRng`] stream they
/// draw from; the server engine constructs one workload instance per run.
pub trait Workload {
    /// Human-readable name used in reports.
    fn name(&self) -> &str;

    /// Allocates the application's data regions before the run starts.
    fn setup(&mut self, mem: &mut MemorySystem);

    /// Records the trace servicing one received packet; returns what should
    /// be transmitted afterwards.
    fn handle_packet(&mut self, packet: &Packet, env: &mut CoreEnv<'_>) -> TxAction;
}

/// A collocated, non-networked tenant (X-Mem in §VI-E). The engine invokes
/// [`step`](Self::step) back-to-back on each tenant core; completed steps
/// are the tenant's progress metric.
pub trait BackgroundTenant {
    /// Human-readable name used in reports.
    fn name(&self) -> &str;

    /// Allocates this tenant instance's dataset for `core`.
    fn setup(&mut self, core: u16, mem: &mut MemorySystem);

    /// Records one iteration's trace for `core`. Must make progress
    /// (record at least one cycle-consuming op).
    fn step(&mut self, core: u16, env: &mut CoreEnv<'_>);
}

/// A trivial echo workload: read the packet, think briefly, echo it back.
/// Used by unit tests, doctests, and the quickstart example.
#[derive(Debug, Clone, Default)]
pub struct EchoWorkload {
    /// Pure compute cycles per request.
    pub think_cycles: Cycle,
}

impl EchoWorkload {
    /// Echo with a fixed per-request compute cost.
    pub fn with_think(think_cycles: Cycle) -> Self {
        Self { think_cycles }
    }
}

impl Workload for EchoWorkload {
    fn name(&self) -> &str {
        "echo"
    }

    fn setup(&mut self, _mem: &mut MemorySystem) {}

    fn handle_packet(&mut self, packet: &Packet, env: &mut CoreEnv<'_>) -> TxAction {
        env.read(packet.addr, packet.bytes);
        env.compute(self.think_cycles.max(50));
        TxAction::Reply {
            bytes: packet.bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sweeper_nic::packet::PacketId;
    use sweeper_sim::addr::RegionKind;
    use sweeper_sim::hierarchy::{MachineConfig, SWEEP_ISSUE_COST};

    fn setup() -> (MemorySystem, SimRng) {
        (
            MemorySystem::new(MachineConfig::tiny_for_tests()),
            SimRng::seeded(1),
        )
    }

    #[test]
    fn env_records_ops_in_order() {
        let (_, mut rng) = setup();
        let mut env = CoreEnv::new(3, &mut rng);
        env.read(Addr(64), 128);
        env.compute(100);
        env.write(Addr(256), 64);
        env.relinquish(Addr(64), 128);
        assert_eq!(env.core(), 3);
        assert_eq!(
            env.into_ops(),
            vec![
                Op::Read {
                    addr: Addr(64),
                    len: 128
                },
                Op::Compute { cycles: 100 },
                Op::Write {
                    addr: Addr(256),
                    len: 64
                },
                Op::Sweep {
                    addr: Addr(64),
                    len: 128
                },
            ]
        );
    }

    #[test]
    fn execute_ops_accumulates_latency() {
        let (mut mem, _) = setup();
        let a = mem.address_map_mut().alloc(256, RegionKind::App);
        let ops = [
            Op::Read { addr: a, len: 256 },
            Op::Compute { cycles: 100 },
            Op::Write { addr: a, len: 64 },
        ];
        let elapsed = execute_ops(&mut mem, 0, 1000, &ops);
        // At least the compute plus one cold memory access.
        assert!(elapsed > 100 + mem.config().dram.unloaded_latency());
        // Warm re-execution is much faster.
        let warm = execute_ops(&mut mem, 0, 100_000, &ops);
        assert!(warm < elapsed);
    }

    #[test]
    fn execute_op_sweep_invalidates() {
        let (mut mem, _) = setup();
        let a = mem.address_map_mut().alloc(64, RegionKind::App);
        execute_op(&mut mem, 0, 0, &Op::Write { addr: a, len: 64 });
        let cost = execute_op(&mut mem, 0, 10, &Op::Sweep { addr: a, len: 64 });
        assert_eq!(cost, SWEEP_ISSUE_COST);
        assert!(!mem.resident_anywhere(a.block()));
    }

    #[test]
    fn echo_replies_with_same_size() {
        let (mut mem, mut rng) = setup();
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
        let mut wl = EchoWorkload::with_think(200);
        wl.setup(&mut mem);
        let mut env = CoreEnv::new(0, &mut rng);
        let action = wl.handle_packet(&pkt, &mut env);
        assert_eq!(action, TxAction::Reply { bytes: 1024 });
        let ops = env.into_ops();
        assert_eq!(ops.len(), 2);
        let elapsed = execute_ops(&mut mem, 0, 10, &ops);
        assert!(elapsed >= 200);
        assert_eq!(wl.name(), "echo");
    }

    #[test]
    fn env_rng_is_usable() {
        let (_, mut rng) = setup();
        let mut env = CoreEnv::new(1, &mut rng);
        let v = env.rng().next_u64_in(10);
        assert!(v < 10);
        assert!(env.ops().is_empty());
    }
}
