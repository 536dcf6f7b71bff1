//! Scale-Out-NUMA-style NIC model for the Sweeper reproduction.
//!
//! The paper's methodology (§III, Appendix A) extends zSim with "a NIC
//! component implementing the Scale-Out NUMA userspace, hardware-terminated
//! protocol and a traffic generator that injects packets at configurable
//! Poisson arrival rate". This crate provides those pieces:
//!
//! * [`packet`] — packet descriptors,
//! * [`ring`] — per-core receive rings (the RX buffers whose footprint drives
//!   network data leaks),
//! * [`endpoints`] — per-connection (VIA/RDMA-style) receive provisioning,
//!   the §II-C buffer-bloat amplifier,
//! * [`queue`] — the Work Queue entry with the
//!   [`sweep_buffer`](queue::WqEntry::sweep_buffer) flag of Figure 4,
//! * [`traffic`] — Poisson and keep-queued arrival processes,
//! * [`nic`] — the NIC itself, delivering packets through a
//!   [`MemorySystem`](sweeper_sim::hierarchy::MemorySystem) under the
//!   configured injection policy and transmitting (optionally sweeping) TX
//!   buffers.
//!
//! # Example
//!
//! ```
//! use sweeper_nic::nic::{Nic, NicConfig};
//! use sweeper_sim::hierarchy::{MachineConfig, MemorySystem};
//!
//! let mut mem = MemorySystem::new(MachineConfig::tiny_for_tests());
//! let mut nic = Nic::new(NicConfig::per_core(8, 1024, 2), &mut mem);
//! let delivered = nic.deliver(0, 1024, 0, &mut mem).expect("ring not full");
//! let pkt = nic.ring_mut(0).pop().expect("packet queued");
//! assert_eq!(pkt.addr, delivered.addr);
//! ```

pub mod endpoints;
pub mod nic;
pub mod packet;
pub mod queue;
pub mod ring;
pub mod traffic;
