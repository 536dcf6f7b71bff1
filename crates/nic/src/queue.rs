//! The Work Queue entry through which the CPU schedules a transmission.
//!
//! The Scale-Out NUMA protocol (like RDMA) schedules transmissions through a
//! per-core Work Queue. Sweeper's transmit-path extension (§V-D, Figure 4)
//! adds a single boolean `SweepBuffer` field to the entry: when set, the NIC
//! injects sweep messages for the transmit buffer's cache blocks after
//! reading them, so that a zero-copy NF's consumed buffers never leak to
//! memory. The server hands each entry straight to
//! [`Nic::transmit`](crate::nic::Nic::transmit); the queue itself is not
//! modelled, since it never holds more than one entry.

use sweeper_sim::addr::Addr;

use crate::packet::PacketId;

/// One Work Queue entry (Figure 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WqEntry {
    /// Operation length in bytes.
    pub transfer_length: u64,
    /// Source buffer address.
    pub buffer_addr: Addr,
    /// Sweeper's TX-path extension: ask the NIC to sweep the buffer's cache
    /// blocks once transmission completes (§V-D).
    pub sweep_buffer: bool,
    /// The request this transmission answers (for latency accounting).
    pub packet: PacketId,
}
