//! The `clsweep` page-recycling privacy concern and its mitigations (§V-B).
//!
//! Dropping dirty lines without writeback is safe for network buffers, but
//! the paper's shepherd pointed out a subtle OS interaction: if the kernel
//! zeroes a recycled page *through the caches* and hands it to a process
//! holding `clsweep` permission, that process can sweep the still-dirty
//! zeros and read the previous owner's data from DRAM.
//!
//! This example demonstrates the attack against an unprotected kernel and
//! verifies all three mitigations the paper proposes.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example page_privacy
//! ```

use sweeper::core::os::{probe_page_recycling, Os, PageZeroMode, PAGE_BYTES};
use sweeper::core::sweep::relinquish;
use sweeper::sim::hierarchy::{MachineConfig, MemorySystem};

fn main() {
    println!("Page-recycling privacy probe (4 KB pages, Table I machine)\n");

    // --- The attack, against a kernel with no clsweep awareness ---
    let mut mem = MemorySystem::new(MachineConfig::paper_default());
    let mut os = Os::new(PageZeroMode::CachedStores);
    let victim = os.create_process(false);
    let page = os.allocate_page(victim, &mut mem, 0).expect("victim alive");
    mem.cpu_write(0, page, PAGE_BYTES, 10); // victim's secrets
    os.free_page(victim, page).expect("victim owns page");
    // Kernel recycles to a *non-registered* process: zeroing stays cached.
    let attacker = os.create_process(false);
    let got = os.allocate_page(attacker, &mut mem, 1_000).expect("alive");
    assert_eq!(got, page, "page recycled");
    let before = mem.stats().sweep_saved_writebacks;
    relinquish(&mut mem, page, PAGE_BYTES, 2_000); // illegitimate sweep
    let leaked = mem.stats().sweep_saved_writebacks - before;
    println!(
        "unprotected kernel : {} of {} zeroed blocks swept before reaching DRAM — BREACH",
        leaked,
        PAGE_BYTES / 64
    );
    assert!(
        leaked > 0,
        "the attack must work against an unprotected kernel"
    );

    // --- The paper's mitigations ---
    for (name, mode) in [
        ("CLWB-for-clsweep-users", PageZeroMode::CachedStores),
        ("CLWB-always           ", PageZeroMode::CachedStoresWithClwb),
        ("DMA zeroing           ", PageZeroMode::DmaBypass),
    ] {
        let mut mem = MemorySystem::new(MachineConfig::paper_default());
        let probe = probe_page_recycling(&mut mem, mode);
        println!(
            "{name} : {} blocks leaked — {}",
            probe.leaked_blocks,
            if probe.breached() { "BREACH" } else { "safe" }
        );
        assert!(!probe.breached());
    }

    println!("\nAll three mitigations close the breach; the targeted variant");
    println!("(CLWB only for processes registered via the clsweep syscall)");
    println!("avoids the extra writebacks for everyone else.");
}
