//! Operating-system model: `clsweep` permission and the page-recycling
//! privacy concern.
//!
//! §V-B observes that careless `clsweep` could become a privacy breach: when
//! the OS reclaims a page and zeroes it *through the caches*, the zeroed
//! blocks are dirty; a malicious new owner can `clsweep` them, dropping the
//! zeros before they reach DRAM, and then read the previous owner's stale
//! values from memory.
//!
//! The paper lists the mitigations this module implements:
//!
//! 1. zero pages with a conventional DMA that bypasses the caches
//!    ([`PageZeroMode::DmaBypass`]),
//! 2. zero through the caches but `CLWB` every block afterwards
//!    ([`PageZeroMode::CachedStoresWithClwb`]), optionally only for pages
//!    handed to processes that requested `clsweep` permission through the
//!    new system call ([`Os::create_process`]).

use std::collections::HashMap;

use sweeper_sim::addr::{Addr, RegionKind};
use sweeper_sim::hierarchy::MemorySystem;
use sweeper_sim::Cycle;

/// Page size used by the OS model.
pub const PAGE_BYTES: u64 = 4096;

/// A process identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pid(pub u32);

impl std::fmt::Display for Pid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pid:{}", self.0)
    }
}

/// How the kernel resets a page before transferring ownership (§V-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PageZeroMode {
    /// Zero with ordinary cached stores — **vulnerable** when the new owner
    /// may use `clsweep`.
    CachedStores,
    /// Zero with cached stores, then `CLWB` every block so the zeros are
    /// durable in DRAM before the handoff — safe.
    CachedStoresWithClwb,
    /// Zero with a conventional DMA that bypasses the caches — safe.
    DmaBypass,
}

#[derive(Debug, Clone, Copy)]
struct ProcessInfo {
    clsweep_allowed: bool,
}

/// Errors returned by the OS model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OsError {
    /// The pid is not a live process.
    UnknownProcess,
    /// The page is not owned by the calling process.
    NotOwner,
    /// The process never requested `clsweep` permission.
    ClsweepDenied,
}

impl std::fmt::Display for OsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OsError::UnknownProcess => f.write_str("unknown process"),
            OsError::NotOwner => f.write_str("page not owned by caller"),
            OsError::ClsweepDenied => f.write_str("clsweep permission not granted"),
        }
    }
}

impl std::error::Error for OsError {}

/// Minimal OS: process control blocks, a page free list, and the
/// zero-on-recycle policy.
#[derive(Debug)]
pub struct Os {
    zero_mode: PageZeroMode,
    processes: HashMap<Pid, ProcessInfo>,
    page_owner: HashMap<u64, Pid>,
    free_pages: Vec<Addr>,
    next_pid: u32,
}

impl Os {
    /// Creates an OS with the given page-zeroing policy.
    pub fn new(zero_mode: PageZeroMode) -> Self {
        Self {
            zero_mode,
            processes: HashMap::new(),
            page_owner: HashMap::new(),
            free_pages: Vec::new(),
            next_pid: 1,
        }
    }

    /// The configured zeroing policy.
    pub fn zero_mode(&self) -> PageZeroMode {
        self.zero_mode
    }

    /// Creates a process. `request_clsweep` models the paper's "new dedicated
    /// system call that requests permission for use of clsweep in userspace";
    /// the grant is recorded in the process control block.
    pub fn create_process(&mut self, request_clsweep: bool) -> Pid {
        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        self.processes.insert(
            pid,
            ProcessInfo {
                clsweep_allowed: request_clsweep,
            },
        );
        pid
    }

    /// Whether `pid` may execute `clsweep`.
    pub fn clsweep_allowed(&self, pid: Pid) -> Result<bool, OsError> {
        self.processes
            .get(&pid)
            .map(|p| p.clsweep_allowed)
            .ok_or(OsError::UnknownProcess)
    }

    /// Permission-checked `relinquish` (§V-A through the OS gate).
    ///
    /// # Errors
    ///
    /// [`OsError::ClsweepDenied`] if the process never requested permission,
    /// [`OsError::UnknownProcess`] for a dead pid.
    pub fn relinquish_checked(
        &self,
        pid: Pid,
        mem: &mut MemorySystem,
        addr: Addr,
        len: u64,
        now: Cycle,
    ) -> Result<Cycle, OsError> {
        if !self.clsweep_allowed(pid)? {
            return Err(OsError::ClsweepDenied);
        }
        Ok(crate::sweep::relinquish(mem, addr, len, now))
    }

    /// Allocates a page to `pid`. Recycled pages are zeroed according to the
    /// configured [`PageZeroMode`] before the handoff. A `CLWB`-on-zero is
    /// also applied when the receiving process holds `clsweep` permission,
    /// matching the paper's "only for pages that are allocated to processes
    /// that make use of clsweep" optimization.
    ///
    /// # Errors
    ///
    /// [`OsError::UnknownProcess`] for a dead pid.
    pub fn allocate_page(
        &mut self,
        pid: Pid,
        mem: &mut MemorySystem,
        now: Cycle,
    ) -> Result<Addr, OsError> {
        let clsweep_user = self.clsweep_allowed(pid)?;
        let page = match self.free_pages.pop() {
            Some(page) => {
                // Recycled page: zero before ownership transfer.
                match self.zero_mode {
                    PageZeroMode::CachedStores => {
                        mem.cpu_write(0, page, PAGE_BYTES, now);
                        if clsweep_user {
                            // Paper's targeted mitigation: writeback enforced
                            // only for clsweep-using processes.
                            mem.flush_range(page, PAGE_BYTES, now);
                        }
                    }
                    PageZeroMode::CachedStoresWithClwb => {
                        mem.cpu_write(0, page, PAGE_BYTES, now);
                        mem.flush_range(page, PAGE_BYTES, now);
                    }
                    PageZeroMode::DmaBypass => {
                        mem.dma_zero_range(page, PAGE_BYTES, now);
                    }
                }
                page
            }
            None => mem.address_map_mut().alloc(PAGE_BYTES, RegionKind::Other),
        };
        self.page_owner.insert(page.0, pid);
        Ok(page)
    }

    /// Returns a page to the free list.
    ///
    /// # Errors
    ///
    /// [`OsError::NotOwner`] if `pid` does not own the page.
    pub fn free_page(&mut self, pid: Pid, page: Addr) -> Result<(), OsError> {
        match self.page_owner.get(&page.0) {
            Some(owner) if *owner == pid => {
                self.page_owner.remove(&page.0);
                self.free_pages.push(page);
                Ok(())
            }
            _ => Err(OsError::NotOwner),
        }
    }
}

/// Outcome of the page-recycling attack demonstration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrivacyProbe {
    /// Number of page blocks whose zeroing never reached DRAM because the
    /// attacker's `clsweep` dropped them — each one exposes a stale value.
    pub leaked_blocks: u64,
}

impl PrivacyProbe {
    /// Whether the attack succeeded at all.
    pub fn breached(&self) -> bool {
        self.leaked_blocks > 0
    }
}

/// Demonstrates the §V-B privacy scenario end to end under a zeroing policy:
/// victim dirties a page and exits; the kernel recycles the page to an
/// attacker holding `clsweep` permission; the attacker sweeps the page.
/// Returns how many zeroed blocks the sweep managed to drop before they
/// reached DRAM (0 ⇒ the mitigation worked).
pub fn probe_page_recycling(mem: &mut MemorySystem, zero_mode: PageZeroMode) -> PrivacyProbe {
    let mut os = Os::new(zero_mode);
    let victim = os.create_process(false);
    let attacker = os.create_process(true);

    // Victim writes secrets into its page and exits.
    let page = os.allocate_page(victim, mem, 0).expect("victim alive");
    mem.cpu_write(0, page, PAGE_BYTES, 10);
    os.free_page(victim, page).expect("victim owned the page");

    // Kernel recycles the page to the attacker (zeroing happens here).
    let got = os
        .allocate_page(attacker, mem, 1000)
        .expect("attacker alive");
    assert_eq!(got, page, "free list must recycle the page");

    // Attack: sweep the freshly-zeroed page, hoping the zeros were still
    // dirty in the caches, then read stale values from DRAM.
    let before = mem.stats().sweep_saved_writebacks;
    os.relinquish_checked(attacker, mem, page, PAGE_BYTES, 2000)
        .expect("attacker holds clsweep permission");
    let leaked_blocks = mem.stats().sweep_saved_writebacks - before;
    PrivacyProbe { leaked_blocks }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sweeper_sim::hierarchy::{InjectionPolicy, MachineConfig};

    fn mem() -> MemorySystem {
        // The paper-sized LLC comfortably holds a page, which is the point:
        // zeroed blocks stay cached (dirty) unless explicitly written back.
        MemorySystem::new(MachineConfig::paper_default().with_injection(InjectionPolicy::Ddio))
    }

    #[test]
    fn process_permissions() {
        let mut os = Os::new(PageZeroMode::CachedStores);
        let a = os.create_process(true);
        let b = os.create_process(false);
        assert_ne!(a, b);
        assert_eq!(os.clsweep_allowed(a), Ok(true));
        assert_eq!(os.clsweep_allowed(b), Ok(false));
        assert_eq!(os.clsweep_allowed(Pid(999)), Err(OsError::UnknownProcess));
    }

    #[test]
    fn relinquish_gate_denies_unauthorized_process() {
        let mut os = Os::new(PageZeroMode::CachedStores);
        let plain = os.create_process(false);
        let mut m = mem();
        let page = os.allocate_page(plain, &mut m, 0).unwrap();
        let err = os
            .relinquish_checked(plain, &mut m, page, PAGE_BYTES, 1)
            .unwrap_err();
        assert_eq!(err, OsError::ClsweepDenied);
    }

    #[test]
    fn free_requires_ownership() {
        let mut os = Os::new(PageZeroMode::CachedStores);
        let a = os.create_process(false);
        let b = os.create_process(false);
        let mut m = mem();
        let page = os.allocate_page(a, &mut m, 0).unwrap();
        assert_eq!(os.free_page(b, page), Err(OsError::NotOwner));
        assert_eq!(os.free_page(a, page), Ok(()));
        assert_eq!(os.free_page(a, page), Err(OsError::NotOwner));
    }

    #[test]
    fn fresh_pages_are_distinct() {
        let mut os = Os::new(PageZeroMode::CachedStores);
        let p = os.create_process(false);
        let mut m = mem();
        let a = os.allocate_page(p, &mut m, 0).unwrap();
        let b = os.allocate_page(p, &mut m, 0).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn cached_zeroing_without_mitigation_breaches() {
        // Force the vulnerable path: give the attacker clsweep permission but
        // bypass the targeted CLWB by building the scenario manually.
        let mut m = mem();
        let mut os = Os::new(PageZeroMode::CachedStores);
        let victim = os.create_process(false);
        let page = os.allocate_page(victim, &mut m, 0).unwrap();
        m.cpu_write(0, page, PAGE_BYTES, 10);
        os.free_page(victim, page).unwrap();
        // A *non-clsweep* process receives the page: kernel skips CLWB.
        let second = os.create_process(false);
        let got = os.allocate_page(second, &mut m, 100).unwrap();
        assert_eq!(got, page);
        // The zeros are dirty in the caches: an (illegitimate) sweep drops
        // them, so stale data would be visible in DRAM.
        let before = m.stats().sweep_saved_writebacks;
        crate::sweep::relinquish(&mut m, page, PAGE_BYTES, 200);
        assert!(
            m.stats().sweep_saved_writebacks - before > 0,
            "unmitigated cached zeroing must be sweepable"
        );
    }

    #[test]
    fn targeted_clwb_mitigation_protects_clsweep_processes() {
        let mut m = mem();
        let probe = probe_page_recycling(&mut m, PageZeroMode::CachedStores);
        // The attacker requested clsweep permission, so the kernel CLWBs the
        // zeroed page before handing it over: no block leaks.
        assert!(!probe.breached(), "leaked {} blocks", probe.leaked_blocks);
    }

    #[test]
    fn clwb_everywhere_mitigation_protects() {
        let mut m = mem();
        let probe = probe_page_recycling(&mut m, PageZeroMode::CachedStoresWithClwb);
        assert!(!probe.breached());
    }

    #[test]
    fn dma_zeroing_mitigation_protects() {
        let mut m = mem();
        let probe = probe_page_recycling(&mut m, PageZeroMode::DmaBypass);
        assert!(!probe.breached());
    }

    #[test]
    fn error_display() {
        assert_eq!(
            OsError::ClsweepDenied.to_string(),
            "clsweep permission not granted"
        );
        assert_eq!(format!("{}", Pid(3)), "pid:3");
    }
}
