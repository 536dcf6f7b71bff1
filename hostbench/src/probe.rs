//! Host-time probes placed around the simulator's public calls, and the
//! statistics the benchmark reports them with.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use sweeper_core::workload::{CoreEnv, Op, TxAction, Workload};
use sweeper_nic::packet::Packet;
use sweeper_sim::hierarchy::MemorySystem;

/// Host nanoseconds that taking a timestamp and reading its elapsed time add
/// to every timed interval: the median of back-to-back empty intervals.
pub fn timer_overhead_ns() -> u64 {
    let mut samples: Vec<u64> = (0..10_000)
        .map(|_| {
            let start = Instant::now();
            start.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Dependent steps in one pass of the reference loop.
const REFERENCE_STEPS: u32 = 20_000_000;

/// Host seconds of one pass of a fixed reference loop: a dependent chain of
/// xorshift-multiply steps that touches no memory. On a shared host the
/// speed of a core drifts with other tenants' load for minutes at a time,
/// and much of that drift slows the simulator and this loop alike: across
/// runs minutes apart, host time divided by the loop's time spreads about
/// half as much as host time does.
pub fn reference_s() -> f64 {
    let start = Instant::now();
    let mut x = std::hint::black_box(0x9e37_79b9_7f4a_7c15_u64);
    for _ in 0..REFERENCE_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_mul(0x2545_f491_4f6c_dd1d);
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64()
}

/// Host nanoseconds since `start`, less the timer's own cost.
pub fn ns_since(start: Instant, overhead_ns: u64) -> u64 {
    (start.elapsed().as_nanos() as u64).saturating_sub(overhead_ns)
}

/// Whether the memtrace records every memory access `op` makes. The replay
/// re-issues recorded events only, so a run whose workload emits any other
/// op cannot be replayed exactly.
pub fn memtrace_records(op: &Op) -> bool {
    match op {
        Op::Read { .. } | Op::Write { .. } | Op::Sweep { .. } | Op::Compute { .. } => true,
        // `cpu_read_scatter` records no trace event.
        Op::ReadScatter { .. } => false,
    }
}

/// Host time of the workload layer over one traced run.
#[derive(Debug, Default)]
pub struct WorkloadTimes {
    /// Host nanoseconds of each `handle_packet` call.
    pub handle_ns: Vec<u64>,
    /// Ops those calls recorded.
    pub ops: u64,
    /// Host nanoseconds of `setup`.
    pub setup_ns: u64,
    /// Calls that recorded an op the memtrace does not record.
    pub unrecorded: u64,
}

enum Probe {
    /// Counts `handle_packet` calls and adds nothing else to them.
    Count(Arc<AtomicU64>),
    /// Times every call, less the timer's own cost in nanoseconds.
    Time(Rc<RefCell<WorkloadTimes>>, u64),
}

/// An application wrapped so the benchmark sees the server's calls into it.
pub struct Probed {
    inner: Box<dyn Workload>,
    probe: Probe,
}

impl Probed {
    /// Counts the requests `inner` handles into `requests`.
    pub fn counting(inner: Box<dyn Workload>, requests: Arc<AtomicU64>) -> Self {
        Self {
            inner,
            probe: Probe::Count(requests),
        }
    }

    /// Times every call into `inner`, recording into `times`.
    pub fn timing(
        inner: Box<dyn Workload>,
        times: Rc<RefCell<WorkloadTimes>>,
        overhead_ns: u64,
    ) -> Self {
        Self {
            inner,
            probe: Probe::Time(times, overhead_ns),
        }
    }
}

impl Workload for Probed {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn setup(&mut self, mem: &mut MemorySystem) {
        let start = Instant::now();
        self.inner.setup(mem);
        if let Probe::Time(times, overhead_ns) = &self.probe {
            times.borrow_mut().setup_ns += ns_since(start, *overhead_ns);
        }
    }

    fn handle_packet(&mut self, packet: &Packet, env: &mut CoreEnv<'_>) -> TxAction {
        match &self.probe {
            Probe::Count(requests) => {
                requests.fetch_add(1, Ordering::Relaxed);
                self.inner.handle_packet(packet, env)
            }
            Probe::Time(times, overhead_ns) => {
                let start = Instant::now();
                let action = self.inner.handle_packet(packet, env);
                let ns = ns_since(start, *overhead_ns);
                let mut times = times.borrow_mut();
                times.handle_ns.push(ns);
                times.ops += env.ops().len() as u64;
                if !env.ops().iter().all(memtrace_records) {
                    times.unrecorded += 1;
                }
                action
            }
        }
    }
}

/// Percentiles a call-time tail is read at, highest first.
const TAIL_LADDER: [f64; 4] = [99.99, 99.9, 99.0, 90.0];

/// Per-call host times, reduced to what the benchmark reports.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CallSummary {
    /// Calls timed (the sample count).
    pub calls: u64,
    /// Host seconds over all calls.
    pub total_s: f64,
    /// Median call, host nanoseconds.
    pub p50_ns: f64,
    /// The highest percentile of the ladder 99.99/99.9/99/90 that has at
    /// least ten samples beyond it (50 when none has).
    pub tail_pct: f64,
    /// The call time at `tail_pct`, host nanoseconds.
    pub tail_ns: f64,
}

/// Sorts `samples` (host nanoseconds) and summarizes them.
pub fn summarize(samples: &mut [u64]) -> CallSummary {
    if samples.is_empty() {
        return CallSummary::default();
    }
    samples.sort_unstable();
    let n = samples.len();
    // Nearest-rank index of a percentile.
    let rank = |pct: f64| ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1;
    let (tail_pct, tail) = TAIL_LADDER
        .iter()
        .map(|&pct| (pct, rank(pct)))
        .find(|&(_, i)| n - 1 - i >= 10)
        .unwrap_or((50.0, rank(50.0)));
    CallSummary {
        calls: n as u64,
        total_s: samples.iter().sum::<u64>() as f64 / 1e9,
        p50_ns: samples[rank(50.0)] as f64,
        tail_pct,
        tail_ns: samples[tail] as f64,
    }
}

/// Median of `values` (mean of the middle two for an even count; NaN when
/// empty).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]),
    }
}

/// The process's peak resident set size (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("/proc/self/status has no VmHWM line")?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let mut samples: Vec<u64> = (1..=1000).collect();
        let s = summarize(&mut samples);
        assert_eq!(s.calls, 1000);
        assert_eq!(s.p50_ns, 500.0);
        // p99.9 leaves one sample beyond it, p99 leaves ten.
        assert_eq!(s.tail_pct, 99.0);
        assert_eq!(s.tail_ns, 990.0);

        let mut few = vec![5, 1, 3];
        let s = summarize(&mut few);
        assert_eq!((s.tail_pct, s.tail_ns, s.p50_ns), (50.0, 3.0, 3.0));
        assert_eq!(summarize(&mut []), CallSummary::default());
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
