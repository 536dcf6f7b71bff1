//! Parallel experiment fleet: run independent simulation points across a
//! worker pool of OS threads.
//!
//! Regenerating a paper figure means running tens of *independent*
//! simulation points (policy × ways × buffer depth …). Each point is a
//! self-contained [`Experiment`] that runs with the seed its configuration
//! names, so points can execute on any thread in any order without changing
//! results — the fleet guarantees **determinism by construction**:
//!
//! 1. no seed depends on the worker, the list position, or shared RNG
//!    state, so identical points give identical outcomes wherever they
//!    appear, and
//! 2. outcomes are collected back in declaration order, so rendered tables
//!    and CSVs are byte-identical for any `--jobs` value.
//!
//! The worker count comes from an explicit [`Fleet::new`] (the CLI's
//! `--jobs N`) or [`Fleet::default`] (available parallelism). A single-point
//! fleet, or `--jobs 1`, degrades to plain sequential execution on the
//! calling thread.
//!
//! [`Fleet::run`] is the one way to run a batch: `figure` renders its
//! outcomes, `sweep` declares one at-rate point per offered rate, and
//! `check` runs a figure's points after [`ExperimentPoint::checked`] turned
//! each into a checked point. Each finished point prints one progress line
//! on stderr.
//!
//! ```
//! use sweeper_core::experiment::ExperimentConfig;
//! use sweeper_core::fleet::{ExperimentPoint, Fleet};
//! use sweeper_core::workload::EchoWorkload;
//!
//! let points = (0..4)
//!     .map(|i| {
//!         ExperimentPoint::at_rate(
//!             format!("echo#{i}"),
//!             ExperimentConfig::tiny_for_tests().experiment(EchoWorkload::default),
//!             2.0e6,
//!         )
//!     })
//!     .collect();
//! let outcomes = Fleet::new(2).run(points);
//! assert_eq!(outcomes.len(), 4);
//! assert!(outcomes.iter().all(|o| o.report.completed > 0));
//! ```

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use sweeper_sim::check::CheckConfig;

use crate::experiment::{Experiment, PeakCriteria};
use crate::server::RunReport;

/// How the fleet drives one experiment point.
#[derive(Debug, Clone, Copy)]
pub enum PointAction {
    /// Peak-throughput search under the given criteria
    /// ([`Experiment::find_peak`]). The bisection stays sequential *within*
    /// the point; independent points still fan out.
    Peak(PeakCriteria),
    /// One open-loop run at a Poisson rate in packets/second
    /// ([`Experiment::run_at_rate`]).
    AtRate(f64),
    /// One closed-loop keep-queued run at depth *D*
    /// ([`Experiment::run_keep_queued`]).
    KeepQueued(usize),
}

/// One self-describing unit of fleet work: a labelled experiment plus the
/// action that drives it.
pub struct ExperimentPoint {
    label: String,
    experiment: Experiment,
    action: PointAction,
}

impl ExperimentPoint {
    /// A point with an explicit action.
    pub fn new(label: impl Into<String>, experiment: Experiment, action: PointAction) -> Self {
        Self {
            label: label.into(),
            experiment,
            action,
        }
    }

    /// Peak search under default criteria.
    pub fn peak(label: impl Into<String>, experiment: Experiment) -> Self {
        Self::new(
            label,
            experiment,
            PointAction::Peak(PeakCriteria::default()),
        )
    }

    /// Peak search under explicit criteria.
    pub fn peak_with(
        label: impl Into<String>,
        experiment: Experiment,
        criteria: PeakCriteria,
    ) -> Self {
        Self::new(label, experiment, PointAction::Peak(criteria))
    }

    /// Open-loop run at `rate` packets/second.
    pub fn at_rate(label: impl Into<String>, experiment: Experiment, rate: f64) -> Self {
        Self::new(label, experiment, PointAction::AtRate(rate))
    }

    /// Closed-loop keep-queued run at `depth`.
    pub fn keep_queued(label: impl Into<String>, experiment: Experiment, depth: usize) -> Self {
        Self::new(label, experiment, PointAction::KeepQueued(depth))
    }

    /// The point's display label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The point's experiment.
    pub fn experiment(&self) -> &Experiment {
        &self.experiment
    }

    /// The action the fleet will run.
    pub fn action(&self) -> PointAction {
        self.action
    }

    /// The same point in checked mode: the correctness harness runs under
    /// `check`, so the report carries a `check` section, and a peak point
    /// becomes a single closed-loop keep-queued pass at depth 8 instead of
    /// the full ~10-run bisection, because a correctness check needs the
    /// configuration's memory paths exercised once, not the search
    /// repeated. Rate and keep-queued points keep their action.
    pub fn checked(mut self, check: CheckConfig) -> Self {
        self.experiment.cfg.server.check = Some(check);
        if let PointAction::Peak(_) = self.action {
            self.action = PointAction::KeepQueued(8);
        }
        self
    }

    fn execute(self) -> PointOutcome {
        let start = Instant::now();
        let (report, peak_rate) = match self.action {
            PointAction::Peak(criteria) => {
                let peak = self.experiment.find_peak(criteria);
                (peak.report, Some(peak.rate))
            }
            PointAction::AtRate(rate) => (self.experiment.run_at_rate(rate), None),
            PointAction::KeepQueued(depth) => (self.experiment.run_keep_queued(depth), None),
        };
        PointOutcome {
            label: self.label,
            report,
            peak_rate,
            wall: start.elapsed(),
        }
    }
}

/// Result of one executed point, in declaration order.
#[derive(Debug, Clone)]
pub struct PointOutcome {
    /// The point's label, copied through from [`ExperimentPoint`].
    pub label: String,
    /// The run's report (the peak-rate run's report for
    /// [`PointAction::Peak`] points).
    pub report: RunReport,
    /// The peak offered rate in packets/second, for peak points.
    pub peak_rate: Option<f64>,
    /// Host wall-clock time this point took.
    pub wall: Duration,
}

impl PointOutcome {
    /// Application throughput of the point's report, in Mrps.
    pub fn throughput_mrps(&self) -> f64 {
        self.report.throughput_mrps()
    }

    /// The stderr progress line of the `finished`-th of `total` points: its
    /// harness verdict for a checked point, its throughput otherwise.
    fn progress_line(&self, finished: usize, total: usize) -> String {
        match &self.report.check {
            Some(c) => {
                let status = if c.passed() {
                    "pass".to_string()
                } else {
                    format!("FAIL ({} violations)", c.total_violations())
                };
                format!(
                    "[check {finished}/{total}] {}: {status} in {:.1?}",
                    self.label, self.wall
                )
            }
            None => format!(
                "[fleet {finished}/{total}] {}: {:.2} Mrps in {:.1?}",
                self.label,
                self.throughput_mrps(),
                self.wall
            ),
        }
    }
}

/// A worker pool executing [`ExperimentPoint`]s.
#[derive(Debug, Clone)]
pub struct Fleet {
    jobs: usize,
}

impl Default for Fleet {
    /// One worker per unit of the host's available parallelism.
    fn default() -> Self {
        Self::new(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }
}

impl Fleet {
    /// A fleet with an explicit worker count (clamped to ≥ 1).
    pub fn new(jobs: usize) -> Self {
        Self { jobs: jobs.max(1) }
    }

    /// The worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Executes the points and returns their outcomes **in declaration
    /// order**, regardless of worker count or completion order, printing a
    /// progress line per finished point. Every point runs with its own
    /// configured seed.
    pub fn run(&self, points: Vec<ExperimentPoint>) -> Vec<PointOutcome> {
        let total = points.len();
        let done = AtomicUsize::new(0);
        let execute = |point: ExperimentPoint| {
            let outcome = point.execute();
            let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
            eprintln!("{}", outcome.progress_line(finished, total));
            outcome
        };
        let workers = self.jobs.min(total);
        if workers <= 1 {
            return points.into_iter().map(execute).collect();
        }

        let queue = Mutex::new(points.into_iter().enumerate().collect::<VecDeque<_>>());
        let results: Vec<Mutex<Option<PointOutcome>>> =
            (0..total).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let job = queue.lock().expect("fleet queue poisoned").pop_front();
                    let Some((index, point)) = job else { break };
                    let outcome = execute(point);
                    *results[index].lock().expect("fleet slot poisoned") = Some(outcome);
                });
            }
        });
        results
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("fleet slot poisoned")
                    .expect("every point ran to completion")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ExperimentConfig;
    use crate::workload::EchoWorkload;

    fn echo_point(i: usize, rate: f64) -> ExperimentPoint {
        ExperimentPoint::at_rate(
            format!("echo#{i}"),
            ExperimentConfig::tiny_for_tests().experiment(|| EchoWorkload::with_think(150)),
            rate,
        )
    }

    fn fingerprint(outcomes: &[PointOutcome]) -> Vec<String> {
        outcomes
            .iter()
            .map(|o| {
                format!(
                    "{}|{}|{}|{}|{}|{}",
                    o.label,
                    o.report.completed,
                    o.report.offered,
                    o.report.elapsed_cycles,
                    o.report.mem.dram_accesses(),
                    o.report.request_latency.percentile(0.99),
                )
            })
            .collect()
    }

    #[test]
    fn outcomes_keep_declaration_order() {
        let points = (0..8)
            .map(|i| echo_point(i, 1.0e6 + i as f64 * 1.0e5))
            .collect();
        let outcomes = Fleet::new(4).run(points);
        let labels: Vec<_> = outcomes.iter().map(|o| o.label.as_str()).collect();
        assert_eq!(
            labels,
            ["echo#0", "echo#1", "echo#2", "echo#3", "echo#4", "echo#5", "echo#6", "echo#7"]
        );
    }

    #[test]
    fn results_are_identical_for_any_worker_count() {
        let build = || (0..6).map(|i| echo_point(i, 2.0e6)).collect::<Vec<_>>();
        let sequential = fingerprint(&Fleet::new(1).run(build()));
        let parallel = fingerprint(&Fleet::new(4).run(build()));
        let oversubscribed = fingerprint(&Fleet::new(64).run(build()));
        assert_eq!(sequential, parallel);
        assert_eq!(sequential, oversubscribed);
    }

    #[test]
    fn identical_points_give_identical_outcomes_at_any_position() {
        // The same point first, in the middle and last of a list, between
        // points of other rates and seeds: every copy replays one stream.
        let points = vec![
            echo_point(0, 2.0e6),
            echo_point(1, 1.0e6),
            echo_point(2, 2.0e6),
            ExperimentPoint::at_rate(
                "echo#3",
                ExperimentConfig::tiny_for_tests()
                    .seed(7)
                    .experiment(|| EchoWorkload::with_think(150)),
                2.0e6,
            ),
            echo_point(4, 2.0e6),
        ];
        let prints: Vec<String> = fingerprint(&Fleet::new(2).run(points))
            .into_iter()
            .map(|p| p.split_once('|').unwrap().1.to_string())
            .collect();
        assert_eq!(prints[0], prints[2]);
        assert_eq!(prints[0], prints[4]);
        assert_ne!(
            prints[0], prints[1],
            "a different rate is a different point"
        );
        assert_ne!(
            prints[0], prints[3],
            "a different seed is a different point"
        );
    }

    #[test]
    fn sampled_and_traced_fleet_is_byte_identical_across_job_counts() {
        // The observability layer must not break determinism-by-construction:
        // with in-run sampling AND span tracing enabled, each point's label,
        // peak rate and report JSON, its Perfetto export, and its timeseries
        // must all be byte-identical for --jobs 1 and --jobs N.
        use crate::report::json_record;
        use crate::telemetry::{perfetto_document, RunManifest};

        let build = || -> Vec<ExperimentPoint> {
            (0..4)
                .map(|i| {
                    ExperimentPoint::at_rate(
                        format!("traced#{i}"),
                        ExperimentConfig::tiny_for_tests()
                            .sampling(50_000)
                            .spans(4096)
                            .experiment(|| EchoWorkload::with_think(150)),
                        2.0e6,
                    )
                })
                .collect()
        };
        let manifest = RunManifest::new();
        let artifacts = |outcomes: &[PointOutcome]| -> Vec<String> {
            let mut out = Vec::new();
            for o in outcomes {
                out.push(format!("{} {:?}", o.label, o.peak_rate));
                out.push(json_record(&o.report).to_json_pretty());
                let spans = o.report.spans.as_ref().expect("spans enabled");
                assert!(
                    !spans.is_empty(),
                    "{}: traced run recorded no spans",
                    o.label
                );
                out.push(perfetto_document(spans, &manifest).to_json_pretty());
                let ts = o.report.timeseries.as_ref().expect("sampler enabled");
                out.push(ts.to_record().to_json_pretty());
            }
            out
        };
        let sequential = artifacts(&Fleet::new(1).run(build()));
        let parallel = artifacts(&Fleet::new(4).run(build()));
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn fleet_clamps_to_at_least_one_worker() {
        assert!(Fleet::new(0).jobs() >= 1);
        assert!(Fleet::default().jobs() >= 1);
    }

    #[test]
    fn keep_queued_and_peak_actions_run() {
        let cfg = ExperimentConfig::tiny_for_tests();
        let points = vec![
            ExperimentPoint::keep_queued(
                "kq",
                cfg.clone().experiment(|| EchoWorkload::with_think(150)),
                4,
            ),
            ExperimentPoint::peak_with(
                "pk",
                cfg.run_options(crate::server::RunOptions {
                    warmup_requests: 100,
                    measure_requests: 400,
                    max_cycles: 4_000_000_000,
                    min_warmup_cycles: 0,
                    min_measure_cycles: 0,
                })
                .experiment(|| EchoWorkload::with_think(150)),
                PeakCriteria::default(),
            ),
        ];
        let outcomes = Fleet::new(2).run(points);
        assert!(outcomes[0].peak_rate.is_none());
        assert!(outcomes[1].peak_rate.is_some());
        assert!(outcomes.iter().all(|o| o.report.completed > 0));
    }

    #[test]
    fn checked_points_run_the_harness_and_search_no_peak() {
        let experiment =
            || ExperimentConfig::tiny_for_tests().experiment(|| EchoWorkload::with_think(150));
        let check = CheckConfig::default();
        let points = vec![
            ExperimentPoint::peak("pk", experiment()).checked(check),
            ExperimentPoint::at_rate("ar", experiment(), 2.0e6).checked(check),
            ExperimentPoint::keep_queued("kq", experiment(), 4).checked(check),
        ];
        let actions: Vec<String> = points.iter().map(|p| format!("{:?}", p.action())).collect();
        assert_eq!(
            actions,
            ["KeepQueued(8)", "AtRate(2000000.0)", "KeepQueued(4)"]
        );
        let outcomes = Fleet::new(2).run(points);
        for o in &outcomes {
            assert!(o.peak_rate.is_none(), "{}: searched a peak", o.label);
            let c = o.report.check.as_ref().expect("a checked report");
            assert!(c.passed() && c.events > 0, "{}: {c:?}", o.label);
        }
        // The peak point ran one keep-queued pass at depth 8, which the
        // harness observes without perturbing.
        let (checked, plain) = (&outcomes[0].report, experiment().run_keep_queued(8));
        assert_eq!(checked.completed, plain.completed);
        assert_eq!(checked.elapsed_cycles, plain.elapsed_cycles);
    }
}
