//! Load–latency sweeps: the classic "hockey-stick" characterization.
//!
//! The paper reports peak throughput under an SLO (Appendix A); operators
//! usually also want the whole curve — throughput, latency percentiles,
//! memory bandwidth, and leak counts as functions of offered load. A
//! [`LoadSweep`] drives an [`Experiment`]
//! across a rate grid and returns one [`LoadPoint`] per rate, ready for
//! plotting or CSV export.

use crate::experiment::Experiment;
use crate::fleet::Fleet;
use crate::server::RunReport;
use sweeper_sim::stats::TrafficClass;
use sweeper_sim::telemetry::{CsvTable, Record, Value};
use sweeper_sim::Cycle;

/// One measured operating point.
#[derive(Debug, Clone)]
pub struct LoadPoint {
    /// Offered load, packets per second.
    pub offered_rate: f64,
    /// Achieved throughput in Mrps.
    pub throughput_mrps: f64,
    /// Mean end-to-end request latency, cycles.
    pub latency_mean: f64,
    /// Median end-to-end request latency, cycles.
    pub latency_p50: Cycle,
    /// Tail end-to-end request latency, cycles.
    pub latency_p99: Cycle,
    /// Memory bandwidth, GB/s.
    pub memory_gbps: f64,
    /// Consumed + premature RX leak blocks per request.
    pub rx_leaks_per_request: f64,
    /// Fraction of offered packets dropped.
    pub drop_rate: f64,
    /// Completed / offered.
    pub goodput_ratio: f64,
}

impl LoadPoint {
    /// Summarizes one run at `offered_rate` into a sweep point.
    fn from_report(offered_rate: f64, report: &RunReport) -> Self {
        let counts = report.class_counts();
        let per_req = |c: TrafficClass| counts[c] as f64 / report.completed.max(1) as f64;
        let latency = report.request_latency.summary();
        Self {
            offered_rate,
            throughput_mrps: report.throughput_mrps(),
            latency_mean: latency.mean,
            latency_p50: latency.p50,
            latency_p99: latency.p99,
            memory_gbps: report.memory_bandwidth_gbps(),
            rx_leaks_per_request: per_req(TrafficClass::RxEvct) + per_req(TrafficClass::CpuRxRd),
            drop_rate: report.drop_rate(),
            goodput_ratio: report.goodput_ratio(),
        }
    }

    /// Structured export for the telemetry layer.
    pub fn to_record(&self) -> Record {
        Record::new()
            .with("offered_rate", self.offered_rate)
            .with("throughput_mrps", self.throughput_mrps)
            .with("latency_mean", self.latency_mean)
            .with("latency_p50", self.latency_p50)
            .with("latency_p99", self.latency_p99)
            .with("memory_gbps", self.memory_gbps)
            .with("rx_leaks_per_request", self.rx_leaks_per_request)
            .with("drop_rate", self.drop_rate)
            .with("goodput_ratio", self.goodput_ratio)
    }
}

/// A rate grid to sweep.
#[derive(Debug, Clone)]
pub struct RateGrid {
    rates: Vec<f64>,
}

impl RateGrid {
    /// Geometric grid of `points` rates from `lo` to `hi`.
    ///
    /// # Panics
    ///
    /// Panics if the bounds are not positive and increasing or `points < 2`.
    pub fn geometric(lo: f64, hi: f64, points: usize) -> Self {
        assert!(lo > 0.0 && hi > lo, "need 0 < lo < hi");
        assert!(points >= 2, "need at least two points");
        let ratio = (hi / lo).powf(1.0 / (points - 1) as f64);
        Self {
            rates: (0..points).map(|i| lo * ratio.powi(i as i32)).collect(),
        }
    }

    /// The rates, ascending.
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }
}

/// Result of sweeping an experiment across a rate grid.
#[derive(Debug, Clone)]
pub struct LoadSweep {
    points: Vec<LoadPoint>,
}

impl LoadSweep {
    /// Runs `experiment` at every rate of `grid`, fanning the rates out
    /// across `fleet`'s workers, and returns the sweep together with each
    /// rate's full report (in rate order; `sweep --validate` inspects their
    /// check sections).
    ///
    /// Every rate reuses the experiment's own seed and every rate runs, so
    /// the result is the same for any worker count.
    pub fn run(experiment: &Experiment, grid: &RateGrid, fleet: &Fleet) -> (Self, Vec<RunReport>) {
        let tasks: Vec<_> = grid
            .rates()
            .iter()
            .map(|&rate| move || experiment.run_at_rate(rate))
            .collect();
        let reports = fleet.run_tasks(tasks);
        let points = grid
            .rates()
            .iter()
            .zip(&reports)
            .map(|(&rate, report)| LoadPoint::from_report(rate, report))
            .collect();
        (Self { points }, reports)
    }

    /// The measured points, in offered-rate order.
    pub fn points(&self) -> &[LoadPoint] {
        &self.points
    }

    /// The knee: the first point whose p99 at least doubled relative to the
    /// lowest-load point (a scale-free definition of "where queuing starts").
    pub fn knee(&self) -> Option<&LoadPoint> {
        let base = self.points.first()?.latency_p99.max(1);
        self.points.iter().find(|p| p.latency_p99 >= 2 * base)
    }

    /// Renders the sweep as CSV (header + one row per point).
    pub fn to_csv(&self) -> String {
        self.to_csv_with_comments(&[])
    }

    /// Like [`LoadSweep::to_csv`], with `# key: value` manifest comment
    /// lines (in the workspace's shared dialect) prepended.
    pub fn to_csv_with_comments(&self, comments: &[(String, String)]) -> String {
        let mut table = CsvTable::new(&[
            "offered_rate",
            "throughput_mrps",
            "latency_mean",
            "latency_p50",
            "latency_p99",
            "memory_gbps",
            "rx_leaks_per_request",
            "drop_rate",
            "goodput_ratio",
        ])
        .comments(comments);
        for p in &self.points {
            table.row(vec![
                format!("{:.0}", p.offered_rate),
                format!("{:.4}", p.throughput_mrps),
                format!("{:.1}", p.latency_mean),
                p.latency_p50.to_string(),
                p.latency_p99.to_string(),
                format!("{:.3}", p.memory_gbps),
                format!("{:.3}", p.rx_leaks_per_request),
                format!("{:.6}", p.drop_rate),
                format!("{:.4}", p.goodput_ratio),
            ]);
        }
        table.to_csv()
    }

    /// Structured export for the telemetry layer: one record per point.
    pub fn to_record(&self) -> Record {
        Record::new().with(
            "points",
            self.points
                .iter()
                .map(|p| Value::from(p.to_record()))
                .collect::<Vec<_>>(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ExperimentConfig;
    use crate::workload::EchoWorkload;

    fn tiny_experiment() -> Experiment {
        Experiment::new(ExperimentConfig::tiny_for_tests(), || {
            EchoWorkload::with_think(200)
        })
    }

    #[test]
    fn geometric_grid_has_constant_ratio() {
        let g = RateGrid::geometric(1e6, 16e6, 5);
        for w in g.rates().windows(2) {
            assert!((w[1] / w[0] - 2.0).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "0 < lo < hi")]
    fn geometric_grid_rejects_bad_bounds() {
        RateGrid::geometric(5e6, 1e6, 3);
    }

    #[test]
    fn sweep_produces_monotone_offered_rates_and_knee() {
        let exp = tiny_experiment();
        let (sweep, _) = LoadSweep::run(
            &exp,
            &RateGrid::geometric(0.2e6, 12.8e6, 7),
            &Fleet::sequential(),
        );
        assert!(!sweep.points().is_empty());
        for w in sweep.points().windows(2) {
            assert!(w[1].offered_rate > w[0].offered_rate);
            // Throughput never decreases dramatically below offered at low load.
            assert!(w[0].goodput_ratio > 0.3);
        }
        // Low load tracks offered; the last point should show queueing or
        // saturation relative to the first.
        let first = sweep.points().first().unwrap();
        let last = sweep.points().last().unwrap();
        assert!(last.latency_p99 >= first.latency_p99);
    }

    #[test]
    fn parallel_sweep_matches_sequential() {
        let exp = tiny_experiment();
        let grid = RateGrid::geometric(0.5e6, 8.0e6, 5);
        let (sequential, reports) = LoadSweep::run(&exp, &grid, &Fleet::sequential());
        let (parallel, _) = LoadSweep::run(&exp, &grid, &Fleet::new(4));
        assert_eq!(sequential.to_csv(), parallel.to_csv());
        assert_eq!(reports.len(), grid.rates().len());
    }

    #[test]
    fn csv_has_header_and_rows() {
        let exp = tiny_experiment();
        let (sweep, _) =
            LoadSweep::run(&exp, &RateGrid::geometric(0.5e6, 1.5e6, 2), &Fleet::new(2));
        let csv = sweep.to_csv();
        assert!(csv.starts_with("offered_rate,"));
        assert_eq!(csv.lines().count(), 1 + sweep.points().len());
    }

    #[test]
    fn csv_comments_and_record_share_the_points() {
        let exp = tiny_experiment();
        let (sweep, _) =
            LoadSweep::run(&exp, &RateGrid::geometric(0.5e6, 1.5e6, 2), &Fleet::new(2));
        let csv = sweep.to_csv_with_comments(&[("artifact".to_string(), "loadsweep".to_string())]);
        assert!(csv.starts_with("# artifact: loadsweep\noffered_rate,"));
        let rec = sweep.to_record();
        let Some(Value::Array(points)) = rec.get("points") else {
            panic!("points missing");
        };
        assert_eq!(points.len(), sweep.points().len());
        let Value::Record(first) = &points[0] else {
            panic!("point not a record");
        };
        assert_eq!(
            first.get("latency_p99"),
            Some(&Value::U64(sweep.points()[0].latency_p99))
        );
    }
}
