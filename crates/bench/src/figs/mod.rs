//! One module per paper table/figure, unified behind the [`Figure`] trait:
//! each figure *declares* its sweep as a list of [`ExperimentPoint`]s, each
//! built from one [`Scenario`], and *renders* the collected
//! [`PointOutcome`]s into the paper's tables. Execution —
//! parallelism, progress, timing — lives in the
//! [`Fleet`](sweeper_core::fleet::Fleet), not in the figures; every point
//! runs with its scenario's seed, so the same machine gives the same
//! numbers in every figure that contains it.
//!
//! [`registry`] lists every runnable figure; the `sweeper` CLI's `figure`
//! and `check` commands dispatch through it (via
//! [`run_figure`](crate::run_figure) for `figure`). `table1` is a parameter
//! listing with no experiment points: a plain module that builds its
//! [`Table`].

pub mod ablations;
pub mod fig1;
pub mod fig10;
pub mod fig2;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod outliers;
pub mod table1;

use sweeper_core::fleet::{ExperimentPoint, PointOutcome};
use sweeper_core::profile::RunProfile;
use sweeper_core::scenario::Scenario;

use crate::{f1, format_breakdown, FigContext, Table};

/// A reproducible paper figure: a declarative point sweep plus a renderer.
///
/// The default [`Figure::run`] covers the common single-stage shape —
/// enumerate, fan out across the fleet, render. Figures with data-dependent
/// stages (Figure 6 derives its iso-throughput rate from a first-stage
/// peak search) override `run` and feed `render` the concatenated
/// outcomes.
pub trait Figure: Sync {
    /// Registry key, e.g. `"fig5"` — the name `sweeper figure` takes.
    fn name(&self) -> &'static str;

    /// One-line description shown by `sweeper figures`.
    fn description(&self) -> &'static str;

    /// Enumerates the figure's sweep under `profile`, every point seeded
    /// with `seed`. Labels must be unique within the figure; declaration
    /// order is the render order.
    fn points(&self, profile: RunProfile, seed: u64) -> Vec<ExperimentPoint>;

    /// Renders outcomes (in declaration order) into the paper's tables,
    /// printed in `ctx`'s format and written under `results/` with `ctx`'s
    /// manifest.
    fn render(&self, ctx: &FigContext, outcomes: &[PointOutcome]);

    /// Executes the figure end-to-end.
    fn run(&self, ctx: &FigContext) {
        let outcomes = ctx.fleet.run(self.points(ctx.profile, ctx.seed));
        self.render(ctx, &outcomes);
    }
}

/// Emits a grid figure (Figures 1, 2, 5 and 8), whose `outcomes` hold one
/// row of `columns.len()` points per system: (a) throughput and (b) memory
/// bandwidth, a row per system under each column's header, then — when
/// `key_header` is given — (c) the per-request breakdown, a row per point
/// under its column's key. `tables` holds each table's artifact name and
/// title, (a) first.
pub(crate) fn emit_grid(
    ctx: &FigContext,
    outcomes: &[PointOutcome],
    systems: &[Scenario],
    columns: &[(String, String)],
    key_header: Option<&str>,
    tables: &[(String, String)],
) {
    assert_eq!(outcomes.len(), systems.len() * columns.len());
    let rows: Vec<_> = systems
        .iter()
        .zip(outcomes.chunks_exact(columns.len()))
        .collect();
    let mut headers = vec!["config"];
    headers.extend(columns.iter().map(|(header, _)| header.as_str()));
    let grid = |(name, title): &(String, String), metric: fn(&PointOutcome) -> f64| {
        let mut table = Table::new(title, &headers);
        for (system, row) in &rows {
            let cells = row.iter().map(|o| f1(metric(o)));
            table.row(std::iter::once(system.label()).chain(cells).collect());
        }
        table.emit(ctx, name);
    };
    grid(&tables[0], PointOutcome::throughput_mrps);
    grid(&tables[1], |o| o.report.memory_bandwidth_gbps());
    if let Some(key_header) = key_header {
        let (name, title) = &tables[2];
        let mut table = Table::new(title, &[key_header, "config", "breakdown"]);
        for (system, row) in &rows {
            for ((_, key), o) in columns.iter().zip(*row) {
                table.row(vec![
                    key.clone(),
                    system.label(),
                    format_breakdown(&o.report),
                ]);
            }
        }
        table.emit(ctx, name);
    }
}

/// Every runnable figure, in the paper's order (plus the ablation study).
pub fn registry() -> &'static [&'static dyn Figure] {
    &[
        &fig1::Fig1,
        &fig2::Fig2,
        &fig5::Fig5,
        &fig6::Fig6,
        &fig7::Fig7,
        &fig8::Fig8,
        &fig9::Fig9,
        &fig10::Fig10,
        &ablations::Ablations,
        &outliers::Outliers,
    ]
}

/// Looks a figure up by its registry key (case-insensitive).
pub fn find(name: &str) -> Option<&'static dyn Figure> {
    registry()
        .iter()
        .copied()
        .find(|f| f.name().eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;

    #[test]
    fn figure_point_sets_match_the_paper() {
        let p = RunProfile::Smoke;
        // Fig 1: (DMA, DDIO{2,4,6}, Ideal) × 3 ring depths.
        assert_eq!(fig1::Fig1.points(p, 1).len(), 15);
        // Fig 2: (DDIO{2,6,12}, Ideal) × 3 queued depths.
        assert_eq!(fig2::Fig2.points(p, 1).len(), 12);
        // Fig 5: 2 item sizes × (DDIO{2,4,6,12} ± Sweeper + Ideal) × 3 depths.
        assert_eq!(fig5::Fig5.points(p, 1).len(), 54);
        // Fig 6 stage one: DDIO{2,12} × ±Sweeper at their own peaks.
        assert_eq!(fig6::Fig6.points(p, 1).len(), 4);
        // Fig 7: (DDIO{2,6,12} ± Sweeper + Ideal) × 2 depths.
        assert_eq!(fig7::Fig7.points(p, 1).len(), 14);
        // Fig 8: 3 scenarios × 7 configs × 3 channel counts.
        assert_eq!(fig8::Fig8.points(p, 1).len(), 63);
        assert_eq!(fig8::CHANNELS, [3, 4, 8]);
        assert_eq!(fig8::SCENARIOS.len(), 3);
        // Fig 9: 5 disjoint splits × 2 modes + 6 way counts × 2 modes.
        assert_eq!(fig9::Fig9.points(p, 1).len(), 22);
        // Fig 10: 5 depths × 2 modes no-drop peaks + 7 rates × 3 series.
        assert_eq!(fig10::Fig10.points(p, 1).len(), 31);
        assert_eq!(fig10::BUFFERS, [128, 256, 512, 1024, 2048]);
        // Outlier drill-down: DDIO 2 ± Sweeper with the recorder armed.
        assert_eq!(outliers::Outliers.points(p, 1).len(), 2);
    }

    #[test]
    fn registry_figures_enumerate_unique_labelled_points() {
        assert!(!registry().is_empty());
        for figure in registry() {
            let points = figure.points(RunProfile::Smoke, 1);
            assert!(
                !points.is_empty(),
                "{} must enumerate at least one point",
                figure.name()
            );
            let labels: HashSet<&str> = points.iter().map(|p| p.label()).collect();
            assert_eq!(
                labels.len(),
                points.len(),
                "{} has duplicate point labels",
                figure.name()
            );
            assert!(!figure.description().is_empty());
        }
    }

    #[test]
    fn points_run_with_the_context_seed() {
        for figure in registry() {
            for point in figure.points(RunProfile::Smoke, 99) {
                assert_eq!(
                    point.experiment().config().server_config().seed,
                    99,
                    "{} point '{}'",
                    figure.name(),
                    point.label()
                );
            }
        }
    }

    /// Each point's full configuration and action, as `{:?}` text.
    fn described(points: &[ExperimentPoint]) -> Vec<String> {
        points
            .iter()
            .map(|p| format!("{:?} {:?}", p.experiment().config(), p.action()))
            .collect()
    }

    /// Asserts every point of `part` is also a point of `whole`, and
    /// returns how many `part` has.
    fn assert_subset(part: &[ExperimentPoint], whole: &[ExperimentPoint]) -> usize {
        let whole = described(whole);
        for (point, text) in part.iter().zip(described(part)) {
            assert!(whole.contains(&text), "'{}' is missing", point.label());
        }
        part.len()
    }

    #[test]
    fn figures_share_identical_points() {
        let (p, seed) = (RunProfile::Fast, 0x5eed);
        let fig5 = fig5::Fig5.points(p, seed);
        let ddio_or_ideal = |points: Vec<ExperimentPoint>| -> Vec<ExperimentPoint> {
            points
                .into_iter()
                .filter(|pt| pt.label().starts_with("DDIO") || pt.label().starts_with("Ideal"))
                .collect()
        };
        // Fig 1's DDIO {2,4,6} and Ideal points are Fig 5's 1 KB points.
        assert_eq!(
            assert_subset(&ddio_or_ideal(fig1::Fig1.points(p, seed)), &fig5),
            12
        );
        // Fig 6's peak stage is four of Fig 5's 1 KB, rx=1024 points.
        assert_eq!(assert_subset(&fig6::Fig6.points(p, seed), &fig5), 4);
        // Fig 8 at Fig 5's 4 channels is 21 of its points.
        let fig8_4ch: Vec<_> = fig8::Fig8
            .points(p, seed)
            .into_iter()
            .filter(|pt| pt.label().ends_with(" ch=4"))
            .collect();
        assert_eq!(assert_subset(&fig8_4ch, &fig5), 21);
        // Fig 7's DDIO {2,6,12} and Ideal points are Fig 2's at D ∈ {250, 450}.
        let fig7_plain: Vec<_> = fig7::Fig7
            .points(p, seed)
            .into_iter()
            .filter(|pt| !pt.label().contains("Sweeper"))
            .collect();
        assert_eq!(assert_subset(&fig7_plain, &fig2::Fig2.points(p, seed)), 8);
        // The four ablation "(default)" rows are one point.
        let defaults: Vec<_> = ablations::Ablations
            .points(p, seed)
            .into_iter()
            .filter(|pt| pt.label().contains("(default)") && !pt.label().ends_with("sweep"))
            .collect();
        assert_eq!(defaults.len(), 4);
        let texts = described(&defaults);
        assert!(texts.iter().all(|t| *t == texts[0]));
    }

    #[test]
    fn registry_lookup_is_case_insensitive_and_total() {
        for figure in registry() {
            assert_eq!(find(figure.name()).unwrap().name(), figure.name());
            assert!(find(&figure.name().to_uppercase()).is_some());
        }
        assert!(find("fig3").is_none());
    }

    #[test]
    fn table1_asserts_the_preset() {
        // Building it exercises all the hard assertions.
        assert!(table1::table().render().contains("DDR4-3200, 4 channels"));
    }
}
