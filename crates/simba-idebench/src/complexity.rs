//! Reverse-engineered dashboard complexity reports (Figure 9 and the §6.3
//! workload-shape comparison).

use crate::session::IdeBenchLog;
use simba_core::metrics::WorkloadStats;

/// Complexity profile of one IDEBench run's implicit dashboard.
#[derive(Debug, Clone, PartialEq)]
pub struct DashboardComplexity {
    pub viz_count: usize,
    pub link_count: usize,
    pub avg_updates_per_interaction: f64,
    /// Average data attributes per visualization (the paper reports 2.1 for
    /// IDEBench vs 3.8 for SIMBA).
    pub avg_attrs_per_viz: f64,
    /// Average WHERE filters per emitted query (13.2 vs 5.8 in the paper).
    pub avg_filters_per_query: f64,
}

impl DashboardComplexity {
    /// Profile one run.
    pub fn from_log(log: &IdeBenchLog) -> DashboardComplexity {
        let viz_count = log.dashboard.vizzes.len();
        let attrs: usize = log.dashboard.vizzes.iter().map(|v| v.attr_count()).sum();
        DashboardComplexity {
            viz_count,
            link_count: log.dashboard.links.len(),
            avg_updates_per_interaction: log.avg_updates_per_interaction(),
            avg_attrs_per_viz: if viz_count == 0 {
                0.0
            } else {
                attrs as f64 / viz_count as f64
            },
            avg_filters_per_query: WorkloadStats::from_queries(log.queries())
                .map_or(0.0, |stats| stats.filters_avg),
        }
    }
}

/// Aggregate Figure 9-style statistics over many runs.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetComplexity {
    pub runs: usize,
    pub viz_avg: f64,
    pub viz_min: usize,
    pub viz_max: usize,
    pub updates_avg: f64,
    pub updates_min: f64,
    pub updates_max: f64,
    pub attrs_avg: f64,
    pub filters_avg: f64,
}

impl FleetComplexity {
    /// Summarize many per-run complexity profiles.
    pub fn from_runs(profiles: &[DashboardComplexity]) -> Option<FleetComplexity> {
        if profiles.is_empty() {
            return None;
        }
        let n = profiles.len() as f64;
        Some(FleetComplexity {
            runs: profiles.len(),
            viz_avg: profiles.iter().map(|p| p.viz_count as f64).sum::<f64>() / n,
            viz_min: profiles
                .iter()
                .map(|p| p.viz_count)
                .min()
                .expect("non-empty"),
            viz_max: profiles
                .iter()
                .map(|p| p.viz_count)
                .max()
                .expect("non-empty"),
            updates_avg: profiles
                .iter()
                .map(|p| p.avg_updates_per_interaction)
                .sum::<f64>()
                / n,
            updates_min: profiles
                .iter()
                .map(|p| p.avg_updates_per_interaction)
                .fold(f64::INFINITY, f64::min),
            updates_max: profiles
                .iter()
                .map(|p| p.avg_updates_per_interaction)
                .fold(f64::NEG_INFINITY, f64::max),
            attrs_avg: profiles.iter().map(|p| p.avg_attrs_per_viz).sum::<f64>() / n,
            filters_avg: profiles
                .iter()
                .map(|p| p.avg_filters_per_query)
                .sum::<f64>()
                / n,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{IdeBenchConfig, IdeBenchRunner};
    use simba_data::DashboardDataset;
    use simba_engine::EngineKind;
    use std::sync::Arc;

    fn run(seed: u64) -> IdeBenchLog {
        let table = Arc::new(DashboardDataset::ItMonitor.generate_rows(1_000, 3));
        let engine = EngineKind::DuckDbLike.build();
        engine.register(table.clone());
        IdeBenchRunner::new(
            &table,
            engine.as_ref(),
            IdeBenchConfig {
                seed,
                interactions: 15,
                ..Default::default()
            },
        )
        .run()
        .unwrap()
    }

    #[test]
    fn complexity_profile_reflects_dashboard() {
        let log = run(1);
        let c = DashboardComplexity::from_log(&log);
        assert_eq!(c.viz_count, log.dashboard.vizzes.len());
        assert!(c.avg_attrs_per_viz >= 1.0);
        assert!(c.avg_updates_per_interaction > 1.0);
    }

    #[test]
    fn idebench_filters_exceed_attrs() {
        // §6.3's signature imbalance: IDEBench stacks filters faster than
        // it widens visualizations.
        let log = run(2);
        let c = DashboardComplexity::from_log(&log);
        assert!(
            c.avg_filters_per_query > c.avg_attrs_per_viz,
            "filters {} vs attrs {}",
            c.avg_filters_per_query,
            c.avg_attrs_per_viz
        );
    }

    #[test]
    fn fleet_summary_covers_ranges() {
        let profiles: Vec<DashboardComplexity> = (0..8)
            .map(|s| DashboardComplexity::from_log(&run(s)))
            .collect();
        let fleet = FleetComplexity::from_runs(&profiles).unwrap();
        assert_eq!(fleet.runs, 8);
        assert!(fleet.viz_min <= fleet.viz_avg as usize);
        assert!(fleet.viz_max >= fleet.viz_avg as usize);
        assert!(fleet.filters_avg > 0.0);
    }

    #[test]
    fn empty_fleet_is_none() {
        assert!(FleetComplexity::from_runs(&[]).is_none());
    }
}
