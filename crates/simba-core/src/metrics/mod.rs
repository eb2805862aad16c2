//! Evaluation metrics (§6.2.5 and §6.3–6.4 of the paper).
//!
//! * [`DurationSummary`] — the query-duration statistics behind Figures 7
//!   and 8.
//! * [`QueryShape`] / [`WorkloadStats`] — the per-query workload-shape
//!   counters of Table 4 (data columns, aggregated columns, filters).
//! * [`realism`] — the §6.4 probe: zero-result query analysis and the
//!   binomial test applied to expert guesses.

pub mod realism;

use crate::session::QueryRecord;
use simba_sql::Select;
use std::time::Duration;

/// Summary statistics over a set of query durations.
#[derive(Debug, Clone, PartialEq)]
pub struct DurationSummary {
    pub count: usize,
    pub mean_ms: f64,
    pub std_ms: f64,
    pub min_ms: f64,
    pub p25_ms: f64,
    pub p50_ms: f64,
    pub p75_ms: f64,
    pub p95_ms: f64,
    pub max_ms: f64,
}

impl DurationSummary {
    /// Compute the summary; `None` for an empty input.
    pub fn from_durations(durations: &[Duration]) -> Option<DurationSummary> {
        if durations.is_empty() {
            return None;
        }
        let mut ms: Vec<f64> = durations.iter().map(|d| d.as_secs_f64() * 1e3).collect();
        ms.sort_by(f64::total_cmp);
        let count = ms.len();
        let mean = ms.iter().sum::<f64>() / count as f64;
        let var = ms.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / count as f64;
        Some(DurationSummary {
            count,
            mean_ms: mean,
            std_ms: var.sqrt(),
            min_ms: ms[0],
            p25_ms: percentile(&ms, 0.25),
            p50_ms: percentile(&ms, 0.50),
            p75_ms: percentile(&ms, 0.75),
            p95_ms: percentile(&ms, 0.95),
            max_ms: ms[count - 1],
        })
    }

    /// Inter-quartile range (the box height in Figure 7).
    pub fn iqr_ms(&self) -> f64 {
        self.p75_ms - self.p25_ms
    }
}

/// Linear-interpolated percentile of a sorted slice.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Table 4's per-query shape counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryShape {
    /// Categorical and quantitative data columns retrieved un-aggregated
    /// (projection + grouping columns).
    pub data_columns: usize,
    /// Aggregated output columns.
    pub aggregated_columns: usize,
    /// WHERE-clause filter conjuncts.
    pub filters: usize,
}

/// Compute a query's shape counters.
pub fn query_shape(q: &Select) -> QueryShape {
    let mut data_cols = std::collections::HashSet::new();
    let mut aggregated = 0usize;
    for item in &q.projections {
        if item.expr.contains_aggregate() {
            aggregated += 1;
        } else {
            for c in item.expr.referenced_columns() {
                data_cols.insert(c.to_ascii_lowercase());
            }
        }
    }
    for g in &q.group_by {
        for c in g.referenced_columns() {
            data_cols.insert(c.to_ascii_lowercase());
        }
    }
    QueryShape {
        data_columns: data_cols.len(),
        aggregated_columns: aggregated,
        filters: q.filters().len(),
    }
}

/// Mean-and-deviation aggregate of query shapes (one Table 4 row).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadStats {
    pub queries: usize,
    pub data_columns_avg: f64,
    pub data_columns_std: f64,
    pub aggregated_avg: f64,
    pub aggregated_std: f64,
    pub filters_avg: f64,
    pub filters_std: f64,
}

impl WorkloadStats {
    /// Aggregate shapes into Table 4-style statistics; `None` when empty.
    pub fn from_shapes(shapes: &[QueryShape]) -> Option<WorkloadStats> {
        if shapes.is_empty() {
            return None;
        }
        let n = shapes.len() as f64;
        let stats = |extract: fn(&QueryShape) -> usize| -> (f64, f64) {
            let mean = shapes.iter().map(|s| extract(s) as f64).sum::<f64>() / n;
            let var = shapes
                .iter()
                .map(|s| (extract(s) as f64 - mean).powi(2))
                .sum::<f64>()
                / n;
            (mean, var.sqrt())
        };
        let (dc_avg, dc_std) = stats(|s| s.data_columns);
        let (ag_avg, ag_std) = stats(|s| s.aggregated_columns);
        let (f_avg, f_std) = stats(|s| s.filters);
        Some(WorkloadStats {
            queries: shapes.len(),
            data_columns_avg: dc_avg,
            data_columns_std: dc_std,
            aggregated_avg: ag_avg,
            aggregated_std: ag_std,
            filters_avg: f_avg,
            filters_std: f_std,
        })
    }

    /// Shapes of every query in a session log.
    pub fn from_log(log: &crate::session::SessionLog) -> Option<WorkloadStats> {
        Self::from_queries(log.queries())
    }

    /// Shapes of logged queries; SQL that does not parse is skipped.
    pub fn from_queries<'a>(
        queries: impl Iterator<Item = &'a QueryRecord>,
    ) -> Option<WorkloadStats> {
        let shapes: Vec<QueryShape> = queries
            .filter_map(|q| simba_sql::parse_select(&q.sql).ok())
            .map(|q| query_shape(&q))
            .collect();
        Self::from_shapes(&shapes)
    }
}

/// Response-rate metric (§6.2.5's alternative metric): the fraction of
/// queries answered within an interactivity threshold. The paper notes
/// thresholds "must be tailored to the specific requirements of the target
/// dashboard(s)", so the threshold is a parameter.
pub fn response_rate(durations: &[Duration], threshold: Duration) -> f64 {
    if durations.is_empty() {
        return 1.0;
    }
    durations.iter().filter(|d| **d <= threshold).count() as f64 / durations.len() as f64
}

/// The 100 ms interactivity bar used throughout the latency literature the
/// paper cites (Liu & Heer's "effects of interactive latency").
pub const INTERACTIVE_THRESHOLD: Duration = Duration::from_millis(100);

#[cfg(test)]
mod tests {
    use super::*;
    use simba_sql::parse_select;

    #[test]
    fn response_rate_counts_threshold() {
        let ds = [
            Duration::from_millis(10),
            Duration::from_millis(90),
            Duration::from_millis(150),
            Duration::from_millis(400),
        ];
        assert!((response_rate(&ds, INTERACTIVE_THRESHOLD) - 0.5).abs() < 1e-12);
        assert_eq!(response_rate(&[], INTERACTIVE_THRESHOLD), 1.0);
        assert_eq!(response_rate(&ds, Duration::from_secs(1)), 1.0);
    }

    fn shape(sql: &str) -> QueryShape {
        query_shape(&parse_select(sql).unwrap())
    }

    #[test]
    fn shape_counts_figure_2_query() {
        // SELECT queue, hour, callDirection, COUNT(calls) ... WHERE queue IN ('A')
        let s = shape(
            "SELECT queue, hour, callDirection, COUNT(calls) FROM cs \
             WHERE queue IN ('A') GROUP BY queue, hour, callDirection",
        );
        assert_eq!(s.data_columns, 3);
        assert_eq!(s.aggregated_columns, 1);
        assert_eq!(s.filters, 1);
    }

    #[test]
    fn shape_counts_multi_filter() {
        let s = shape("SELECT COUNT(*) FROM t WHERE a = 1 AND b > 2 AND c IN ('x')");
        assert_eq!(s.data_columns, 0);
        assert_eq!(s.aggregated_columns, 1);
        assert_eq!(s.filters, 3);
    }

    #[test]
    fn shape_deduplicates_projection_and_group_columns() {
        let s = shape("SELECT q, SUM(x) FROM t GROUP BY q");
        assert_eq!(s.data_columns, 1);
    }

    #[test]
    fn duration_summary_basic() {
        let ds: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        let s = DurationSummary::from_durations(&ds).unwrap();
        assert_eq!(s.count, 100);
        assert!((s.mean_ms - 50.5).abs() < 1e-9);
        assert!((s.p50_ms - 50.5).abs() < 1.0);
        assert_eq!(s.min_ms, 1.0);
        assert_eq!(s.max_ms, 100.0);
        assert!(s.iqr_ms() > 0.0);
    }

    #[test]
    fn duration_summary_empty_is_none() {
        assert!(DurationSummary::from_durations(&[]).is_none());
    }

    #[test]
    fn duration_summary_single_value() {
        let s = DurationSummary::from_durations(&[Duration::from_millis(5)]).unwrap();
        assert_eq!(s.p50_ms, 5.0);
        assert_eq!(s.std_ms, 0.0);
    }

    #[test]
    fn workload_stats_mean_and_std() {
        let shapes = vec![
            QueryShape {
                data_columns: 1,
                aggregated_columns: 1,
                filters: 1,
            },
            QueryShape {
                data_columns: 3,
                aggregated_columns: 1,
                filters: 3,
            },
        ];
        let w = WorkloadStats::from_shapes(&shapes).unwrap();
        assert_eq!(w.queries, 2);
        assert!((w.data_columns_avg - 2.0).abs() < 1e-9);
        assert!((w.data_columns_std - 1.0).abs() < 1e-9);
        assert!((w.aggregated_std - 0.0).abs() < 1e-9);
        assert!((w.filters_avg - 2.0).abs() < 1e-9);
    }

    #[test]
    fn workload_stats_empty_is_none() {
        assert!(WorkloadStats::from_shapes(&[]).is_none());
    }
}
