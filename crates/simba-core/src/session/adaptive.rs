//! Result-steered session policies: the *adaptive* half of the benchmark.
//!
//! Scripted replay fixes every interaction before the first query runs, so
//! a simulated user can never react to what they see — exactly the
//! behavior IDEBench's viewport argument says interactive workloads need.
//! An [`AdaptivePolicy`] closes the loop: after each step executes, the
//! driver hands the policy the refreshed results
//! ([`StepObservation`]s) and the policy may answer with a *steering*
//! action — an interaction a real user plausibly performs in response:
//!
//! * **backtrack-on-empty** — the last filter emptied a chart, so undo it
//!   (clear the widget or the mark selection that caused it);
//! * **drill-into-top-group** — pin the dominant category of the last
//!   aggregate by clicking its mark, the classic overview→detail move.
//!
//! Policies are engine-free and deterministic: decisions depend only on
//! result *content*, which the equivalence suite pins to be identical
//! across engines — so the same seed steers the same way on every engine.

use super::source::QueryFeedback;
use crate::actions::Action;
use crate::dashboard::Dashboard;
use crate::graph::{DashboardState, NodeId, NodeKind, NodeState};
use simba_store::{ResultSet, ValueRef};

/// Which steering rule fired (for driver counters and logs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SteeringKind {
    /// Undid a filter that emptied one of its charts.
    BacktrackOnEmpty,
    /// Pinned the dominant category of an aggregate result.
    DrillTopGroup,
}

impl SteeringKind {
    /// Stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            SteeringKind::BacktrackOnEmpty => "backtrack_on_empty",
            SteeringKind::DrillTopGroup => "drill_top_group",
        }
    }
}

/// How one executed query ended, as seen by the steering hooks: the
/// stream's feedback, errors included.
pub type StepOutcome<'a> = QueryFeedback<'a>;

/// One executed query as seen by the steering hooks.
#[derive(Debug, Clone, Copy)]
pub struct StepObservation<'a> {
    /// Visualization node that issued the query.
    pub vis: NodeId,
    /// How the query ended.
    pub outcome: StepOutcome<'a>,
}

/// Configurable result-inspection steering rules.
#[derive(Debug, Clone)]
pub struct AdaptivePolicy {
    /// Undo a filtering action when it empties any refreshed chart.
    pub backtrack_on_empty: bool,
    /// Click the dominant mark of the first multi-group aggregate result.
    pub drill_into_top_group: bool,
}

impl Default for AdaptivePolicy {
    fn default() -> Self {
        AdaptivePolicy {
            backtrack_on_empty: true,
            drill_into_top_group: true,
        }
    }
}

impl AdaptivePolicy {
    /// A policy with every rule disabled (adaptive mode degenerates to an
    /// unsteered live Markov walk).
    pub fn disabled() -> Self {
        AdaptivePolicy {
            backtrack_on_empty: false,
            drill_into_top_group: false,
        }
    }

    /// Is any steering rule active?
    pub fn is_enabled(&self) -> bool {
        self.backtrack_on_empty || self.drill_into_top_group
    }

    /// Stable description of the enabled rules, for reports.
    pub fn describe(&self) -> String {
        let mut on = Vec::new();
        if self.backtrack_on_empty {
            on.push(SteeringKind::BacktrackOnEmpty.name());
        }
        if self.drill_into_top_group {
            on.push(SteeringKind::DrillTopGroup.name());
        }
        if on.is_empty() {
            "none".to_string()
        } else {
            on.join("+")
        }
    }

    /// Inspect the last step's results and propose at most one steering
    /// action. `action` is the interaction that produced `observed`
    /// (`None` for the initial render). Backtracking has priority: an
    /// emptied chart is a dead end a user corrects before exploring
    /// further.
    pub fn steer(
        &self,
        dashboard: &Dashboard,
        state: &DashboardState,
        action: Option<&Action>,
        observed: &[StepObservation<'_>],
    ) -> Option<(SteeringKind, Action)> {
        if self.backtrack_on_empty {
            if let Some(undo) = backtrack(action, observed) {
                return Some((SteeringKind::BacktrackOnEmpty, undo));
            }
        }
        if self.drill_into_top_group {
            if let Some(drill) = drill_top_group(dashboard, state, observed) {
                return Some((SteeringKind::DrillTopGroup, drill));
            }
        }
        None
    }
}

/// If the last action narrowed a filter and any refreshed chart came back
/// empty — or failed outright — produce the undo action. An errored chart
/// is treated like an emptied one: the user sees a dead view either way,
/// and undoing the triggering filter is the reaction that re-renders it.
fn backtrack(action: Option<&Action>, observed: &[StepObservation<'_>]) -> Option<Action> {
    let dead = observed
        .iter()
        .any(|o| o.outcome.is_err() || o.outcome.result().is_some_and(ResultSet::is_empty));
    if !dead {
        return None;
    }
    // Only *filtering* actions are backtrack-able; clears and resets widen.
    match action? {
        Action::Toggle { widget, .. }
        | Action::SetExclusive { widget, .. }
        | Action::SetSingle {
            widget,
            value: Some(_),
        }
        | Action::SetRange { widget, .. } => Some(Action::ClearWidget { widget: *widget }),
        Action::SelectMark { vis, .. } => Some(Action::ClearSelection { vis: *vis }),
        _ => None,
    }
}

/// Find the first refreshed aggregate with ≥ 2 groups on a selectable
/// categorical dimension and click its dominant mark.
///
/// "Dominant" is decided from the result *multiset* — maximum measure
/// value under [`f64::total_cmp`], ties broken toward the lexicographically
/// smaller category — so row emission order (which differs across engines)
/// cannot change the decision.
fn drill_top_group(
    dashboard: &Dashboard,
    state: &DashboardState,
    observed: &[StepObservation<'_>],
) -> Option<Action> {
    let graph = dashboard.graph();
    for obs in observed {
        let Some(result) = obs.outcome.result() else {
            continue;
        };
        let NodeKind::Visualization(vidx) = graph.kind(obs.vis) else {
            continue;
        };
        let vis = &graph.spec.visualizations[vidx];
        // Need a clickable chart grouped on a plain categorical field.
        if !vis.selectable || vis.measures.is_empty() {
            continue;
        }
        let Some(dim) = vis.dimensions.first() else {
            continue;
        };
        if dim.transform.is_some() || result.n_rows() < 2 {
            continue;
        }
        // Column layout: dimensions first, then measures.
        let measure_col = vis.dimensions.len();
        if result.n_cols() <= measure_col {
            continue;
        }
        let mut top: Option<(f64, &str)> = None;
        for row in result.rows() {
            let ValueRef::Str(cat) = row.get_ref(0) else {
                continue;
            };
            let Some(m) = row.get(measure_col).as_f64() else {
                continue;
            };
            let better = match top {
                None => true,
                Some((best, cat_best)) => match m.total_cmp(&best) {
                    std::cmp::Ordering::Greater => true,
                    std::cmp::Ordering::Equal => cat < cat_best,
                    std::cmp::Ordering::Less => false,
                },
            };
            if better {
                top = Some((m, cat));
            }
        }
        let Some((_, value)) = top else { continue };
        // The mark must exist as a clickable option, and clicking the sole
        // already-selected mark would *clear* it, not pin it.
        if !dashboard
            .domains()
            .categories(&dim.field)
            .iter()
            .any(|c| c == value)
        {
            continue;
        }
        if let NodeState::VisSelection(sel) = state.node(obs.vis) {
            if sel.len() == 1 && sel.contains(value) {
                continue;
            }
        }
        return Some(Action::SelectMark {
            vis: obs.vis,
            value: value.to_string(),
        });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::builtin::builtin;
    use simba_data::DashboardDataset;
    use simba_store::Value;

    fn dashboard() -> Dashboard {
        let ds = DashboardDataset::CustomerService;
        let table = ds.generate_rows(500, 4);
        Dashboard::new(builtin(ds), &table).unwrap()
    }

    fn grouped(rows: Vec<(&str, i64)>) -> ResultSet {
        ResultSet::new(
            vec!["queue".to_string(), "count".to_string()],
            rows.into_iter()
                .map(|(q, n)| vec![Value::from(q), Value::Int(n)]),
        )
    }

    #[test]
    fn backtrack_undoes_the_emptying_filter() {
        let d = dashboard();
        let state = d.initial_state();
        let widget = d.graph().node("queue_checkbox").unwrap();
        let vis = d.graph().node("calls_per_rep").unwrap();
        let action = Action::SetExclusive {
            widget,
            value: "A".into(),
        };
        let empty = ResultSet::empty(vec!["rep".to_string(), "count".to_string()]);
        let obs = [StepObservation {
            vis,
            outcome: StepOutcome::Ok(&empty),
        }];
        let (kind, undo) = AdaptivePolicy::default()
            .steer(&d, &state, Some(&action), &obs)
            .expect("empty result must trigger steering");
        assert_eq!(kind, SteeringKind::BacktrackOnEmpty);
        assert_eq!(undo, Action::ClearWidget { widget });
    }

    #[test]
    fn backtrack_undoes_the_filter_that_errored_a_chart() {
        let d = dashboard();
        let state = d.initial_state();
        let widget = d.graph().node("queue_checkbox").unwrap();
        let vis = d.graph().node("calls_per_rep").unwrap();
        let action = Action::SetExclusive {
            widget,
            value: "A".into(),
        };
        // An errored query is a dead view just like an empty one: the
        // filter that triggered it must be unwound, with no result to
        // inspect at all.
        let obs = [StepObservation {
            vis,
            outcome: StepOutcome::Errored,
        }];
        assert!(obs[0].outcome.is_err());
        assert!(obs[0].outcome.result().is_none());
        let (kind, undo) = AdaptivePolicy::default()
            .steer(&d, &state, Some(&action), &obs)
            .expect("errored result must trigger steering");
        assert_eq!(kind, SteeringKind::BacktrackOnEmpty);
        assert_eq!(undo, Action::ClearWidget { widget });

        // But only filtering actions unwind; an errored initial render has
        // nothing to undo.
        assert!(AdaptivePolicy::default()
            .steer(&d, &state, None, &obs)
            .is_none());
    }

    #[test]
    fn backtrack_ignores_widening_actions_and_nonempty_results() {
        let d = dashboard();
        let state = d.initial_state();
        let widget = d.graph().node("queue_checkbox").unwrap();
        let vis = d.graph().node("calls_per_rep").unwrap();
        let empty = ResultSet::empty(vec!["rep".to_string()]);
        let obs = [StepObservation {
            vis,
            outcome: StepOutcome::Ok(&empty),
        }];
        let policy = AdaptivePolicy {
            drill_into_top_group: false,
            ..Default::default()
        };
        // A clear is never backtracked, even over an empty result.
        assert!(policy
            .steer(&d, &state, Some(&Action::ClearWidget { widget }), &obs)
            .is_none());
        // A filter over non-empty results is left alone.
        let full = grouped(vec![("A", 3)]);
        let obs = [StepObservation {
            vis,
            outcome: StepOutcome::Ok(&full),
        }];
        let filter = Action::SetExclusive {
            widget,
            value: "A".into(),
        };
        assert!(policy.steer(&d, &state, Some(&filter), &obs).is_none());
    }

    #[test]
    fn drill_pins_dominant_category_order_insensitively() {
        let d = dashboard();
        let state = d.initial_state();
        // calls_per_rep groups on (rep_id, hour) with a COUNT measure, so a
        // realistic result is [rep_id, hour, count] and the measure sits at
        // column index 2 (= dimensions.len()).
        let vis = d.graph().node("calls_per_rep").unwrap();
        let cats = d.domains().categories("rep_id").to_vec();
        assert!(cats.len() >= 3, "need ≥3 categories, got {cats:?}");
        let grouped = |rows: Vec<(&str, i64)>| {
            ResultSet::new(
                vec!["rep_id".into(), "hour".into(), "count".into()],
                rows.into_iter()
                    .map(|(r, n)| vec![Value::from(r), Value::Int(9), Value::Int(n)]),
            )
        };

        let fwd = grouped(vec![(&cats[0], 5), (&cats[1], 9), (&cats[2], 2)]);
        let rev = grouped(vec![(&cats[2], 2), (&cats[1], 9), (&cats[0], 5)]);
        let policy = AdaptivePolicy {
            backtrack_on_empty: false,
            ..Default::default()
        };
        let pick = |rs: &ResultSet| {
            let obs = [StepObservation {
                vis,
                outcome: StepOutcome::Ok(rs),
            }];
            policy.steer(&d, &state, None, &obs)
        };
        let a = pick(&fwd).expect("dominant group must be drilled");
        let b = pick(&rev).expect("row order must not matter");
        assert_eq!(a, b);
        assert_eq!(
            a.1,
            Action::SelectMark {
                vis,
                value: cats[1].clone()
            }
        );
        assert_eq!(a.0, SteeringKind::DrillTopGroup);

        // Ties break toward the lexicographically smaller category.
        let mut sorted = [cats[0].clone(), cats[1].clone()];
        sorted.sort();
        let tied = grouped(vec![(&cats[0], 7), (&cats[1], 7)]);
        let t = pick(&tied).unwrap();
        assert_eq!(
            t.1,
            Action::SelectMark {
                vis,
                value: sorted[0].clone()
            }
        );

        // Clicking the sole already-selected mark would clear it — skip.
        let mut selected = state.clone();
        if let NodeState::VisSelection(sel) = selected.node_mut(vis) {
            sel.insert(cats[1].clone());
        }
        let obs = [StepObservation {
            vis,
            outcome: StepOutcome::Ok(&fwd),
        }];
        assert!(policy.steer(&d, &selected, None, &obs).is_none());
    }

    #[test]
    fn disabled_policy_never_steers() {
        let d = dashboard();
        let state = d.initial_state();
        let vis = d.graph().node("calls_per_rep").unwrap();
        let empty = ResultSet::empty(vec!["rep".to_string()]);
        let obs = [StepObservation {
            vis,
            outcome: StepOutcome::Ok(&empty),
        }];
        let widget = d.graph().node("queue_checkbox").unwrap();
        let filter = Action::SetExclusive {
            widget,
            value: "A".into(),
        };
        let policy = AdaptivePolicy::disabled();
        assert!(!policy.is_enabled());
        assert_eq!(policy.describe(), "none");
        assert!(policy.steer(&d, &state, Some(&filter), &obs).is_none());
        assert_eq!(
            AdaptivePolicy::default().describe(),
            "backtrack_on_empty+drill_top_group"
        );
    }
}
