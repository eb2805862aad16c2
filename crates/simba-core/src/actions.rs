//! Allowable actions: the data manipulations a simulated user can perform
//! (§3, §4.1.1).
//!
//! Actions operate on the interaction graph state; applying one returns the
//! set of visualization nodes whose queries must be re-executed (the
//! paper's "affected nodes"). Enumeration of candidate actions is driven by
//! [`FieldDomains`] extracted from the dataset, mirroring how a real user
//! sees the actual categories and ranges in the dashboard controls.

use crate::graph::{DashboardState, InteractionGraph, NodeId, NodeKind, NodeState, WidgetState};
use crate::spec::ControlSpec;
use simba_store::{ColumnRole, Table, Zone};
use std::collections::{BTreeSet, HashMap};

/// Maximum categories enumerated per control (very high-cardinality fields
/// are sampled, like a scrollable list a user realistically skims).
pub const MAX_CATEGORIES: usize = 24;

/// One data-manipulation interaction.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Toggle one checkbox option.
    Toggle { widget: NodeId, value: String },
    /// Check exactly one checkbox option, clearing the others (the
    /// label-click affordance; Figure 4's per-queue walkthrough uses this).
    SetExclusive { widget: NodeId, value: String },
    /// Select (or clear, with `None`) a radio/dropdown option.
    SetSingle {
        widget: NodeId,
        value: Option<String>,
    },
    /// Drag a range slider / date range to the given inclusive bounds.
    SetRange { widget: NodeId, lo: f64, hi: f64 },
    /// Reset one widget to its empty state.
    ClearWidget { widget: NodeId },
    /// Click a mark in a selectable visualization (toggles the value in the
    /// selection set on its primary dimension).
    SelectMark { vis: NodeId, value: String },
    /// Clear a visualization's mark selection.
    ClearSelection { vis: NodeId },
    /// Reset the whole dashboard to its initial state.
    ResetAll,
}

/// Coarse interaction category, used by the Markov model's transition
/// matrix (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ActionKind {
    Checkbox,
    Radio,
    Dropdown,
    Range,
    MarkSelect,
    Clear,
    Reset,
}

impl ActionKind {
    /// All kinds, in a stable order.
    pub const ALL: [ActionKind; 7] = [
        ActionKind::Checkbox,
        ActionKind::Radio,
        ActionKind::Dropdown,
        ActionKind::Range,
        ActionKind::MarkSelect,
        ActionKind::Clear,
        ActionKind::Reset,
    ];

    /// Stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            ActionKind::Checkbox => "checkbox",
            ActionKind::Radio => "radio",
            ActionKind::Dropdown => "dropdown",
            ActionKind::Range => "range",
            ActionKind::MarkSelect => "mark_select",
            ActionKind::Clear => "clear",
            ActionKind::Reset => "reset",
        }
    }
}

impl Action {
    /// The action's coarse kind (for transition matrices and logs).
    pub fn kind(&self, graph: &InteractionGraph) -> ActionKind {
        match self {
            Action::Toggle { .. } | Action::SetExclusive { .. } => ActionKind::Checkbox,
            Action::SetSingle { widget, value } => {
                if value.is_none() {
                    return ActionKind::Clear;
                }
                match graph.kind(*widget) {
                    NodeKind::Widget(w) => match graph.spec.widgets[w].control {
                        ControlSpec::Radio { .. } => ActionKind::Radio,
                        _ => ActionKind::Dropdown,
                    },
                    _ => ActionKind::Dropdown,
                }
            }
            Action::SetRange { .. } => ActionKind::Range,
            Action::ClearWidget { .. } | Action::ClearSelection { .. } => ActionKind::Clear,
            Action::SelectMark { .. } => ActionKind::MarkSelect,
            Action::ResetAll => ActionKind::Reset,
        }
    }

    /// Human-readable description for session logs.
    pub fn describe(&self, graph: &InteractionGraph) -> String {
        match self {
            Action::Toggle { widget, value } => {
                format!("toggle checkbox `{}` option '{}'", graph.id(*widget), value)
            }
            Action::SetExclusive { widget, value } => {
                format!("select only '{}' in `{}`", value, graph.id(*widget))
            }
            Action::SetSingle {
                widget,
                value: Some(v),
            } => {
                format!("select '{}' in `{}`", v, graph.id(*widget))
            }
            Action::SetSingle {
                widget,
                value: None,
            } => {
                format!("clear selection in `{}`", graph.id(*widget))
            }
            Action::SetRange { widget, lo, hi } => {
                format!("set `{}` range to [{lo}, {hi}]", graph.id(*widget))
            }
            Action::ClearWidget { widget } => format!("reset widget `{}`", graph.id(*widget)),
            Action::SelectMark { vis, value } => {
                format!("click mark '{}' in `{}`", value, graph.id(*vis))
            }
            Action::ClearSelection { vis } => {
                format!("clear highlight in `{}`", graph.id(*vis))
            }
            Action::ResetAll => "reset dashboard".to_string(),
        }
    }

    /// Apply the action to `state`; returns the visualization nodes whose
    /// queries must be refreshed.
    pub fn apply(&self, graph: &InteractionGraph, state: &mut DashboardState) -> Vec<NodeId> {
        let affected_from = |node: NodeId| -> Vec<NodeId> {
            graph
                .descendants(node)
                .into_iter()
                .filter(|n| matches!(graph.kind(*n), NodeKind::Visualization(_)))
                .collect()
        };
        match self {
            Action::Toggle { widget, value } => {
                if let NodeState::Widget(WidgetState::Checkbox { selected }) =
                    state.node_mut(*widget)
                {
                    if !selected.remove(value) {
                        selected.insert(value.clone());
                    }
                }
                affected_from(*widget)
            }
            Action::SetExclusive { widget, value } => {
                if let NodeState::Widget(WidgetState::Checkbox { selected }) =
                    state.node_mut(*widget)
                {
                    selected.clear();
                    selected.insert(value.clone());
                }
                affected_from(*widget)
            }
            Action::SetSingle { widget, value } => {
                if let NodeState::Widget(WidgetState::Single { selected }) = state.node_mut(*widget)
                {
                    *selected = value.clone();
                }
                affected_from(*widget)
            }
            Action::SetRange { widget, lo, hi } => {
                if let NodeState::Widget(WidgetState::Range { bounds }) = state.node_mut(*widget) {
                    *bounds = Some((*lo, *hi));
                }
                affected_from(*widget)
            }
            Action::ClearWidget { widget } => {
                if let NodeKind::Widget(w) = graph.kind(*widget) {
                    *state.node_mut(*widget) =
                        NodeState::Widget(WidgetState::empty(&graph.spec.widgets[w].control));
                }
                affected_from(*widget)
            }
            Action::SelectMark { vis, value } => {
                // Clicking a mark replaces the highlight (clicking the
                // already-selected mark clears it) — one queue per step, as
                // in Figure 4's walkthrough.
                if let NodeState::VisSelection(selected) = state.node_mut(*vis) {
                    let was_only_this = selected.len() == 1 && selected.contains(value);
                    selected.clear();
                    if !was_only_this {
                        selected.insert(value.clone());
                    }
                }
                affected_from(*vis)
            }
            Action::ClearSelection { vis } => {
                *state.node_mut(*vis) = NodeState::VisSelection(BTreeSet::new());
                affected_from(*vis)
            }
            Action::ResetAll => {
                *state = graph.initial_state();
                graph.visualization_nodes()
            }
        }
    }
}

/// Value domains for the dataset's fields, extracted once per table.
#[derive(Debug, Clone, Default)]
pub struct FieldDomains {
    map: HashMap<String, FieldDomain>,
}

/// The observable domain of one field.
#[derive(Debug, Clone)]
pub enum FieldDomain {
    /// Distinct categories (sorted; capped at [`MAX_CATEGORIES`]).
    Categories(Vec<String>),
    /// Numeric (or temporal) range.
    Numeric { min: f64, max: f64 },
}

impl FieldDomains {
    /// Extract domains for every column of a table.
    pub fn from_table(table: &Table) -> Self {
        let mut map = HashMap::new();
        for (i, def) in table.schema().columns.iter().enumerate() {
            let domain = match def.role {
                ColumnRole::Categorical => {
                    let mut cats: Vec<String> = table
                        .column(i)
                        .distinct_values()
                        .into_iter()
                        .filter_map(|v| v.as_str().map(str::to_string))
                        .collect();
                    cats.sort();
                    cats.truncate(MAX_CATEGORIES);
                    FieldDomain::Categories(cats)
                }
                ColumnRole::Quantitative | ColumnRole::Temporal => {
                    let (min, max) = table
                        .zone_maps()
                        .column(i)
                        .and_then(Zone::f64_range)
                        .unwrap_or((0.0, 0.0));
                    FieldDomain::Numeric { min, max }
                }
            };
            map.insert(def.name.to_ascii_lowercase(), domain);
        }
        Self { map }
    }

    /// Domain of a field (case-insensitive).
    pub fn get(&self, field: &str) -> Option<&FieldDomain> {
        self.map.get(&field.to_ascii_lowercase())
    }

    /// Categories of a categorical field (empty for other roles).
    pub fn categories(&self, field: &str) -> &[String] {
        match self.get(field) {
            Some(FieldDomain::Categories(c)) => c,
            _ => &[],
        }
    }

    /// Numeric range of a quantitative/temporal field.
    pub fn numeric_range(&self, field: &str) -> Option<(f64, f64)> {
        match self.get(field) {
            Some(FieldDomain::Numeric { min, max }) => Some((*min, *max)),
            _ => None,
        }
    }
}

/// Enumerate every applicable data-manipulation action in the current state
/// (the planner's `Applicable(s)` set from Algorithm 1).
pub fn enumerate_actions(
    graph: &InteractionGraph,
    state: &DashboardState,
    domains: &FieldDomains,
) -> Vec<Action> {
    let mut out = Vec::new();

    for widget in graph.widget_nodes() {
        let NodeKind::Widget(w) = graph.kind(widget) else {
            continue;
        };
        let control = &graph.spec.widgets[w].control;
        let ws = match state.node(widget) {
            NodeState::Widget(ws) => ws,
            _ => continue,
        };
        match control {
            ControlSpec::Checkbox { field } => {
                let current = match ws {
                    WidgetState::Checkbox { selected } => Some(selected),
                    _ => None,
                };
                for value in domains.categories(field) {
                    out.push(Action::Toggle {
                        widget,
                        value: value.clone(),
                    });
                    let already_exclusive =
                        current.is_some_and(|s| s.len() == 1 && s.contains(value));
                    if !already_exclusive {
                        out.push(Action::SetExclusive {
                            widget,
                            value: value.clone(),
                        });
                    }
                }
                if ws.is_active() {
                    out.push(Action::ClearWidget { widget });
                }
            }
            ControlSpec::Radio { field } | ControlSpec::Dropdown { field } => {
                let current = match ws {
                    WidgetState::Single { selected } => selected.as_deref(),
                    _ => None,
                };
                for value in domains.categories(field) {
                    if Some(value.as_str()) != current {
                        out.push(Action::SetSingle {
                            widget,
                            value: Some(value.clone()),
                        });
                    }
                }
                if current.is_some() {
                    out.push(Action::SetSingle {
                        widget,
                        value: None,
                    });
                }
            }
            ControlSpec::RangeSlider { field } | ControlSpec::DateRange { field } => {
                if let Some((min, max)) = domains.numeric_range(field) {
                    let current = match ws {
                        WidgetState::Range { bounds } => *bounds,
                        _ => None,
                    };
                    for (lo, hi) in candidate_ranges(min, max) {
                        if current != Some((lo, hi)) {
                            out.push(Action::SetRange { widget, lo, hi });
                        }
                    }
                    if current.is_some() {
                        out.push(Action::ClearWidget { widget });
                    }
                }
            }
        }
    }

    for vis_node in graph.visualization_nodes() {
        let NodeKind::Visualization(v) = graph.kind(vis_node) else {
            continue;
        };
        let vis = &graph.spec.visualizations[v];
        if !vis.selectable {
            continue;
        }
        let Some(dim) = vis.dimensions.first() else {
            continue;
        };
        let selected = match state.node(vis_node) {
            NodeState::VisSelection(s) => s,
            _ => continue,
        };
        for value in domains.categories(&dim.field) {
            out.push(Action::SelectMark {
                vis: vis_node,
                value: value.clone(),
            });
        }
        if !selected.is_empty() {
            out.push(Action::ClearSelection { vis: vis_node });
        }
    }

    if state.active_count() > 0 {
        out.push(Action::ResetAll);
    }
    out
}

/// Candidate slider positions: full range, halves, and quartiles — the
/// discrete drag targets a simulated user picks between.
pub fn candidate_ranges(min: f64, max: f64) -> Vec<(f64, f64)> {
    if max <= min || !max.is_finite() || !min.is_finite() {
        return vec![(min, max)];
    }
    let q = (max - min) / 4.0;
    vec![
        (min, max),
        (min, min + 2.0 * q),
        (min + 2.0 * q, max),
        (min, min + q),
        (min + q, min + 3.0 * q),
        (min + 3.0 * q, max),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::InteractionGraph;
    use crate::spec::builtin::builtin;
    use simba_data::DashboardDataset;

    fn setup() -> (InteractionGraph, FieldDomains) {
        let graph =
            InteractionGraph::from_spec(builtin(DashboardDataset::CustomerService)).unwrap();
        let table = DashboardDataset::CustomerService.generate_rows(2_000, 42);
        let domains = FieldDomains::from_table(&table);
        (graph, domains)
    }

    #[test]
    fn toggle_then_toggle_restores_state() {
        let (graph, _) = setup();
        let widget = graph.node("queue_checkbox").unwrap();
        let mut state = graph.initial_state();
        let original = state.clone();
        let action = Action::Toggle {
            widget,
            value: "A".into(),
        };
        action.apply(&graph, &mut state);
        assert_ne!(state, original);
        action.apply(&graph, &mut state);
        assert_eq!(state, original);
    }

    #[test]
    fn apply_returns_affected_visualizations() {
        let (graph, _) = setup();
        let widget = graph.node("queue_checkbox").unwrap();
        let mut state = graph.initial_state();
        let affected = Action::Toggle {
            widget,
            value: "A".into(),
        }
        .apply(&graph, &mut state);
        assert_eq!(
            affected.len(),
            5,
            "checkbox affects all five visualizations"
        );
    }

    #[test]
    fn enumerate_respects_domains() {
        let (graph, domains) = setup();
        let state = graph.initial_state();
        let actions = enumerate_actions(&graph, &state, &domains);
        // 4 queue toggles must be present.
        let toggles = actions
            .iter()
            .filter(|a| matches!(a, Action::Toggle { .. }))
            .count();
        assert_eq!(toggles, 4);
        // No clear/reset actions in the pristine state.
        assert!(!actions.iter().any(|a| matches!(
            a,
            Action::ClearWidget { .. } | Action::ClearSelection { .. } | Action::ResetAll
        )));
    }

    #[test]
    fn clear_actions_appear_once_active() {
        let (graph, domains) = setup();
        let mut state = graph.initial_state();
        let widget = graph.node("queue_checkbox").unwrap();
        Action::Toggle {
            widget,
            value: "A".into(),
        }
        .apply(&graph, &mut state);
        let actions = enumerate_actions(&graph, &state, &domains);
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::ClearWidget { .. })));
        assert!(actions.contains(&Action::ResetAll));
    }

    #[test]
    fn reset_all_restores_initial_state() {
        let (graph, _) = setup();
        let mut state = graph.initial_state();
        let widget = graph.node("queue_checkbox").unwrap();
        Action::Toggle {
            widget,
            value: "B".into(),
        }
        .apply(&graph, &mut state);
        let affected = Action::ResetAll.apply(&graph, &mut state);
        assert_eq!(state, graph.initial_state());
        assert_eq!(affected.len(), 5);
    }

    #[test]
    fn radio_actions_exclude_current_selection() {
        let (graph, domains) = setup();
        let mut state = graph.initial_state();
        let radio = graph.node("direction_radio").unwrap();
        Action::SetSingle {
            widget: radio,
            value: Some("incoming".into()),
        }
        .apply(&graph, &mut state);
        let actions = enumerate_actions(&graph, &state, &domains);
        assert!(!actions.contains(&Action::SetSingle {
            widget: radio,
            value: Some("incoming".into())
        }));
        assert!(actions.contains(&Action::SetSingle {
            widget: radio,
            value: None
        }));
    }

    #[test]
    fn candidate_ranges_cover_and_split() {
        let ranges = candidate_ranges(0.0, 100.0);
        assert!(ranges.contains(&(0.0, 100.0)));
        assert!(ranges.contains(&(0.0, 50.0)));
        assert!(ranges.len() >= 4);
        assert_eq!(candidate_ranges(5.0, 5.0), vec![(5.0, 5.0)]);
    }

    #[test]
    fn action_kinds_classify() {
        let (graph, _) = setup();
        let widget = graph.node("queue_checkbox").unwrap();
        let radio = graph.node("direction_radio").unwrap();
        assert_eq!(
            Action::Toggle {
                widget,
                value: "A".into()
            }
            .kind(&graph),
            ActionKind::Checkbox
        );
        assert_eq!(
            Action::SetSingle {
                widget: radio,
                value: Some("incoming".into())
            }
            .kind(&graph),
            ActionKind::Radio
        );
        assert_eq!(
            Action::SetSingle {
                widget: radio,
                value: None
            }
            .kind(&graph),
            ActionKind::Clear
        );
        assert_eq!(Action::ResetAll.kind(&graph), ActionKind::Reset);
    }

    #[test]
    fn domains_extract_categories_and_ranges() {
        let (_, domains) = setup();
        assert_eq!(domains.categories("queue"), &["A", "B", "C", "D"]);
        let (lo, hi) = domains.numeric_range("hour").unwrap();
        assert!(lo >= 0.0 && hi <= 23.0 && hi > lo);
        assert!(domains.get("nonexistent").is_none());
    }
}
