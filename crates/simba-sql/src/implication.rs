//! Sound-but-incomplete predicate implication.
//!
//! Query subsumption (§4.1.2: "if one query is the prefix of another ... or
//! if semantically one query should subsume the other") reduces, for the
//! single-table fragment, to predicate implication: the goal query's rows are
//! a subset of an observed query's rows when `goal.WHERE ⇒ observed.WHERE`.
//!
//! A [`Conjunction`] compiles its conjunctive predicate into per-expression
//! [`Domain`]s (an interval plus allowed/excluded value sets) once, and
//! implication is domain containment over two stored maps. Any construct we
//! cannot reason about precisely (disjunctions across different expressions,
//! arithmetic between columns, …) makes the compilation fail, and callers
//! fall back to weaker checks — implication is therefore *sound*: a `true`
//! answer is always correct.

use crate::ast::{BinOp, Expr, Literal};
use crate::normalize::normalize_expr;
use crate::printer::print_expr;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;

/// An interval endpoint.
#[derive(Debug, Clone, PartialEq)]
pub enum Bound {
    Unbounded,
    /// Inclusive endpoint.
    Incl(Literal),
    /// Exclusive endpoint.
    Excl(Literal),
}

/// The set of values an expression may take under a conjunctive predicate.
#[derive(Debug, Clone, PartialEq)]
pub struct Domain {
    /// Lower interval endpoint.
    pub low: Bound,
    /// Upper interval endpoint.
    pub high: Bound,
    /// If present, the value must be a member of this set (`IN` / `=`).
    pub allowed: Option<BTreeSet<Literal>>,
    /// The value must not be any member of this set (`NOT IN` / `<>`).
    pub excluded: BTreeSet<Literal>,
    /// `IS NOT NULL` was asserted.
    pub not_null: bool,
    /// `IS NULL` was asserted (the domain is exactly {NULL}).
    pub only_null: bool,
}

impl Default for Domain {
    fn default() -> Self {
        Domain {
            low: Bound::Unbounded,
            high: Bound::Unbounded,
            allowed: None,
            excluded: BTreeSet::new(),
            not_null: false,
            only_null: false,
        }
    }
}

impl Domain {
    /// True when the domain places no constraint at all.
    pub fn is_unconstrained(&self) -> bool {
        self == &Domain::default()
    }

    fn tighten_low(&mut self, bound: Bound) {
        self.low = match (&self.low, &bound) {
            (Bound::Unbounded, _) => bound,
            (_, Bound::Unbounded) => self.low.clone(),
            (Bound::Incl(a) | Bound::Excl(a), Bound::Incl(b) | Bound::Excl(b)) => {
                if b > a {
                    bound
                } else if a > b {
                    self.low.clone()
                } else if matches!(self.low, Bound::Excl(_)) || matches!(bound, Bound::Excl(_)) {
                    Bound::Excl(a.clone())
                } else {
                    Bound::Incl(a.clone())
                }
            }
        };
    }

    fn tighten_high(&mut self, bound: Bound) {
        self.high = match (&self.high, &bound) {
            (Bound::Unbounded, _) => bound,
            (_, Bound::Unbounded) => self.high.clone(),
            (Bound::Incl(a) | Bound::Excl(a), Bound::Incl(b) | Bound::Excl(b)) => {
                if b < a {
                    bound
                } else if a < b {
                    self.high.clone()
                } else if matches!(self.high, Bound::Excl(_)) || matches!(bound, Bound::Excl(_)) {
                    Bound::Excl(a.clone())
                } else {
                    Bound::Incl(a.clone())
                }
            }
        };
    }

    fn restrict_allowed(&mut self, values: BTreeSet<Literal>) {
        self.allowed = Some(match self.allowed.take() {
            Some(existing) => existing.intersection(&values).cloned().collect(),
            None => values,
        });
    }

    /// A domain that admits nothing: `IS NULL` asserted alongside any
    /// constraint that NULL cannot satisfy.
    pub fn is_contradictory(&self) -> bool {
        self.only_null
            && (self.not_null
                || self.allowed.is_some()
                || !self.excluded.is_empty()
                || self.low != Bound::Unbounded
                || self.high != Bound::Unbounded)
    }

    /// Is every value admitted by `self` also admitted by `other`?
    /// Conservative: returns `false` when containment cannot be proven.
    pub fn contained_in(&self, other: &Domain) -> bool {
        // The empty domain is contained in everything.
        if self.is_contradictory() {
            return true;
        }
        if other.is_unconstrained() {
            return true;
        }
        if other.is_contradictory() {
            return false;
        }
        if other.only_null {
            return self.only_null;
        }
        if self.only_null {
            // {NULL} is contained only in unconstrained or only_null domains:
            // any comparison/IN constraint rejects NULL under SQL semantics —
            // and so does an explicit NOT NULL.
            return false;
        }

        // Every value set admitted by `self`.
        if let Some(allowed) = &self.allowed {
            // Finite domain: check each value the domain *actually* admits
            // (members rejected by self's own interval/exclusions make the
            // effective domain smaller — possibly empty, which is contained
            // in everything).
            return allowed
                .iter()
                .filter(|v| self.admits(v))
                .all(|v| other.admits(v));
        }

        // `self` is interval/exclusion-shaped. `other` must not require a
        // finite membership set we cannot verify.
        if other.allowed.is_some() {
            return false;
        }
        // Interval containment.
        if !low_contained(&self.low, &other.low) || !high_contained(&self.high, &other.high) {
            return false;
        }
        // `other`'s exclusions must be excluded by `self` too (either listed,
        // or outside self's interval).
        for ex in &other.excluded {
            let outside = !interval_admits(&self.low, &self.high, ex);
            if !self.excluded.contains(ex) && !outside {
                return false;
            }
        }
        // NOT NULL: intervals and exclusion constraints already reject NULL
        // under SQL comparison semantics, so any null-rejecting domain
        // satisfies an `IS NOT NULL` requirement.
        if other.not_null && !self.is_null_rejecting() {
            return false;
        }
        true
    }

    /// Does the domain admit this specific (non-null) literal?
    pub fn admits(&self, v: &Literal) -> bool {
        if self.is_contradictory() {
            return false;
        }
        if self.only_null {
            return matches!(v, Literal::Null);
        }
        if matches!(v, Literal::Null) {
            return !self.is_null_rejecting();
        }
        if let Some(allowed) = &self.allowed {
            if !allowed.iter().any(|a| a.same_value(v)) {
                return false;
            }
        }
        if self.excluded.iter().any(|e| e.same_value(v)) {
            return false;
        }
        interval_admits(&self.low, &self.high, v)
    }

    /// True when NULL cannot satisfy this domain's constraints under SQL
    /// comparison semantics.
    fn is_null_rejecting(&self) -> bool {
        self.not_null
            || self.allowed.is_some()
            || !self.excluded.is_empty()
            || self.low != Bound::Unbounded
            || self.high != Bound::Unbounded
    }
}

fn interval_admits(low: &Bound, high: &Bound, v: &Literal) -> bool {
    // Ordered comparisons across type classes are UNKNOWN in SQL, which a
    // WHERE clause treats as "row excluded" — so a bound of a different
    // class admits nothing.
    let lo_ok = match low {
        Bound::Unbounded => true,
        Bound::Incl(b) => same_class(v, b) && v >= b,
        Bound::Excl(b) => same_class(v, b) && v > b,
    };
    let hi_ok = match high {
        Bound::Unbounded => true,
        Bound::Incl(b) => same_class(v, b) && v <= b,
        Bound::Excl(b) => same_class(v, b) && v < b,
    };
    lo_ok && hi_ok
}

/// Are two literals in the same comparable type class (numbers together,
/// strings together, booleans together)?
fn same_class(a: &Literal, b: &Literal) -> bool {
    fn class(l: &Literal) -> u8 {
        match l {
            Literal::Null => 0,
            Literal::Bool(_) => 1,
            Literal::Int(_) | Literal::Float(_) => 2,
            Literal::Str(_) => 3,
        }
    }
    class(a) == class(b)
}

/// Is `inner` a lower bound at least as tight as `outer`?
fn low_contained(inner: &Bound, outer: &Bound) -> bool {
    match (outer, inner) {
        (Bound::Unbounded, _) => true,
        (_, Bound::Unbounded) => false,
        (Bound::Incl(o), Bound::Incl(i) | Bound::Excl(i)) => i >= o,
        (Bound::Excl(o), Bound::Excl(i)) => i >= o,
        (Bound::Excl(o), Bound::Incl(i)) => i > o,
    }
}

/// Is `inner` an upper bound at least as tight as `outer`?
fn high_contained(inner: &Bound, outer: &Bound) -> bool {
    match (outer, inner) {
        (Bound::Unbounded, _) => true,
        (_, Bound::Unbounded) => false,
        (Bound::Incl(o), Bound::Incl(i) | Bound::Excl(i)) => i <= o,
        (Bound::Excl(o), Bound::Excl(i)) => i <= o,
        (Bound::Excl(o), Bound::Incl(i)) => i < o,
    }
}

/// A conjunctive predicate compiled to per-expression domains, keyed by the
/// canonical printed form of the left-hand expression.
pub type DomainMap = BTreeMap<String, Domain>;

/// One predicate clause (a WHERE or a HAVING) in normal form: normalized
/// once and split into conjuncts kept under their canonical prints (sorted,
/// duplicates collapsed).
///
/// Everything that asks what a clause *means* reads this: key printers take
/// [`prints`](Self::prints), the equivalence suite compares and walks
/// [`atoms`](Self::atoms), and [`implies`](Self::implies) checks the clause's
/// [`DomainMap`] — none of them normalizes again. The domains are compiled
/// from the stored conjuncts the first time an implication is asked of the
/// clause and stay with it: a result-cache lookup, which only prints, never
/// pays for them; a clause retained by a session-delta store or a goal
/// checker is compiled once however often it is probed. `==` compares the
/// print sets.
#[derive(Debug, Clone)]
pub struct Conjunction {
    atoms: BTreeMap<String, Expr>,
    domains: OnceLock<Option<DomainMap>>,
}

impl Conjunction {
    /// Normalize a clause; `None` is the absent clause (always true: no
    /// conjuncts, no constraints).
    pub fn new(pred: Option<&Expr>) -> Self {
        fn split(e: Expr, atoms: &mut BTreeMap<String, Expr>) {
            match e {
                Expr::Binary {
                    left,
                    op: BinOp::And,
                    right,
                } => {
                    split(*left, atoms);
                    split(*right, atoms);
                }
                atom => {
                    atoms.insert(print_expr(&atom), atom);
                }
            }
        }
        let mut atoms = BTreeMap::new();
        if let Some(pred) = pred {
            split(normalize_expr(pred), &mut atoms);
        }
        Conjunction {
            atoms,
            domains: OnceLock::new(),
        }
    }

    /// True for the absent clause.
    pub fn is_absent(&self) -> bool {
        self.atoms.is_empty()
    }

    /// Canonical prints of the conjuncts, sorted.
    pub fn prints(&self) -> impl Iterator<Item = &String> {
        self.atoms.keys()
    }

    /// The normalized conjuncts under their canonical prints.
    pub fn atoms(&self) -> &BTreeMap<String, Expr> {
        &self.atoms
    }

    /// The clause as per-expression domains; `None` if it contains
    /// constructs outside the conjunctive-atom fragment (e.g. disjunctions
    /// over different expressions or comparisons between two non-literal
    /// expressions).
    fn domains(&self) -> Option<&DomainMap> {
        let compile = || {
            let mut map = DomainMap::new();
            for atom in self.atoms.values() {
                absorb_atom(atom, &mut map)?;
            }
            Some(map)
        };
        self.domains.get_or_init(compile).as_ref()
    }

    /// Does `self ⇒ other` hold — is every row this clause admits admitted
    /// by `other` too? Sound: `true` is always correct; `false` may mean
    /// "could not prove". Anything implies the absent clause; the absent
    /// clause implies only clauses that constrain nothing.
    pub fn implies(&self, other: &Conjunction) -> bool {
        other.is_absent()
            || match (self.domains(), other.domains()) {
                (Some(p), Some(q)) => domains_imply(p, q),
                _ => false,
            }
    }
}

impl PartialEq for Conjunction {
    fn eq(&self, other: &Self) -> bool {
        self.prints().eq(other.prints())
    }
}

fn absorb_atom(atom: &Expr, map: &mut DomainMap) -> Option<()> {
    match atom {
        Expr::Literal(Literal::Bool(true)) => Some(()),
        Expr::Binary { left, op, right } if op.is_comparison() => {
            let Expr::Literal(value) = right.as_ref() else {
                return None;
            };
            if matches!(left.as_ref(), Expr::Literal(_)) {
                return None;
            }
            let key = print_expr(left);
            let dom = map.entry(key).or_default();
            match op {
                BinOp::Eq => dom.restrict_allowed([value.clone()].into()),
                BinOp::NotEq => {
                    dom.excluded.insert(value.clone());
                }
                BinOp::Lt => dom.tighten_high(Bound::Excl(value.clone())),
                BinOp::LtEq => dom.tighten_high(Bound::Incl(value.clone())),
                BinOp::Gt => dom.tighten_low(Bound::Excl(value.clone())),
                BinOp::GtEq => dom.tighten_low(Bound::Incl(value.clone())),
                _ => unreachable!(),
            }
            Some(())
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let mut values = BTreeSet::new();
            for item in list {
                let Expr::Literal(lit) = item else {
                    return None;
                };
                values.insert(lit.clone());
            }
            let key = print_expr(expr);
            let dom = map.entry(key).or_default();
            if *negated {
                dom.excluded.extend(values);
            } else {
                dom.restrict_allowed(values);
            }
            Some(())
        }
        Expr::IsNull { expr, negated } => {
            let key = print_expr(expr);
            let dom = map.entry(key).or_default();
            if *negated {
                dom.not_null = true;
            } else {
                dom.only_null = true;
            }
            Some(())
        }
        // A disjunction confined to a single expression compiles to a value
        // set union; anything broader bails out.
        Expr::Binary { op: BinOp::Or, .. } => {
            let mut disjuncts = Vec::new();
            collect_disjuncts(atom, &mut disjuncts);
            let mut key: Option<String> = None;
            let mut values = BTreeSet::new();
            for d in disjuncts {
                let (k, v) = match d {
                    Expr::Binary {
                        left,
                        op: BinOp::Eq,
                        right,
                    } => {
                        let Expr::Literal(lit) = right.as_ref() else {
                            return None;
                        };
                        (print_expr(left), vec![lit.clone()])
                    }
                    Expr::InList {
                        expr,
                        list,
                        negated: false,
                    } => {
                        let mut vs = Vec::with_capacity(list.len());
                        for item in list {
                            let Expr::Literal(lit) = item else {
                                return None;
                            };
                            vs.push(lit.clone());
                        }
                        (print_expr(expr), vs)
                    }
                    _ => return None,
                };
                match &key {
                    None => key = Some(k),
                    Some(existing) if *existing == k => {}
                    Some(_) => return None,
                }
                values.extend(v);
            }
            let key = key?;
            map.entry(key).or_default().restrict_allowed(values);
            Some(())
        }
        _ => None,
    }
}

fn collect_disjuncts<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
    if let Expr::Binary {
        left,
        op: BinOp::Or,
        right,
    } = e
    {
        collect_disjuncts(left, out);
        collect_disjuncts(right, out);
    } else {
        out.push(e);
    }
}

/// Does `p ⇒ q` hold? Sound: `true` is always correct; `false` may mean
/// "could not prove".
pub fn implies(p: &Expr, q: &Expr) -> bool {
    option_implies(Some(p), Some(q))
}

/// Domain-level implication: every constraint in `q` must contain the
/// corresponding constraint in `p`.
pub fn domains_imply(p: &DomainMap, q: &DomainMap) -> bool {
    for (key, q_dom) in q {
        if q_dom.is_unconstrained() {
            continue;
        }
        match p.get(key) {
            Some(p_dom) => {
                if !p_dom.contained_in(q_dom) {
                    return false;
                }
            }
            // p places no constraint on this expression: implication only
            // holds if q's constraint is trivial, which we ruled out.
            None => return false,
        }
    }
    true
}

/// Optional predicates: `None` means "no filter" (always true).
pub fn option_implies(p: Option<&Expr>, q: Option<&Expr>) -> bool {
    Conjunction::new(p).implies(&Conjunction::new(q))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expr;

    fn imp(p: &str, q: &str) -> bool {
        implies(&parse_expr(p).unwrap(), &parse_expr(q).unwrap())
    }

    #[test]
    fn reflexive() {
        for s in [
            "x = 1",
            "q IN ('A', 'B')",
            "x > 3 AND y <= 2",
            "x IS NOT NULL",
        ] {
            assert!(imp(s, s), "`{s}` should imply itself");
        }
    }

    #[test]
    fn in_subset_implies_superset() {
        assert!(imp("q IN ('A')", "q IN ('A', 'B')"));
        assert!(imp("q IN ('A', 'B')", "q IN ('A', 'B', 'C')"));
        assert!(!imp("q IN ('A', 'Z')", "q IN ('A', 'B')"));
    }

    #[test]
    fn equality_implies_membership() {
        assert!(imp("q = 'A'", "q IN ('A', 'B')"));
        assert!(!imp("q IN ('A', 'B')", "q = 'A'"));
    }

    #[test]
    fn range_tightening() {
        assert!(imp("x > 5", "x > 3"));
        assert!(imp("x >= 5", "x > 3"));
        assert!(!imp("x > 3", "x > 5"));
        assert!(imp("x > 5 AND x < 7", "x > 3 AND x < 10"));
        assert!(imp("x BETWEEN 4 AND 6", "x >= 4"));
    }

    #[test]
    fn exclusive_vs_inclusive_bounds() {
        assert!(imp("x > 5", "x >= 5"));
        assert!(!imp("x >= 5", "x > 5"));
        assert!(imp("x < 5", "x <= 5"));
        assert!(!imp("x <= 5", "x < 5"));
    }

    #[test]
    fn conjunction_weakening() {
        assert!(imp("a = 1 AND b = 2", "a = 1"));
        assert!(imp("a = 1 AND b = 2", "b = 2"));
        assert!(!imp("a = 1", "a = 1 AND b = 2"));
    }

    #[test]
    fn true_predicate_implied_by_all() {
        assert!(imp("a = 1", "TRUE"));
    }

    #[test]
    fn equality_within_range() {
        assert!(imp("x = 5", "x > 3"));
        assert!(imp("x = 5", "x BETWEEN 5 AND 10"));
        assert!(!imp("x = 2", "x > 3"));
    }

    #[test]
    fn not_equal_exclusions() {
        assert!(imp("x <> 3", "x <> 3"));
        assert!(!imp("x <> 3", "x <> 4"));
        assert!(imp("x IN (1, 2)", "x <> 3"));
        assert!(!imp("x IN (1, 3)", "x <> 3"));
    }

    #[test]
    fn null_handling() {
        assert!(imp("x IS NULL", "x IS NULL"));
        assert!(!imp("x IS NULL", "x = 1"));
        assert!(!imp("x IS NULL", "x IS NOT NULL"));
        assert!(imp("x = 1", "x IS NOT NULL"));
        assert!(imp("x > 0", "x IS NOT NULL"));
    }

    #[test]
    fn disjunction_on_single_column_as_set() {
        assert!(imp("q = 'A' OR q = 'B'", "q IN ('A', 'B', 'C')"));
        assert!(!imp("q = 'A' OR q = 'Z'", "q IN ('A', 'B')"));
    }

    #[test]
    fn cross_column_disjunction_bails_to_false() {
        // Not provable in our fragment — must conservatively answer false.
        assert!(!imp("a = 1 OR b = 2", "a = 1 OR b = 2 OR c = 3"));
    }

    #[test]
    fn date_part_expressions_as_keys() {
        assert!(imp("HOUR(ts) = 9", "HOUR(ts) IN (8, 9, 10)"));
        assert!(!imp("HOUR(ts) = 7", "HOUR(ts) IN (8, 9, 10)"));
    }

    #[test]
    fn mixed_int_float_comparisons() {
        assert!(imp("x = 5", "x >= 4.5"));
        assert!(imp("x > 4.5", "x > 4"));
    }

    #[test]
    fn option_semantics() {
        let p = parse_expr("x = 1").unwrap();
        assert!(option_implies(Some(&p), None));
        assert!(!option_implies(None, Some(&p)));
        assert!(option_implies(None, None));
    }

    #[test]
    fn contradictory_in_sets_yield_empty_domain_and_imply_anything_finite() {
        // p: q IN ('A') AND q IN ('B') — empty domain, admits nothing, so it
        // is contained in any allowed-set domain.
        assert!(imp("q IN ('A') AND q IN ('B')", "q IN ('C')"));
    }
}
