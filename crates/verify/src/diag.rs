//! Structured verification diagnostics.
//!
//! Every check in this crate reports findings as [`Diagnostic`]s rather
//! than bare strings: a machine-matchable [`DiagKind`], a severity, a
//! *plan path* locating the offending node (e.g.
//! `Sort/HashJoin.left/Scan(lineitem)`), and a human-readable detail.
//! The pre-execution gate turns error-severity diagnostics into
//! [`taurus_common::Error::Verify`]; warnings are advisory (the engine
//! will still produce a well-typed runtime error for them).

use std::fmt;

/// What a diagnostic is about. Tests pin individual kinds by name.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DiagKind {
    /// A scan references a table the catalog does not have.
    UnknownTable,
    /// A scan's index ordinal is out of range for its table.
    UnknownIndex,
    /// A column position is out of range for the schema/input it indexes.
    ColumnOutOfRange,
    /// A scan predicate conjunct reads a column the scanned index does not
    /// store (a secondary index stores its key ++ pk). The scan runs its
    /// residual conjuncts, and the Page Store its pushed ones, on the
    /// index's record bytes; a conjunct's columns need not be in the
    /// scan's output.
    PredicateNotStored,
    /// A group expression of a `HashAgg` that folds a bare scan reads a
    /// position past the scan's output.
    GroupColNotInOutput,
    /// An aggregate input of a `HashAgg` that folds a bare scan reads a
    /// position past the scan's output.
    AggInputNotInOutput,
    /// A key prefix (range bound or lookup-join key) is longer than the
    /// index's effective key.
    KeyPrefixTooLong,
    /// A positional key (sort / hash-join / lookup-join outer key) is out
    /// of range for the input row width.
    KeyOutOfRange,
    /// Mismatched arity where two sides must agree (hash-join key lists).
    ArityMismatch,
    /// An NDP decision's pushed-conjunct index does not name a predicate
    /// conjunct.
    PushedOutOfRange,
    /// Operand types cannot be compared/combined (advisory: the runtime
    /// rejects these with a typed `Error::Type`).
    TypeMismatch,
    /// A scalar IR program violates the VM's structural contract.
    IrShape,
    /// A lookup join carries an NDP key-read decision although its inner
    /// access is not covering (the primary-key fetches behind a secondary
    /// probe read whole rows).
    NdpOnNonCovering,
    /// An NDP projection drops a column its access must deliver or
    /// evaluate: a scan's output, a lookup join's inner output, a residual
    /// conjunct's column or a key column of the index.
    NdpProjectionDropsColumn,
    /// A hash join carries a join-filter decision it is not eligible for:
    /// not an inner or semi join on one key, a probe side that is not a
    /// scan of the decision's integer column, or a build side without a
    /// predicate.
    JoinFilterIneligible,
    /// A `HashAgg` folding a scan that pushes an aggregation that is not
    /// its aggregates: a different count, a different function or input,
    /// different group columns or a group that is not a bare column, or an
    /// input storage cannot compute. Storage would compute partials the SQL
    /// node merges into the wrong states.
    AggPushdownMismatch,
    /// A scan whose NDP decision carries an aggregation, but no `HashAgg`
    /// sits directly above it to fold it: its rows are carriers followed by
    /// partials, and a row scan cannot pass those on.
    AggPushdownMisplaced,
    /// A scan-folding `HashAgg` whose pushed aggregation carries HAVING
    /// conjuncts it may not: a GROUP BY that is not a prefix of the index
    /// key (groups then do not arrive one after another, and none is ever
    /// complete on its page), a conjunct reading past a group's outputs, or
    /// one that is not a conjunct of the `Filter` right above the
    /// aggregation a Page Store can judge (storage would drop groups the
    /// SQL node keeps).
    HavingPushdownIneligible,
}

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Severity {
    /// Advisory: execution would fail with a typed runtime error, or the
    /// construct is merely suspicious.
    Warning,
    /// The plan/program is malformed; executing it would surface an
    /// internal invariant break (or worse). The gate rejects these.
    Error,
}

/// One verification finding.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Diagnostic {
    pub kind: DiagKind,
    pub severity: Severity,
    /// Plan-path location: `/`-joined node labels from the root, with
    /// child-edge names where a node has several (`HashJoin.left/...`).
    pub path: String,
    pub message: String,
}

impl Diagnostic {
    pub fn error(kind: DiagKind, path: &str, message: String) -> Diagnostic {
        Diagnostic {
            kind,
            severity: Severity::Error,
            path: path.to_string(),
            message,
        }
    }

    pub fn warning(kind: DiagKind, path: &str, message: String) -> Diagnostic {
        Diagnostic {
            kind,
            severity: Severity::Warning,
            path: path.to_string(),
            message,
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sev = match self.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        write!(
            f,
            "{sev}[{:?}] at {}: {}",
            self.kind, self.path, self.message
        )
    }
}

/// Render a diagnostic list one-per-line (the `Error::Verify` payload).
pub fn render(diags: &[Diagnostic]) -> String {
    diags
        .iter()
        .map(|d| d.to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

/// Do any diagnostics reject the plan?
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_kind_path_and_detail() {
        let d = Diagnostic::error(
            DiagKind::PredicateNotStored,
            "Sort/Scan(lineitem)",
            "predicate column 5 not stored in index i_l_suppkey".into(),
        );
        let s = d.to_string();
        assert!(s.contains("PredicateNotStored"), "{s}");
        assert!(s.contains("Sort/Scan(lineitem)"), "{s}");
        assert!(s.contains("column 5"), "{s}");
        assert!(s.starts_with("error"), "{s}");
    }

    #[test]
    fn render_joins_lines_and_has_errors_ignores_warnings() {
        let w = Diagnostic::warning(DiagKind::TypeMismatch, "Scan(t)", "int vs str".into());
        assert!(!has_errors(std::slice::from_ref(&w)));
        let e = Diagnostic::error(DiagKind::UnknownTable, "Scan(nope)", "no such table".into());
        assert!(has_errors(&[w.clone(), e.clone()]));
        let r = render(&[w, e]);
        assert_eq!(r.lines().count(), 2);
    }
}
