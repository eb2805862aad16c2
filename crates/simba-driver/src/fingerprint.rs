//! Stable result fingerprints: the cross-engine, cross-cache comparison
//! currency of every equivalence and determinism test.
//!
//! This is the canonical public home of [`fingerprint`] and
//! [`ERROR_FINGERPRINT`]; tests and downstream tools should import them
//! from here (or the crate root re-exports) rather than re-deriving their
//! own result hashes, so "byte-identical results" means the same thing
//! everywhere.

use simba_store::ResultSet;
use std::fmt::Write as _;

/// Sentinel fingerprint recorded for a query that returned an engine error.
///
/// Fingerprint vectors are compared position-for-position across engines
/// and cache configurations; silently *skipping* an errored query would
/// shift every later fingerprint in the session and turn one error into a
/// wall of false mismatches. (FNV-1a of any real result never yields
/// `u64::MAX` from our offset basis in practice; collisions would only
/// mask an error against a result, never misalign positions.)
pub const ERROR_FINGERPRINT: u64 = u64::MAX;

/// Order-insensitive content hash of a result set (FNV-1a over the
/// canonically sorted rows). Two results get equal fingerprints iff their
/// row multisets are byte-identical.
///
/// Each row's `Debug` form — a `Vec<Value>`'s, `[Int(1), Str("a")]` —
/// is hashed, then `0xFF`, in the total value order. The rows are read in
/// place through a sorted row permutation and written into one reused
/// buffer.
pub fn fingerprint(result: &ResultSet) -> u64 {
    let mut h = simba_store::mix::Fnv1a::new();
    let mut line = String::new();
    for row in result.sorted_order() {
        line.clear();
        let _ = write!(line, "{:?}", result.row(row));
        h.write(line.as_bytes());
        h.write(&[0xFF]);
    }
    h.finish()
}

/// Order-sensitive digest of a whole run's per-session fingerprint
/// vectors: one `u64` two runs share iff their fingerprint sequences are
/// identical session by session, position by position. Recorded as
/// `RunReport.fingerprint_digest` when fingerprints are collected, so
/// reports (e.g. the `delta-shootout` suite's delta-on and delta-off runs)
/// can assert result equality without carrying every vector.
pub fn digest(fingerprints: &[Vec<u64>]) -> u64 {
    let mut h = simba_store::mix::Fnv1a::new();
    for session in fingerprints {
        for fp in session {
            h.write(&fp.to_le_bytes());
        }
        h.write(&[0xFF]);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use simba_store::Value;

    #[test]
    fn fingerprint_is_row_order_insensitive() {
        let a = ResultSet::new(
            vec!["x".to_string()],
            vec![vec![Value::Int(1)], vec![Value::Int(2)]],
        );
        let b = ResultSet::new(
            vec!["x".to_string()],
            vec![vec![Value::Int(2)], vec![Value::Int(1)]],
        );
        assert_eq!(fingerprint(&a), fingerprint(&b));
        let c = ResultSet::new(vec!["x".to_string()], vec![vec![Value::Int(3)]]);
        assert_ne!(fingerprint(&a), fingerprint(&c));
    }

    #[test]
    fn empty_result_never_collides_with_error_sentinel() {
        let empty = ResultSet::empty(vec!["x".to_string()]);
        assert_ne!(fingerprint(&empty), ERROR_FINGERPRINT);
    }
}
