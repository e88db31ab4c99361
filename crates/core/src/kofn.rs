//! Byte-budget accounting for k-of-n fragment reads.
//!
//! With an erasure-coded stripe a value of `V` bytes splits into `k`
//! data fragments of `ceil(V / k)` bytes each (plus `n − k` parity
//! fragments of the same size, any `k` of the `n` decoding), so the
//! *primary wave* of a read transfers the same
//! `≈ V` bytes whether it is one full-copy replica read or `k`
//! fragment reads — but a **reissue** costs a full extra `V` bytes
//! under replica hedging and only `V / k` under fragment hedging
//! (Aggarwal et al., "Taming Tail Latency for Erasure-coded,
//! Distributed Storage Systems").
//!
//! That asymmetry is what makes the two schemes comparable **at equal
//! byte budget**: a replica-hedging policy reissuing a fraction `q` of
//! queries spends the same extra bytes as a fragment-hedging policy
//! reissuing `k·q` of them. These helpers keep that arithmetic in one
//! tested place so the client budget caps and the A/B figures can't
//! drift apart.

/// Reissue-probability budget equivalent to a replica-hedging budget
/// `q_replica` when a reissue fetches one fragment of a `k`-way
/// stripe: `min(1, k · q_replica)`. The clamp matters — a fragment
/// reissue probability cannot exceed 1 per stage, so very aggressive
/// replica budgets saturate instead of overflowing.
pub fn fragment_budget(q_replica: f64, k: usize) -> f64 {
    assert!(k >= 1, "a stripe has at least one data fragment");
    (q_replica.max(0.0) * k as f64).min(1.0)
}

/// Mean bytes transferred per query, in units of the value size `V`,
/// when a fraction `reissue_rate` of queries dispatch one extra
/// fragment of a `k`-way stripe: `1 + reissue_rate / k`. Replica
/// hedging is the `k = 1` case (every copy is a whole value).
pub fn bytes_per_query(k: usize, reissue_rate: f64) -> f64 {
    assert!(k >= 1, "a stripe has at least one data fragment");
    1.0 + reissue_rate.max(0.0) / k as f64
}

/// Whether two realized per-query byte costs agree within a relative
/// tolerance — the acceptance gate for "equal byte budget" A/B arms
/// (`tol = 0.05` for the ±5% criterion). The comparison is symmetric
/// (relative to the larger of the two).
pub fn budgets_match(bytes_a: f64, bytes_b: f64, tol: f64) -> bool {
    let denom = bytes_a.abs().max(bytes_b.abs());
    if denom == 0.0 {
        return true;
    }
    (bytes_a - bytes_b).abs() / denom <= tol
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fragment_budget_scales_and_clamps() {
        assert!((fragment_budget(0.05, 2) - 0.10).abs() < 1e-12);
        assert!((fragment_budget(0.05, 4) - 0.20).abs() < 1e-12);
        // k = 1 is replica hedging: unchanged.
        assert!((fragment_budget(0.05, 1) - 0.05).abs() < 1e-12);
        // Saturation, not overflow.
        assert!((fragment_budget(0.6, 3) - 1.0).abs() < 1e-12);
        assert_eq!(fragment_budget(-0.1, 2), 0.0);
    }

    #[test]
    fn bytes_per_query_equalizes_at_scaled_budget() {
        // A replica arm at q and a fragment arm at k·q spend the same
        // bytes per query: 1 + q.
        for k in [2usize, 3, 4] {
            for q in [0.02, 0.05, 0.08] {
                let replica = bytes_per_query(1, q);
                let fragment = bytes_per_query(k, fragment_budget(q, k));
                assert!(
                    (replica - fragment).abs() < 1e-12,
                    "k={k} q={q}: {replica} vs {fragment}"
                );
            }
        }
    }

    #[test]
    fn budgets_match_tolerance() {
        assert!(budgets_match(1.05, 1.05, 0.0));
        assert!(budgets_match(1.00, 1.05, 0.05));
        assert!(!budgets_match(1.00, 1.12, 0.05));
        assert!(budgets_match(0.0, 0.0, 0.05));
    }
}
