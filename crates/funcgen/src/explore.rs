//! Parameter-space exploration (§II-C): "we must write a parameter-space
//! exploration that respects the constraints while minimizing the cost".
//!
//! The explorer is deliberately generic: a candidate is anything with a
//! measurable cost and error. It returns both the cheapest candidate
//! meeting the accuracy constraint and the full cost/accuracy Pareto
//! front (for the Fig. 1-style trade-off plots).

/// One evaluated candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate<P> {
    /// The generator parameters.
    pub params: P,
    /// Scalar cost (lower is better).
    pub cost: u64,
    /// Measured worst-case error in output ulps.
    pub max_ulp: f64,
}

/// Result of an exploration.
#[derive(Debug, Clone, PartialEq)]
pub struct Exploration<P> {
    /// The cheapest candidate meeting the constraint, if any.
    pub best: Option<Candidate<P>>,
    /// Non-dominated candidates by (cost, max_ulp), sorted by cost.
    pub pareto: Vec<Candidate<P>>,
}

/// Evaluates every parameter point and selects per §II-C.
///
/// `target_ulp` is the accuracy the output format implies (§II-B: the
/// interface *is* the specification — 1.0 for faithful rounding).
pub fn explore<P: Clone, I>(
    params: I,
    mut evaluate: impl FnMut(&P) -> (u64, f64),
    target_ulp: f64,
) -> Exploration<P>
where
    I: IntoIterator<Item = P>,
{
    let _span = nga_obs::span("funcgen:explore");
    let mut all: Vec<Candidate<P>> = params
        .into_iter()
        .map(|p| {
            let (cost, max_ulp) = evaluate(&p);
            Candidate {
                params: p,
                cost,
                max_ulp,
            }
        })
        .collect();
    // One `ops` tick per evaluated candidate: exploration effort.
    nga_obs::record(|c| c.status.add_ops(all.len() as u64));
    all.sort_by(|a, b| a.cost.cmp(&b.cost).then(a.max_ulp.total_cmp(&b.max_ulp)));

    let best = all.iter().find(|c| c.max_ulp <= target_ulp).cloned();

    // Pareto front: walking by increasing cost, keep strict error improvements.
    let mut pareto: Vec<Candidate<P>> = Vec::new();
    let mut best_err = f64::INFINITY;
    for c in &all {
        if c.max_ulp < best_err {
            best_err = c.max_ulp;
            pareto.push(c.clone());
        }
    }
    Exploration { best, pareto }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sincos::SinCos;

    #[test]
    fn explorer_finds_min_cost_meeting_target() {
        // Synthetic landscape: cost = p, error = 8/p.
        let e = explore(1u64..=8, |&p| (p, 8.0 / p as f64), 1.0);
        let best = e.best.expect("8/8 = 1.0 meets target");
        assert_eq!(best.params, 8);
        assert_eq!(e.pareto.len(), 8, "strictly improving chain");
    }

    #[test]
    fn explorer_reports_infeasible() {
        let e = explore(1u64..=4, |&p| (p, 100.0), 1.0);
        assert!(e.best.is_none());
    }

    #[test]
    fn sincos_exploration_finds_the_fig1_tradeoff() {
        // Sweep the table split A for a 12-bit, 10-fraction-bit sin/cos.
        let e = explore(
            2u32..=9,
            |&a| {
                let g = SinCos::generate(12, a, 10);
                let (s, c) = g.measure();
                (g.cost().score(), s.max_ulp.max(c.max_ulp))
            },
            1.0,
        );
        let best = e.best.expect("some split is faithful");
        // The winner is an interior split: neither all-table nor all-mult.
        assert!(
            (2..=9).contains(&best.params),
            "chosen split {}",
            best.params
        );
        assert!(!e.pareto.is_empty());
    }
}
