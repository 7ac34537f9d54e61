//! The per-scope counter record.

use crate::status::StatusCounters;

/// Monotonic operation counters for one scope.
///
/// All fields saturate instead of wrapping, so merges are commutative and
/// a trace can never go backwards. The generic work count and the seven
/// event counts live in [`status`](Self::status), the same
/// [`StatusCounters`] the kernels' status tiers return, so a sweep's
/// counters fold into a scope with one [`StatusCounters::merge`].
///
/// ```
/// use nga_obs::{Event8, OpCounts};
/// let mut c = OpCounts::default();
/// c.muls = 3;
/// c.status.record(Event8::NAR_NAN | Event8::SATURATED);
/// assert_eq!((c.status.nar_nan(), c.status.saturated()), (1, 1));
/// assert_eq!(c.status.events_total(), 2);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Times the scope was entered (incremented by `span()`).
    pub calls: u64,
    /// Scalar additions performed.
    pub adds: u64,
    /// Scalar multiplications performed.
    pub muls: u64,
    /// Scalar divisions performed.
    pub divs: u64,
    /// 64 KiB / MAC-table lookups performed.
    pub lut_hits: u64,
    /// Generic work items (explorer candidates, status-counter ops, …)
    /// and the per-event counts of the operations recorded here.
    pub status: StatusCounters,
}

impl OpCounts {
    /// Fold `other` into `self` (saturating, order-independent).
    pub fn merge(&mut self, other: &Self) {
        self.calls = self.calls.saturating_add(other.calls);
        self.adds = self.adds.saturating_add(other.adds);
        self.muls = self.muls.saturating_add(other.muls);
        self.divs = self.divs.saturating_add(other.divs);
        self.lut_hits = self.lut_hits.saturating_add(other.lut_hits);
        self.status.merge(&other.status);
    }

    /// Whether every counter is zero.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        *self == Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{ScopeRow, TraceReport};
    use crate::status::Event8;

    #[test]
    fn merge_saturates_and_commutes() {
        let mut a = OpCounts {
            muls: u64::MAX - 1,
            ..OpCounts::default()
        };
        let b = OpCounts {
            muls: 5,
            adds: 2,
            ..OpCounts::default()
        };
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.muls, u64::MAX);
        a.merge(&OpCounts::default());
        assert_eq!(a.muls, u64::MAX - 1);
    }

    #[test]
    fn each_event_bit_maps_to_one_getter_and_one_json_key() {
        type Getter = fn(&StatusCounters) -> u64;
        let fields: [(Event8, Getter, &str); 7] = [
            (Event8::NAR_NAN, StatusCounters::nar_nan, "nar_nan"),
            (Event8::INEXACT, StatusCounters::inexact, "inexact"),
            (Event8::OVERFLOW, StatusCounters::overflow, "overflow"),
            (Event8::UNDERFLOW, StatusCounters::underflow, "underflow"),
            (
                Event8::DIV_BY_ZERO,
                StatusCounters::div_by_zero,
                "div_by_zero",
            ),
            (Event8::SATURATED, StatusCounters::saturated, "saturated"),
            (Event8::WRAPPED, StatusCounters::wrapped, "wrapped"),
        ];
        for (i, &(ev, _, key)) in fields.iter().enumerate() {
            assert_eq!(ev.bits(), 1 << i, "{key} is bit {i}");
            let mut c = OpCounts::default();
            c.status.record(ev);
            assert!(!c.is_empty());
            assert_eq!(c.status.ops(), 1);
            assert_eq!(c.status.events_total(), 1);
            let json = TraceReport {
                scopes: vec![ScopeRow {
                    path: "probe".into(),
                    counts: c,
                }],
            }
            .to_json("quick");
            for &(_, get, other) in &fields {
                let want = u64::from(other == key);
                assert_eq!(get(&c.status), want, "{key}: getter {other}");
                let pair = format!("\"{other}\": {want}");
                assert!(json.contains(&pair), "{key}: json has {pair}");
            }
        }
        assert!(OpCounts::default().is_empty());
    }
}
