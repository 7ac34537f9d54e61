//! The recorder: a thread-local span stack over one global path-keyed
//! registry.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

use crate::counters::OpCounts;
use crate::report::{ScopeRow, TraceReport};

struct Frame {
    id: u64,
    path: String,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
    static NEXT_ID: Cell<u64> = const { Cell::new(0) };
}

static REGISTRY: OnceLock<Mutex<BTreeMap<String, OpCounts>>> = OnceLock::new();

fn with_registry<R>(f: impl FnOnce(&mut BTreeMap<String, OpCounts>) -> R) -> R {
    let m = REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()));
    // A poisoned lock only means another thread panicked mid-update; the
    // counters themselves are always valid u64s, so keep going.
    let mut guard = match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    f(&mut guard)
}

/// Applies `f` to the counters at `path`. The key is allocated only the
/// first time a scope is seen, so the hot per-op calls stay allocation-free.
fn with_scope(path: &str, f: impl FnOnce(&mut OpCounts)) {
    with_registry(|reg| match reg.get_mut(path) {
        Some(c) => f(c),
        None => f(reg.entry(path.to_owned()).or_default()),
    })
}

/// RAII scope guard: opening nests under the current thread's innermost
/// span, dropping closes it. See [`span`].
#[must_use = "a span is closed when dropped; bind it with `let _span = ...`"]
#[derive(Debug)]
pub struct Span {
    id: u64,
    path: String,
}

impl Span {
    /// The full `/`-joined path of this span (stable for its lifetime).
    #[must_use]
    pub fn path(&self) -> &str {
        &self.path
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            // Remove by identity, not by popping, so out-of-order drops
            // (e.g. two long-lived ArithCtx guards) stay well-formed.
            if let Some(pos) = s.iter().rposition(|f| f.id == self.id) {
                s.remove(pos);
            }
        });
    }
}

/// Opens a scope named `name` nested under the current thread's innermost
/// active span, and counts the entry (`calls += 1`) at the new path.
pub fn span(name: &str) -> Span {
    let id = NEXT_ID.with(|c| {
        let v = c.get().wrapping_add(1);
        c.set(v);
        v
    });
    let path = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let full = match s.last() {
            Some(parent) => format!("{}/{}", parent.path, name),
            None => name.to_string(),
        };
        s.push(Frame {
            id,
            path: full.clone(),
        });
        full
    });
    with_scope(&path, |c| c.calls = c.calls.saturating_add(1));
    Span { id, path }
}

/// Applies `f` to the counters of the current thread's innermost active
/// span (or the `(root)` scope when none is open).
pub fn record<F: FnOnce(&mut OpCounts)>(f: F) {
    STACK.with(|s| {
        let s = s.borrow();
        with_scope(s.last().map_or("(root)", |fr| fr.path.as_str()), f);
    });
}

/// Applies `f` to the counters at the absolute path `path`, ignoring the
/// span stack. Long-lived owners (`ArithCtx`) use this so their ops
/// attribute to the owner's scope even when called under other spans.
pub fn record_at<F: FnOnce(&mut OpCounts)>(path: &str, f: F) {
    with_scope(path, f);
}

/// Freezes the global registry into a sorted, deterministic report.
#[must_use]
pub fn snapshot() -> TraceReport {
    with_registry(|reg| TraceReport {
        scopes: reg
            .iter()
            .map(|(p, c)| ScopeRow {
                path: p.clone(),
                counts: *c,
            })
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_records_attribute() {
        let root = span("enabled-test-root");
        assert_eq!(root.path(), "enabled-test-root");
        {
            let child = span("child");
            assert_eq!(child.path(), "enabled-test-root/child");
            record(|c| c.muls = c.muls.saturating_add(7));
        }
        record(|c| c.adds = c.adds.saturating_add(3));
        record_at(root.path(), |c| c.divs = c.divs.saturating_add(1));
        drop(root);
        let rep = snapshot();
        let child = rep
            .get("enabled-test-root/child")
            .copied()
            .unwrap_or_default();
        assert_eq!(child.muls, 7);
        assert_eq!(child.calls, 1);
        let r = rep.get("enabled-test-root").copied().unwrap_or_default();
        assert_eq!(r.adds, 3);
        assert_eq!(r.divs, 1);
    }

    #[test]
    fn out_of_order_drop_keeps_stack_well_formed() {
        let a = span("ooo-a");
        let b = span("ooo-b");
        drop(a); // drops the *outer* guard first
        let c = span("ooo-c");
        // b is still innermost-surviving parent of c.
        assert_eq!(c.path(), "ooo-a/ooo-b/ooo-c");
        drop(b);
        drop(c);
        let d = span("ooo-d");
        assert_eq!(d.path(), "ooo-d");
    }

    #[test]
    fn parallel_merge_is_order_independent() {
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let _g = span("enabled-par");
                    record(|c| c.status.add_ops(10));
                });
            }
        });
        let c = snapshot().get("enabled-par").copied().unwrap_or_default();
        assert_eq!(c.calls, 4);
        assert_eq!(c.status.ops(), 40);
    }
}
