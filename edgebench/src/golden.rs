//! Golden digests for the default seed, committed in `golden.txt`.
//!
//! Integer and 8-bit-format outputs are pinned bit for bit. Host-f32
//! outputs are pinned within a stated tolerance, so a later change may
//! reorder an f32 accumulation without failing the benchmark, while a
//! change to what is computed still fails it.

use crate::checks::Checks;

/// The seed the golden file was recorded with.
pub const DEFAULT_SEED: u64 = 1;

const GOLDEN: &str = include_str!("../golden.txt");

/// One pinned output of the default-seed run.
#[derive(Debug, Clone)]
pub enum Expect {
    /// Must match the recorded text exactly (digests, top-1 lists).
    Exact(String),
    /// Each value must lie within `abs + rel·|recorded|` of the recording.
    Close {
        values: Vec<f64>,
        rel: f64,
        abs: f64,
    },
}

#[derive(Debug, Clone)]
pub struct Entry {
    pub key: String,
    pub expect: Expect,
}

impl Entry {
    pub fn exact(key: impl Into<String>, value: impl Into<String>) -> Self {
        Self {
            key: key.into(),
            expect: Expect::Exact(value.into()),
        }
    }

    pub fn close(key: impl Into<String>, values: Vec<f64>, rel: f64, abs: f64) -> Self {
        Self {
            key: key.into(),
            expect: Expect::Close { values, rel, abs },
        }
    }

    /// The line this entry is recorded as in `golden.txt`.
    pub fn line(&self) -> String {
        match &self.expect {
            Expect::Exact(v) => format!("{} {v}", self.key),
            Expect::Close { values, .. } => {
                let vs: Vec<String> = values.iter().map(|v| format!("{v:e}")).collect();
                format!("{} {}", self.key, vs.join(","))
            }
        }
    }
}

fn recorded(key: &str) -> Option<&'static str> {
    GOLDEN
        .lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(' '))
}

/// Checks one entry against `golden.txt`; a missing entry fails.
pub fn check(checks: &mut Checks, entry: &Entry) {
    let Some(rec) = recorded(&entry.key) else {
        checks.check(false, || {
            format!("golden: no recorded value for {}", entry.key)
        });
        return;
    };
    match &entry.expect {
        Expect::Exact(v) => {
            checks.check(rec == v, || {
                format!("golden: {} is {v}, recorded {rec}", entry.key)
            });
        }
        Expect::Close { values, rel, abs } => {
            let want: Vec<f64> = rec.split(',').filter_map(|s| s.parse().ok()).collect();
            let ok = want.len() == values.len()
                && values
                    .iter()
                    .zip(&want)
                    .all(|(got, w)| (got - w).abs() <= abs + rel * w.abs());
            checks.check(ok, || {
                format!(
                    "golden: {} outside tolerance (rel {rel:e}, abs {abs:e})",
                    entry.key
                )
            });
        }
    }
}
