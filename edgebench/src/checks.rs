//! Output checks: every check counts as attempted, and a failed one is
//! kept (up to a cap) with its reason for the verdict lines.

const MAX_KEPT: usize = 20;

#[derive(Debug, Default)]
pub struct Checks {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Checks {
    /// Counts one check; `what` describes it and is evaluated only when it
    /// fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < MAX_KEPT {
                self.failures.push(what());
            }
        }
        ok
    }

    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    pub fn failed(&self) -> u64 {
        self.failed
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

/// FNV-1a 64-bit digest over the bit patterns of outputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
        self
    }

    pub fn f32s(self, xs: &[f32]) -> Self {
        xs.iter()
            .fold(self, |d, x| d.bytes(&x.to_bits().to_le_bytes()))
    }

    pub fn u64s(self, xs: &[u64]) -> Self {
        xs.iter().fold(self, |d, x| d.bytes(&x.to_le_bytes()))
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Bit-exact equality of two f32 slices (NaN payloads and signed zeros
/// included).
pub fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}
