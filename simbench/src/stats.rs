//! Small numeric helpers: order statistics, timing samples and outcome digests.

use serde_json::Value;

/// The `q`-quantile (0..=1) of `values` by the nearest-rank rule; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The median of `values` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Host-time samples of one layer call, in the unit named by the metric.
#[derive(Debug, Default, Clone)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    pub fn push(&mut self, value: f64) {
        self.0.push(value);
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn p50(&self) -> f64 {
        quantile(&self.0, 0.5)
    }

    pub fn p99(&self) -> f64 {
        quantile(&self.0, 0.99)
    }
}

/// FNV-1a over a byte stream: the outcome digest the per-pass checks compare.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of a serializable outcome, plus whether every number in it is finite.
pub fn outcome_digest<T: serde::Serialize>(outcome: &T) -> (u64, bool) {
    let value = serde_json::to_value(outcome).expect("outcomes serialize");
    let mut digest = Digest::default();
    digest.bytes(
        serde_json::to_string(&value)
            .expect("values print")
            .as_bytes(),
    );
    (digest.finish(), all_finite(&value))
}

fn all_finite(value: &Value) -> bool {
    match value {
        Value::Float(f) => f.is_finite(),
        Value::Array(items) => items.iter().all(all_finite),
        Value::Object(entries) => entries.iter().all(|(_, v)| all_finite(v)),
        _ => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
