//! Sequence-length masks for padded variable-length batches.
//!
//! A [`SeqMask`] records, for a stacked `[N, T, …]` activation padded to a
//! common bucket length `T`, how many leading positions of each sample are
//! real. The mask is the contract that makes padded batching *inert*:
//! every consumer (masked softmax, masked pooling, masked live-value
//! gathering in the quantized engine) promises that positions at or
//! beyond a sample's length never influence that sample's — or any other
//! sample's — valid outputs.
//!
//! The mask is deliberately a prefix-length mask rather than an arbitrary
//! boolean tensor: right-padding is the only layout the batching stack
//! produces, and prefix lengths keep every masked kernel a dense loop
//! bound instead of a gather.

use crate::error::TensorError;
use crate::Result;

/// Per-sample valid prefix lengths of a padded `[N, T, …]` batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeqMask {
    lens: Vec<usize>,
    bucket: usize,
}

impl SeqMask {
    /// Creates a mask for `lens.len()` samples padded to `bucket`
    /// positions. Every length must be in `1..=bucket`.
    pub fn new(lens: Vec<usize>, bucket: usize) -> Result<Self> {
        if lens.is_empty() {
            return Err(TensorError::Invalid("SeqMask with zero samples".into()));
        }
        for (s, &l) in lens.iter().enumerate() {
            if l == 0 || l > bucket {
                return Err(TensorError::Invalid(format!(
                    "SeqMask sample {s}: length {l} outside 1..={bucket}"
                )));
            }
        }
        Ok(SeqMask { lens, bucket })
    }

    /// A trivial mask: every sample fills the full bucket.
    pub fn full(n: usize, bucket: usize) -> Result<Self> {
        Self::new(vec![bucket; n], bucket)
    }

    /// Number of samples.
    pub fn n(&self) -> usize {
        self.lens.len()
    }

    /// The padded (bucket) length.
    pub fn bucket(&self) -> usize {
        self.bucket
    }

    /// Valid prefix length of sample `s`.
    pub fn len_of(&self, s: usize) -> usize {
        self.lens[s]
    }

    /// All per-sample lengths.
    pub fn lens(&self) -> &[usize] {
        &self.lens
    }

    /// Whether position `t` of sample `s` is real (not padding).
    pub fn valid(&self, s: usize, t: usize) -> bool {
        t < self.lens[s]
    }

    /// True when no sample is padded (masked execution degenerates to the
    /// plain batched path).
    pub fn is_trivial(&self) -> bool {
        self.lens.iter().all(|&l| l == self.bucket)
    }

    /// Total number of real positions across the batch.
    pub fn valid_positions(&self) -> usize {
        self.lens.iter().sum()
    }

    /// Fraction of padded (wasted) positions in the `[N, T]` grid.
    pub fn padding_waste(&self) -> f64 {
        let total = self.n() * self.bucket;
        1.0 - self.valid_positions() as f64 / total as f64
    }

    /// Whether this mask describes a `[N, T, …]` stack with the given
    /// leading dims.
    pub fn matches(&self, n: usize, t: usize) -> bool {
        self.n() == n && self.bucket == t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_validates_lengths() {
        assert!(SeqMask::new(vec![], 4).is_err());
        assert!(SeqMask::new(vec![0], 4).is_err());
        assert!(SeqMask::new(vec![5], 4).is_err());
        let m = SeqMask::new(vec![1, 4, 3], 4).unwrap();
        assert_eq!(m.n(), 3);
        assert_eq!(m.bucket(), 4);
        assert_eq!(m.len_of(0), 1);
        assert!(m.valid(1, 3));
        assert!(!m.valid(2, 3));
        assert!(!m.is_trivial());
        assert_eq!(m.valid_positions(), 8);
        assert!((m.padding_waste() - (1.0 - 8.0 / 12.0)).abs() < 1e-12);
    }

    #[test]
    fn full_mask_is_trivial() {
        let m = SeqMask::full(2, 3).unwrap();
        assert!(m.is_trivial());
        assert_eq!(m.padding_waste(), 0.0);
        assert!(m.matches(2, 3));
        assert!(!m.matches(2, 4));
    }
}
