//! Sequence-length masks.
//!
//! No executor reads a [`SeqMask`]: every stacked pass is exact-shape.
//! The type stays only because the end-to-end benchmark (`benchmark/`)
//! names it in a `Compute::set_seq_mask` forwarder, and goes with the
//! benchmark's next revision (ROADMAP item 3).

use crate::error::TensorError;
use crate::Result;

/// Per-sample valid prefix lengths of a right-padded `[N, T, …]` batch.
///
/// Kept only for `benchmark/`, which names the type; nothing in the
/// library constructs or reads one.
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

    /// All per-sample lengths.
    pub fn lens(&self) -> &[usize] {
        &self.lens
    }

    /// The padded (bucket) length.
    pub fn bucket(&self) -> usize {
        self.bucket
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
        assert_eq!(m.lens(), &[1, 4, 3]);
        assert_eq!(m.bucket(), 4);
    }

    #[test]
    fn full_mask_is_trivial() {
        // Every sample filling the bucket is the boundary `new` accepts.
        let m = SeqMask::new(vec![3; 2], 3).unwrap();
        assert_eq!(m.lens(), &[3, 3]);
        assert_eq!(m.bucket(), 3);
    }
}
