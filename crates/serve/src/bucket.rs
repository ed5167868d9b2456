//! Length bucketing for variable-length LM dispatch.
//!
//! The worker used to split a dispatched batch into **exact-shape**
//! groups, which degenerates to near-sequential execution under real LM
//! traffic (almost every request has its own length). Bucketing instead
//! assigns token sequences to **power-of-two** length classes and merges
//! underfilled classes upward while the merged group's padded-position
//! fraction stays under the worker's waste cap (`MAX_PADDING_WASTE` in
//! [`crate::worker`]). Each group executes as
//! one padded stacked pass via
//! [`flexiq_core::FlexiRuntime::infer_batch_varlen_traced`], padded
//! **tightly** — to the group's longest member, not the class bound —
//! whose mask threading keeps every request's output bit-exact with
//! unpadded inference.
//!
//! Power-of-two assignment bounds how unlike the lengths inside one
//! class can be (a length `l` lands in class `[l, 2l)`), so the cap
//! governs how aggressively classes merge: `0.0` never merges, `0.5`
//! (the default) merges whenever the combined group still computes more
//! real than pad positions. The waste accounting uses the tight dispatch
//! length, matching what the group actually pays.

/// One padded dispatch group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BucketGroup {
    /// Power-of-two planning class of the group (its largest member's
    /// class after merging). Dispatch pads to [`BucketGroup::pad_len`],
    /// not to this bound.
    pub bucket: usize,
    /// Indices into the dispatched request slice.
    pub members: Vec<usize>,
}

impl BucketGroup {
    /// Fraction of padded positions in the group's dispatched
    /// `[N, pad_len]` stack — the padding overhead it actually pays.
    pub fn waste(&self, lens: &[usize]) -> f64 {
        let real: usize = self.members.iter().map(|&i| lens[i]).sum();
        1.0 - real as f64 / (self.members.len() * self.pad_len(lens)) as f64
    }

    /// The length the group pads to at dispatch: its longest member.
    /// The power-of-two `bucket` is the *planning* class (it decides
    /// assignment); padding any further than the longest member would
    /// buy nothing — no kernel here is shape-cached — so a
    /// uniform-length group dispatches unpadded and keeps the runtime's
    /// trivial-mask fast path.
    pub fn pad_len(&self, lens: &[usize]) -> usize {
        self.members
            .iter()
            .map(|&i| lens[i])
            .max()
            .unwrap_or(self.bucket)
    }
}

/// Plans the padded dispatch groups for a set of sequence lengths.
///
/// Each length is assigned its power-of-two bucket, then adjacent buckets
/// merge bottom-up (small into large) while the merged group's padding
/// waste stays at or below `waste_cap`. Returns groups in ascending
/// bucket order; every index in `0..lens.len()` appears in exactly one
/// group.
pub fn plan_buckets(lens: &[usize], waste_cap: f64) -> Vec<BucketGroup> {
    let mut by_bucket: std::collections::BTreeMap<usize, Vec<usize>> =
        std::collections::BTreeMap::new();
    for (i, &l) in lens.iter().enumerate() {
        by_bucket
            .entry(l.max(1).next_power_of_two())
            .or_default()
            .push(i);
    }
    let mut out: Vec<BucketGroup> = Vec::new();
    let mut acc: Option<BucketGroup> = None;
    for (bucket, members) in by_bucket {
        acc = Some(match acc.take() {
            None => BucketGroup { bucket, members },
            Some(prev) => {
                let mut merged_members = prev.members.clone();
                merged_members.extend_from_slice(&members);
                let merged = BucketGroup {
                    bucket,
                    members: merged_members,
                };
                if merged.waste(lens) <= waste_cap {
                    merged
                } else {
                    out.push(prev);
                    BucketGroup { bucket, members }
                }
            }
        });
    }
    if let Some(last) = acc {
        out.push(last);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat(groups: &[BucketGroup]) -> Vec<usize> {
        let mut all: Vec<usize> = groups.iter().flat_map(|g| g.members.clone()).collect();
        all.sort_unstable();
        all
    }

    #[test]
    fn lengths_land_in_power_of_two_buckets() {
        let lens = [1, 2, 3, 5, 8];
        let groups = plan_buckets(&lens, 0.0);
        // Cap 0: no merging; buckets 1, 2, 4, 8 (3→4; 5,8→8 share a
        // bucket only if 5's bucket is 8 — it is).
        let buckets: Vec<usize> = groups.iter().map(|g| g.bucket).collect();
        assert_eq!(buckets, vec![1, 2, 4, 8]);
        assert_eq!(flat(&groups), vec![0, 1, 2, 3, 4]);
        // The 8-bucket holds both the length-5 and length-8 requests.
        assert_eq!(groups[3].members, vec![3, 4]);
    }

    #[test]
    fn generous_cap_merges_everything() {
        let lens = [1, 2, 3, 5, 8];
        let groups = plan_buckets(&lens, 1.0);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].bucket, 8);
        assert_eq!(flat(&groups), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn cap_bounds_merged_waste() {
        // Lengths 4 and 8: merging into bucket 8 wastes (8-4)/16 = 25%.
        let lens = [4, 8];
        assert_eq!(plan_buckets(&lens, 0.25).len(), 1);
        assert_eq!(plan_buckets(&lens, 0.2).len(), 2);
        // Waste accounting matches the definition.
        let merged = &plan_buckets(&lens, 0.25)[0];
        assert!((merged.waste(&lens) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn merging_is_transitive_bottom_up() {
        // 1 and 2 merge into 2 (waste 1/4 ≤ 0.3), then the pair fails to
        // merge into 16 (waste (16-1 + 16-2 + 0)/48 > 0.3) and flushes.
        let lens = [1, 2, 16];
        let groups = plan_buckets(&lens, 0.3);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].bucket, 2);
        assert_eq!(groups[0].members, vec![0, 1]);
        assert_eq!(groups[1].bucket, 16);
    }

    #[test]
    fn uniform_lengths_form_one_wasteless_group() {
        let lens = [4, 4, 4];
        let groups = plan_buckets(&lens, 0.0);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].bucket, 4);
        assert_eq!(groups[0].waste(&lens), 0.0);
        assert_eq!(groups[0].pad_len(&lens), 4);
    }

    #[test]
    fn dispatch_pads_to_longest_member_not_the_class() {
        // Uniform length-3 requests plan into the pow2 class 4 but
        // dispatch unpadded at 3 (the old path's sweet spot stays free).
        let lens = [3, 3, 3];
        let groups = plan_buckets(&lens, 0.0);
        assert_eq!(groups[0].bucket, 4);
        assert_eq!(groups[0].pad_len(&lens), 3);
        // Mixed group: tight padding stops at the longest member even
        // when the class is larger.
        let lens = [3, 5];
        let groups = plan_buckets(&lens, 1.0);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].bucket, 8);
        assert_eq!(groups[0].pad_len(&lens), 5);
    }

    #[test]
    fn merge_cap_uses_tight_dispatch_waste_not_the_class_bound() {
        // Lengths 1 and 9: classes 1 and 16. Against the class bound the
        // merged waste would be (15 + 7)/32 ≈ 0.69, but the group
        // actually dispatches at pad_len 9, wasting (9-1)/18 ≈ 0.44 — so
        // the default 0.5 cap must allow the merge.
        let lens = [1, 9];
        let groups = plan_buckets(&lens, 0.5);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].pad_len(&lens), 9);
        assert!((groups[0].waste(&lens) - 8.0 / 18.0).abs() < 1e-12);
        // A cap below the tight waste still splits.
        assert_eq!(plan_buckets(&lens, 0.4).len(), 2);
    }

    #[test]
    fn empty_input_plans_nothing() {
        assert!(plan_buckets(&[], 0.5).is_empty());
    }
}
