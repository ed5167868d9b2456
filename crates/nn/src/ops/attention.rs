//! Multi-head self-attention and Swin-style window attention.
//!
//! The four projections (Q, K, V, output) are [`Linear`] layers and are
//! individually quantizable — Table 6 of the paper analyses exactly these
//! Q/K/V projection layers. The attention core itself (scores, softmax,
//! weighted sum) runs in floating point, matching the paper's convention
//! that only convolutions and linear operations use integer arithmetic.

use flexiq_tensor::{SeqMask, Tensor};

use crate::error::NnError;
use crate::ops::act::softmax_row;
use crate::ops::linear::Linear;
use crate::ops::{check_mask, split_sample};
use crate::Result;

/// Multi-head self-attention over `[T, C]` tokens.
#[derive(Debug, Clone, PartialEq)]
pub struct Attention {
    /// Query projection.
    pub q: Linear,
    /// Key projection.
    pub k: Linear,
    /// Value projection.
    pub v: Linear,
    /// Output projection.
    pub o: Linear,
    /// Number of attention heads; must divide the model width.
    pub heads: usize,
    /// Apply a causal (autoregressive) mask.
    pub causal: bool,
}

impl Attention {
    /// Creates an attention block, validating head/width compatibility.
    pub fn new(
        q: Linear,
        k: Linear,
        v: Linear,
        o: Linear,
        heads: usize,
        causal: bool,
    ) -> Result<Self> {
        let c = q.c_out();
        if heads == 0 || c % heads != 0 {
            return Err(NnError::Invalid(format!(
                "heads {heads} must divide width {c}"
            )));
        }
        if k.c_out() != c || v.c_out() != c || o.c_in() != c {
            return Err(NnError::Invalid(
                "attention projection widths disagree".into(),
            ));
        }
        Ok(Attention {
            q,
            k,
            v,
            o,
            heads,
            causal,
        })
    }

    /// Model width.
    pub fn width(&self) -> usize {
        self.q.c_out()
    }

    /// Attention core: combines already-projected Q/K/V tensors
    /// (`[T, C]` each) into the pre-output-projection context.
    ///
    /// Split out from the projections so the executor can route Q/K/V/O
    /// through the quantized compute hook while the core stays in f32.
    pub fn core(&self, q: &Tensor, k: &Tensor, v: &Tensor) -> Result<Tensor> {
        self.core_n(q, k, v, false, None)
    }

    /// Length-masked attention core over `[T, C]` projections padded to
    /// `T` positions, of which only the first `len` are real.
    ///
    /// The masked softmax restricts every score row to the valid keys
    /// `j < len` (on top of the causal constraint, if any), and pad query
    /// rows `i >= len` are written as zeros without touching the
    /// arithmetic of valid rows. The valid region is **bit-exact** with
    /// [`Attention::core`] on the unpadded `[len, C]` slices — it is the
    /// same loop, bounded by `len` — and pad positions are skipped
    /// outright (never multiplied by a zero probability), so no pad value
    /// — however extreme — can perturb a valid output.
    pub fn core_masked(&self, q: &Tensor, k: &Tensor, v: &Tensor, len: usize) -> Result<Tensor> {
        let t = q.dims().first().copied().unwrap_or(len);
        self.core_n(q, k, v, false, Some(&SeqMask::new(vec![len], t)?))
    }

    /// Batched attention core over stacked `[N, T, C]` projections with
    /// an optional per-sample length mask (the padded variable-length
    /// path).
    ///
    /// Attention mixes tokens only **within** a sample, so the core runs
    /// once per sample, in sample order (softmax rows never cross
    /// samples). One stacked dispatch serves mixed sequence lengths while
    /// every sample's valid rows stay bit-exact with its unpadded
    /// [`Attention::core`] run.
    pub fn core_batch_masked(
        &self,
        q: &Tensor,
        k: &Tensor,
        v: &Tensor,
        mask: Option<&SeqMask>,
    ) -> Result<Tensor> {
        self.core_n(q, k, v, true, mask)
    }

    /// The one core entry: `N` samples (one when not `stacked`), each
    /// attending over its valid prefix (all `T` positions without a
    /// mask).
    pub(crate) fn core_n(
        &self,
        q: &Tensor,
        k: &Tensor,
        v: &Tensor,
        stacked: bool,
        mask: Option<&SeqMask>,
    ) -> Result<Tensor> {
        let (n, [t, c]) = split_sample("attention_core", q, stacked)?;
        if c != self.width() || t == 0 || q.dims() != k.dims() || q.dims() != v.dims() {
            return Err(NnError::BadActivation {
                op: "attention_core",
                expected: format!("matching non-empty [T, {}] projections", self.width()),
                got: q.dims().to_vec(),
            });
        }
        check_mask("attention_core", mask, n, t)?;
        let per = t * c;
        let mut out = vec![0.0f32; n * per];
        for s in 0..n {
            let rows = s * per..(s + 1) * per;
            let len = mask.map_or(t, |m| m.len_of(s));
            self.core_rows(
                &q.data()[rows.clone()],
                &k.data()[rows.clone()],
                &v.data()[rows.clone()],
                len,
                &mut out[rows],
            );
        }
        Ok(Tensor::from_vec(q.dims().to_vec(), out)?)
    }

    /// The one core body: one sample's row-major `[T, C]` projections,
    /// attending over the first `len >= 1` positions into the first `len`
    /// rows of `out`. Rows past `len` are neither read nor written.
    fn core_rows(&self, q: &[f32], k: &[f32], v: &[f32], len: usize, out: &mut [f32]) {
        let c = self.width();
        let dh = c / self.heads;
        let scale = 1.0 / (dh as f32).sqrt();
        // Scores for one head: [len, len], rewritten in full per head.
        let mut scores = vec![0.0f32; len * len];
        for h in 0..self.heads {
            for i in 0..len {
                for j in 0..len {
                    if self.causal && j > i {
                        scores[i * len + j] = f32::NEG_INFINITY;
                        continue;
                    }
                    let mut acc = 0.0f32;
                    for d in 0..dh {
                        acc += q[i * c + h * dh + d] * k[j * c + h * dh + d];
                    }
                    scores[i * len + j] = acc * scale;
                }
            }
            scores.chunks_exact_mut(len).for_each(softmax_row);
            for i in 0..len {
                for d in 0..dh {
                    let mut acc = 0.0f32;
                    for j in 0..len {
                        acc += scores[i * len + j] * v[j * c + h * dh + d];
                    }
                    out[i * c + h * dh + d] = acc;
                }
            }
        }
    }
}

/// Swin-style window attention over a `[h*w, C]` token grid.
///
/// Tokens are partitioned into `window`×`window` tiles; attention runs
/// independently inside each tile with shared projection weights. When
/// `shifted` is set, the grid is cyclically rolled by half a window first
/// (and unrolled after), which lets information cross window borders in
/// alternating blocks — the core Swin mechanism.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowAttention {
    /// The shared attention block.
    pub attn: Attention,
    /// Token-grid height.
    pub grid_h: usize,
    /// Token-grid width.
    pub grid_w: usize,
    /// Window side length.
    pub window: usize,
    /// Apply the half-window cyclic shift.
    pub shifted: bool,
}

impl WindowAttention {
    /// Creates a window-attention block, validating the tiling.
    pub fn new(
        attn: Attention,
        grid_h: usize,
        grid_w: usize,
        window: usize,
        shifted: bool,
    ) -> Result<Self> {
        if window == 0 || grid_h % window != 0 || grid_w % window != 0 {
            return Err(NnError::Invalid(format!(
                "window {window} must tile grid {grid_h}x{grid_w}"
            )));
        }
        Ok(WindowAttention {
            attn,
            grid_h,
            grid_w,
            window,
            shifted,
        })
    }

    /// Number of windows.
    pub fn num_windows(&self) -> usize {
        (self.grid_h / self.window) * (self.grid_w / self.window)
    }

    /// The cyclic roll applied before partitioning (0 when not shifted).
    pub fn roll(&self) -> usize {
        if self.shifted {
            self.window / 2
        } else {
            0
        }
    }

    /// The source token of every window slot, window-major: slot `i` of
    /// window `w` reads (and, merging back, writes) grid token
    /// `order[w * window² + i]`, cyclic shift included.
    fn window_order(&self) -> Vec<usize> {
        let roll = self.roll();
        let (h, w, win) = (self.grid_h, self.grid_w, self.window);
        let mut order = Vec::with_capacity(h * w);
        for wy in (0..h).step_by(win) {
            for wx in (0..w).step_by(win) {
                for dy in 0..win {
                    for dx in 0..win {
                        order.push(((wy + dy + roll) % h) * w + (wx + dx + roll) % w);
                    }
                }
            }
        }
        order
    }

    /// Partitions a `[h*w, C]` grid into per-window token matrices.
    pub fn partition(&self, x: &Tensor) -> Result<Vec<Tensor>> {
        let c = self.attn.width();
        if x.dims() != [self.grid_h * self.grid_w, c] {
            return Err(NnError::BadActivation {
                op: "window_partition",
                expected: format!("[{}, {c}]", self.grid_h * self.grid_w),
                got: x.dims().to_vec(),
            });
        }
        let slots = self.window * self.window;
        let mut windows = Vec::with_capacity(self.num_windows());
        for toks in self.window_order().chunks(slots) {
            let mut data = Vec::with_capacity(slots * c);
            gather_rows(x.data(), toks, c, &mut data);
            windows.push(Tensor::from_vec([slots, c], data)?);
        }
        Ok(windows)
    }

    /// Reassembles per-window outputs into the `[h*w, C]` grid, undoing
    /// the cyclic shift.
    pub fn merge(&self, windows: &[Tensor]) -> Result<Tensor> {
        let c = self.attn.width();
        if windows.len() != self.num_windows() {
            return Err(NnError::Invalid(format!(
                "expected {} windows, got {}",
                self.num_windows(),
                windows.len()
            )));
        }
        let mut out = vec![0.0f32; self.grid_h * self.grid_w * c];
        let order = self.window_order();
        for (toks, win) in order.chunks(self.window * self.window).zip(windows) {
            scatter_rows(win.data(), toks, c, &mut out);
        }
        Ok(Tensor::from_vec([self.grid_h * self.grid_w, c], out)?)
    }

    /// Window cores over already-projected `[h*w, C]` Q/K/V grids (`N`
    /// stacked grids when `stacked`): every window of every grid is one
    /// sample of [`Attention::core_n`] — partition, one stacked core,
    /// merge.
    pub(crate) fn core_n(
        &self,
        q: &Tensor,
        k: &Tensor,
        v: &Tensor,
        stacked: bool,
    ) -> Result<Tensor> {
        let (n, [t, c]) = split_sample("window_attention_core", q, stacked)?;
        if [t, c] != [self.grid_h * self.grid_w, self.attn.width()]
            || q.dims() != k.dims()
            || q.dims() != v.dims()
        {
            return Err(NnError::BadActivation {
                op: "window_attention_core",
                expected: format!("matching [{}, {}] grids", self.grid_h * self.grid_w, c),
                got: q.dims().to_vec(),
            });
        }
        let order = self.window_order();
        let per = t * c;
        let windows = |x: &Tensor| {
            let mut data = Vec::with_capacity(x.numel());
            for s in 0..n {
                gather_rows(&x.data()[s * per..(s + 1) * per], &order, c, &mut data);
            }
            Tensor::from_vec([n * self.num_windows(), self.window * self.window, c], data)
        };
        let core = self
            .attn
            .core_n(&windows(q)?, &windows(k)?, &windows(v)?, true, None)?;
        let mut out = vec![0.0f32; n * per];
        for s in 0..n {
            let grid = s * per..(s + 1) * per;
            scatter_rows(&core.data()[grid.clone()], &order, c, &mut out[grid]);
        }
        Ok(Tensor::from_vec(q.dims().to_vec(), out)?)
    }
}

/// Appends rows `toks` of a row-major `[_, c]` matrix, in that order.
fn gather_rows(x: &[f32], toks: &[usize], c: usize, rows: &mut Vec<f32>) {
    for &t in toks {
        rows.extend_from_slice(&x[t * c..(t + 1) * c]);
    }
}

/// Inverse of [`gather_rows`]: row `i` of `rows` lands at row `toks[i]`.
fn scatter_rows(rows: &[f32], toks: &[usize], c: usize, out: &mut [f32]) {
    for (i, &t) in toks.iter().enumerate() {
        out[t * c..(t + 1) * c].copy_from_slice(&rows[i * c..(i + 1) * c]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexiq_tensor::rng::seeded;

    fn toy_attention(c: usize, heads: usize, causal: bool, seed: u64) -> Attention {
        let mut rng = seeded(seed);
        let lin = |rng: &mut _| Linear::new(Tensor::randn([c, c], 0.0, 0.2, rng), None).unwrap();
        Attention::new(
            lin(&mut rng),
            lin(&mut rng),
            lin(&mut rng),
            lin(&mut rng),
            heads,
            causal,
        )
        .unwrap()
    }

    #[test]
    fn identity_value_uniform_scores_average() {
        // With Q=K=0 projections (uniform scores) and V=identity, the core
        // averages the value rows.
        let c = 4;
        let zeros = Linear::new(Tensor::zeros([c, c]), None).unwrap();
        let ident = Linear::new(Tensor::eye(c), None).unwrap();
        let attn = Attention::new(zeros.clone(), zeros, ident.clone(), ident, 2, false).unwrap();
        let x = Tensor::from_vec([2, 4], vec![1.0, 2.0, 3.0, 4.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let q = attn.q.forward(&x).unwrap();
        let k = attn.k.forward(&x).unwrap();
        let v = attn.v.forward(&x).unwrap();
        let y = attn.core(&q, &k, &v).unwrap();
        for i in 0..4 {
            let mean = (x.data()[i] + x.data()[4 + i]) / 2.0;
            assert!((y.data()[i] - mean).abs() < 1e-5);
            assert!((y.data()[4 + i] - mean).abs() < 1e-5);
        }
    }

    #[test]
    fn causal_mask_blocks_future_tokens() {
        let attn = toy_attention(8, 2, true, 101);
        let mut rng = seeded(102);
        let x1 = Tensor::randn([4, 8], 0.0, 1.0, &mut rng);
        // Changing a future token must not affect earlier outputs.
        let mut x2 = x1.clone();
        for v in &mut x2.data_mut()[3 * 8..] {
            *v += 5.0;
        }
        let run = |x: &Tensor| {
            let q = attn.q.forward(x).unwrap();
            let k = attn.k.forward(x).unwrap();
            let v = attn.v.forward(x).unwrap();
            attn.core(&q, &k, &v).unwrap()
        };
        let y1 = run(&x1);
        let y2 = run(&x2);
        for i in 0..3 * 8 {
            assert!(
                (y1.data()[i] - y2.data()[i]).abs() < 1e-5,
                "token leak at {i}"
            );
        }
        // The last token must differ (it sees itself).
        let diff: f32 = (0..8)
            .map(|i| (y1.data()[24 + i] - y2.data()[24 + i]).abs())
            .sum();
        assert!(diff > 1e-3);
    }

    #[test]
    fn masked_core_matches_unpadded_core_bit_exactly() {
        for causal in [false, true] {
            let attn = toy_attention(8, 2, causal, 201);
            let mut rng = seeded(202);
            let x = Tensor::randn([6, 8], 0.0, 1.0, &mut rng);
            let project = |x: &Tensor| {
                (
                    attn.q.forward(x).unwrap(),
                    attn.k.forward(x).unwrap(),
                    attn.v.forward(x).unwrap(),
                )
            };
            for len in 1..=5usize {
                // Padded: full-context projections + mask.
                let (q, k, v) = project(&x);
                let masked = attn.core_masked(&q, &k, &v, len).unwrap();
                // Unpadded: project and run on the [len, C] prefix alone.
                let xs = x.slice_axis0(len).unwrap();
                let (qs, ks, vs) = project(&xs);
                let plain = attn.core(&qs, &ks, &vs).unwrap();
                for (i, (a, b)) in masked.data()[..len * 8]
                    .iter()
                    .zip(plain.data().iter())
                    .enumerate()
                {
                    assert_eq!(a.to_bits(), b.to_bits(), "causal={causal} len={len} at {i}");
                }
                // Pad query rows are exactly zero.
                assert!(masked.data()[len * 8..].iter().all(|&v| v == 0.0));
            }
        }
    }

    #[test]
    fn masked_core_ignores_pad_values() {
        // Poison the pad region with huge values: valid rows must not move.
        let attn = toy_attention(4, 2, false, 203);
        let mut rng = seeded(204);
        let mk = |x: &Tensor| {
            (
                attn.q.forward(x).unwrap(),
                attn.k.forward(x).unwrap(),
                attn.v.forward(x).unwrap(),
            )
        };
        let x = Tensor::randn([4, 4], 0.0, 1.0, &mut rng);
        let (q, k, v) = mk(&x);
        let clean = attn.core_masked(&q, &k, &v, 2).unwrap();
        let poison = |t: &Tensor| {
            let mut p = t.clone();
            for val in &mut p.data_mut()[2 * 4..] {
                *val = f32::NAN;
            }
            p
        };
        let dirty = attn
            .core_masked(&poison(&q), &poison(&k), &poison(&v), 2)
            .unwrap();
        for (a, b) in clean.data()[..2 * 4].iter().zip(dirty.data().iter()) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "pad values leaked into valid rows"
            );
        }
    }

    #[test]
    fn masked_core_batch_handles_mixed_lengths() {
        use flexiq_tensor::SeqMask;
        let attn = toy_attention(4, 2, true, 205);
        let mut rng = seeded(206);
        let q = Tensor::randn([3, 4, 4], 0.0, 1.0, &mut rng);
        let k = Tensor::randn([3, 4, 4], 0.0, 1.0, &mut rng);
        let v = Tensor::randn([3, 4, 4], 0.0, 1.0, &mut rng);
        let mask = SeqMask::new(vec![1, 4, 2], 4).unwrap();
        let yb = attn.core_batch_masked(&q, &k, &v, Some(&mask)).unwrap();
        for s in 0..3 {
            let yi = attn
                .core_masked(
                    &q.index_axis0(s).unwrap(),
                    &k.index_axis0(s).unwrap(),
                    &v.index_axis0(s).unwrap(),
                    mask.len_of(s),
                )
                .unwrap();
            for (a, b) in yb.index_axis0(s).unwrap().data().iter().zip(yi.data()) {
                assert_eq!(a.to_bits(), b.to_bits(), "sample {s}");
            }
        }
        // A mask sized for a different batch is rejected.
        let bad = SeqMask::new(vec![1, 2], 4).unwrap();
        assert!(attn.core_batch_masked(&q, &k, &v, Some(&bad)).is_err());
        assert!(attn
            .core_masked(
                &q.index_axis0(0).unwrap(),
                &k.index_axis0(0).unwrap(),
                &v.index_axis0(0).unwrap(),
                0
            )
            .is_err());
    }

    #[test]
    fn rank0_projections_are_a_typed_error_not_a_panic() {
        let attn = toy_attention(4, 2, false, 207);
        let s = Tensor::scalar(1.0);
        for r in [attn.core(&s, &s, &s), attn.core_masked(&s, &s, &s, 1)] {
            assert!(matches!(r, Err(NnError::BadActivation { .. })), "{r:?}");
        }
    }

    #[test]
    fn heads_must_divide_width() {
        let c = 6;
        let lin = Linear::new(Tensor::zeros([c, c]), None).unwrap();
        assert!(
            Attention::new(lin.clone(), lin.clone(), lin.clone(), lin.clone(), 4, false).is_err()
        );
        assert!(Attention::new(lin.clone(), lin.clone(), lin.clone(), lin, 0, false).is_err());
    }

    #[test]
    fn window_partition_merge_round_trips() {
        let mut rng = seeded(103);
        for shifted in [false, true] {
            let attn = toy_attention(4, 2, false, 104);
            let wa = WindowAttention::new(attn, 4, 4, 2, shifted).unwrap();
            let x = Tensor::randn([16, 4], 0.0, 1.0, &mut rng);
            let parts = wa.partition(&x).unwrap();
            assert_eq!(parts.len(), 4);
            let merged = wa.merge(&parts).unwrap();
            assert_eq!(merged.data(), x.data());
        }
    }

    #[test]
    fn shifted_windows_mix_across_borders() {
        let attn = toy_attention(4, 1, false, 105);
        let plain = WindowAttention::new(attn.clone(), 4, 4, 2, false).unwrap();
        let shifted = WindowAttention::new(attn, 4, 4, 2, true).unwrap();
        let mut rng = seeded(106);
        let x = Tensor::randn([16, 4], 0.0, 1.0, &mut rng);
        let p_plain = plain.partition(&x).unwrap();
        let p_shift = shifted.partition(&x).unwrap();
        // Window 0 of the plain partition holds tokens {0,1,4,5}; the
        // shifted one holds {5,6,9,10} — they must differ.
        assert_ne!(p_plain[0].data(), p_shift[0].data());
    }

    #[test]
    fn window_validation() {
        let attn = toy_attention(4, 2, false, 107);
        assert!(WindowAttention::new(attn.clone(), 5, 4, 2, false).is_err());
        assert!(WindowAttention::new(attn.clone(), 4, 4, 0, false).is_err());
        let wa = WindowAttention::new(attn, 4, 4, 2, false).unwrap();
        assert!(wa.partition(&Tensor::zeros([15, 4])).is_err());
        assert!(wa.merge(&[Tensor::zeros([4, 4])]).is_err());
    }
}
