//! Quantized key/value cache for autoregressive decode (§4.1 applied to
//! activations-over-time).
//!
//! The decode loop attends each new token against every cached key/value
//! row. This module stores those rows in the **same effective-bit
//! representation the paper uses for weights**: 8-bit keys with a 4-bit
//! band carved from the live values through the existing static lowering
//! rules ([`BitLowering::for_max_abs`]). Where the weight path derives
//! its extraction windows from calibrated maxima, the cache derives them
//! from the row being appended — the values *are* live — so each
//! `(row, head, channel-group)` gets its own window, and the band is
//! **carved at append time** the way the quantized engine prepacks
//! weights: reads never re-derive or re-shift anything.
//!
//! Layout: rows are appended row-major as `[rows, C]`, which is exactly
//! the `[n, k]` weight layout of [`gemm::gemm_i8_band_wt`]. Keys live in
//! **one effective buffer**: each head's leading low groups hold their
//! carved values *reconstructed* (`lower` then `<< shift`, still
//! `i8`-ranged — see [`BitLowering::round_trip_in_place`]), every other
//! channel its 8-bit value. So one head's scores are a single band GEMM
//! (`m = 1`) over the head's channels, reusing the `gemm_i8_band`-family
//! kernels (and their AVX2 dispatch) unchanged, with no per-element
//! shifts in the hot loop.
//!
//! # Precision modes
//!
//! A [`KvSpec`] fixes how cached rows are stored and read:
//!
//! * `f32` — raw rows, no quantization. The attention arithmetic
//!   reproduces [`crate::ops::Attention::core`] **bit-exactly** (pinned
//!   by tests): the incremental row loop below is element-for-element
//!   the reduction order of the full-context core, and causally masked
//!   positions contribute exact zeros there, so skipping them changes no
//!   bits.
//! * `int8` — rows quantized per-row symmetric to 8 bits
//!   (`scale = |row|_max / 127`), scores via integer band GEMMs.
//! * `mixed` — as `int8`, with the leading fraction of each head's
//!   channel groups stored as the carved 4-bit band instead — the
//!   §4.1 abit-ratio knob applied along the temporal axis.
//!
//! The full-context executor routes attention through the *same* cache
//! (append all rows, then attend each) whenever a non-f32 spec is
//! installed — see [`core_kv`] — so "N decode steps" versus "one
//! full-context forward" is an identity **by construction**, not a
//! tolerance.

use flexiq_quant::lowering::BitLowering;
use flexiq_quant::quantize::RANGE_EPS;
use flexiq_quant::{QParams, QuantBits};
use flexiq_tensor::{gemm, Tensor};

use crate::error::NnError;
use crate::ops::act::softmax_row;
use crate::ops::{split_sample, Attention};
use crate::Result;

/// How a decode session's K/V cache stores and reads its rows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KvSpec {
    /// Quantize appended rows to the 8-bit master representation
    /// (`false` stores raw f32 rows and keeps attention in pure float).
    pub quantized: bool,
    /// Channel-group width for band carving inside each head; must
    /// divide the head dimension. Ignored for f32 caches.
    pub group: usize,
    /// Fraction of each head's **leading** channel groups whose key
    /// band is stored at `low_bits` effective precision (0.0 = pure
    /// int8, 1.0 = every group holds the carved band).
    pub low_frac: f64,
    /// Width of the carved band (4 in the paper).
    pub low_bits: QuantBits,
}

impl Default for KvSpec {
    fn default() -> Self {
        KvSpec::f32()
    }
}

impl KvSpec {
    /// Raw f32 cache: attention is bit-exact with the uncached core.
    pub fn f32() -> Self {
        KvSpec {
            quantized: false,
            group: 1,
            low_frac: 0.0,
            low_bits: QuantBits::B4,
        }
    }

    /// Pure 8-bit cache (no low band), grouped at `group` channels.
    pub fn int8(group: usize) -> Self {
        KvSpec {
            quantized: true,
            group,
            low_frac: 0.0,
            low_bits: QuantBits::B4,
        }
    }

    /// 8-bit cache with the leading `low_frac` of each head's groups
    /// stored as the carved 4-bit band.
    pub fn mixed(group: usize, low_frac: f64) -> Self {
        KvSpec {
            quantized: true,
            group,
            low_frac,
            low_bits: QuantBits::B4,
        }
    }

    /// Whether this spec leaves attention on the raw f32 path.
    pub fn is_f32(&self) -> bool {
        !self.quantized
    }

    /// Validates the spec against an attention geometry.
    pub fn validate(&self, c: usize, heads: usize) -> Result<()> {
        if !self.quantized {
            return Ok(());
        }
        let dh = c / heads.max(1);
        if self.group == 0 || dh % self.group != 0 {
            return Err(NnError::Invalid(format!(
                "kv group {} must divide head dim {dh}",
                self.group
            )));
        }
        if !(0.0..=1.0).contains(&self.low_frac) || !self.low_frac.is_finite() {
            return Err(NnError::Invalid(format!(
                "kv low_frac {} outside [0, 1]",
                self.low_frac
            )));
        }
        Ok(())
    }

    /// Number of leading low-band groups per head for a head dim `dh`.
    fn low_groups(&self, dh: usize) -> usize {
        let per_head = dh / self.group;
        ((self.low_frac * per_head as f64).floor() as usize).min(per_head)
    }
}

/// Per-layer quantized K/V cache of one decode session.
///
/// Rows are appended once per generated position and never mutated;
/// every representation (effective keys, 8-bit values, scales) is
/// derived at append time so reads are straight band GEMMs.
#[derive(Debug, Clone)]
pub struct KvLayerCache {
    c: usize,
    heads: usize,
    dh: usize,
    spec: KvSpec,
    rows: usize,
    // f32 storage (spec.is_f32()).
    k_f: Vec<f32>,
    v_f: Vec<f32>,
    // Quantized storage: [rows, C] row-major == the band GEMM's [n, k]
    // weight layout.
    /// Effective keys: 8-bit values, with each head's leading
    /// `spec.low_groups` groups replaced by their `round_trip` under the
    /// per-(row, head, group) live lowering rule — effective `low_bits +
    /// shift` bits, stored reconstructed so reads reuse the i8 kernels.
    k_q: Vec<i8>,
    k_scale: Vec<f32>,
    v_q: Vec<i8>,
    v_scale: Vec<f32>,
    // Attend scratch, reused across steps (no steady-state growth).
    q_q: Vec<i8>,
    acc: Vec<i32>,
    scores: Vec<f32>,
}

/// Per-row symmetric 8-bit parameters (live, from the row itself). A
/// degenerate all-zero row gets the minimum representable range so the
/// scale stays finite and positive.
fn row_params(row: &[f32]) -> Result<QParams> {
    let abs_max = row.iter().fold(0.0f32, |a, &b| a.max(b.abs()));
    Ok(QParams::from_abs_max(
        abs_max.max(RANGE_EPS),
        QuantBits::B8,
    )?)
}

impl KvLayerCache {
    /// Creates an empty cache for one attention layer, reserving
    /// `capacity` rows.
    pub fn new(c: usize, heads: usize, spec: KvSpec, capacity: usize) -> Result<Self> {
        if heads == 0 || c % heads != 0 {
            return Err(NnError::Invalid(format!(
                "kv cache heads {heads} must divide width {c}"
            )));
        }
        spec.validate(c, heads)?;
        let dh = c / heads;
        let (f_cap, q_cap) = if spec.is_f32() {
            (capacity * c, 0)
        } else {
            (0, capacity * c)
        };
        Ok(KvLayerCache {
            c,
            heads,
            dh,
            spec,
            rows: 0,
            k_f: Vec::with_capacity(f_cap),
            v_f: Vec::with_capacity(f_cap),
            k_q: Vec::with_capacity(q_cap),
            k_scale: Vec::with_capacity(if spec.is_f32() { 0 } else { capacity }),
            v_q: Vec::with_capacity(q_cap),
            v_scale: Vec::with_capacity(if spec.is_f32() { 0 } else { capacity }),
            q_q: Vec::new(),
            acc: Vec::new(),
            scores: Vec::new(),
        })
    }

    /// Cached positions.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether no position has been appended yet.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The spec this cache stores under.
    pub fn spec(&self) -> &KvSpec {
        &self.spec
    }

    /// Resident bytes across every stored representation.
    pub fn resident_bytes(&self) -> usize {
        self.k_f.len() * 4
            + self.v_f.len() * 4
            + self.k_q.len()
            + self.v_q.len()
            + (self.k_scale.len() + self.v_scale.len()) * 4
    }

    /// Appends one position's projected key/value rows (`[C]` each),
    /// quantizing and carving the low band per the spec.
    pub fn append(&mut self, k_row: &[f32], v_row: &[f32]) -> Result<()> {
        if k_row.len() != self.c || v_row.len() != self.c {
            return Err(NnError::Invalid(format!(
                "kv append rows of {} / {} values, cache width {}",
                k_row.len(),
                v_row.len(),
                self.c
            )));
        }
        if self.spec.is_f32() {
            self.k_f.extend_from_slice(k_row);
            self.v_f.extend_from_slice(v_row);
            self.rows += 1;
            return Ok(());
        }
        let kp = row_params(k_row)?;
        let vp = row_params(v_row)?;
        self.k_scale.push(kp.scale());
        self.v_scale.push(vp.scale());
        let base = self.k_q.len();
        self.k_q.resize(base + self.c, 0);
        kp.quantize_slice(k_row, &mut self.k_q[base..]);
        self.v_q.resize(base + self.c, 0);
        vp.quantize_slice(v_row, &mut self.v_q[base..]);
        // Carve the low band in place: one live lowering rule per (head,
        // leading low group), derived from this row's 8-bit maxima
        // exactly as the weight path derives its static rules from
        // calibrated maxima.
        let g = self.spec.group;
        let low_width = self.spec.low_groups(self.dh) * g;
        for h in 0..self.heads {
            let head = base + h * self.dh;
            for span in self.k_q[head..head + low_width].chunks_exact_mut(g) {
                let max_abs = span.iter().map(|&q| q.unsigned_abs() as u32).max();
                BitLowering::for_max_abs(max_abs.unwrap_or(0), self.spec.low_bits)
                    .round_trip_in_place(span);
            }
        }
        self.rows += 1;
        Ok(())
    }

    /// Attends the newest position's query row (`[C]`) over every cached
    /// position (which must already include the current one) and writes
    /// the pre-output-projection context into `out` (`[C]`).
    ///
    /// The f32 path reproduces the reduction orders of
    /// [`Attention::core`] element for element; the quantized paths run
    /// per-head band GEMMs against the cache. Scratch lives in the cache,
    /// so steady-state attends allocate nothing.
    pub fn attend(&mut self, q_row: &[f32], out: &mut [f32]) -> Result<()> {
        if q_row.len() != self.c || out.len() != self.c {
            return Err(NnError::Invalid(format!(
                "kv attend rows of {} / {} values, cache width {}",
                q_row.len(),
                out.len(),
                self.c
            )));
        }
        if self.rows == 0 {
            return Err(NnError::Invalid("kv attend over an empty cache".into()));
        }
        let (t, c, dh) = (self.rows, self.c, self.dh);
        let inv = 1.0 / (dh as f32).sqrt();
        self.scores.clear();
        self.scores.resize(t, 0.0);
        if self.spec.is_f32() {
            for h in 0..self.heads {
                // Scores: the same ascending-d inner loop as `core`.
                for j in 0..t {
                    let mut acc = 0.0f32;
                    for d in 0..dh {
                        acc += q_row[h * dh + d] * self.k_f[j * c + h * dh + d];
                    }
                    self.scores[j] = acc * inv;
                }
                softmax_row(&mut self.scores);
                for d in 0..dh {
                    let mut acc = 0.0f32;
                    for j in 0..t {
                        acc += self.scores[j] * self.v_f[j * c + h * dh + d];
                    }
                    out[h * dh + d] = acc;
                }
            }
            return Ok(());
        }
        // Quantize the query row live (per-row symmetric, like appends).
        let qp = row_params(q_row)?;
        let q_scale = qp.scale();
        self.q_q.resize(c, 0);
        qp.quantize_slice(q_row, &mut self.q_q);
        for h in 0..self.heads {
            self.acc.clear();
            self.acc.resize(t, 0);
            // One band GEMM (m = 1) over the head's channels against the
            // cache's [rows, C] weight layout: the effective keys already
            // hold the carved band in the leading low groups.
            let (k0, k1) = (h * dh, (h + 1) * dh);
            gemm::gemm_i8_band_wt(1, t, c, k0, k1, &self.q_q, &self.k_q, &mut self.acc);
            for j in 0..t {
                self.scores[j] = self.acc[j] as f32 * q_scale * self.k_scale[j] * inv;
            }
            softmax_row(&mut self.scores);
            for d in 0..dh {
                let mut acc = 0.0f32;
                for j in 0..t {
                    acc += self.scores[j] * (self.v_q[j * c + h * dh + d] as f32 * self.v_scale[j]);
                }
                out[h * dh + d] = acc;
            }
        }
        Ok(())
    }
}

/// Full-context attention core through a K/V cache: appends every
/// position's key/value row, then attends each query row over its causal
/// prefix — exactly the arithmetic N decode steps perform, run in one
/// call.
///
/// With an f32 spec this is **bit-exact** with [`Attention::core`] (the
/// identity the decode-equivalence suites rest on); with a quantized
/// spec it *defines* the full-context reference for quantized-cache
/// decode, which is why the executor routes attention through it
/// whenever a non-f32 spec is installed. Requires causal attention —
/// an incremental cache cannot see future positions.
pub fn core_kv(
    attn: &Attention,
    spec: &KvSpec,
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
) -> Result<Tensor> {
    core_kv_n(attn, spec, q, k, v, false)
}

/// The one cached-core body, behind [`core_kv`] and the executor's
/// attention arm: `N` samples (one when not `stacked`), each appending
/// and attending its `T` rows through a fresh cache of its own, in
/// sample order as the f32 core runs them.
pub(crate) fn core_kv_n(
    attn: &Attention,
    spec: &KvSpec,
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    stacked: bool,
) -> Result<Tensor> {
    let (n, [t, c]) = split_sample("attention_core_kv", q, stacked)?;
    if c != attn.width() || t == 0 || q.dims() != k.dims() || q.dims() != v.dims() {
        return Err(NnError::BadActivation {
            op: "attention_core_kv",
            expected: format!("matching non-empty [T, {}] projections", attn.width()),
            got: q.dims().to_vec(),
        });
    }
    if !attn.causal {
        return Err(NnError::Invalid(
            "kv-cached attention requires a causal core".into(),
        ));
    }
    let mut out = vec![0.0f32; n * t * c];
    for s in 0..n {
        let mut cache = KvLayerCache::new(c, attn.heads, *spec, t)?;
        for i in s * t..(s + 1) * t {
            let row = i * c..(i + 1) * c;
            cache.append(&k.data()[row.clone()], &v.data()[row.clone()])?;
            cache.attend(&q.data()[row.clone()], &mut out[row])?;
        }
    }
    Ok(Tensor::from_vec(q.dims().to_vec(), out)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Linear;
    use flexiq_tensor::rng::{self, seeded};

    fn attn(c: usize, heads: usize, causal: bool, seed: u64) -> Attention {
        let mut r = seeded(seed);
        let mut lin = || {
            let w = Tensor::from_vec(
                [c, c],
                (0..c * c).map(|_| rng::normal(&mut r) * 0.3).collect(),
            )
            .unwrap();
            Linear::new(w, None).unwrap()
        };
        let (q, k, v, o) = (lin(), lin(), lin(), lin());
        Attention::new(q, k, v, o, heads, causal).unwrap()
    }

    fn tokens(t: usize, c: usize, seed: u64) -> Tensor {
        let mut r = seeded(seed);
        Tensor::from_vec([t, c], (0..t * c).map(|_| rng::normal(&mut r)).collect()).unwrap()
    }

    #[test]
    fn f32_cache_is_bit_exact_with_the_full_core() {
        for (t, c, heads) in [(1usize, 8usize, 2usize), (5, 8, 2), (7, 12, 3)] {
            let a = attn(c, heads, true, 7 + t as u64);
            let (q, k, v) = (tokens(t, c, 1), tokens(t, c, 2), tokens(t, c, 3));
            let full = a.core(&q, &k, &v).unwrap();
            let inc = core_kv(&a, &KvSpec::f32(), &q, &k, &v).unwrap();
            assert_eq!(full.dims(), inc.dims());
            for (i, (x, y)) in full.data().iter().zip(inc.data().iter()).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "t={t} elem {i}");
            }
        }
    }

    #[test]
    fn incremental_attend_matches_one_shot_core_kv() {
        // N appends + attends == core_kv in one call, per spec: the
        // decode-vs-prefill identity at the cache level.
        let (t, c, heads) = (6usize, 12usize, 3usize);
        let a = attn(c, heads, true, 13);
        let (q, k, v) = (tokens(t, c, 7), tokens(t, c, 8), tokens(t, c, 9));
        for spec in [KvSpec::f32(), KvSpec::int8(2), KvSpec::mixed(2, 1.0)] {
            let oracle = core_kv(&a, &spec, &q, &k, &v).unwrap();
            let mut cache = KvLayerCache::new(c, heads, spec, t).unwrap();
            let mut row = vec![0.0f32; c];
            for i in 0..t {
                cache
                    .append(&k.data()[i * c..(i + 1) * c], &v.data()[i * c..(i + 1) * c])
                    .unwrap();
                cache
                    .attend(&q.data()[i * c..(i + 1) * c], &mut row)
                    .unwrap();
                for d in 0..c {
                    assert_eq!(
                        row[d].to_bits(),
                        oracle.data()[i * c + d].to_bits(),
                        "spec {spec:?} row {i} ch {d}"
                    );
                }
            }
            assert_eq!(cache.len(), t);
            assert!(cache.resident_bytes() > 0);
        }
    }

    #[test]
    fn quantized_cache_tracks_the_f32_core_within_quantization_error() {
        let (t, c, heads) = (6usize, 8usize, 2usize);
        let a = attn(c, heads, true, 17);
        let (q, k, v) = (tokens(t, c, 10), tokens(t, c, 11), tokens(t, c, 12));
        let exact = a.core(&q, &k, &v).unwrap();
        let int8 = core_kv(&a, &KvSpec::int8(2), &q, &k, &v).unwrap();
        let mixed = core_kv(&a, &KvSpec::mixed(2, 0.5), &q, &k, &v).unwrap();
        let err = |y: &Tensor| {
            y.data()
                .iter()
                .zip(exact.data().iter())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max)
        };
        // Context vectors are probability-weighted sums of values, so the
        // worst-case error stays within a few quantization steps.
        assert!(err(&int8) < 0.2, "int8 err {}", err(&int8));
        assert!(err(&mixed) < 0.75, "mixed err {}", err(&mixed));
        // And the carved band is a strictly coarser representation.
        assert!(err(&int8) <= err(&mixed) + 0.2);
    }

    #[test]
    fn low_band_values_fit_their_effective_bit_windows() {
        let c = 8;
        let mut cache = KvLayerCache::new(c, 2, KvSpec::mixed(2, 1.0), 4).unwrap();
        let row: Vec<f32> = vec![0.9, -0.02, 0.5, 0.11, -0.73, 0.3, 0.08, -0.4];
        cache.append(&row, &row).unwrap();
        // Every carved value must be representable as q_low << shift with
        // q_low in the 4-bit range — i.e. round-tripping it through its
        // own naive rule at the stored magnitude is the identity.
        for &v in &cache.k_q {
            let mag = (8 - v.unsigned_abs().leading_zeros().min(8)) as i32;
            assert!(mag <= 7, "carved value {v} out of i8 magnitude");
        }
        assert_eq!(cache.k_q.len(), c);
    }

    #[test]
    fn effective_key_buffer_scores_like_the_master_plus_carved_band_read() {
        // The two-buffer layout this cache replaced: 8-bit master keys
        // plus a fully carved copy, each head read one group at a time
        // from whichever buffer its group lives in. One effective buffer
        // read by one GEMM per head must give the same integer scores,
        // and hold one `C` row fewer per position.
        let (t, c, heads, group) = (9usize, 16usize, 2usize, 2usize);
        let dh = c / heads;
        let (q, k) = (tokens(t, c, 30), tokens(t, c, 31));
        for low_frac in [0.0, 0.25, 0.5, 1.0] {
            let spec = KvSpec::mixed(group, low_frac);
            let low_groups = spec.low_groups(dh);
            let mut cache = KvLayerCache::new(c, heads, spec, t).unwrap();
            let (mut master, mut carved) = (Vec::new(), Vec::new());
            for i in 0..t {
                let row = &k.data()[i * c..(i + 1) * c];
                cache.append(row, row).unwrap();
                let mut kq = vec![0i8; c];
                row_params(row).unwrap().quantize_slice(row, &mut kq);
                for span in kq.chunks_exact(group) {
                    let max_abs = span.iter().map(|&v| v.unsigned_abs() as u32).max();
                    let rule = BitLowering::for_max_abs(max_abs.unwrap(), spec.low_bits);
                    carved.extend(span.iter().map(|&v| rule.round_trip(v) as i8));
                }
                master.extend(kq);
            }
            let q_row = &q.data()[(t - 1) * c..];
            let mut qq = vec![0i8; c];
            row_params(q_row).unwrap().quantize_slice(q_row, &mut qq);
            for h in 0..heads {
                let mut two = vec![0i32; t];
                for gi in 0..dh / group {
                    let k0 = h * dh + gi * group;
                    let band = if gi < low_groups { &carved } else { &master };
                    gemm::gemm_i8_band_wt(1, t, c, k0, k0 + group, &qq, band, &mut two);
                }
                let mut one = vec![0i32; t];
                gemm::gemm_i8_band_wt(1, t, c, h * dh, (h + 1) * dh, &qq, &cache.k_q, &mut one);
                assert_eq!(one, two, "low_frac {low_frac} head {h}");
            }
            // Keys, values and two f32 scales per row; the two-buffer
            // layout held a third `C` bytes of carved keys.
            assert_eq!(cache.resident_bytes(), t * (2 * c + 8));
        }
    }

    #[test]
    fn spec_and_shape_validation() {
        assert!(KvSpec::int8(3).validate(8, 2).is_err(), "3 !| dh=4");
        assert!(KvSpec::int8(2).validate(8, 2).is_ok());
        assert!(KvSpec::mixed(2, 1.5).validate(8, 2).is_err());
        assert!(KvSpec::f32().validate(8, 3).is_ok(), "f32 skips geometry");
        assert!(
            KvLayerCache::new(8, 3, KvSpec::f32(), 4).is_err(),
            "heads !| c"
        );
        let mut cache = KvLayerCache::new(8, 2, KvSpec::f32(), 4).unwrap();
        assert!(cache.append(&[0.0; 4], &[0.0; 8]).is_err());
        let mut out = vec![0.0; 8];
        assert!(cache.attend(&[0.0; 8], &mut out).is_err(), "empty cache");
        // Degenerate all-zero rows still quantize (finite positive scale).
        let mut qc = KvLayerCache::new(8, 2, KvSpec::int8(2), 4).unwrap();
        qc.append(&[0.0; 8], &[0.0; 8]).unwrap();
        qc.attend(&[0.0; 8], &mut out).unwrap();
        assert!(out.iter().all(|v| v.is_finite()));
        // Non-causal attention cannot run through an incremental cache.
        let a = attn(8, 2, false, 19);
        let x = tokens(4, 8, 20);
        assert!(core_kv(&a, &KvSpec::f32(), &x, &x, &x).is_err());
    }
}
