//! Runtime ISA dispatch and explicit SIMD micro-kernel tiles.
//!
//! The blocked GEMM driver in [`crate::gemm`] calls full `MR × NR`
//! (f32) and `MR × NR_I8` (i8) register tiles through this module. The
//! instruction set is detected **once per process** ([`detect`]) and
//! resolved per GEMM call ([`active`]), so a binary built for generic
//! `x86_64` still runs the AVX2 (and AVX-VNNI) tiles on hardware that
//! has them and falls back to the portable scalar tiles everywhere else.
//!
//! Dispatch order and escape hatches:
//!
//! 1. `FLEXIQ_NO_SIMD=1` (env, read once) — hard override, always
//!    scalar. This is the knob CI uses to re-run the equivalence
//!    suites over the scalar tiles.
//! 2. [`set_cap`] — a programmatic upper bound for tests, subordinate
//!    to the env knob: the suites pin `Scalar`, `Avx2` or `AvxVnni`
//!    ([`host_caps`] lists the ones this host can run).
//! 3. Hardware detection: [`Isa::AvxVnni`] where the CPU has both
//!    `avx2` and `avxvnni`, [`Isa::Avx2`] where it has `avx2` alone,
//!    scalar otherwise. The ISAs are ordered, and every higher tier
//!    keeps the lower tier's instructions — a site that needs AVX2 asks
//!    [`Isa::has_avx2`], never for `Avx2` by name.
//!
//! # Exactness contract
//!
//! The SIMD tiles are **bit-identical** to the scalar tiles, which are
//! in turn bit-identical to `gemm::reference` — the equivalence suites
//! compare all three:
//!
//! * **f32** tiles vectorize across the `n` (lane) axis only and keep
//!   k-accumulation in ascending scalar order per output element. They
//!   deliberately use unfused multiply-then-add
//!   (`_mm256_add_ps(_mm256_mul_ps(..))`), **never** fused FMA: a fused multiply-add skips the intermediate
//!   rounding step and would produce different (better, but different)
//!   bits than the scalar `a * b + c`.
//! * **i8** tiles accumulate in `i32`, where every intermediate is
//!   exact (`|a·b| ≤ 16384`, pair sums ≤ 32768), so any lane order
//!   yields identical results by construction.
//!
//! # Byte-quad tiles
//!
//! Two i8 tiles keep their operands one byte wide and consume four
//! reduction steps per instruction. Both read a *quad-interleaved*
//! lhs tile (`ap[(q*MR + r)*4 + t]` = row `r`, step `4q + t`) and a
//! *quad panel* (`bp[(q*NR_I8 + lane)*4 + t]` = column `lane`, step
//! `4q + t`). The x86 multiply-adds on bytes multiply **unsigned** by
//! signed bytes, so the panel stores `u = b + offset` and the lhs stays
//! signed: `Σ_p a_p·(b_p + offset) = Σ_p a_p·b_p + offset·Σ_p a_p`. The
//! surplus depends on the lhs row alone, so whoever packs the lhs
//! records the correction `-offset·Σ_p a_p` per row, and the tile
//! starts its accumulators from it. Padding is exact — a padded step
//! has `a_p = 0`, so whatever the panel holds there contributes nothing
//! to either sum.
//!
//! **The AVX-VNNI tile** (`x86::i8_tile_quads_vnni`, [`Isa::AvxVnni`])
//! issues one `vpdpbusd` per four reduction steps of eight columns: it
//! multiplies the byte quads and adds the four products straight into
//! an i32 lane, with no i16 stage. Every blocked i8 GEMM runs it:
//!
//! * **Offset.** Full-range operands store `b + 128 ∈ [0, 255]`;
//!   bit-lowered bands (`[-8, 7]`) keep `b + 8` and the lhs tiles they
//!   prepacked for the AVX2 tile below, whose correction is `-8·Σa`.
//! * **Wrap.** The instruction is the **non-saturating** form: each
//!   lane adds modulo 2³², and the whole sum — correction included — is
//!   formed in that ring. The true result `Σ a·b` is therefore produced
//!   exactly whenever it fits in `i32`, even if the accumulator wrapped
//!   on the way (`Σ a·(b + 128)` alone can reach `128·255·K`).
//!   `|a·b| ≤ 16384` bounds the result by `16384·K`, which fits for
//!   every `K < 131 072` — the accumulation limit of this tile. The
//!   saturating `vpdpbusds` would clamp the intermediate instead, and
//!   must never be used here.
//!
//! **The AVX2 dense low-range tile** (`x86::i8_tile_dense_avx2`) runs
//! bit-lowered bands where AVX2 is the best ISA. It issues one
//! `vpmaddubsw` per four reduction steps of eight columns, which forms
//! pair sums in **saturating** i16 lanes, so it is exact only by three
//! range arguments that the tests pin at their boundaries:
//!
//! * **Offset** `+8`, as above: `u ∈ [0, 15]` against `a ∈ [-8, 7]`.
//! * **Range.** One instruction lane holds `a₀·u₀ + a₁·u₁`, so it lies
//!   in `[-240, 210]` — far from the i16 saturation.
//! * **Accumulation limit.** Lanes are summed in i16 for at most
//!   [`DENSE_I16_STEPS`]` = 136` instructions (`136 · 240 = 32640 ≤
//!   32767`), then widened to i32 by one `pmaddwd` against ones; longer
//!   bands repeat the cycle. No intermediate can wrap.
//!
//! The rhs packers of a `+8` run (`x86::quads_pack_avx2` for a row-major
//! rhs, `gemm::ConvSource::pack_quads` for a convolution's channel
//! quads) report the OR of every byte they store, and the driver panics
//! when it shows a value outside `[-8, 7]` rather than return a
//! saturated sum; a weight block gets `+8` tiles only when every weight
//! lies in `[-8, 7]`. Scalar builds run the ordinary i8 tiles
//! on the same operands — exact as ever, just not cheaper.
//!
//! The AVX2 full-range i8 tile consumes a dedicated *pair* panel layout
//! (packed by `gemm`'s `I8Pairs` kernel) holding two adjacent reduction
//! steps as an i16 pair per lane, feeding `pmaddwd`
//! (`_mm256_madd_epi16`) directly.

use std::cell::Cell;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Instruction set a GEMM call's micro-kernels dispatch to, ordered
/// from least to most capable: each tier runs every instruction of the
/// tiers below it.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Isa {
    /// The portable scalar register tiles.
    Scalar,
    /// x86-64 AVX2 tiles (`pmaddwd` i8 path, `vpmaddubsw` low-range
    /// path, 8-lane f32 path).
    Avx2,
    /// AVX2 plus AVX-VNNI: every blocked i8 GEMM runs the `vpdpbusd`
    /// byte-quad tile; the f32 path is AVX2's.
    AvxVnni,
}

impl Isa {
    /// Every ISA, in ascending order.
    pub const ALL: [Isa; 3] = [Isa::Scalar, Isa::Avx2, Isa::AvxVnni];

    /// Stable lower-case name, as recorded in telemetry counters and
    /// bench artifact metadata.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Avx2 => "avx2",
            Isa::AvxVnni => "avxvnni",
        }
    }

    /// Whether this ISA includes the AVX2 instructions — the question
    /// every AVX2 tile, packer and quantizer asks.
    pub fn has_avx2(self) -> bool {
        self >= Isa::Avx2
    }
}

/// Best ISA the hardware supports, detected once per process. Ignores
/// the overrides — use [`active`] for the dispatch decision.
pub fn detect() -> Isa {
    static DETECTED: OnceLock<Isa> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                if std::arch::is_x86_feature_detected!("avxvnni") {
                    return Isa::AvxVnni;
                }
                return Isa::Avx2;
            }
        }
        Isa::Scalar
    })
}

/// `FLEXIQ_NO_SIMD` tri-state cache: 0 = unread, 1 = forced scalar,
/// 2 = SIMD allowed (same lazy-env pattern as telemetry's `ENABLED`).
static ENV_NO_SIMD: AtomicU8 = AtomicU8::new(0);

/// Programmatic cap ([`set_cap`]): 0 = none, otherwise one more than
/// the capping ISA's index in [`Isa::ALL`].
static CAP: AtomicU8 = AtomicU8::new(0);

fn parse_no_simd(v: Option<&str>) -> bool {
    matches!(v.map(str::trim), Some("1" | "true" | "yes" | "on"))
}

/// Whether `FLEXIQ_NO_SIMD` forces the scalar tiles. Read once and
/// cached; a hard override that [`set_cap`] cannot undo.
pub fn env_no_simd() -> bool {
    match ENV_NO_SIMD.load(Ordering::Relaxed) {
        0 => {
            let no = parse_no_simd(std::env::var("FLEXIQ_NO_SIMD").ok().as_deref());
            ENV_NO_SIMD.store(if no { 1 } else { 2 }, Ordering::Relaxed);
            no
        }
        v => v == 1,
    }
}

/// Caps dispatch at `cap` (or releases the cap with `None`): [`active`]
/// then returns the lesser of the detected ISA and the cap. The
/// programmatic twin of `FLEXIQ_NO_SIMD`, used by the equivalence
/// suites to run every tier this host has in one process. Global;
/// callers toggling it concurrently should serialize.
pub fn set_cap(cap: Option<Isa>) {
    CAP.store(cap.map_or(0, |isa| isa as u8 + 1), Ordering::Relaxed);
}

/// The ISA the next GEMM call will dispatch to on this process.
pub fn active() -> Isa {
    if env_no_simd() {
        return Isa::Scalar;
    }
    match CAP.load(Ordering::Relaxed) {
        0 => detect(),
        v => detect().min(Isa::ALL[v as usize - 1]),
    }
}

/// The caps that select a distinct ISA on this process: every ISA up to
/// the detected one, or scalar alone under `FLEXIQ_NO_SIMD`. Suites that
/// pin each tier iterate this.
pub fn host_caps() -> Vec<Isa> {
    let top = if env_no_simd() { Isa::Scalar } else { detect() };
    Isa::ALL.into_iter().filter(|&isa| isa <= top).collect()
}

/// Serializes this crate's unit tests that move the process-wide cap
/// or assert which ISA a call dispatched to.
#[cfg(test)]
pub(crate) fn cap_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// `vpmaddubsw` steps the dense low-range tile may sum in i16 lanes
/// before widening: one step adds a pair sum of magnitude at most
/// `2·8·15 = 240` per lane (see the module docs).
pub const DENSE_I16_STEPS: usize = 136;
const _: () = assert!(DENSE_I16_STEPS * 240 <= i16::MAX as usize);
const _: () = assert!((DENSE_I16_STEPS + 1) * 240 > i16::MAX as usize);

thread_local! {
    /// ISA of the most recent GEMM dispatch **on this thread** — set by
    /// the entry points in [`crate::gemm`], observable by tests that need to
    /// prove forced-scalar actually took effect.
    static LAST_DISPATCH: Cell<Option<Isa>> = const { Cell::new(None) };
}

/// Records a dispatch decision (called by the GEMM entry points).
pub(crate) fn note_dispatch(isa: Isa) {
    LAST_DISPATCH.with(|c| c.set(Some(isa)));
}

/// ISA of the most recent GEMM dispatch on the calling thread, if any.
pub fn last_dispatch() -> Option<Isa> {
    LAST_DISPATCH.with(Cell::get)
}

/// AVX2 and AVX-VNNI register tiles. Each function is `unsafe` only because of
/// `#[target_feature]`: callers must have confirmed the features it
/// enables (dispatched via [`active`] to an ISA that [`Isa::has_avx2`],
/// and to [`Isa::AvxVnni`] for the VNNI tile). All slice accesses
/// are bounds-checked against the asserted panel extents on entry.
#[cfg(target_arch = "x86_64")]
pub(crate) mod x86 {
    use crate::gemm::{MR, NR, NR_I8};
    use std::arch::x86_64::*;

    // The tile loads below spell out MR accumulator rows.
    const _: () = assert!(MR == 4 && NR == 8 && NR_I8 == 32);

    /// Full `MR × NR` f32 tile over packed panels: `acc[r][j] +=
    /// Σ_p a[p*MR+r] * b[p*NR+j]`, k ascending, one unfused
    /// multiply-then-add per step — bit-identical to the scalar tile
    /// (see the module docs for why FMA is off the table).
    ///
    /// # Safety
    /// AVX2 must be supported by the executing CPU.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn f32_tile_avx2(
        kc: usize,
        ap: &[f32],
        bp: &[f32],
        acc: &mut [[f32; NR]; MR],
    ) {
        assert!(ap.len() >= kc * MR && bp.len() >= kc * NR);
        let mut accv = [
            _mm256_loadu_ps(acc[0].as_ptr()),
            _mm256_loadu_ps(acc[1].as_ptr()),
            _mm256_loadu_ps(acc[2].as_ptr()),
            _mm256_loadu_ps(acc[3].as_ptr()),
        ];
        let a = ap.as_ptr();
        let b = bp.as_ptr();
        for p in 0..kc {
            let bv = _mm256_loadu_ps(b.add(p * NR));
            let ar = a.add(p * MR);
            for (r, accr) in accv.iter_mut().enumerate() {
                let av = _mm256_set1_ps(*ar.add(r));
                // Unfused on purpose — never _mm256_fmadd_ps here.
                *accr = _mm256_add_ps(*accr, _mm256_mul_ps(av, bv));
            }
        }
        for (r, accr) in accv.iter().enumerate() {
            _mm256_storeu_ps(acc[r].as_mut_ptr(), *accr);
        }
    }

    /// Full `MR × NR_I8` i8 tile over a **pair** panel (packed by
    /// `gemm`'s `I8Pairs` kernel): each `bp` element holds reduction
    /// steps `2pp` (low i16) and `2pp+1` (high i16) for one lane, so
    /// `pmaddwd` computes `a0·b0 + a1·b1` per lane in one instruction.
    /// `kc` is the true reduction extent; an odd tail is handled by a
    /// final pair with the high half zeroed on both sides. Exact in
    /// i32 by construction.
    ///
    /// # Safety
    /// AVX2 must be supported by the executing CPU.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn i8_tile_avx2(
        kc: usize,
        ap: &[i8],
        bp: &[i32],
        acc: &mut [[i32; NR_I8]; MR],
    ) {
        let kpairs = kc / 2;
        assert!(ap.len() >= kc * MR && bp.len() >= kc.div_ceil(2) * NR_I8);
        let a = ap.as_ptr();
        let b = bp.as_ptr();
        // 32 lanes as two halves of 16 (4 rows × 2 regs accumulators +
        // 2 b regs + 1 broadcast = 11 live ymm, no spills).
        for half in 0..2 {
            let off = half * (NR_I8 / 2);
            let mut accv = [[_mm256_setzero_si256(); 2]; MR];
            for (r, regs) in accv.iter_mut().enumerate() {
                regs[0] = _mm256_loadu_si256(acc[r].as_ptr().add(off).cast());
                regs[1] = _mm256_loadu_si256(acc[r].as_ptr().add(off + 8).cast());
            }
            for pp in 0..kpairs {
                let bb = b.add(pp * NR_I8 + off);
                let b0 = _mm256_loadu_si256(bb.cast());
                let b1 = _mm256_loadu_si256(bb.add(8).cast());
                // lhs panel is MR-interleaved per step: steps 2pp and
                // 2pp+1 for row r sit MR elements apart.
                let ar = a.add(2 * pp * MR);
                for (r, regs) in accv.iter_mut().enumerate() {
                    let a0 = *ar.add(r) as i16 as u16 as u32;
                    let a1 = *ar.add(MR + r) as i16 as u16 as u32;
                    let av = _mm256_set1_epi32((a0 | (a1 << 16)) as i32);
                    regs[0] = _mm256_add_epi32(regs[0], _mm256_madd_epi16(av, b0));
                    regs[1] = _mm256_add_epi32(regs[1], _mm256_madd_epi16(av, b1));
                }
            }
            if kc % 2 == 1 {
                // Odd tail: the panel's final pair has zero high
                // halves; broadcast the last lhs step alone so the
                // lhs-side high half is zero too (reading a phantom
                // step `kc` would run past the packed lhs panel).
                let bb = b.add(kpairs * NR_I8 + off);
                let b0 = _mm256_loadu_si256(bb.cast());
                let b1 = _mm256_loadu_si256(bb.add(8).cast());
                let ar = a.add(2 * kpairs * MR);
                for (r, regs) in accv.iter_mut().enumerate() {
                    let a0 = *ar.add(r) as i16 as u16 as u32;
                    let av = _mm256_set1_epi32(a0 as i32);
                    regs[0] = _mm256_add_epi32(regs[0], _mm256_madd_epi16(av, b0));
                    regs[1] = _mm256_add_epi32(regs[1], _mm256_madd_epi16(av, b1));
                }
            }
            for (r, regs) in accv.iter().enumerate() {
                _mm256_storeu_si256(acc[r].as_mut_ptr().add(off).cast(), regs[0]);
                _mm256_storeu_si256(acc[r].as_mut_ptr().add(off + 8).cast(), regs[1]);
            }
        }
    }

    /// Full `MR × NR_I8` **dense low-range** tile (see the module docs
    /// for the exactness argument). `ap` is a quad-interleaved lhs tile
    /// (`ap[(q*MR + r)*4 + t]` = row `r`, reduction step `4q + t`,
    /// values in `[-8, 7]`, zero past the band); `bp` a quad panel
    /// (`bp[(q*NR_I8 + lane)*4 + t]` = column `lane`, step `4q + t`,
    /// stored **offset by +8** as `u8 ∈ [0, 15]`). Per row it computes
    /// the band sum, adds the row's offset correction `corr[r]`, shifts
    /// left by `shl[r]` and adds the result into `out[r]` — the fused
    /// shifted accumulation of one band, so a run of bands can share
    /// one output tile.
    ///
    /// # Safety
    /// AVX2 must be supported by the executing CPU.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn i8_tile_dense_avx2(
        kq: usize,
        ap: &[i8],
        bp: &[i8],
        corr: &[i32; MR],
        shl: &[u32; MR],
        out: &mut [[i32; NR_I8]; MR],
    ) {
        assert!(ap.len() >= kq * MR * 4 && bp.len() >= kq * NR_I8 * 4);
        let ones = _mm256_set1_epi16(1);
        let a = ap.as_ptr();
        let b = bp.as_ptr();
        // 32 lanes as two halves of 16 columns: 4 rows × 2 registers of
        // i16 lanes (8 columns × 2 pair sums each) + 2 panel registers
        // + 1 broadcast.
        for half in 0..2 {
            let off = half * (NR_I8 / 2);
            let mut wide = [[_mm256_setzero_si256(); 2]; MR];
            for (r, regs) in wide.iter_mut().enumerate() {
                *regs = [_mm256_set1_epi32(corr[r]); 2];
            }
            let mut q0 = 0;
            while q0 < kq {
                let q1 = (q0 + super::DENSE_I16_STEPS).min(kq);
                let mut acc = [[_mm256_setzero_si256(); 2]; MR];
                for q in q0..q1 {
                    let bb = b.add((q * NR_I8 + off) * 4);
                    let b0 = _mm256_loadu_si256(bb.cast());
                    let b1 = _mm256_loadu_si256(bb.add(32).cast());
                    let ar = a.add(q * MR * 4);
                    for (r, regs) in acc.iter_mut().enumerate() {
                        // Four lhs steps of row r as one 32-bit broadcast.
                        let av = _mm256_set1_epi32(ar.add(r * 4).cast::<i32>().read_unaligned());
                        regs[0] = _mm256_add_epi16(regs[0], _mm256_maddubs_epi16(b0, av));
                        regs[1] = _mm256_add_epi16(regs[1], _mm256_maddubs_epi16(b1, av));
                    }
                }
                // Widen: adjacent i16 lanes are the two pair sums of one
                // column.
                for (w, regs) in wide.iter_mut().zip(&acc) {
                    w[0] = _mm256_add_epi32(w[0], _mm256_madd_epi16(regs[0], ones));
                    w[1] = _mm256_add_epi32(w[1], _mm256_madd_epi16(regs[1], ones));
                }
                q0 = q1;
            }
            for (r, regs) in wide.iter().enumerate() {
                let count = _mm_cvtsi32_si128(shl[r] as i32);
                let o = out[r].as_mut_ptr().add(off);
                for (g, &reg) in regs.iter().enumerate() {
                    let dst = o.add(8 * g).cast::<__m256i>();
                    let sum =
                        _mm256_add_epi32(_mm256_loadu_si256(dst), _mm256_sll_epi32(reg, count));
                    _mm256_storeu_si256(dst, sum);
                }
            }
        }
    }

    /// Full `MR × NR_I8` **AVX-VNNI byte-quad** tile (see the module
    /// docs for the exactness argument), with exactly the contract of
    /// [`i8_tile_dense_avx2`]: `ap` a quad-interleaved lhs tile, `bp` a
    /// quad panel stored offset by `+offset` as `u8`, `corr[r] =
    /// -offset·Σ_p a[r][p]`; per row it adds `(corr[r] + band sum) <<
    /// shl[r]` into `out[r]`. Operands may span the full i8 range — one
    /// non-saturating `vpdpbusd` per four reduction steps of eight
    /// columns, accumulating modulo 2³² in i32 lanes.
    ///
    /// # Safety
    /// AVX2 and AVX-VNNI must be supported by the executing CPU.
    #[target_feature(enable = "avx2,avxvnni")]
    pub(crate) unsafe fn i8_tile_quads_vnni(
        kq: usize,
        ap: &[i8],
        bp: &[i8],
        corr: &[i32; MR],
        shl: &[u32; MR],
        out: &mut [[i32; NR_I8]; MR],
    ) {
        assert!(ap.len() >= kq * MR * 4 && bp.len() >= kq * NR_I8 * 4);
        let a = ap.as_ptr();
        let b = bp.as_ptr();
        // 32 lanes as two halves of 16 columns: 4 rows × 2 i32
        // accumulators + 2 panel registers + 1 broadcast.
        for half in 0..2 {
            let off = half * (NR_I8 / 2);
            let mut acc = [[_mm256_setzero_si256(); 2]; MR];
            for (r, regs) in acc.iter_mut().enumerate() {
                *regs = [_mm256_set1_epi32(corr[r]); 2];
            }
            for q in 0..kq {
                let bb = b.add((q * NR_I8 + off) * 4);
                let b0 = _mm256_loadu_si256(bb.cast());
                let b1 = _mm256_loadu_si256(bb.add(32).cast());
                let ar = a.add(q * MR * 4);
                for (r, regs) in acc.iter_mut().enumerate() {
                    // Four lhs steps of row r as one 32-bit broadcast.
                    let av = _mm256_set1_epi32(ar.add(r * 4).cast::<i32>().read_unaligned());
                    // Never the saturating `_mm256_dpbusds_avx_epi32`.
                    regs[0] = _mm256_dpbusd_avx_epi32(regs[0], b0, av);
                    regs[1] = _mm256_dpbusd_avx_epi32(regs[1], b1, av);
                }
            }
            for (r, regs) in acc.iter().enumerate() {
                let count = _mm_cvtsi32_si128(shl[r] as i32);
                let o = out[r].as_mut_ptr().add(off);
                for (g, &reg) in regs.iter().enumerate() {
                    let dst = o.add(8 * g).cast::<__m256i>();
                    let sum =
                        _mm256_add_epi32(_mm256_loadu_si256(dst), _mm256_sll_epi32(reg, count));
                    _mm256_storeu_si256(dst, sum);
                }
            }
        }
    }

    /// Packs `nq` full quads (4 rhs rows × 32 columns each) of a
    /// row-major i8 matrix into quad-panel blocks: `dst[(q*32 +
    /// lane)*4 + t] = src[(4q + t)*n + lane] + offset` (wrapping, so an
    /// `offset` of `-128` stores the `+128` bytes of a full-range
    /// panel). `src` starts at the panel's first column of the band's
    /// first row; rows are `n` apart. Returns the OR of every stored
    /// byte, so a `+8` caller can verify all inputs lay in `[-8, 7]`
    /// (stored bytes `≤ 15`).
    ///
    /// The byte interleave is two rounds of in-lane unpacks (8- then
    /// 16-bit) and a cross-lane permute that restores column order.
    ///
    /// # Safety
    /// AVX2 must be supported by the executing CPU.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn quads_pack_avx2(
        src: &[i8],
        n: usize,
        nq: usize,
        offset: i8,
        dst: &mut [i8],
    ) -> u8 {
        if nq == 0 {
            return 0;
        }
        assert!(src.len() >= (4 * nq - 1) * n + NR_I8 && dst.len() >= nq * NR_I8 * 4);
        let offset = _mm256_set1_epi8(offset);
        let mut seen = _mm256_setzero_si256();
        let s = src.as_ptr();
        let d = dst.as_mut_ptr();
        for q in 0..nq {
            let row = s.add(4 * q * n);
            let r0 = _mm256_loadu_si256(row.cast());
            let r1 = _mm256_loadu_si256(row.add(n).cast());
            let r2 = _mm256_loadu_si256(row.add(2 * n).cast());
            let r3 = _mm256_loadu_si256(row.add(3 * n).cast());
            let t0 = _mm256_unpacklo_epi8(r0, r1);
            let t1 = _mm256_unpackhi_epi8(r0, r1);
            let u0 = _mm256_unpacklo_epi8(r2, r3);
            let u1 = _mm256_unpackhi_epi8(r2, r3);
            // Per 128-bit lane: o0 = columns 0..4 | 16..20, o1 = 4..8 |
            // 20..24, o2 = 8..12 | 24..28, o3 = 12..16 | 28..32.
            let o0 = _mm256_unpacklo_epi16(t0, u0);
            let o1 = _mm256_unpackhi_epi16(t0, u0);
            let o2 = _mm256_unpacklo_epi16(t1, u1);
            let o3 = _mm256_unpackhi_epi16(t1, u1);
            let blocks = [
                _mm256_permute2x128_si256::<0x20>(o0, o1),
                _mm256_permute2x128_si256::<0x20>(o2, o3),
                _mm256_permute2x128_si256::<0x31>(o0, o1),
                _mm256_permute2x128_si256::<0x31>(o2, o3),
            ];
            let out = d.add(q * NR_I8 * 4);
            for (g, &blk) in blocks.iter().enumerate() {
                let v = _mm256_add_epi8(blk, offset);
                seen = _mm256_or_si256(seen, v);
                _mm256_storeu_si256(out.add(32 * g).cast(), v);
            }
        }
        let mut bytes = [0u8; 32];
        _mm256_storeu_si256(bytes.as_mut_ptr().cast(), seen);
        bytes.iter().fold(0, |acc, &v| acc | v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isa_names_are_stable() {
        assert_eq!(Isa::Avx2.name(), "avx2");
        assert_eq!(Isa::AvxVnni.name(), "avxvnni");
        assert_eq!(Isa::Scalar.name(), "scalar");
    }

    #[test]
    fn isa_tiers_are_ordered_and_vnni_implies_avx2() {
        assert!(Isa::Scalar < Isa::Avx2 && Isa::Avx2 < Isa::AvxVnni);
        assert_eq!(Isa::ALL.map(Isa::has_avx2), [false, true, true]);
        assert!(host_caps().windows(2).all(|w| w[0] < w[1]));
        assert_eq!(host_caps()[0], Isa::Scalar);
    }

    #[test]
    fn no_simd_parse_accepts_the_usual_truthy_spellings() {
        assert!(parse_no_simd(Some("1")));
        assert!(parse_no_simd(Some("true")));
        assert!(parse_no_simd(Some(" yes ")));
        assert!(parse_no_simd(Some("on")));
        assert!(!parse_no_simd(Some("0")));
        assert!(!parse_no_simd(Some("false")));
        assert!(!parse_no_simd(Some("")));
        assert!(!parse_no_simd(None));
    }

    #[test]
    fn detect_is_stable_across_calls() {
        assert_eq!(detect(), detect());
    }

    #[test]
    fn active_honors_the_overrides() {
        // Env override wins over everything; without it, the cap bounds
        // the detected ISA. Run every cap so the test is meaningful in
        // the FLEXIQ_NO_SIMD=1 CI leg too.
        let _cap = cap_lock();
        for cap in Isa::ALL {
            set_cap(Some(cap));
            let want = if env_no_simd() {
                Isa::Scalar
            } else {
                detect().min(cap)
            };
            assert_eq!(active(), want, "cap {cap:?}");
        }
        set_cap(None);
        if env_no_simd() {
            assert_eq!(active(), Isa::Scalar);
        } else {
            assert_eq!(active(), detect());
        }
    }

    #[cfg(target_arch = "x86_64")]
    mod avx2 {
        use super::super::*;
        use crate::gemm::{MR, NR, NR_I8};

        fn splat_i8(seed: u64, len: usize) -> Vec<i8> {
            let mut s = seed;
            (0..len)
                .map(|_| {
                    s = s
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ((s >> 33) as u8) as i8
                })
                .collect()
        }

        #[test]
        fn f32_tile_matches_scalar_bitwise() {
            if !detect().has_avx2() {
                return;
            }
            for kc in [0usize, 1, 3, 17, 128] {
                let ap: Vec<f32> = (0..kc * MR).map(|i| (i as f32 - 7.0) * 0.37).collect();
                let bp: Vec<f32> = (0..kc * NR).map(|i| (i as f32 - 11.0) * 0.13).collect();
                let mut base = [[0.0f32; NR]; MR];
                for (r, row) in base.iter_mut().enumerate() {
                    for (j, v) in row.iter_mut().enumerate() {
                        *v = (r * NR + j) as f32 * 0.01 - 0.1;
                    }
                }
                let mut want = base;
                for p in 0..kc {
                    for r in 0..MR {
                        let av = ap[p * MR + r];
                        for j in 0..NR {
                            want[r][j] += av * bp[p * NR + j];
                        }
                    }
                }
                let mut got = base;
                unsafe { x86::f32_tile_avx2(kc, &ap, &bp, &mut got) };
                for r in 0..MR {
                    for j in 0..NR {
                        assert_eq!(want[r][j].to_bits(), got[r][j].to_bits(), "kc={kc}");
                    }
                }
            }
        }

        #[test]
        fn i8_pairs_tile_matches_scalar() {
            if !detect().has_avx2() {
                return;
            }
            for kc in [1usize, 2, 5, 31, 128] {
                let kpairs = kc.div_ceil(2);
                let ap = splat_i8(0x5EED ^ kc as u64, kc * MR);
                let bq = splat_i8(0xB0B ^ kc as u64, kc * NR_I8);
                // Build the pair panel by hand: lane-major per pair.
                let mut bp = vec![0i32; kpairs * NR_I8];
                for pp in 0..kpairs {
                    for lane in 0..NR_I8 {
                        let b0 = bq[(2 * pp) * NR_I8 + lane];
                        let b1 = if 2 * pp + 1 < kc {
                            bq[(2 * pp + 1) * NR_I8 + lane]
                        } else {
                            0
                        };
                        bp[pp * NR_I8 + lane] =
                            ((b0 as i16 as u16 as u32) | ((b1 as i16 as u16 as u32) << 16)) as i32;
                    }
                }
                let mut want = [[0i32; NR_I8]; MR];
                for (r, row) in want.iter_mut().enumerate() {
                    for (lane, v) in row.iter_mut().enumerate() {
                        *v = (r * NR_I8 + lane) as i32 - 40;
                        for p in 0..kc {
                            *v += ap[p * MR + r] as i32 * bq[p * NR_I8 + lane] as i32;
                        }
                    }
                }
                let mut got = [[0i32; NR_I8]; MR];
                for (r, row) in got.iter_mut().enumerate() {
                    for (lane, v) in row.iter_mut().enumerate() {
                        *v = (r * NR_I8 + lane) as i32 - 40;
                    }
                }
                unsafe { x86::i8_tile_avx2(kc, &ap, &bp, &mut got) };
                assert_eq!(want, got, "kc={kc}");
            }
        }

        /// Nibble-range pseudo-random values in `[lo, hi]`.
        fn splat_range(seed: u64, len: usize, lo: i8, hi: i8) -> Vec<i8> {
            let span = (hi as i16 - lo as i16 + 1) as u16;
            splat_i8(seed, len)
                .into_iter()
                .map(|v| (lo as i16 + (v as u8 as u16 % span) as i16) as i8)
                .collect()
        }

        /// Runs the byte-quad tile of `tile` (the AVX2 dense tile under
        /// `Avx2`, the VNNI tile under `AvxVnni`) on row-major operands `a [MR, k]` and
        /// `b [k, NR_I8]` packed by hand (lhs quads zero-padded with the
        /// `-offset·Σa` correction, rhs quads offset by `+offset` and
        /// stored as wrapping bytes) and checks `out = start + (a·b) <<
        /// shl`.
        fn check_dense_tile(tile: Isa, offset: i32, k: usize, a: &[i8], b: &[i8], shl: [u32; MR]) {
            let kq = k.div_ceil(4);
            let mut ap = vec![0i8; kq * MR * 4];
            let mut corr = [0i32; MR];
            for r in 0..MR {
                for p in 0..k {
                    ap[((p / 4) * MR + r) * 4 + p % 4] = a[r * k + p];
                    corr[r] = corr[r].wrapping_sub(offset * a[r * k + p] as i32);
                }
            }
            let mut bp = vec![0i8; kq * NR_I8 * 4];
            for p in 0..k {
                for lane in 0..NR_I8 {
                    bp[((p / 4) * NR_I8 + lane) * 4 + p % 4] =
                        (b[p * NR_I8 + lane] as i32 + offset) as u8 as i8;
                }
            }
            let mut want = [[0i32; NR_I8]; MR];
            let mut got = [[0i32; NR_I8]; MR];
            for r in 0..MR {
                for lane in 0..NR_I8 {
                    let start = (r * NR_I8 + lane) as i32 - 77;
                    let dot: i32 = (0..k)
                        .map(|p| a[r * k + p] as i32 * b[p * NR_I8 + lane] as i32)
                        .sum();
                    want[r][lane] = start + (dot << shl[r]);
                    got[r][lane] = start;
                }
            }
            let out = &mut got;
            unsafe {
                match tile {
                    Isa::AvxVnni => x86::i8_tile_quads_vnni(kq, &ap, &bp, &corr, &shl, out),
                    _ => x86::i8_tile_dense_avx2(kq, &ap, &bp, &corr, &shl, out),
                }
            };
            assert_eq!(want, got, "{tile:?} k={k} offset={offset}");
        }

        /// The byte-quad tiles this host can run, each with the panel
        /// offsets it is exact under: the AVX2 tile only at `+8` on
        /// `[-8, 7]` operands, the VNNI tile at `+8` and at `+128`.
        fn quad_tiles() -> Vec<(Isa, &'static [i32])> {
            let offsets = |isa| match isa {
                Isa::AvxVnni => &[8, 128][..],
                _ => &[8][..],
            };
            let host = Isa::ALL
                .into_iter()
                .filter(|&isa| isa.has_avx2() && isa <= detect());
            host.map(|isa| (isa, offsets(isa))).collect()
        }

        #[test]
        fn dense_tile_matches_scalar_across_extents_and_tails() {
            // Odd tails (k % 4 != 0), one quad, and extents straddling
            // the dense tile's i16 accumulation limit of
            // DENSE_I16_STEPS quads.
            let limit = 4 * DENSE_I16_STEPS;
            for (tile, offsets) in quad_tiles() {
                for k in [
                    1usize,
                    3,
                    4,
                    5,
                    27,
                    36,
                    127,
                    limit - 3,
                    limit,
                    limit + 1,
                    2 * limit + 6,
                ] {
                    let a = splat_range(0xA ^ k as u64, MR * k, -8, 7);
                    let b = splat_range(0xB ^ k as u64, k * NR_I8, -8, 7);
                    let a2 = splat_range(0xC ^ k as u64, MR * k, -2, 1);
                    for &offset in offsets {
                        check_dense_tile(tile, offset, k, &a, &b, [0, 1, 4, 8]);
                        check_dense_tile(tile, offset, k, &a2, &b, [3, 0, 2, 12]);
                    }
                    if offsets.contains(&128) {
                        let a = splat_i8(0xD ^ k as u64, MR * k);
                        let b = splat_i8(0xE ^ k as u64, k * NR_I8);
                        check_dense_tile(tile, 128, k, &a, &b, [0, 1, 2, 0]);
                    }
                }
            }
        }

        #[test]
        fn dense_tile_is_exact_at_the_lane_extremes() {
            // Constant operands drive every lane monotonically to its
            // bound. At +8, lhs -8 against offset-side 15 (b = 7) is the
            // -240 pair sum the dense tile's accumulation limit is
            // derived from; +7 against 15 the positive extreme;
            // offset-side 0 (b = -8) the case where only the correction
            // carries the answer. At +128 the four full-range corners run
            // at K = 70 000, where `Σ a·(b + 128)` wraps the i32
            // accumulator mid-sum and the final sum must still be exact.
            let limit = 4 * DENSE_I16_STEPS;
            for (tile, offsets) in quad_tiles() {
                for k in [limit, limit + 4, 3 * limit] {
                    for (av, bv) in [(-8i8, 7i8), (7, 7), (-8, -8), (7, -8)] {
                        let (a, b) = (vec![av; MR * k], vec![bv; k * NR_I8]);
                        check_dense_tile(tile, 8, k, &a, &b, [0, 0, 1, 2]);
                    }
                }
                if offsets.contains(&128) {
                    let k = 70_000;
                    for (av, bv) in [(-128i8, 127i8), (-128, -128), (127, 127), (127, -128)] {
                        let (a, b) = (vec![av; MR * k], vec![bv; k * NR_I8]);
                        check_dense_tile(tile, 128, k, &a, &b, [0; MR]);
                    }
                }
            }
        }

        #[test]
        fn quads_pack_matches_the_scalar_layout_and_reports_range() {
            if !detect().has_avx2() {
                return;
            }
            let (n, nq, j0) = (75usize, 5usize, 11usize);
            let src = splat_range(0xD, 4 * nq * n, -8, 7);
            let mut got = vec![0i8; nq * NR_I8 * 4];
            // In-range operands at both offsets, then one value just
            // outside [-8, 7], on either side, that the +8 range check
            // must see.
            let mut cases = vec![(None, 8i8), (None, -128)];
            cases.extend([8i8, -9, 127, -128].map(|bad| (Some(bad), 8)));
            for (bad, offset) in cases {
                let mut src = src.clone();
                if let Some(bad) = bad {
                    src[7 * n + j0 + 19] = bad;
                }
                let seen = unsafe { x86::quads_pack_avx2(&src[j0..], n, nq, offset, &mut got) };
                match bad {
                    Some(bad) => assert!(seen > 15, "{bad} went unnoticed"),
                    None if offset == 8 => assert!(seen <= 15),
                    None => {}
                }
                for q in 0..nq {
                    for lane in 0..NR_I8 {
                        for t in 0..4 {
                            let want = src[(4 * q + t) * n + j0 + lane].wrapping_add(offset);
                            assert_eq!(
                                got[(q * NR_I8 + lane) * 4 + t],
                                want,
                                "q={q} lane={lane} t={t} offset={offset}"
                            );
                        }
                    }
                }
            }
        }
    }
}
