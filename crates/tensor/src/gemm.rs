//! Blocked, packed GEMM micro-kernels (f32 and integer).
//!
//! These kernels are the ground truth for the functional GPU/NPU simulator
//! kernels in `flexiq-gpu-sim` and `flexiq-npu-sim`: every mixed-precision
//! result produced there must match the plain integer GEMM of the
//! dequantization-equivalent operands computed here. The naive loops that
//! used to live here survive in `reference` — the blocked kernels are
//! property-tested bit-exact against them across shapes, bands, layouts,
//! and thread counts.
//!
//! # Blocking and packing
//!
//! Large GEMMs run as a cache-blocked micro-kernel family instead of a
//! naive triple loop:
//!
//! * the reduction dimension is split into [`KC`]-step blocks and output
//!   rows into [`MC`]-step blocks, so the working set of one block pass
//!   stays cache-resident;
//! * the rhs is packed **once per call** into column panels of [`NR`]
//!   lanes (`[panel][p][lane]`, zero-padded tail lanes) and reused by
//!   every row band and k-block — i8 weight/activation panels therefore
//!   pack once per layer pass;
//! * the lhs is packed per (row-block × k-block) into [`MR`]-interleaved
//!   tiles from a thread-local scratch buffer ([`crate::scratch`]), so
//!   steady-state calls allocate nothing;
//! * the inner kernel computes an `MR × NR` output tile in registers.
//!
//! Small GEMMs (below a few thousand multiply-adds) skip packing and run
//! the reference loops — for them the pack traffic would cost more than
//! the arithmetic.
//!
//! # Bit-exactness
//!
//! The f32 micro-kernel **loads its accumulator tile from `c` and stores
//! it back after each k-block, processing k-blocks in ascending order**:
//! every output element receives exactly the same sequence of rounded
//! multiply-adds, in the same order, as the naive `i-p-j` loop. Blocked
//! f32 results are therefore bit-identical to [`reference::gemm_f32`] —
//! not merely close — and all batched/parallel equivalence guarantees
//! below hold through the blocked path unchanged. Integer kernels
//! accumulate into `i32` (the accumulator width of both the NPU's MAC
//! tree and the GPU's MMA instructions), where order is immaterial.
//!
//! # Zero-skip semantics
//!
//! The **integer** kernels skip reduction steps whose lhs element is zero:
//! `0 * b == 0` holds exactly in integer arithmetic, so the skip is a pure
//! optimization (bit-lowered 4-bit operands are sparse). The f32 kernels
//! must **not** skip — `0.0 * NaN` is `NaN` and `0.0 * inf` is `NaN`, so
//! skipping would silently suppress NaN/Inf propagation from the rhs.
//!
//! # Layouts
//!
//! A batch of `nb` samples is **stacked along `n`**: the rhs of
//! [`gemm_f32`] / [`gemm_i8_band`] is then `[k, nb*n]` with sample `s`
//! in columns `[s*n, (s+1)*n)`, and `c` is `[m, nb*n]` in the same
//! layout. Each output element's reduction order is identical to a
//! per-sample call, so batched results are bit-exact with single-sample
//! results while the lhs row (the weights) is streamed across the whole
//! batch.
//!
//! The `*_wt` variants take the rhs in **weight layout** `[n, k]`
//! (row-major, i.e. transposed): rhs column `j` is row `j` of the weight
//! matrix. This is the natural layout of `Linear` weights (`[C_out,
//! C_in]`), so the linear layers feed the packed kernels without
//! materializing a transpose — packing reads the transposed source
//! directly.
//!
//! # Parallelism
//!
//! Large GEMMs fan across the ambient [`flexiq_parallel`] pool in
//! contiguous **row bands** of whole `MR`-row tiles — the one place a
//! forward pass fans out. Each band writes its own contiguous rows of
//! `c`, and every element keeps its exact serial reduction order over
//! `p`, so parallel results are bit-exact with serial ones at any
//! thread count (f32 included — no float sum is reordered). GEMMs below
//! `PAR_MIN_WORK` multiply-adds, or with fewer than two row tiles,
//! stay serial.
//!
//! # ISA dispatch
//!
//! Full `MR × NR` / `MR × NR_I8` tiles dispatch to explicit SIMD
//! kernels in [`crate::simd`] when the running CPU supports them
//! (AVX2 on x86-64; detected once per process,
//! `FLEXIQ_NO_SIMD=1` forces the scalar tiles). Edge tiles and
//! sub-threshold problems always run the scalar/reference code. The
//! AVX2 integer path packs its rhs into a dedicated `pmaddwd` *pair*
//! panel (the `I8Pairs` kernel); every other ISA shares the plain
//! panels. All paths are bit-identical — the f32 SIMD tiles keep
//! per-element k-accumulation in ascending order with unfused
//! multiply-adds, and integer tiles are exact in `i32` regardless of
//! lane order (see [`crate::simd`] for the full contract). The SIMD
//! integer tiles do **not** zero-skip: their branch-free throughput
//! beats skipping, and integer results are exact either way. The f32
//! blocking floor [`BLOCK_MIN_RHS_F32`] applies to the scalar tiles
//! only — the SIMD f32 tile wins from the generic [`BLOCK_MIN_WORK`]
//! threshold, so small shapes block as soon as a SIMD ISA is active.
//!
//! # Low-precision bands
//!
//! A bit-lowered band of a mixed-precision convolution does not end at
//! its sum: the sum re-enters the 8-bit accumulator scale by a left
//! shift of the band's extraction positions (the paper's *bit-shifted
//! accumulation*). [`gemm_i8_low_bands`] takes that shift as the
//! **write-back** of the integer kernels — every tile and reference
//! loop adds `sum << (act + weight[row])` straight into `c`, one weight
//! shift per output row ([`LowBandLhs`]) — so a band needs no scratch
//! matrix and no second pass, and a run of consecutive bands is one
//! call that packs the activations once and visits each output tile
//! once. Operands lowered to four bits or fewer lie in `[-8, 7]`; where
//! the ISA has a dense low-range tile (AVX2's `vpmaddubsw` tile over
//! byte-quad panels, exactness argued in [`crate::simd`]) such a run
//! takes it, with the lowered weights prepacked as lhs tiles inside
//! [`LowBandLhs`]. Everything else runs the ordinary i8 kernels with
//! the same write-back; all of it is exact in `i32`. (A linear layer
//! needs none of this: its shifts fold into round-tripped operands, and
//! it runs as one plain prepacked GEMM.)
//!
//! # Prepacked weights
//!
//! The rhs of a weight GEMM is immutable across calls, so its pack
//! stage can run **once ahead of time**: [`prepack_i8_wt_band`] builds
//! an owned [`PackedRhsI8`] holding exactly the panels a per-call pack
//! would produce, and [`gemm_i8_band_wt_prepacked`] feeds them straight
//! to the driver (as [`LowBandLhs`] does for the lowered bands'
//! dense tiles). Whether a panel is consumed is decided by the call's
//! inputs, never by a setting: it is used wherever the problem blocks
//! (the per-call path would have packed the same full-width rhs once),
//! and the per-call code runs everywhere else — sub-threshold shapes
//! that run the reference loops, and panels or lhs tiles built in
//! another ISA's format than the one dispatching now. Prepacked results
//! are therefore bit-identical to the per-call entry points by
//! construction.
//!
//! # One driver, many kernels
//!
//! Everything above is one loop nest. A private `Kernel` description
//! names what differs between the f32, plain-i8 and AVX2 pair-panel
//! families — element, accumulator and panel types, the lane count, the
//! rhs packer, where a k-block sits inside a panel, the `MR × NR` tile
//! with its write-back, and the reference-order loop for sub-threshold
//! shapes — and the generic `blocked` walk plus the `run_plan`
//! dispatcher (row-band planning, the one rhs pack, prepacked-panel
//! substitution, packed-byte accounting) are written once over it. The
//! ISA picks the kernel at the top of a call, so the
//! generics monomorphise: no `dyn`, no function pointer inside the
//! nest. Adding a tile or a panel format means one more `Kernel` impl
//! (a packer and a tile) and one arm where the entry points pick a
//! kernel — no new driver, plan match or public function. The dense
//! low-range run goes through the same dispatcher with its own tile
//! loop: its lhs tiles are prepacked and span whole bands, not `KC`
//! blocks.

use std::mem::size_of;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use flexiq_parallel::{chunk_ranges_into, put_ranges, take_ranges, ThreadPool};

use crate::scratch::Pooled;
use crate::simd::{self, Isa};

/// Minimum multiply-add count (`m*n*k`) before a GEMM fans its output
/// row bands across the thread pool.
const PAR_MIN_WORK: usize = 64 * 1024;

/// Minimum multiply-add count before packing + blocking pays for itself;
/// smaller problems run the `reference` loops directly.
pub const BLOCK_MIN_WORK: usize = 8 * 1024;

/// Minimum rhs extent (`kb * n` elements) before the **f32** kernels
/// block. The naive f32 loop already streams its rhs/output rows
/// contiguously and vectorizes well; packing only pays once the rhs
/// stops fitting in cache and naive's `m`-fold re-streaming becomes the
/// bottleneck (measured crossover ≈ 1 MB). The integer kernels have no
/// such floor — their win is register tiling around the expensive
/// widening lane math, which pays even cache-resident.
pub const BLOCK_MIN_RHS_F32: usize = 256 * 1024;

/// Register-tile rows (lhs values held per micro-kernel step).
pub const MR: usize = 4;

/// Register-tile columns (rhs panel lane count) of the f32 kernels.
pub const NR: usize = 8;

/// Rhs panel lane count of the integer kernels. Wider than f32: the
/// widening `i8×i8→i32` lane math has more per-row overhead (the
/// zero-skip branch, sign extension), so longer branch-free runs
/// amortize it better while a `KC × NR_I8` i8 panel segment still sits
/// comfortably in L1.
pub const NR_I8: usize = 32;

/// Reduction-dimension block: one lhs tile of `MR * KC` elements streams
/// against packed rhs panels while the output tile stays in registers.
pub const KC: usize = 128;

/// Output-row block: rows packed (and kept hot) per k-block pass.
pub const MC: usize = 64;

/// How a kernel reads its rhs operand.
#[derive(Clone, Copy)]
enum Rhs<'a, T> {
    /// Row-major `[k, n]` — the classic GEMM rhs (and the column-stacked
    /// batched layout, where `n` counts all stacked columns).
    Rows { b: &'a [T], n: usize },
    /// Weight layout `[n, k]` row-major: rhs column `j` is row `j` of
    /// `w` — the transposed rhs the linear layers hold natively.
    WeightT { w: &'a [T], k: usize },
}

/// One call's operands over its reduction band `[k0, k1)`: lhs row `i`
/// is `a[i*lda + k0..i*lda + k1]` — `lda` is independent of the rhs
/// extent, so a band of a wider activation matrix is read in place.
#[derive(Clone, Copy)]
struct Operands<'a, T> {
    a: &'a [T],
    lda: usize,
    rhs: Rhs<'a, T>,
    k0: usize,
    k1: usize,
}

impl<'a, T> Operands<'a, T> {
    fn new(a: &'a [T], lda: usize, rhs: Rhs<'a, T>, k0: usize, k1: usize) -> Self {
        Operands {
            a,
            lda,
            rhs,
            k0,
            k1,
        }
    }
}

/// The pool and row bands an `[m, n]` output with a `kb`-step reduction
/// fans out over, or `None` to run serially: below [`PAR_MIN_WORK`], on
/// a 1-thread pool, inside a pool task (a nested run would inline
/// anyway, so the pool lookup — which may lazily spawn the global pool
/// — is skipped), or with fewer than two row tiles to split.
///
/// Bands are whole `MR`-row register tiles (the last may be ragged): a
/// band that splits a tile makes both halves pack and compute a full,
/// half-empty one, and prepacked lhs tiles can only be consumed whole.
/// It oversplits ~4× the thread count so dynamic claiming balances
/// bands of uneven cost. The band vector comes from the thread-local
/// range pool (the dispatcher returns it), so planning is
/// allocation-free in steady state.
fn row_bands(m: usize, n: usize, kb: usize) -> Option<(Arc<ThreadPool>, Vec<Range<usize>>)> {
    if flexiq_parallel::in_task() || m * n * kb < PAR_MIN_WORK || m <= MR {
        return None;
    }
    let pool = flexiq_parallel::current();
    let t = pool.threads();
    if t < 2 {
        return None;
    }
    let mut bands = take_ranges();
    chunk_ranges_into(m.div_ceil(MR), t * 4, &mut bands);
    for band in &mut bands {
        *band = band.start * MR..(band.end * MR).min(m);
    }
    Some((pool, bands))
}

/// Whether a problem is worth packing + blocking (vs the reference
/// loop). `min_rhs` is the per-dtype rhs-extent floor (see
/// [`BLOCK_MIN_RHS_F32`]).
fn worth_blocking(m: usize, n: usize, kb: usize, nr: usize, min_rhs: usize) -> bool {
    m >= 2 && n >= nr && m * n * kb >= BLOCK_MIN_WORK && kb * n >= min_rhs
}

// ─── Packing ────────────────────────────────────────────────────────────

/// Packs the `ncols` rhs columns of the reduction band `[k0, k1)` into
/// `NR_`-lane column panels: `buf[(jp*kb + p)*NR_ + lane]`, with tail
/// lanes zero-filled.
fn pack_b_panels<T: Copy + Default, const NR_: usize>(
    rhs: Rhs<'_, T>,
    k0: usize,
    k1: usize,
    ncols: usize,
    buf: &mut Vec<T>,
) {
    let kb = k1 - k0;
    let npan = ncols.div_ceil(NR_);
    buf.clear();
    buf.resize(npan * kb * NR_, T::default());
    match rhs {
        Rhs::Rows { b, n } => {
            for jp in 0..npan {
                let j0 = jp * NR_;
                let w = (ncols - j0).min(NR_);
                let base = jp * kb * NR_;
                for p in 0..kb {
                    buf[base + p * NR_..base + p * NR_ + w]
                        .copy_from_slice(&b[(k0 + p) * n + j0..(k0 + p) * n + j0 + w]);
                }
            }
        }
        Rhs::WeightT { w, k } => {
            for jp in 0..npan {
                let j0 = jp * NR_;
                let lanes = (ncols - j0).min(NR_);
                let base = jp * kb * NR_;
                for lane in 0..lanes {
                    let wrow = &w[(j0 + lane) * k..(j0 + lane) * k + k];
                    for p in 0..kb {
                        buf[base + p * NR_ + lane] = wrow[k0 + p];
                    }
                }
            }
        }
    }
}

/// Packs lhs rows `rows` of the reduction block `kr` into
/// `MR`-interleaved tiles: `buf[(it*kcb + p)*MR + r]`, with tail rows
/// zero-filled.
fn pack_a_tiles<T: Copy + Default>(
    a: &[T],
    lda: usize,
    rows: Range<usize>,
    kr: Range<usize>,
    buf: &mut Vec<T>,
) {
    let kcb = kr.len();
    let ntiles = rows.len().div_ceil(MR);
    buf.clear();
    buf.resize(ntiles * kcb * MR, T::default());
    for it in 0..ntiles {
        let base = it * kcb * MR;
        for r in 0..MR {
            let i = rows.start + it * MR + r;
            if i >= rows.end {
                break;
            }
            let arow = &a[i * lda + kr.start..i * lda + kr.end];
            for (p, &v) in arow.iter().enumerate() {
                buf[base + p * MR + r] = v;
            }
        }
    }
}

/// Transpose-tile edge of the f32 weight-layout packer: an 8×8 f32
/// block spans one cache line per weight row and one per panel row, so
/// a tile's reads and writes each move whole lines.
const WT_TILE: usize = 8;
const _: () = assert!(WT_TILE == NR);

// The AVX2 pair panel assumes k-blocks start on pair boundaries; any
// even KC guarantees it (only the final block of a band can be odd).
const _: () = assert!(KC % 2 == 0);

// ─── Prepacked rhs operands ─────────────────────────────────────────────

/// Owned i8 panel storage of a [`PackedRhsI8`], in whichever format the
/// packing ISA's kernel consumes: plain panels everywhere, `pmaddwd`
/// pair panels under AVX2.
#[derive(Debug, Clone)]
enum PanelsI8 {
    Plain(Vec<i8>),
    #[cfg(target_arch = "x86_64")]
    Pairs(Vec<i32>),
}

/// An owned, ahead-of-time packed i8 rhs, in the panel format of the
/// ISA active at construction time. A call dispatching a kernel that
/// reads the other format packs per call rather than feed a foreign
/// panel to its tiles.
#[derive(Debug, Clone)]
pub struct PackedRhsI8 {
    panels: PanelsI8,
    n: usize,
    k0: usize,
    k1: usize,
}

impl PackedRhsI8 {
    /// Bytes held by the packed panels.
    pub fn bytes(&self) -> usize {
        match &self.panels {
            PanelsI8::Plain(buf) => buf.len(),
            #[cfg(target_arch = "x86_64")]
            PanelsI8::Pairs(buf) => buf.len() * size_of::<i32>(),
        }
    }
}

/// Packs an i8 rhs into owned panels in `isa`'s format.
fn prepack_i8_rhs(isa: Isa, rhs: Rhs<'_, i8>, n: usize, k0: usize, k1: usize) -> PackedRhsI8 {
    let panels = match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => {
            let mut buf = Vec::new();
            I8Pairs::pack_b(rhs, k0, k1, n, &mut buf);
            PanelsI8::Pairs(buf)
        }
        _ => {
            let mut buf = Vec::new();
            I8Plain::pack_b(rhs, k0, k1, n, &mut buf);
            PanelsI8::Plain(buf)
        }
    };
    PackedRhsI8 { panels, n, k0, k1 }
}

/// Prepacks the reduction band `[k0, k1)` of a weight-layout i8 rhs
/// `w [n, k]` for [`gemm_i8_band_wt_prepacked`] over the same band.
/// The driver indexes panels relative to the band start, so a panel
/// serves exactly the band it was packed for.
pub fn prepack_i8_wt_band(n: usize, k: usize, k0: usize, k1: usize, w: &[i8]) -> PackedRhsI8 {
    assert!(k0 <= k1 && k1 <= k, "invalid band [{k0}, {k1}) for k={k}");
    assert!(w.len() >= n * k, "rhs buffer too small");
    prepack_i8_rhs(simd::active(), Rhs::WeightT { w, k }, n, k0, k1)
}

// ─── Write-back ─────────────────────────────────────────────────────────

/// Largest total shift a shifted write-back accepts. Bit-lowering shifts
/// top out at 6 per operand (8-bit source, 2-bit target), so 16 is
/// generous — and it keeps a single shifted product
/// (`128·128 << 16 = 2^30`) inside `i32`, which lets the reference-order
/// loops fold a row shift into the lhs scalar.
pub const MAX_EPILOGUE_SHIFT: u8 = 16;

/// How an integer band's reduction sums reach `c` — the write-back
/// epilogue of the integer tiles and the reference-order loops.
///
/// The shifted form is the paper's *bit-shifted accumulation*: a 4-bit
/// convolution band's partial sum re-enters the 8-bit accumulator scale
/// by a left shift of `act + weight[row]`, where `act` is the band's
/// activation extraction shift and `weight` holds one extraction shift
/// per weight output channel — the output rows, since the weights are
/// the lhs. Shifts distribute over integer addition, so applying the
/// epilogue per k-block equals applying it to the whole band's sum.
#[derive(Clone, Copy)]
enum Epilogue<'a> {
    /// `c[i][j] += sum`.
    Add,
    /// `c[i][j] += sum << (act + weight[i])`.
    ShlRows { act: u8, weight: &'a [u8] },
}

impl<'a> Epilogue<'a> {
    /// The epilogue of output row band `rows`, re-based so the band's
    /// rows index it from zero (columns are never split).
    fn block(self, rows: Range<usize>) -> Epilogue<'a> {
        match self {
            Epilogue::ShlRows { act, weight } => Epilogue::ShlRows {
                act,
                weight: &weight[rows],
            },
            epi => epi,
        }
    }

    /// Checks the shift vector against the output extent it indexes
    /// and the [`MAX_EPILOGUE_SHIFT`] bound.
    fn validate(self, m: usize) {
        let (act, weight, extent) = match self {
            Epilogue::Add => return,
            Epilogue::ShlRows { act, weight } => (act, weight, m),
        };
        assert!(weight.len() >= extent, "shift vector too short");
        assert!(
            weight[..extent]
                .iter()
                .all(|&w| act as u32 + w as u32 <= MAX_EPILOGUE_SHIFT as u32),
            "write-back shift above {MAX_EPILOGUE_SHIFT}"
        );
    }
}

/// The accumulator tile a micro-kernel starts from: the current `c`
/// values under [`Epilogue::Add`] (the tile is stored back verbatim),
/// zeros under the shifted forms (the tile holds the bare band sum
/// until [`tile_write_back`] shifts it in).
#[inline]
fn tile_init(
    epi: Epilogue<'_>,
    c: &[i32],
    n: usize,
    r0: usize,
    col0: usize,
    mr: usize,
    nrw: usize,
) -> [[i32; NR_I8]; MR] {
    let mut acc = [[0i32; NR_I8]; MR];
    if let Epilogue::Add = epi {
        for r in 0..mr {
            acc[r][..nrw].copy_from_slice(&c[(r0 + r) * n + col0..][..nrw]);
        }
    }
    acc
}

/// Writes a finished accumulator tile into `c` under `epi`.
#[inline]
fn tile_write_back(
    epi: Epilogue<'_>,
    acc: &[[i32; NR_I8]; MR],
    c: &mut [i32],
    n: usize,
    r0: usize,
    col0: usize,
    mr: usize,
    nrw: usize,
) {
    for r in 0..mr {
        let crow = &mut c[(r0 + r) * n + col0..][..nrw];
        let sums = &acc[r][..nrw];
        match epi {
            Epilogue::Add => crow.copy_from_slice(sums),
            Epilogue::ShlRows { act, weight } => {
                let sh = (act + weight[r0 + r]) as u32;
                for (cj, &v) in crow.iter_mut().zip(sums) {
                    *cj += v << sh;
                }
            }
        }
    }
}

// ─── Kernel descriptions ────────────────────────────────────────────────

/// Everything that differs between the blocked kernel families; the
/// [`blocked`] walk and the [`run_plan`] dispatcher are written once
/// over it. A value carries the per-call state its tile needs (the
/// dispatched ISA, the integer write-back). Every tile reads its lhs
/// from the `MR`-interleaved tiles of [`pack_a_tiles`]. A new tile or
/// panel format is one more impl of this trait — see the module docs.
trait Kernel: Copy + Sync {
    /// Operand element.
    type Elem: Pooled;
    /// Output (accumulator) element.
    type Acc: Send;
    /// Packed rhs panel element.
    type Panel: Pooled;
    /// Rhs panel lane count (register-tile columns).
    const NR: usize;

    /// Rhs-extent floor (`kb * n` elements) below which this kernel's
    /// tile loses to the reference loop.
    fn min_rhs(self) -> usize {
        0
    }

    /// This kernel with its write-back re-based onto output row band
    /// `rows`, so the band's rows index it from zero.
    fn block(self, _rows: Range<usize>) -> Self {
        self
    }

    /// Packs the `ncols` rhs columns of the reduction band `[k0, k1)`
    /// into [`Kernel::NR`]-lane column panels.
    fn pack_b(
        rhs: Rhs<'_, Self::Elem>,
        k0: usize,
        k1: usize,
        ncols: usize,
        buf: &mut Vec<Self::Panel>,
    );

    /// Where band-relative reduction steps `[p0, p1)` of panel `jp` sit
    /// in a panel buffer packed over a `kb`-step band (`p0` is a k-block
    /// start, a multiple of [`KC`]). By default one element per lane per
    /// step.
    #[inline]
    fn panel_seg(kb: usize, jp: usize, p0: usize, p1: usize) -> Range<usize> {
        (jp * kb + p0) * Self::NR..(jp * kb + p1) * Self::NR
    }

    /// One `mr × nrw` output tile at `(r0, col0)` of the row-major
    /// output `c` of row stride `n`: streams `kc` packed steps and writes
    /// the result back.
    fn tile(
        self,
        kc: usize,
        ap: &[Self::Elem],
        bp: &[Self::Panel],
        mr: usize,
        nrw: usize,
        c: &mut [Self::Acc],
        n: usize,
        r0: usize,
        col0: usize,
    );

    /// The reference-order loop over lhs rows `rows` into `c`, that row
    /// band of the output (row stride `n`), for shapes below the
    /// blocking threshold.
    fn naive(
        self,
        ops: Operands<'_, Self::Elem>,
        rows: Range<usize>,
        c: &mut [Self::Acc],
        n: usize,
    );
}

/// The f32 family: [`NR`]-lane f32 panels, scalar/AVX2 tiles.
#[derive(Clone, Copy)]
struct F32Kernel {
    isa: Isa,
}

impl Kernel for F32Kernel {
    type Elem = f32;
    type Acc = f32;
    type Panel = f32;
    const NR: usize = NR;

    /// The scalar f32 tile only beats the naive loop once the rhs stops
    /// fitting in cache ([`BLOCK_MIN_RHS_F32`]); the explicit SIMD tiles
    /// win from the generic [`BLOCK_MIN_WORK`] threshold, so they get
    /// no extra floor.
    fn min_rhs(self) -> usize {
        match self.isa {
            Isa::Scalar => BLOCK_MIN_RHS_F32,
            _ => 0,
        }
    }

    /// `Rows` sources copy whole panel rows through the generic packer.
    /// `WeightT` sources run a blocked 8×8 transpose instead of the
    /// generic per-lane strided scatter: each full tile reads
    /// [`WT_TILE`] consecutive elements of [`NR`] weight rows into
    /// registers and writes [`WT_TILE`] consecutive `NR`-lane panel
    /// rows, so neither side strides across cache lines (the generic
    /// arm's lane-major fill revisits every panel line [`NR`] times,
    /// which falls out of L1 once `kb` is a few hundred). Only the fill
    /// *order* differs — the packed layout, and therefore every
    /// consumer, is unchanged, and edge tiles (lane or k tails) keep
    /// the generic walk.
    fn pack_b(rhs: Rhs<'_, f32>, k0: usize, k1: usize, ncols: usize, buf: &mut Vec<f32>) {
        let (w, k) = match rhs {
            Rhs::Rows { .. } => return pack_b_panels::<f32, NR>(rhs, k0, k1, ncols, buf),
            Rhs::WeightT { w, k } => (w, k),
        };
        let kb = k1 - k0;
        let npan = ncols.div_ceil(NR);
        buf.clear();
        buf.resize(npan * kb * NR, 0.0);
        for jp in 0..npan {
            let j0 = jp * NR;
            let lanes = (ncols - j0).min(NR);
            let base = jp * kb * NR;
            let mut p0 = 0;
            while p0 < kb {
                let pt = (kb - p0).min(WT_TILE);
                if lanes == NR && pt == WT_TILE {
                    let mut tile = [[0.0f32; WT_TILE]; NR];
                    for (lane, row) in tile.iter_mut().enumerate() {
                        let src = (j0 + lane) * k + k0 + p0;
                        row.copy_from_slice(&w[src..src + WT_TILE]);
                    }
                    for (t, _) in tile.iter().enumerate() {
                        let dst = &mut buf[base + (p0 + t) * NR..base + (p0 + t) * NR + NR];
                        for (lane, row) in tile.iter().enumerate() {
                            dst[lane] = row[t];
                        }
                    }
                } else {
                    for lane in 0..lanes {
                        let wrow = &w[(j0 + lane) * k..(j0 + lane) * k + k];
                        for p in p0..p0 + pt {
                            buf[base + p * NR + lane] = wrow[k0 + p];
                        }
                    }
                }
                p0 += pt;
            }
        }
    }

    /// Loads the tile from `c`, streams `kc` packed steps, stores back.
    /// Loading from `c` (instead of zeroing) is what keeps the
    /// per-element accumulation order identical to the naive loop
    /// across k-blocks — see the module docs. Full tiles dispatch to
    /// the explicit SIMD kernel of the ISA (bit-identical; unfused
    /// mul+add in ascending k order); edges always run the scalar loop.
    #[inline]
    fn tile(
        self,
        kc: usize,
        ap: &[f32],
        bp: &[f32],
        mr: usize,
        nrw: usize,
        c: &mut [f32],
        n: usize,
        r0: usize,
        col0: usize,
    ) {
        let mut acc = [[0.0f32; NR]; MR];
        for r in 0..mr {
            acc[r][..nrw].copy_from_slice(&c[(r0 + r) * n + col0..][..nrw]);
        }
        // Pre-slice to the exact step extent so the inner loops carry no
        // bounds checks.
        let ap = &ap[..kc * MR];
        let bp = &bp[..kc * NR];
        if mr == MR && nrw == NR {
            match self.isa {
                #[cfg(target_arch = "x86_64")]
                // SAFETY: `isa == Avx2` only after runtime detection.
                Isa::Avx2 => unsafe { simd::x86::f32_tile_avx2(kc, ap, bp, &mut acc) },
                _ => {
                    // Full scalar tile: fixed-size loops the compiler
                    // unrolls and keeps in registers. No zero-skip — f32
                    // must propagate NaN/Inf.
                    for p in 0..kc {
                        let ar = &ap[p * MR..p * MR + MR];
                        let br = &bp[p * NR..p * NR + NR];
                        for r in 0..MR {
                            let av = ar[r];
                            for j in 0..NR {
                                acc[r][j] += av * br[j];
                            }
                        }
                    }
                }
            }
        } else {
            for p in 0..kc {
                let ar = &ap[p * MR..p * MR + MR];
                let br = &bp[p * NR..p * NR + NR];
                for (r, accr) in acc.iter_mut().enumerate().take(mr) {
                    let av = ar[r];
                    for j in 0..nrw {
                        accr[j] += av * br[j];
                    }
                }
            }
        }
        for r in 0..mr {
            c[(r0 + r) * n + col0..][..nrw].copy_from_slice(&acc[r][..nrw]);
        }
    }

    /// Per element, terms are added in ascending `p` order to the
    /// running value — exactly the blocked kernel's (and the old
    /// `i-p-j` loop's) order.
    fn naive(self, ops: Operands<'_, f32>, rows: Range<usize>, c: &mut [f32], n: usize) {
        let (a, lda, rhs, k0, k1) = (ops.a, ops.lda, ops.rhs, ops.k0, ops.k1);
        match rhs {
            Rhs::Rows { b, n: ldb } => {
                for (crow, i) in c.chunks_exact_mut(n).zip(rows) {
                    for p in k0..k1 {
                        // No zero-skip: f32 must propagate NaN/Inf from `b`
                        // (see the module docs); skipping is integer-only.
                        let av = a[i * lda + p];
                        for (cj, &bv) in crow.iter_mut().zip(&b[p * ldb..p * ldb + n]) {
                            *cj += av * bv;
                        }
                    }
                }
            }
            Rhs::WeightT { w, k } => {
                for (crow, i) in c.chunks_exact_mut(n).zip(rows) {
                    let arow = &a[i * lda + k0..i * lda + k1];
                    for (j, cj) in crow.iter_mut().enumerate() {
                        let wrow = &w[j * k + k0..j * k + k1];
                        let mut acc = *cj;
                        for (av, wv) in arow.iter().zip(wrow.iter()) {
                            acc += av * wv;
                        }
                        *cj = acc;
                    }
                }
            }
        }
    }
}

/// The plain-panel integer family: [`NR_I8`]-lane i8 panels, scalar
/// tiles. The AVX2 path never reaches this kernel — it uses the
/// pair panel via [`I8Pairs`].
#[derive(Clone, Copy)]
struct I8Plain<'a> {
    epi: Epilogue<'a>,
}

impl Kernel for I8Plain<'_> {
    type Elem = i8;
    type Acc = i32;
    type Panel = i8;
    const NR: usize = NR_I8;

    fn block(self, rows: Range<usize>) -> Self {
        let epi = self.epi.block(rows);
        I8Plain { epi }
    }

    fn pack_b(rhs: Rhs<'_, i8>, k0: usize, k1: usize, ncols: usize, buf: &mut Vec<i8>) {
        pack_b_panels::<i8, NR_I8>(rhs, k0, k1, ncols, buf)
    }

    /// Zero lhs lanes are skipped in the scalar tile — exact in integer
    /// arithmetic, and the bit-lowered 4-bit operands the
    /// mixed-precision engines feed in here are sparse enough for the
    /// branch to pay.
    #[inline]
    fn tile(
        self,
        kc: usize,
        ap: &[i8],
        bp: &[i8],
        mr: usize,
        nrw: usize,
        c: &mut [i32],
        n: usize,
        r0: usize,
        col0: usize,
    ) {
        let mut acc = tile_init(self.epi, c, n, r0, col0, mr, nrw);
        let ap = &ap[..kc * MR];
        let bp = &bp[..kc * NR_I8];
        if mr == MR && nrw == NR_I8 {
            for p in 0..kc {
                let ar = &ap[p * MR..p * MR + MR];
                if ar.iter().all(|&v| v == 0) {
                    continue;
                }
                let br = &bp[p * NR_I8..p * NR_I8 + NR_I8];
                for (r, accr) in acc.iter_mut().enumerate() {
                    let av = ar[r] as i32;
                    // The per-row zero branch doubles as the
                    // vectorization boundary: LLVM keeps the lane
                    // loop in vector code when the row body is
                    // guarded (measured ~4× over the unguarded
                    // form), and bit-lowered operands are sparse
                    // enough for the skip itself to pay.
                    if av == 0 {
                        continue;
                    }
                    for j in 0..NR_I8 {
                        accr[j] += av * br[j] as i32;
                    }
                }
            }
        } else {
            for p in 0..kc {
                let ar = &ap[p * MR..p * MR + MR];
                let br = &bp[p * NR_I8..p * NR_I8 + NR_I8];
                for (r, accr) in acc.iter_mut().enumerate().take(mr) {
                    let av = ar[r] as i32;
                    if av == 0 {
                        continue;
                    }
                    for j in 0..nrw {
                        accr[j] += av * br[j] as i32;
                    }
                }
            }
        }
        tile_write_back(self.epi, &acc, c, n, r0, col0, mr, nrw);
    }

    fn naive(self, ops: Operands<'_, i8>, rows: Range<usize>, c: &mut [i32], n: usize) {
        naive_i8(ops, rows, c, n, self.epi)
    }
}

/// The AVX2 integer family over `pmaddwd`-ready i16-**pair** panels.
/// Only constructed after runtime detection reported AVX2.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct I8Pairs<'a> {
    epi: Epilogue<'a>,
}

#[cfg(target_arch = "x86_64")]
impl Kernel for I8Pairs<'_> {
    type Elem = i8;
    type Acc = i32;
    type Panel = i32;
    const NR: usize = NR_I8;

    fn block(self, rows: Range<usize>) -> Self {
        let epi = self.epi.block(rows);
        I8Pairs { epi }
    }

    /// Element `buf[(jp*kpairs + pp)*NR_I8 + lane]` holds reduction
    /// steps `2pp` (low 16 bits) and `2pp+1` (high 16 bits) of lane
    /// `lane`, where `kpairs = kb.div_ceil(2)`. An odd band tail leaves
    /// the final pair's high halves zero; tail lanes of a partial panel
    /// are zero like the plain packer. Stored as `i32` so the pair
    /// panel reuses the i32 scratch pool.
    fn pack_b(rhs: Rhs<'_, i8>, k0: usize, k1: usize, ncols: usize, buf: &mut Vec<i32>) {
        #[inline]
        fn pair(b0: i8, b1: i8) -> i32 {
            ((b0 as i16 as u16 as u32) | ((b1 as i16 as u16 as u32) << 16)) as i32
        }
        let kb = k1 - k0;
        let kpairs = kb.div_ceil(2);
        let npan = ncols.div_ceil(NR_I8);
        buf.clear();
        buf.resize(npan * kpairs * NR_I8, 0);
        match rhs {
            Rhs::Rows { b, n } => {
                for jp in 0..npan {
                    let j0 = jp * NR_I8;
                    let w = (ncols - j0).min(NR_I8);
                    let base = jp * kpairs * NR_I8;
                    for pp in 0..kpairs {
                        let p0 = k0 + 2 * pp;
                        let row0 = &b[p0 * n + j0..p0 * n + j0 + w];
                        let dst = &mut buf[base + pp * NR_I8..base + pp * NR_I8 + w];
                        if p0 + 1 < k1 {
                            let row1 = &b[(p0 + 1) * n + j0..(p0 + 1) * n + j0 + w];
                            for ((d, &b0), &b1) in dst.iter_mut().zip(row0).zip(row1) {
                                *d = pair(b0, b1);
                            }
                        } else {
                            for (d, &b0) in dst.iter_mut().zip(row0) {
                                *d = pair(b0, 0);
                            }
                        }
                    }
                }
            }
            Rhs::WeightT { w, k } => {
                for jp in 0..npan {
                    let j0 = jp * NR_I8;
                    let lanes = (ncols - j0).min(NR_I8);
                    let base = jp * kpairs * NR_I8;
                    for lane in 0..lanes {
                        let wrow = &w[(j0 + lane) * k..(j0 + lane) * k + k];
                        for pp in 0..kpairs {
                            let p0 = k0 + 2 * pp;
                            let b1 = if p0 + 1 < k1 { wrow[p0 + 1] } else { 0 };
                            buf[base + pp * NR_I8 + lane] = pair(wrow[p0], b1);
                        }
                    }
                }
            }
        }
    }

    /// The segment arithmetic is in pairs. `KC` is even (compile-time
    /// asserted), so every k-block starts on a pair boundary and only
    /// the final block of a band can carry the odd tail pair.
    #[inline]
    fn panel_seg(kb: usize, jp: usize, p0: usize, p1: usize) -> Range<usize> {
        let kpairs = kb.div_ceil(2);
        (jp * kpairs + p0 / 2) * NR_I8..(jp * kpairs + p1.div_ceil(2)) * NR_I8
    }

    /// `kc` is the true reduction extent; the panel holds
    /// `kc.div_ceil(2)` i16 pairs per lane. Full tiles run the AVX2
    /// `pmaddwd` kernel, edge tiles a scalar pair loop — both exact in
    /// `i32`, with no zero-skip (branch-free SIMD throughput beats
    /// skipping on this path).
    #[inline]
    fn tile(
        self,
        kc: usize,
        ap: &[i8],
        bp: &[i32],
        mr: usize,
        nrw: usize,
        c: &mut [i32],
        n: usize,
        r0: usize,
        col0: usize,
    ) {
        let kpairs = kc.div_ceil(2);
        let mut acc = tile_init(self.epi, c, n, r0, col0, mr, nrw);
        let ap = &ap[..kc * MR];
        let bp = &bp[..kpairs * NR_I8];
        if mr == MR && nrw == NR_I8 {
            // SAFETY: an `I8Pairs` kernel is only constructed when runtime
            // detection reported AVX2 (see `gemm_i8_general`).
            unsafe { simd::x86::i8_tile_avx2(kc, ap, bp, &mut acc) };
        } else {
            // Scalar walk of the pair encoding: low i16 is step 2pp, high
            // i16 is step 2pp+1 (arithmetic shift sign-extends); an odd
            // tail's phantom step contributes a1 = 0 on both sides.
            for pp in 0..kpairs {
                let a0r = &ap[2 * pp * MR..2 * pp * MR + MR];
                let a1r = if 2 * pp + 1 < kc {
                    Some(&ap[(2 * pp + 1) * MR..(2 * pp + 1) * MR + MR])
                } else {
                    None
                };
                let br = &bp[pp * NR_I8..pp * NR_I8 + NR_I8];
                for (r, accr) in acc.iter_mut().enumerate().take(mr) {
                    let a0 = a0r[r] as i32;
                    let a1 = a1r.map_or(0, |a1r| a1r[r] as i32);
                    for j in 0..nrw {
                        let pairv = br[j];
                        let b0 = pairv as i16 as i32;
                        let b1 = pairv >> 16;
                        accr[j] += a0 * b0 + a1 * b1;
                    }
                }
            }
        }
        tile_write_back(self.epi, &acc, c, n, r0, col0, mr, nrw);
    }

    fn naive(self, ops: Operands<'_, i8>, rows: Range<usize>, c: &mut [i32], n: usize) {
        naive_i8(ops, rows, c, n, self.epi)
    }
}

/// Naive integer kernel over lhs rows `rows` into `c`, that row band of
/// the output (row stride `n`), with the lhs zero-skip. `epi` is indexed
/// band-relative (see [`Epilogue::block`]). The `Rows` arm folds a row
/// shift into the lhs scalar — `(a << s)·b == (a·b) << s`, and
/// [`MAX_EPILOGUE_SHIFT`] keeps the shifted product inside `i32` — so
/// its inner loop is the unshifted one.
fn naive_i8(ops: Operands<'_, i8>, rows: Range<usize>, c: &mut [i32], n: usize, epi: Epilogue<'_>) {
    let (a, lda, rhs, k0, k1) = (ops.a, ops.lda, ops.rhs, ops.k0, ops.k1);
    match rhs {
        Rhs::Rows { b, n: ldb } => {
            for (ri, (crow, i)) in c.chunks_exact_mut(n).zip(rows).enumerate() {
                let arow = &a[i * lda + k0..i * lda + k1];
                let row_shift = match epi {
                    Epilogue::ShlRows { act, weight } => (act + weight[ri]) as u32,
                    _ => 0,
                };
                for (p, &av) in arow.iter().enumerate() {
                    let av = (av as i32) << row_shift;
                    if av == 0 {
                        continue;
                    }
                    let brow = &b[(k0 + p) * ldb..(k0 + p) * ldb + n];
                    for (cj, &bv) in crow.iter_mut().zip(brow) {
                        *cj += av * bv as i32;
                    }
                }
            }
        }
        Rhs::WeightT { w, k } => {
            for (ri, (crow, i)) in c.chunks_exact_mut(n).zip(rows).enumerate() {
                let arow = &a[i * lda + k0..i * lda + k1];
                for (j, cj) in crow.iter_mut().enumerate() {
                    let wrow = &w[j * k + k0..j * k + k1];
                    let mut sum = 0i32;
                    for (av, wv) in arow.iter().zip(wrow.iter()) {
                        sum += *av as i32 * *wv as i32;
                    }
                    *cj += match epi {
                        Epilogue::Add => sum,
                        Epilogue::ShlRows { act, weight } => sum << (act + weight[ri]) as u32,
                    };
                }
            }
        }
    }
}

// ─── The blocked driver ─────────────────────────────────────────────────

/// The one KC/MC block walk: a blocked pass over lhs rows `rows` into
/// `c`, that row band of the output (row stride `n`), against packed rhs
/// panels covering all `n` columns. k-blocks run in ascending order
/// (load-bearing for f32 bit-exactness). Returns the bytes of lhs tiles
/// it packed.
fn blocked<K: Kernel>(
    kern: K,
    ops: Operands<'_, K::Elem>,
    rows: Range<usize>,
    bpack: &[K::Panel],
    c: &mut [K::Acc],
    n: usize,
) -> u64 {
    let Operands { a, lda, k0, k1, .. } = ops;
    let kb = k1 - k0;
    let npan = n.div_ceil(K::NR);
    let mut apack = K::Elem::take();
    let mut packed = 0;
    let mut pc0 = k0;
    while pc0 < k1 {
        let pc1 = (pc0 + KC).min(k1);
        let kcb = pc1 - pc0;
        let mut ic0 = rows.start;
        while ic0 < rows.end {
            let ic1 = (ic0 + MC).min(rows.end);
            pack_a_tiles(a, lda, ic0..ic1, pc0..pc1, &mut apack);
            packed += apack.len();
            let ntiles = (ic1 - ic0).div_ceil(MR);
            for jp in 0..npan {
                let col0 = jp * K::NR;
                let nrw = (n - col0).min(K::NR);
                let bseg = &bpack[K::panel_seg(kb, jp, pc0 - k0, pc1 - k0)];
                for it in 0..ntiles {
                    let tr0 = ic0 - rows.start + it * MR;
                    let mr = (ic1 - ic0 - it * MR).min(MR);
                    let aseg = &apack[it * kcb * MR..(it + 1) * kcb * MR];
                    kern.tile(kcb, aseg, bseg, mr, nrw, c, n, tr0, col0);
                }
            }
            ic0 = ic1;
        }
        pc0 = pc1;
    }
    K::Elem::put(apack);
    (packed * size_of::<K::Elem>()) as u64
}

/// The one plan dispatcher: produces an `[m, n]` output with a
/// `kb`-step reduction, fanned across the pool in row bands where
/// [`row_bands`] says so. `blocks` says whether the problem is worth
/// packing and blocking; `pack_b(buf)` packs the rhs panels of all `n`
/// columns; `run(rows, bpack, c_rows)` produces output rows `rows` into
/// `c_rows` (those whole rows of `c`, row stride `n`) by a blocked pass
/// against `bpack`, or by the reference-order loop without it,
/// returning the lhs bytes it packed.
///
/// The rhs is packed once per call and shared by every row band — or
/// not at all when the caller's `pre` (an ahead-of-time packed panel in
/// the problem's panel format) is given and the problem blocks. Bands
/// partition only independent output rows, so every plan is
/// bit-identical.
///
/// Returns the bytes this call staged through packed buffers, counted
/// where they are packed: rhs panels once per call, lhs tiles per
/// block, and nothing for a consumed `pre` — its bytes were booked under
/// the pack-cache counters when the cache built it, so charging them per
/// call would double-count.
fn run_plan<C: Send, P: Pooled>(
    [m, n, kb]: [usize; 3],
    pre: Option<&[P]>,
    c: &mut [C],
    blocks: bool,
    pack_b: impl FnOnce(&mut Vec<P>),
    run: impl Fn(Range<usize>, Option<&[P]>, &mut [C]) -> u64 + Sync,
) -> u64 {
    if m == 0 || n == 0 || kb == 0 {
        return 0;
    }
    let pre = pre.filter(|_| blocks);
    let owned = (blocks && pre.is_none()).then(|| {
        let mut buf = P::take();
        pack_b(&mut buf);
        buf
    });
    let bpack = pre.or(owned.as_deref());
    let mut packed = owned
        .as_ref()
        .map_or(0, |buf| (buf.len() * size_of::<P>()) as u64);
    let c = &mut c[..m * n];
    match row_bands(m, n, kb) {
        Some((pool, bands)) => {
            // A statistic, summed from whichever threads pack: Relaxed.
            let lhs = AtomicU64::new(0);
            let mut elems = take_ranges();
            elems.extend(bands.iter().map(|r| r.start * n..r.end * n));
            pool.run_disjoint_mut(c, &elems, |bi, c_rows| {
                lhs.fetch_add(run(bands[bi].clone(), bpack, c_rows), Ordering::Relaxed);
            });
            put_ranges(elems);
            put_ranges(bands);
            packed += lhs.into_inner();
        }
        None => packed += run(0..m, bpack, c),
    }
    if let Some(buf) = owned {
        P::put(buf);
    }
    packed
}

/// One call of kernel `kern` over `ops` through the plan: the blocked
/// walk where the problem blocks, the kernel's reference-order loop
/// where it does not, the write-back re-based onto each row band.
fn run_kernel<K: Kernel>(
    kern: K,
    ops: Operands<'_, K::Elem>,
    m: usize,
    n: usize,
    pre: Option<&[K::Panel]>,
    c: &mut [K::Acc],
) -> u64 {
    let kb = ops.k1 - ops.k0;
    run_plan(
        [m, n, kb],
        pre,
        c,
        worth_blocking(m, n, kb, K::NR, kern.min_rhs()),
        |buf| K::pack_b(ops.rhs, ops.k0, ops.k1, n, buf),
        |rows, bpack, c_rows| {
            let kern = kern.block(rows.clone());
            match bpack {
                Some(bpack) => blocked(kern, ops, rows, bpack, c_rows, n),
                None => {
                    kern.naive(ops, rows, c_rows, n);
                    0
                }
            }
        },
    )
}

// ─── Telemetry ──────────────────────────────────────────────────────────

/// Rows sampled by [`lhs_zero_pm`]. A full scan of a large activation
/// band costs more than the span it annotates and alone blows the
/// telemetry overhead gate; a handful of evenly spaced rows estimates
/// the same per-mille at O(k) cost.
const SKIP_SCAN_ROWS: usize = 8;

/// Per-mille of zero elements in the lhs band `a[0..m, k0..k1)` — the
/// fraction the integer kernels' lhs zero-skip branch elides. Estimated
/// from at most [`SKIP_SCAN_ROWS`] evenly spaced rows.
fn lhs_zero_pm(a: &[i8], lda: usize, m: usize, k0: usize, k1: usize) -> u32 {
    if m == 0 || k1 <= k0 {
        return 0;
    }
    let step = m.div_ceil(SKIP_SCAN_ROWS);
    let mut zeros = 0usize;
    let mut total = 0usize;
    let mut i = 0;
    while i < m {
        for &v in &a[i * lda + k0..i * lda + k1] {
            zeros += (v == 0) as usize;
        }
        total += k1 - k0;
        i += step;
    }
    ((zeros * 1000) / total) as u32
}

/// Counts a kernel call of shape `[m, n, kb]` into the global telemetry
/// counters (including the per-ISA dispatch counter, so perf artifacts
/// are attributable to the code path that produced them), notes the
/// dispatch for [`simd::last_dispatch`] and, when this thread is
/// recording, times `f` into a `Cat::Gemm` span (shape + packed bytes
/// in `args`, lhs zero-skip per-mille in `id`). `f` returns the bytes
/// it staged through packed buffers ([`run_plan`]). The skip scan runs
/// before the timed window opens, so telemetry never inflates the
/// measured kernel time.
#[inline]
fn gemm_traced(
    name: &'static str,
    [m, n, kb]: [usize; 3],
    isa: Isa,
    zero_skip_pm: impl FnOnce() -> u32,
    f: impl FnOnce() -> u64,
) {
    use flexiq_telemetry as tel;
    simd::note_dispatch(isa);
    tel::count(tel::Counter::GemmCalls, 1);
    tel::count(tel::Counter::GemmMadds, (m * n * kb) as u64);
    tel::count(
        match isa {
            Isa::Avx2 => tel::Counter::GemmIsaAvx2,
            Isa::Scalar => tel::Counter::GemmIsaScalar,
        },
        1,
    );
    if !tel::recording() {
        return tel::count(tel::Counter::GemmPackedBytes, f());
    }
    let skip = zero_skip_pm();
    let t0 = tel::now_ns();
    let packed_bytes = f();
    let t1 = tel::now_ns();
    tel::count(tel::Counter::GemmPackedBytes, packed_bytes);
    let args = [m as u64, n as u64, kb as u64, packed_bytes];
    tel::record_span(name, tel::Cat::Gemm, skip, t0, t1, args);
}

// ─── Public API ─────────────────────────────────────────────────────────

/// The f32 entry points behind their asserts: one traced plan under the
/// active ISA's f32 kernel.
fn gemm_f32_traced(
    name: &'static str,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    rhs: Rhs<'_, f32>,
    c: &mut [f32],
) {
    let isa = simd::active();
    let ops = Operands::new(a, k, rhs, 0, k);
    gemm_traced(
        name,
        [m, n, k],
        isa,
        || 0,
        || run_kernel(F32Kernel { isa }, ops, m, n, None, c),
    );
}

/// `c[m,n] += a[m,k] * b[k,n]` in f32.
///
/// Bit-identical to [`reference::gemm_f32`] at every size (see the module
/// docs on accumulation order).
///
/// # Panics
///
/// Panics if any slice is shorter than its `m*k` / `k*n` / `m*n` extent.
pub fn gemm_f32(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert!(a.len() >= m * k, "lhs buffer too small");
    assert!(b.len() >= k * n, "rhs buffer too small");
    assert!(c.len() >= m * n, "out buffer too small");
    gemm_f32_traced("gemm_f32", m, n, k, a, Rhs::Rows { b, n }, c);
}

/// [`gemm_f32`] with the rhs in weight layout: `c[m,n] += a[m,k] * wᵀ`
/// where `w` is `[n, k]` row-major (a `Linear` weight `[C_out, C_in]`
/// with `n = C_out`, `k = C_in`). No transpose is materialized — packing
/// reads the transposed source directly.
pub fn gemm_f32_wt(m: usize, n: usize, k: usize, a: &[f32], w: &[f32], c: &mut [f32]) {
    assert!(a.len() >= m * k, "lhs buffer too small");
    assert!(w.len() >= n * k, "rhs buffer too small");
    assert!(c.len() >= m * n, "out buffer too small");
    gemm_f32_traced("gemm_f32_wt", m, n, k, a, Rhs::WeightT { w, k }, c);
}

/// One integer GEMM under `isa`: validates nothing (callers assert),
/// picks the kernel — AVX2 reads pair panels, every other ISA the plain
/// ones — and runs the plan. `pre` optionally supplies an ahead-of-time
/// packed full-width rhs for the operands' band; it is consumed only if
/// it holds the picked kernel's panel format (see [`run_plan`] for
/// where), so a panel built under another ISA costs a per-call pack,
/// never a wrong tile. `epi` is the write-back: every tile and
/// reference loop routes its sums through it, so a shifted band
/// accumulates straight into `c`. Returns the bytes packed.
fn gemm_i8_general(
    m: usize,
    n: usize,
    ops: Operands<'_, i8>,
    pre: Option<&PackedRhsI8>,
    epi: Epilogue<'_>,
    c: &mut [i32],
    isa: Isa,
) -> u64 {
    let panels = pre.map(|p| &p.panels);
    #[cfg(target_arch = "x86_64")]
    if isa == Isa::Avx2 {
        let pre = match panels {
            Some(PanelsI8::Pairs(buf)) => Some(&buf[..]),
            _ => None,
        };
        return run_kernel(I8Pairs { epi }, ops, m, n, pre, c);
    }
    let pre = match panels {
        Some(PanelsI8::Plain(buf)) => Some(&buf[..]),
        _ => None,
    };
    run_kernel(I8Plain { epi }, ops, m, n, pre, c)
}

/// [`gemm_i8_general`] as one traced call under the active ISA — the
/// body of every single-GEMM integer entry point.
fn gemm_i8_traced(
    name: &'static str,
    m: usize,
    n: usize,
    ops: Operands<'_, i8>,
    pre: Option<&PackedRhsI8>,
    epi: Epilogue<'_>,
    c: &mut [i32],
) {
    let isa = simd::active();
    let Operands { a, lda, k0, k1, .. } = ops;
    gemm_traced(
        name,
        [m, n, k1 - k0],
        isa,
        || lhs_zero_pm(a, lda, m, k0, k1),
        || gemm_i8_general(m, n, ops, pre, epi, c, isa),
    );
}

/// `c[m,n] += a[m,k] * b[k,n]` with `i8` operands and `i32` accumulation.
///
/// Zero lhs elements are skipped — exact in integer arithmetic.
pub fn gemm_i8(m: usize, n: usize, k: usize, a: &[i8], b: &[i8], c: &mut [i32]) {
    gemm_i8_band(m, n, k, 0, k, a, b, c)
}

/// Partial integer GEMM over a contiguous band of the reduction dimension.
///
/// Computes `c[m,n] += a[m, k0..k1] * b[k0..k1, n]` where `a` is `[m,k]`
/// and `b` is `[k,n]`. The convolution engine calls this once per run
/// of adjacent 8-bit feature-group bands (its 4-bit runs go through
/// [`gemm_i8_low_bands`], which shifts each band's sum in).
pub fn gemm_i8_band(
    m: usize,
    n: usize,
    k: usize,
    k0: usize,
    k1: usize,
    a: &[i8],
    b: &[i8],
    c: &mut [i32],
) {
    assert!(k0 <= k1 && k1 <= k, "invalid band [{k0}, {k1}) for k={k}");
    assert!(a.len() >= m * k, "lhs buffer too small");
    assert!(b.len() >= k * n, "rhs buffer too small");
    assert!(c.len() >= m * n, "out buffer too small");
    let rhs = Rhs::Rows { b, n };
    let ops = Operands::new(a, k, rhs, k0, k1);
    gemm_i8_traced("gemm_i8_band", m, n, ops, None, Epilogue::Add, c);
}

/// [`gemm_i8_band`] with the rhs in weight layout `[n, k]` row-major:
/// `c[i,j] += sum_{p in [k0,k1)} a[i,p] * w[j,p]`: `a` the quantized
/// activation rows, `w` a `[C_out, C_in]` weight matrix (or a K/V
/// cache's `[rows, C]` keys, one head's channels per band), run without
/// materializing a transposed weight block.
pub fn gemm_i8_band_wt(
    m: usize,
    n: usize,
    k: usize,
    k0: usize,
    k1: usize,
    a: &[i8],
    w: &[i8],
    c: &mut [i32],
) {
    assert!(k0 <= k1 && k1 <= k, "invalid band [{k0}, {k1}) for k={k}");
    assert!(a.len() >= m * k, "lhs buffer too small");
    assert!(w.len() >= n * k, "rhs buffer too small");
    assert!(c.len() >= m * n, "out buffer too small");
    let rhs = Rhs::WeightT { w, k };
    let ops = Operands::new(a, k, rhs, k0, k1);
    gemm_i8_traced("gemm_i8_band_wt", m, n, ops, None, Epilogue::Add, c);
}

/// [`gemm_i8_band_wt`] consuming an ahead-of-time packed weight band
/// ([`prepack_i8_wt_band`] over the same `[k0, k1)`): a quantized
/// linear layer's one GEMM against its effective weights, with the
/// per-pass weight pack amortized to zero. Bit-identical to [`gemm_i8_band_wt`] — the owned panels are
/// byte-for-byte what the per-call pack would build, and every case
/// they do not serve (sub-threshold shape, panel built under another
/// ISA) runs the per-call code; see the module docs.
///
/// # Panics
///
/// Panics if a slice is too small or `packed` does not cover rhs
/// columns `0..n` of the band `[k0, k1)`.
pub fn gemm_i8_band_wt_prepacked(
    m: usize,
    n: usize,
    k: usize,
    k0: usize,
    k1: usize,
    a: &[i8],
    w: &[i8],
    packed: &PackedRhsI8,
    c: &mut [i32],
) {
    assert!(k0 <= k1 && k1 <= k, "invalid band [{k0}, {k1}) for k={k}");
    assert!(a.len() >= m * k, "lhs buffer too small");
    assert!(w.len() >= n * k, "rhs buffer too small");
    assert!(c.len() >= m * n, "out buffer too small");
    assert!(
        packed.n == n && packed.k0 == k0 && packed.k1 == k1,
        "prepacked rhs band mismatch"
    );
    let rhs = Rhs::WeightT { w, k };
    let ops = Operands::new(a, k, rhs, k0, k1);
    gemm_i8_traced("gemm_i8_band_wt", m, n, ops, Some(packed), Epilogue::Add, c);
}

// ─── Low-band operands and the fused low-band entry point ───────────────

/// Quad-interleaved lhs tiles of the dense low-range tile with their
/// per-row offset corrections (see [`crate::simd`]): `tiles[((it*kq +
/// q)*MR + r)*4 + t]` is row `it*MR + r`, reduction step `4q + t` (zero
/// past the operand's edges) and `corr[i] = -8·Σ_p a[i][p]`.
#[derive(Debug, Clone)]
struct DenseLhs {
    tiles: Vec<i8>,
    corr: Vec<i32>,
}

impl DenseLhs {
    /// Packs a row-major `[m, kb]` block.
    fn pack(m: usize, kb: usize, rows: &[i8]) -> Self {
        let kq = kb.div_ceil(4);
        let ntiles = m.div_ceil(MR);
        let mut tiles = vec![0i8; ntiles * kq * MR * 4];
        let mut corr = vec![0i32; ntiles * MR];
        for (i, arow) in rows.chunks_exact(kb.max(1)).take(m).enumerate() {
            let (it, r) = (i / MR, i % MR);
            for (p, &v) in arow.iter().enumerate() {
                tiles[((it * kq + p / 4) * MR + r) * 4 + p % 4] = v;
            }
            corr[i] = -8 * arow.iter().map(|&v| v as i32).sum::<i32>();
        }
        DenseLhs { tiles, corr }
    }

    /// Bytes held (tiles and corrections).
    fn bytes(&self) -> usize {
        self.tiles.len() + self.corr.len() * size_of::<i32>()
    }
}

/// A bit-lowered weight band in **convolution orientation** (weights
/// are the GEMM lhs): the lowered `[m, kb]` block, one extraction shift
/// per output row, and — when built under an ISA with a dense
/// low-range tile and lowered to four bits or fewer — the block's
/// prepacked dense lhs tiles. The owned operand of
/// [`LowBands`]; the quantized engine caches one per
/// (layer, conv group, feature group).
#[derive(Debug, Clone)]
pub struct LowBandLhs {
    m: usize,
    kb: usize,
    rows: Vec<i8>,
    shifts: Vec<u8>,
    low_range: bool,
    dense: Option<DenseLhs>,
}

impl LowBandLhs {
    /// Wraps a lowered row-major `[m, kb]` weight block and its `m`
    /// per-row extraction shifts, prepacking for the active ISA.
    ///
    /// # Panics
    ///
    /// Panics if a slice does not match its extent.
    pub fn new(m: usize, kb: usize, rows: Vec<i8>, shifts: Vec<u8>) -> Self {
        assert_eq!(rows.len(), m * kb, "lowered block must be [m, kb]");
        assert_eq!(shifts.len(), m, "one shift per output row");
        // True of anything lowered to four bits or fewer.
        let low_range = rows.iter().all(|v| (-8..=7).contains(v));
        let dense =
            (low_range && simd::active() == Isa::Avx2).then(|| DenseLhs::pack(m, kb, &rows));
        LowBandLhs {
            m,
            kb,
            rows,
            shifts,
            low_range,
            dense,
        }
    }

    /// Bytes held (lowered block, shifts, dense tiles and corrections).
    pub fn bytes(&self) -> usize {
        self.rows.len() + self.shifts.len() + self.dense.as_ref().map_or(0, DenseLhs::bytes)
    }
}

/// The operands of one fused low-band call ([`gemm_i8_low_bands`]): a
/// run of consecutive bit-lowered convolution weight bands as the lhs,
/// whose partial sums are shifted into the 8-bit accumulator scale **at
/// write-back**, with no intermediate buffer. With `sh(s, i) =
/// a_shifts[s] + bands[s].shift[i]`: `c[i, j] += Σ_s (bands[s] · b_s)[i,
/// j] << sh(s, i)`, where `b` is row-major `[Σ kb, n]` and `b_s` its rows
/// belonging to band `s` (bands are consecutive in the reduction
/// dimension, e.g. rows of one im2col matrix).
#[derive(Clone, Copy)]
pub struct LowBands<'a> {
    /// Output columns.
    pub n: usize,
    /// The run's lowered weight bands, all `m` rows tall.
    pub bands: &'a [LowBandLhs],
    /// Activation extraction shift of each band.
    pub a_shifts: &'a [u8],
    /// The lowered activations, `[Σ kb, n]` row-major.
    pub b: &'a [i8],
}

/// Fused low-band GEMM: bit-lowered operands in, **shifted
/// accumulation applied at write-back** — the paper's low-precision
/// convolution band in one call, accumulating straight into `c`.
///
/// A run whose operands all lie in `[-8, 7]` runs the dense low-range
/// tile where the ISA has one (AVX2 — see [`crate::simd`]): the rhs is
/// packed once for the whole run, and each output tile is visited once
/// however many bands the run has. Everything else — other ISAs,
/// sub-threshold shapes, wider operands — runs the ordinary i8 kernels
/// with the same fused write-back. Every path is exact in `i32`, so
/// results are bit-identical to per-band GEMMs into a scratch buffer
/// followed by `c += scratch << shift`.
///
/// # Panics
///
/// Panics if a buffer is smaller than its extent, if band heights or
/// shift counts disagree, if a total shift exceeds
/// [`MAX_EPILOGUE_SHIFT`], or if the dense path meets an activation
/// outside `[-8, 7]` under bands that promised that range.
pub fn gemm_i8_low_bands(call: LowBands<'_>, c: &mut [i32]) {
    let LowBands {
        n,
        bands,
        a_shifts,
        b,
    } = call;
    let Some(first) = bands.first() else { return };
    let m = first.m;
    let kb: usize = bands.iter().map(|s| s.kb).sum();
    assert!(bands.iter().all(|s| s.m == m), "bands differ in height");
    assert_eq!(a_shifts.len(), bands.len(), "one activation shift per band");
    assert!(b.len() >= kb * n, "rhs buffer too small");
    assert!(c.len() >= m * n, "out buffer too small");
    for (band, &act) in bands.iter().zip(a_shifts) {
        let weight = &band.shifts[..];
        Epilogue::ShlRows { act, weight }.validate(m);
    }
    let isa = simd::active();
    gemm_traced(
        "gemm_i8_low_bands",
        [m, n, kb],
        isa,
        || 0,
        || {
            #[cfg(target_arch = "x86_64")]
            if isa == Isa::Avx2
                && worth_blocking(m, n, kb, NR_I8, 0)
                && bands.iter().all(|s| s.low_range)
            {
                return low_run_dense(m, n, bands, a_shifts, b, c);
            }
            let (mut row0, mut packed) = (0, 0);
            for (band, &act) in bands.iter().zip(a_shifts) {
                let weight = &band.shifts[..];
                let epi = Epilogue::ShlRows { act, weight };
                let rhs = Rhs::Rows {
                    b: &b[row0 * n..],
                    n,
                };
                let ops = Operands::new(&band.rows, band.kb, rhs, 0, band.kb);
                packed += gemm_i8_general(m, n, ops, None, epi, c, isa);
                row0 += band.kb;
            }
            packed
        },
    );
}

/// Packs all `n` columns of a run's rows into dense quad panels:
/// `buf[((jp*kq + q0_s + q)*NR_I8 + lane)*4 + t]` holds column
/// `jp*NR_I8 + lane` of band `s`'s reduction step `4q + t`, **offset by
/// +8**, where `kq = Σ_s ⌈kb_s/4⌉` and `q0_s` is band `s`'s first quad —
/// every band starts on a quad boundary, so each can be fed to the tile
/// on its own. Steps past a band's end and lanes past the matrix edge
/// stay zero (the lhs tiles are zero there, so the value is moot).
/// Returns whether every packed value lay in `[-8, 7]`.
#[cfg(target_arch = "x86_64")]
fn pack_b_i8_quads(b: &[i8], n: usize, bands: &[LowBandLhs], buf: &mut Vec<i8>) -> bool {
    let kq: usize = bands.iter().map(|s| s.kb.div_ceil(4)).sum();
    let npan = n.div_ceil(NR_I8);
    buf.clear();
    buf.resize(npan * kq * NR_I8 * 4, 0);
    let mut seen = 0u8;
    for jp in 0..npan {
        let j0 = jp * NR_I8;
        let lanes = (n - j0).min(NR_I8);
        let (mut row0, mut q0) = (0, jp * kq);
        for band in bands {
            let full = if lanes == NR_I8 { band.kb / 4 } else { 0 };
            let dst = &mut buf[q0 * NR_I8 * 4..(q0 + band.kb.div_ceil(4)) * NR_I8 * 4];
            // SAFETY: this packer is only reached from the dense driver,
            // which dispatches on runtime-detected AVX2.
            seen |= unsafe { simd::x86::quads_pack_avx2(&b[row0 * n + j0..], n, full, dst) };
            for p in 4 * full..band.kb {
                let src = &b[(row0 + p) * n + j0..(row0 + p) * n + j0 + lanes];
                for (lane, &v) in src.iter().enumerate() {
                    let u = (v as u8).wrapping_add(8);
                    seen |= u;
                    dst[(p / 4 * NR_I8 + lane) * 4 + p % 4] = u as i8;
                }
            }
            row0 += band.kb;
            q0 += band.kb.div_ceil(4);
        }
    }
    seen <= 15
}

/// Dense low-range pass over lhs tiles `tiles` of every band into `c`,
/// those tiles' rows of the output (row stride `n`), against quad panels
/// `bq` covering all `n` columns: each output tile sums all bands'
/// shifted contributions in registers and touches `c` once. `local`
/// holds per-call lhs tiles, one per band, or is empty when the bands'
/// own prepacked tiles serve.
#[cfg(target_arch = "x86_64")]
fn dense_block(
    m: usize,
    tiles: Range<usize>,
    bands: &[LowBandLhs],
    a_shifts: &[u8],
    local: &[DenseLhs],
    bq: &[i8],
    c: &mut [i32],
    n: usize,
) {
    let kq: usize = bands.iter().map(|s| s.kb.div_ceil(4)).sum();
    for jp in 0..n.div_ceil(NR_I8) {
        let col0 = jp * NR_I8;
        let nrw = (n - col0).min(NR_I8);
        for it in tiles.clone() {
            let mr = (m - it * MR).min(MR);
            let mut total = [[0i32; NR_I8]; MR];
            let mut q0 = jp * kq;
            for (s, (band, &act)) in bands.iter().zip(a_shifts).enumerate() {
                let dense = match local.get(s) {
                    Some(d) => d,
                    None => band.dense.as_ref().expect("prepacked or packed per call"),
                };
                let kqs = band.kb.div_ceil(4);
                let mut corr = [0i32; MR];
                let mut shl = [0u32; MR];
                corr.copy_from_slice(&dense.corr[it * MR..(it + 1) * MR]);
                for r in 0..mr {
                    shl[r] = (act + band.shifts[it * MR + r]) as u32;
                }
                let ap = &dense.tiles[it * kqs * MR * 4..(it + 1) * kqs * MR * 4];
                let bp = &bq[q0 * NR_I8 * 4..(q0 + kqs) * NR_I8 * 4];
                // SAFETY: the dense driver dispatches on runtime-detected
                // AVX2.
                unsafe { simd::x86::i8_tile_dense_avx2(kqs, ap, bp, &corr, &shl, &mut total) };
                q0 += kqs;
            }
            let r0 = (it - tiles.start) * MR;
            for r in 0..mr {
                let crow = &mut c[(r0 + r) * n + col0..][..nrw];
                for (cj, &v) in crow.iter_mut().zip(&total[r][..nrw]) {
                    *cj += v;
                }
            }
        }
    }
}

/// Dense path of [`gemm_i8_low_bands`] (AVX2, all operands in
/// `[-8, 7]`, blocked shape) through [`run_plan`]. Lhs tiles come
/// prepacked from the bands, or are packed here when a band was built
/// under another ISA; the rhs quad panels are packed once per call.
/// Row bands split whole lhs tiles, so each output element's integer
/// sum is untouched. Returns the bytes packed.
#[cfg(target_arch = "x86_64")]
fn low_run_dense(
    m: usize,
    n: usize,
    bands: &[LowBandLhs],
    a_shifts: &[u8],
    b: &[i8],
    c: &mut [i32],
) -> u64 {
    let kb: usize = bands.iter().map(|s| s.kb).sum();
    let local: Vec<DenseLhs> = if bands.iter().all(|s| s.dense.is_some()) {
        Vec::new()
    } else {
        bands
            .iter()
            .map(|s| DenseLhs::pack(s.m, s.kb, &s.rows))
            .collect()
    };
    let lhs_bytes: usize = local.iter().map(DenseLhs::bytes).sum();
    let rhs_bytes = run_plan(
        [m, n, kb],
        None,
        c,
        // The caller checked the problem against the blocking threshold.
        true,
        |bq| {
            let in_range = pack_b_i8_quads(b, n, bands, bq);
            assert!(in_range, "low-band activation outside [-8, 7]");
        },
        |rows, bq, c_rows| {
            let bq = bq.expect("a dense run always blocks");
            // Row bands are tile-aligned (`row_bands`), and the lhs
            // tiles were packed ahead of the plan: nothing staged here.
            let tiles = rows.start / MR..rows.end.div_ceil(MR);
            dense_block(m, tiles, bands, a_shifts, &local, bq, c_rows, n);
            0
        },
    );
    lhs_bytes as u64 + rhs_bytes
}

/// The naive serial loops the blocked kernels replaced. They remain the
/// executable specification: the property tests pin the blocked kernels
/// bit-exact against these across random shapes, bands, layouts, and
/// thread counts, and `exp_gemm` benchmarks blocked-vs-naive throughput.
pub mod reference {
    /// Naive `i-p-j` f32 GEMM (no zero-skip — NaN/Inf must propagate).
    pub fn gemm_f32(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        for i in 0..m {
            for p in 0..k {
                let aip = a[i * k + p];
                let brow = &b[p * n..p * n + n];
                let crow = &mut c[i * n..i * n + n];
                for j in 0..n {
                    crow[j] += aip * brow[j];
                }
            }
        }
    }

    /// Naive f32 GEMM with a weight-layout (`[n, k]`) rhs.
    pub fn gemm_f32_wt(m: usize, n: usize, k: usize, a: &[f32], w: &[f32], c: &mut [f32]) {
        for i in 0..m {
            for j in 0..n {
                let mut acc = c[i * n + j];
                for p in 0..k {
                    acc += a[i * k + p] * w[j * k + p];
                }
                c[i * n + j] = acc;
            }
        }
    }

    /// Naive integer band GEMM with the lhs zero-skip.
    pub fn gemm_i8_band(
        m: usize,
        n: usize,
        k: usize,
        k0: usize,
        k1: usize,
        a: &[i8],
        b: &[i8],
        c: &mut [i32],
    ) {
        assert!(k0 <= k1 && k1 <= k, "invalid band [{k0}, {k1}) for k={k}");
        for i in 0..m {
            for p in k0..k1 {
                let aip = a[i * k + p] as i32;
                if aip == 0 {
                    continue;
                }
                let brow = &b[p * n..p * n + n];
                let crow = &mut c[i * n..i * n + n];
                for j in 0..n {
                    crow[j] += aip * brow[j] as i32;
                }
            }
        }
    }

    /// Naive full-reduction integer GEMM.
    pub fn gemm_i8(m: usize, n: usize, k: usize, a: &[i8], b: &[i8], c: &mut [i32]) {
        gemm_i8_band(m, n, k, 0, k, a, b, c)
    }

    /// Naive integer band GEMM with a weight-layout (`[n, k]`) rhs.
    pub fn gemm_i8_band_wt(
        m: usize,
        n: usize,
        k: usize,
        k0: usize,
        k1: usize,
        a: &[i8],
        w: &[i8],
        c: &mut [i32],
    ) {
        assert!(k0 <= k1 && k1 <= k, "invalid band [{k0}, {k1}) for k={k}");
        for i in 0..m {
            for j in 0..n {
                let mut acc = c[i * n + j];
                for p in k0..k1 {
                    acc += a[i * k + p] as i32 * w[j * k + p] as i32;
                }
                c[i * n + j] = acc;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded;
    use rand::Rng;

    fn rand_f32(len: usize, rng: &mut impl Rng) -> Vec<f32> {
        (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    fn rand_i8(len: usize, rng: &mut impl Rng) -> Vec<i8> {
        (0..len)
            .map(|_| rng.gen_range(-128i16..=127) as i8)
            .collect()
    }

    #[test]
    fn f32_matches_naive() {
        let mut rng = seeded(21);
        let (m, n, k) = (5, 7, 11);
        let a = rand_f32(m * k, &mut rng);
        let b = rand_f32(k * n, &mut rng);
        let mut c = vec![0.0f32; m * n];
        gemm_f32(m, n, k, &a, &b, &mut c);
        let mut expect = vec![0.0f32; m * n];
        reference::gemm_f32(m, n, k, &a, &b, &mut expect);
        for (x, y) in c.iter().zip(expect.iter()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
        }
    }

    #[test]
    fn blocked_f32_is_bit_identical_to_naive_across_blocking_edges() {
        // Sizes straddling MR/NR/MC/KC boundaries, all above the blocking
        // threshold: the blocked kernel must reproduce the naive loop's
        // f32 bits exactly (load-from-C accumulation order).
        let mut rng = seeded(27);
        for &(m, n, k) in &[
            (MC + 3, 3 * NR + 5, KC + 17),
            (2 * MR + 1, 9 * NR, 33),
            (MC, NR, BLOCK_MIN_WORK / (MC * NR) + 1),
        ] {
            let a = rand_f32(m * k, &mut rng);
            let b = rand_f32(k * n, &mut rng);
            let mut c = rand_f32(m * n, &mut rng); // nonzero incoming C
            let mut expect = c.clone();
            gemm_f32(m, n, k, &a, &b, &mut c);
            reference::gemm_f32(m, n, k, &a, &b, &mut expect);
            for (i, (x, y)) in c.iter().zip(expect.iter()).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "({m},{n},{k}) elem {i}");
            }
        }
    }

    #[test]
    fn wt_variants_match_transposed_rhs() {
        let mut rng = seeded(28);
        let (m, n, k) = (13, 27, 70);
        let a = rand_f32(m * k, &mut rng);
        let w = rand_f32(n * k, &mut rng);
        // Materialized transpose b[p*n + j] = w[j*k + p].
        let mut b = vec![0.0f32; k * n];
        for j in 0..n {
            for p in 0..k {
                b[p * n + j] = w[j * k + p];
            }
        }
        let mut c_wt = vec![0.0f32; m * n];
        gemm_f32_wt(m, n, k, &a, &w, &mut c_wt);
        let mut c_ref = vec![0.0f32; m * n];
        reference::gemm_f32_wt(m, n, k, &a, &w, &mut c_ref);
        for (x, y) in c_wt.iter().zip(c_ref.iter()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        // Integer wt band: equals the Rows-layout band on the transpose.
        let ai = rand_i8(m * k, &mut rng);
        let wi = rand_i8(n * k, &mut rng);
        let mut bi = vec![0i8; k * n];
        for j in 0..n {
            for p in 0..k {
                bi[p * n + j] = wi[j * k + p];
            }
        }
        let (k0, k1) = (3, k - 7);
        let mut ci = vec![0i32; m * n];
        gemm_i8_band_wt(m, n, k, k0, k1, &ai, &wi, &mut ci);
        let mut ci_ref = vec![0i32; m * n];
        gemm_i8_band(m, n, k, k0, k1, &ai, &bi, &mut ci_ref);
        assert_eq!(ci, ci_ref);
    }

    #[test]
    fn f32_propagates_nan_and_inf_through_zero_lhs() {
        // A zero weight must not mask a poisoned activation: 0 * NaN = NaN
        // and 0 * inf = NaN. A zero-skip would silently drop both.
        let a = vec![0.0f32, 1.0]; // [1, 2]
        let b = vec![f32::NAN, 2.0]; // [2, 1]
        let mut c = vec![0.0f32; 1];
        gemm_f32(1, 1, 2, &a, &b, &mut c);
        assert!(c[0].is_nan(), "NaN suppressed by zero-skip: {}", c[0]);

        let b = vec![f32::INFINITY, 2.0];
        let mut c = vec![0.0f32; 1];
        gemm_f32(1, 1, 2, &a, &b, &mut c);
        assert!(c[0].is_nan(), "0*inf must poison the output: {}", c[0]);
    }

    #[test]
    fn blocked_f32_propagates_nan_through_zero_lhs() {
        // Same hazard, at a size where the packed/blocked path engages.
        let (m, n, k) = (8usize, 2 * NR, 128usize);
        let a = vec![0.0f32; m * k]; // all-zero lhs
        let mut b = vec![1.0f32; k * n];
        b[5 * n + 3] = f32::NAN;
        let mut c = vec![0.0f32; m * n];
        gemm_f32(m, n, k, &a, &b, &mut c);
        for i in 0..m {
            assert!(c[i * n + 3].is_nan(), "row {i} lost the NaN");
        }
    }

    #[test]
    fn colbatch_matches_per_sample_calls_bitwise() {
        let mut rng = seeded(24);
        let (nb, m, n, k) = (3usize, 4usize, 5usize, 7usize);
        let a = rand_f32(m * k, &mut rng);
        let samples: Vec<Vec<f32>> = (0..nb).map(|_| rand_f32(k * n, &mut rng)).collect();
        // Column-stacked rhs [k, nb*n].
        let mut b = vec![0.0f32; k * nb * n];
        for p in 0..k {
            for (s, sm) in samples.iter().enumerate() {
                b[p * nb * n + s * n..p * nb * n + (s + 1) * n]
                    .copy_from_slice(&sm[p * n..(p + 1) * n]);
            }
        }
        let mut c = vec![0.0f32; m * nb * n];
        gemm_f32(m, nb * n, k, &a, &b, &mut c);
        for (s, sm) in samples.iter().enumerate() {
            let mut cs = vec![0.0f32; m * n];
            gemm_f32(m, n, k, &a, sm, &mut cs);
            for i in 0..m {
                for j in 0..n {
                    // Bit-exact, not approximately equal.
                    assert_eq!(
                        c[i * nb * n + s * n + j].to_bits(),
                        cs[i * n + j].to_bits(),
                        "sample {s} element ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn i8_colbatch_matches_per_sample_calls() {
        let mut rng = seeded(25);
        let (nb, m, n, k) = (2usize, 3usize, 4usize, 6usize);
        let a = rand_i8(m * k, &mut rng);
        let samples: Vec<Vec<i8>> = (0..nb).map(|_| rand_i8(k * n, &mut rng)).collect();
        let mut b = vec![0i8; k * nb * n];
        for p in 0..k {
            for (s, sm) in samples.iter().enumerate() {
                b[p * nb * n + s * n..p * nb * n + (s + 1) * n]
                    .copy_from_slice(&sm[p * n..(p + 1) * n]);
            }
        }
        let mut c = vec![0i32; m * nb * n];
        gemm_i8(m, nb * n, k, &a, &b, &mut c);
        let mut banded = vec![0i32; m * nb * n];
        gemm_i8_band(m, nb * n, k, 0, 2, &a, &b, &mut banded);
        gemm_i8_band(m, nb * n, k, 2, k, &a, &b, &mut banded);
        assert_eq!(c, banded);
        for (s, sm) in samples.iter().enumerate() {
            let mut cs = vec![0i32; m * n];
            gemm_i8(m, n, k, &a, sm, &mut cs);
            for i in 0..m {
                for j in 0..n {
                    assert_eq!(c[i * nb * n + s * n + j], cs[i * n + j]);
                }
            }
        }
    }

    #[test]
    fn i8_is_exact() {
        let mut rng = seeded(22);
        let (m, n, k) = (4, 6, 9);
        let a = rand_i8(m * k, &mut rng);
        let b = rand_i8(k * n, &mut rng);
        let mut c = vec![0i32; m * n];
        gemm_i8(m, n, k, &a, &b, &mut c);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0i32;
                for p in 0..k {
                    acc += a[i * k + p] as i32 * b[p * n + j] as i32;
                }
                assert_eq!(c[i * n + j], acc);
            }
        }
    }

    #[test]
    fn blocked_i8_matches_naive_at_large_sparse_shapes() {
        // Above the blocking threshold, with a sparse lhs so the
        // zero-skip lanes engage.
        let mut rng = seeded(29);
        let (m, n, k) = (MC + 5, 4 * NR + 3, KC + 9);
        let a: Vec<i8> = (0..m * k)
            .map(|_| {
                if rng.gen_range(0..4) == 0 {
                    rng.gen_range(-128i16..=127) as i8
                } else {
                    0
                }
            })
            .collect();
        let b = rand_i8(k * n, &mut rng);
        let (k0, k1) = (7, k - 13);
        let mut c = vec![0i32; m * n];
        gemm_i8_band(m, n, k, k0, k1, &a, &b, &mut c);
        let mut expect = vec![0i32; m * n];
        reference::gemm_i8_band(m, n, k, k0, k1, &a, &b, &mut expect);
        assert_eq!(c, expect);
    }

    #[test]
    fn banded_sums_to_full() {
        let mut rng = seeded(23);
        let (m, n, k) = (3, 4, 16);
        let a: Vec<i8> = (0..m * k)
            .map(|_| rng.gen_range(-100i16..=100) as i8)
            .collect();
        let b: Vec<i8> = (0..k * n)
            .map(|_| rng.gen_range(-100i16..=100) as i8)
            .collect();
        let mut full = vec![0i32; m * n];
        gemm_i8(m, n, k, &a, &b, &mut full);
        let mut banded = vec![0i32; m * n];
        gemm_i8_band(m, n, k, 0, 5, &a, &b, &mut banded);
        gemm_i8_band(m, n, k, 5, 12, &a, &b, &mut banded);
        gemm_i8_band(m, n, k, 12, 16, &a, &b, &mut banded);
        assert_eq!(full, banded);
    }

    #[test]
    fn empty_band_is_noop() {
        let a = vec![1i8; 4];
        let b = vec![1i8; 4];
        let mut c = vec![0i32; 4];
        gemm_i8_band(2, 2, 2, 1, 1, &a, &b, &mut c);
        assert_eq!(c, vec![0; 4]);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn pairs_panel_matches_plain_panel_semantics() {
        // Every (step, lane) of the plain panel must be recoverable from
        // the pair panel: low i16 = even step, high i16 = odd step (zero
        // past an odd band tail). Checked over both rhs layouts and an
        // odd band.
        let mut rng = seeded(32);
        let (k, n) = (23usize, NR_I8 + 7);
        let (k0, k1) = (2usize, 19usize); // odd-length band
        let b = rand_i8(k * n, &mut rng);
        let mut plain = Vec::new();
        I8Plain::pack_b(Rhs::Rows { b: &b, n }, k0, k1, n, &mut plain);
        let mut pairs = Vec::new();
        I8Pairs::pack_b(Rhs::Rows { b: &b, n }, k0, k1, n, &mut pairs);
        let kb = k1 - k0;
        let kpairs = kb.div_ceil(2);
        let npan = n.div_ceil(NR_I8);
        for jp in 0..npan {
            for pp in 0..kpairs {
                for lane in 0..NR_I8 {
                    let pairv = pairs[(jp * kpairs + pp) * NR_I8 + lane];
                    let b0 = pairv as i16 as i32;
                    let b1 = pairv >> 16;
                    let want0 = plain[(jp * kb + 2 * pp) * NR_I8 + lane] as i32;
                    let want1 = if 2 * pp + 1 < kb {
                        plain[(jp * kb + 2 * pp + 1) * NR_I8 + lane] as i32
                    } else {
                        0
                    };
                    assert_eq!((b0, b1), (want0, want1), "jp={jp} pp={pp} lane={lane}");
                }
            }
        }
        // Weight layout packs the same panel as packing the materialized
        // transpose through the Rows arm.
        let w = rand_i8(n * k, &mut rng);
        let mut bt = vec![0i8; k * n];
        for j in 0..n {
            for p in 0..k {
                bt[p * n + j] = w[j * k + p];
            }
        }
        let mut from_wt = Vec::new();
        I8Pairs::pack_b(Rhs::WeightT { w: &w, k }, k0, k1, n, &mut from_wt);
        let mut from_rows = Vec::new();
        I8Pairs::pack_b(Rhs::Rows { b: &bt, n }, k0, k1, n, &mut from_rows);
        assert_eq!(from_wt, from_rows);
    }

    #[test]
    fn gemm_counts_the_dispatched_isa() {
        use flexiq_telemetry as tel;
        let total = |c: &tel::CountersSnapshot| c.gemm_isa_avx2 + c.gemm_isa_scalar;
        let before = total(&tel::counters());
        let a = vec![1i8; 4];
        let b = vec![1i8; 4];
        let mut c = vec![0i32; 4];
        gemm_i8(2, 2, 2, &a, &b, &mut c);
        // Other tests in this binary may run concurrently, so assert a
        // delta, not an absolute count.
        assert!(total(&tel::counters()) > before);
        assert_eq!(simd::last_dispatch(), Some(simd::active()));
    }

    /// Runs `gemm_f32` and a banded `gemm_i8_band` on each `(m, n, k)`
    /// under pools of 2, 3 and 4 threads and asserts every result matches
    /// the 1-thread pool bit for bit.
    fn assert_bit_exact_across_pools(shapes: &[(usize, usize, usize)], seed: u64) {
        let mut rng = seeded(seed);
        for &(m, n, k) in shapes {
            let a = rand_f32(m * k, &mut rng);
            let b = rand_f32(k * n, &mut rng);
            let ai = rand_i8(m * k, &mut rng);
            let bi = rand_i8(k * n, &mut rng);
            let run = |pool: &Arc<ThreadPool>| {
                let (mut c, mut ci) = (vec![0.0f32; m * n], vec![0i32; m * n]);
                flexiq_parallel::with_pool(pool, || {
                    gemm_f32(m, n, k, &a, &b, &mut c);
                    gemm_i8_band(m, n, k, 3, k - 5, &ai, &bi, &mut ci);
                });
                (c, ci)
            };
            let (c_ref, ci_ref) = run(&ThreadPool::new(1));
            for threads in [2usize, 3, 4] {
                let (c, ci) = run(&ThreadPool::new(threads));
                for (x, y) in c.iter().zip(c_ref.iter()) {
                    assert_eq!(x.to_bits(), y.to_bits(), "({m},{n},{k}) {threads} threads");
                }
                assert_eq!(ci, ci_ref, "({m},{n},{k}) {threads} threads (i8)");
            }
        }
    }

    #[test]
    fn parallel_gemm_is_bit_exact_with_serial_at_any_thread_count() {
        // Tall shapes above PAR_MIN_WORK split into row bands.
        assert_bit_exact_across_pools(&[(24, 96, 48), (2 * MC + 3, 40, 70)], 26);
    }

    #[test]
    fn wide_but_short_gemm_column_bands_bit_exactly() {
        // Small `m`, wide `n`, down to the depthwise `m = 1`: above
        // PAR_MIN_WORK but at most one row tile, so there is no band to
        // split off (no column-band plan exists) and every pool size must
        // give the serial result.
        assert_bit_exact_across_pools(&[(1, 4096, 64), (3, 2048, 32), (2, 600, 80)], 29);
    }

    #[test]
    #[should_panic(expected = "invalid band")]
    fn band_bounds_are_checked() {
        let a = vec![0i8; 4];
        let b = vec![0i8; 4];
        let mut c = vec![0i32; 4];
        gemm_i8_band(2, 2, 2, 2, 1, &a, &b, &mut c);
    }

    #[test]
    fn tiled_wt_f32_pack_matches_generic_pack_exactly() {
        // The blocked 8×8 transpose fill must produce byte-identical
        // panels to the generic lane-major walk, across full tiles,
        // lane tails, k tails, bands, and panel offsets.
        let mut rng = seeded(33);
        for &(n, k, k0, k1) in &[
            (2 * NR, 2 * WT_TILE, 0usize, 2 * WT_TILE),
            (NR + 3, 19, 0, 19),
            (3 * NR + 5, 41, 7, 36),
            (NR, WT_TILE, 0, WT_TILE),
            (5, 3, 1, 3),
        ] {
            let w = rand_f32(n * k, &mut rng);
            let mut tiled = Vec::new();
            F32Kernel::pack_b(Rhs::WeightT { w: &w, k }, k0, k1, n, &mut tiled);
            let mut generic = Vec::new();
            pack_b_panels::<f32, NR>(Rhs::WeightT { w: &w, k }, k0, k1, n, &mut generic);
            assert_eq!(tiled.len(), generic.len(), "({n},{k},{k0},{k1})");
            for (i, (x, y)) in tiled.iter().zip(generic.iter()).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "({n},{k},{k0},{k1}) elem {i}");
            }
        }
    }

    #[test]
    fn prepacked_entry_points_are_bit_identical_to_per_call() {
        // Shapes chosen to hit the blocked serial path, the row-banded
        // path (under the ambient pool), and the sub-threshold naive
        // fallback (m = 1).
        let mut rng = seeded(34);
        for &(m, n, k) in &[(MC + 5, 3 * NR_I8 + 9, KC + 11), (16, 64, 40), (1, 48, 32)] {
            let ai = rand_i8(m * k, &mut rng);
            let wi = rand_i8(n * k, &mut rng);
            let (k0, k1) = (3usize, k - 5);
            let (mut c0, mut c1) = (vec![0i32; m * n], vec![0i32; m * n]);
            gemm_i8_band_wt(m, n, k, k0, k1, &ai, &wi, &mut c0);
            let packed = prepack_i8_wt_band(n, k, k0, k1, &wi);
            gemm_i8_band_wt_prepacked(m, n, k, k0, k1, &ai, &wi, &packed, &mut c1);
            assert_eq!(c0, c1, "i8 band wt ({m},{n},{k})");
        }
    }

    #[test]
    fn prepacked_isa_mismatch_falls_back_to_per_call() {
        // A panel in the format of an ISA other than the dispatching one
        // must not be consumed — the call still completes (per-call
        // pack) with identical results.
        let mut rng = seeded(35);
        let (m, n, k) = (24usize, 2 * NR_I8, 64usize);
        let ai = rand_i8(m * k, &mut rng);
        let wi = rand_i8(n * k, &mut rng);
        let other = match simd::active() {
            Isa::Scalar => Isa::Avx2,
            _ => Isa::Scalar,
        };
        let packed = prepack_i8_rhs(other, Rhs::WeightT { w: &wi, k }, n, 0, k);
        let (mut c0, mut c1) = (vec![0i32; m * n], vec![0i32; m * n]);
        gemm_i8_band_wt(m, n, k, 0, k, &ai, &wi, &mut c0);
        gemm_i8_band_wt_prepacked(m, n, k, 0, k, &ai, &wi, &packed, &mut c1);
        assert_eq!(c0, c1);
    }

    #[test]
    #[should_panic(expected = "prepacked rhs band mismatch")]
    fn prepacked_band_mismatch_is_rejected() {
        let ai = vec![0i8; 4 * 8];
        let wi = vec![0i8; 8 * 8];
        let packed = prepack_i8_wt_band(8, 8, 0, 4, &wi);
        let mut c = vec![0i32; 4 * 8];
        gemm_i8_band_wt_prepacked(4, 8, 8, 2, 6, &ai, &wi, &packed, &mut c);
    }

    // ── fused low-band entry point ──

    fn rand_low(len: usize, lo: i16, hi: i16, rng: &mut impl Rng) -> Vec<i8> {
        (0..len).map(|_| rng.gen_range(lo..=hi) as i8).collect()
    }

    /// `c += Σ_s (w_s · b_s) << (a_shifts[s] + shifts_s[i])`, one term at
    /// a time — the semantics [`gemm_i8_low_bands`] must reproduce.
    fn low_run_oracle(
        m: usize,
        n: usize,
        blocks: &[(usize, Vec<i8>, Vec<u8>)],
        a_shifts: &[u8],
        b: &[i8],
        c: &mut [i32],
    ) {
        let mut row0 = 0;
        for ((kb, w, shifts), &act) in blocks.iter().zip(a_shifts) {
            for i in 0..m {
                for j in 0..n {
                    let mut sum = 0i32;
                    for p in 0..*kb {
                        sum += w[i * kb + p] as i32 * b[(row0 + p) * n + j] as i32;
                    }
                    c[i * n + j] += sum << (act + shifts[i]);
                }
            }
            row0 += kb;
        }
    }

    fn check_low_run(m: usize, n: usize, kbs: &[usize], lo: i16, hi: i16, seed: u64) {
        let mut rng = seeded(seed);
        let blocks: Vec<(usize, Vec<i8>, Vec<u8>)> = kbs
            .iter()
            .map(|&kb| {
                let w = rand_low(m * kb, lo, hi, &mut rng);
                let shifts = (0..m).map(|_| rng.gen_range(0u8..=4)).collect();
                (kb, w, shifts)
            })
            .collect();
        let a_shifts: Vec<u8> = kbs.iter().map(|_| rng.gen_range(0u8..=4)).collect();
        let k: usize = kbs.iter().sum();
        let b = rand_low(k * n, lo, hi, &mut rng);
        let start: Vec<i32> = (0..m * n).map(|_| rng.gen_range(-999..999)).collect();
        let bands: Vec<LowBandLhs> = blocks
            .iter()
            .map(|(kb, w, s)| LowBandLhs::new(m, *kb, w.clone(), s.clone()))
            .collect();
        let mut want = start.clone();
        low_run_oracle(m, n, &blocks, &a_shifts, &b, &mut want);
        let mut got = start;
        let call = LowBands {
            n,
            bands: &bands,
            a_shifts: &a_shifts,
            b: &b,
        };
        gemm_i8_low_bands(call, &mut got);
        assert_eq!(want, got, "m={m} n={n} kbs={kbs:?} range=[{lo},{hi}]");
    }

    #[test]
    fn low_run_matches_the_per_band_oracle() {
        // Blocked and sub-threshold shapes, partial lane panels, partial
        // row tiles, odd band widths, runs of one and of many bands —
        // under whichever tile the ISA picks for nibble-range operands.
        let shapes: &[(usize, usize, &[usize])] = &[
            (16, 2048, &[36, 36, 36, 36]),
            (24, 512, &[36, 27, 9]),
            (33, 100, &[5, 3, 7, 1, 4]),
            (4, 32, &[64]),
            (7, 75, &[13]),
            (1, 300, &[9]),
            (2, 31, &[8, 8]),
            (64, 130, &[144, 145]),
        ];
        for (i, &(m, n, kbs)) in shapes.iter().enumerate() {
            check_low_run(m, n, kbs, -8, 7, 400 + i as u64);
            check_low_run(m, n, kbs, -2, 1, 500 + i as u64);
            // Full i8 operands take the ordinary tiles, same write-back.
            check_low_run(m, n, kbs, -128, 127, 600 + i as u64);
        }
    }

    #[test]
    fn low_run_is_exact_at_the_range_and_accumulation_limits() {
        // Constant operands at each corner of [-8, 7]² drive every i16
        // lane to its extreme; reduction extents straddle the proven
        // i16 accumulation limit (136 steps of four) and its odd tails.
        let limit = 4 * simd::DENSE_I16_STEPS;
        for kb in [limit - 1, limit, limit + 1, limit + 4, 2 * limit + 3] {
            for (wv, bv) in [(-8i8, 7i8), (-8, -8), (7, 7), (7, -8)] {
                let (m, n) = (5usize, 70usize);
                let band = LowBandLhs::new(m, kb, vec![wv; m * kb], vec![1; m]);
                let b = vec![bv; kb * n];
                let mut c = vec![3i32; m * n];
                let call = LowBands {
                    n,
                    bands: std::slice::from_ref(&band),
                    a_shifts: &[2],
                    b: &b,
                };
                gemm_i8_low_bands(call, &mut c);
                let want = 3 + ((kb as i32 * wv as i32 * bv as i32) << 3);
                assert!(c.iter().all(|&v| v == want), "kb={kb} w={wv} b={bv}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside [-8, 7]")]
    fn low_run_rejects_wide_activations_under_low_range_bands() {
        if simd::active() != Isa::Avx2 {
            panic!("outside [-8, 7] (dense tile not dispatched on this ISA)");
        }
        let (m, n, kb) = (8usize, 64usize, 32usize);
        let band = LowBandLhs::new(m, kb, vec![1; m * kb], vec![0; m]);
        let mut b = vec![0i8; kb * n];
        b[5 * n + 40] = 8;
        let call = LowBands {
            n,
            bands: std::slice::from_ref(&band),
            a_shifts: &[0],
            b: &b,
        };
        gemm_i8_low_bands(call, &mut vec![0i32; m * n]);
    }

    #[test]
    fn low_run_is_bit_exact_across_thread_counts() {
        for threads in [2usize, 4] {
            let pool = flexiq_parallel::ThreadPool::new(threads);
            flexiq_parallel::with_pool(&pool, || {
                // Tall (row bands), wide-but-short (serial: one row
                // tile) and a ragged last tile.
                check_low_run(64, 512, &[36, 36], -8, 7, 900);
                check_low_run(3, 4096, &[36, 9], -8, 7, 901);
                check_low_run(19, 1024, &[40], -8, 7, 902);
                check_low_run(64, 512, &[36, 36], -100, 100, 903);
            });
        }
    }
}
