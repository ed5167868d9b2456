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
//! A convolution's rhs is neither: [`gemm_i8_low_bands`] reads it from a
//! [`ConvSource`], the layer's quantized activation as **channel quads**
//! (`[N][quads][H + 2·pad][W + 2·pad][4]`, four adjacent channels of one
//! band per pixel, each quad plane zero-bordered by the conv's padding).
//! A band reduces in the order (channel quad, `kh`, `kw`, channel), so
//! one reduction quad of one output column is four contiguous bytes and
//! a quad panel row is a copy (or, at stride > 1, a gather) of whole
//! quads. No `[K, N·OH·OW]` im2col matrix is built for the integer
//! engine; [`crate::im2col`] serves the f32 path and the test oracles.
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
//! kernels in [`crate::simd`] when the running CPU supports them. The
//! ISA is detected once per process and resolved per call, in this
//! order: `FLEXIQ_NO_SIMD=1` forces scalar, a test cap
//! ([`simd::set_cap`]) bounds the pick, and otherwise the best tier the
//! CPU has wins — AVX-VNNI (`avx2` + `avxvnni`), then AVX2, then scalar.
//! Per tier, the integer kernels are:
//!
//! * **AVX-VNNI** — every blocked i8 GEMM is a *byte-quad run*: the lhs
//!   rows are packed into quad tiles with a per-row correction, the rhs
//!   into quad panels offset to unsigned bytes, and one non-saturating
//!   `vpdpbusd` adds four products per i32 lane (`+128` panels for
//!   full-range operands, `+8` for bit-lowered bands). The rhs stores
//!   `b + offset` as an unsigned byte, the lhs pack records
//!   `-offset·Σ_p a[i][p]` per row, and the i32 lanes wrap instead of
//!   saturating, so the result is exact whenever it fits in `i32` —
//!   which every `K < 131 072` guarantees (`|a·b| ≤ 16384`); the full
//!   argument is in [`crate::simd`].
//! * **AVX2** — full-range operands run the `pmaddwd` *pair* panel (the
//!   `I8Pairs` kernel); bit-lowered bands in `[-8, 7]` run the
//!   `vpmaddubsw` byte-quad tile at `+8`.
//! * **Scalar** — plain panels and the portable tiles.
//!
//! Edge tiles of the `Kernel` families and sub-threshold problems run the
//! scalar/reference code; a byte-quad run covers its edges itself (zero
//! padded lhs rows and steps, and a partial write-back of the last panel).
//! All paths are bit-identical — the f32 SIMD tiles keep
//! per-element k-accumulation in ascending order with unfused
//! multiply-adds, and integer tiles are exact in `i32` regardless of
//! lane order (see [`crate::simd`] for the full contract). The SIMD
//! integer tiles do **not** zero-skip: their branch-free throughput
//! beats skipping, and integer results are exact either way. The f32
//! blocking floor [`BLOCK_MIN_RHS_F32`] applies to the scalar tiles
//! only — the SIMD f32 tile wins from the generic [`BLOCK_MIN_WORK`]
//! threshold, so small shapes block as soon as a SIMD ISA is active.
//!
//! # Convolution bands, both precisions
//!
//! [`gemm_i8_low_bands`] is the one convolution GEMM. It runs a run of
//! consecutive feature-group bands of one conv group against a
//! [`ConvSource`], with the weights as the lhs ([`LowBandLhs`]), and it
//! serves both precisions:
//!
//! * A **bit-lowered** band does not end at its sum: the sum re-enters
//!   the 8-bit accumulator scale by a left shift of the band's
//!   extraction positions (the paper's *bit-shifted accumulation*). The
//!   call takes that shift as the **write-back** of the integer kernels
//!   — every tile and reference loop adds `sum << (act + weight[row])`
//!   straight into `c`, one weight shift per output row — so a band
//!   needs no scratch matrix and no second pass.
//! * An **8-bit** band adds its plain sum (`Epilogue::Add`).
//!
//! Either way a run is one call that packs its rhs panels once, straight
//! from the source, and visits each output tile once. Operands lowered
//! to four bits or fewer lie in `[-8, 7]`; on either SIMD tier such a
//! run is a byte-quad run at `+8` (AVX2's `vpmaddubsw` tile or the VNNI
//! tile, exactness argued in [`crate::simd`]). Under AVX-VNNI every other
//! run — every 8-bit run included — is a `+128` byte-quad run. The
//! weights of every band are prepacked as lhs quad tiles inside
//! [`LowBandLhs`] for the offset the active ISA runs them at, so no conv
//! call packs weights. Everything else (scalar dispatch, sub-threshold
//! shapes, full-range operands under AVX2) materializes the run's
//! `[Σ kb, n]` block from the same source and runs the ordinary i8
//! kernels with the same write-back; all of it is exact in `i32`. (A
//! linear layer needs none of this: its shifts fold into round-tripped
//! operands, and it runs as one plain prepacked GEMM.)
//!
//! # Prepacked weights
//!
//! The rhs of a weight GEMM is immutable across calls, so its pack
//! stage can run **once ahead of time**: [`prepack_i8_wt_band`] builds
//! an owned [`PackedRhsI8`] holding exactly the panels a per-call pack
//! would produce — plain, pair or `+128` quad panels, by the ISA active
//! at prepack — and [`gemm_i8_band_wt_prepacked`] feeds them straight
//! to the driver (as [`LowBandLhs`] does for the conv bands' lhs
//! quad tiles). Whether a panel is consumed is decided by the call's
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
//! kernel — no new driver, plan match or public function. A byte-quad
//! run goes through the same dispatcher with its own tile loop: its lhs
//! tiles carry per-row corrections and span whole bands, not `KC`
//! blocks, and its one tile call picks the AVX2 or the VNNI tile (the
//! two share a signature).

use std::mem::size_of;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use flexiq_parallel::{chunk_ranges_into, put_ranges, take_ranges, ThreadPool};

use crate::im2col::Conv2dGeometry;
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
/// packing ISA's kernel consumes: plain panels under scalar dispatch,
/// `pmaddwd` pair panels under AVX2, `+128` byte-quad panels under
/// AVX-VNNI.
#[derive(Debug, Clone)]
enum PanelsI8 {
    Plain(Vec<i8>),
    #[cfg(target_arch = "x86_64")]
    Pairs(Vec<i32>),
    #[cfg(target_arch = "x86_64")]
    Quads(Vec<i8>),
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
            #[cfg(target_arch = "x86_64")]
            PanelsI8::Quads(buf) => buf.len(),
        }
    }
}

/// Packs an i8 rhs into owned panels in `isa`'s format.
fn prepack_i8_rhs(isa: Isa, rhs: Rhs<'_, i8>, n: usize, k0: usize, k1: usize) -> PackedRhsI8 {
    let panels = match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::AvxVnni => {
            let mut buf = Vec::new();
            pack_b_quads(
                rhs,
                k0,
                std::iter::once(k1 - k0),
                n,
                FULL_RANGE_OFFSET,
                &mut buf,
            );
            PanelsI8::Quads(buf)
        }
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
                // SAFETY: an ISA with AVX2 only after runtime detection.
                Isa::Avx2 | Isa::AvxVnni => unsafe {
                    simd::x86::f32_tile_avx2(kc, ap, bp, &mut acc)
                },
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
/// tiles. The SIMD tiers never reach this kernel — AVX2 uses the pair
/// panel via [`I8Pairs`], AVX-VNNI the byte-quad runs.
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
/// Only constructed after runtime detection reported AVX2 (under
/// AVX-VNNI, for sub-threshold shapes only — it then runs the
/// reference-order loop).
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
            // detection reported an ISA with AVX2 (see `gemm_i8_general`).
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
            Isa::AvxVnni => tel::Counter::GemmIsaVnni,
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
/// picks the kernel — a blocked shape under AVX-VNNI runs the byte-quad
/// path ([`quads_general`]), AVX2 reads pair panels, scalar dispatch the
/// plain ones — and runs the plan. `pre` optionally supplies an ahead-of-time
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
    if isa == Isa::AvxVnni && worth_blocking(m, n, ops.k1 - ops.k0, NR_I8, 0) {
        let pre = match panels {
            Some(PanelsI8::Quads(buf)) => Some(&buf[..]),
            _ => None,
        };
        return quads_general(m, n, ops, pre, epi, c);
    }
    #[cfg(target_arch = "x86_64")]
    if isa.has_avx2() {
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
/// and `b` is `[k,n]`: a GEMM over a row-major rhs, such as an im2col
/// matrix. The quantized convolution engine does not call it — its
/// runs of both precisions go through [`gemm_i8_low_bands`], which reads
/// the channel-quad activations — so it serves the replay tools and the
/// tests that compare the two.
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

// ─── Byte-quad operands and the quad driver ─────────────────────────────

/// Rhs panel offset of full-range byte-quad runs: `b + 128 ∈ [0, 255]`
/// is the unsigned side of `vpdpbusd` (see [`crate::simd`]).
const FULL_RANGE_OFFSET: i32 = 128;

/// Rhs panel offset of low-range byte-quad runs: `b + 8 ∈ [0, 15]`, the
/// range the AVX2 dense tile is exact on.
const LOW_RANGE_OFFSET: i32 = 8;

/// Appends the quad-interleaved lhs tiles of rows `0..m`, reduction band
/// `[k0, k1)`, of the row-major `a` (row stride `lda`) to `tiles`, and
/// their per-row offset corrections `-offset·Σ_p a[i][p]` (wrapping, see
/// [`crate::simd`]) to `corr`: relative to where each buffer started,
/// `tiles[((it*kq + q)*MR + r)*4 + t]` is row `it*MR + r`, step
/// `k0 + 4q + t` (zero past the operand's edges), and `corr` gains
/// `⌈m/MR⌉·MR` entries, zero on padding rows.
fn pack_quad_lhs(
    a: &[i8],
    lda: usize,
    m: usize,
    [k0, k1]: [usize; 2],
    offset: i32,
    tiles: &mut Vec<i8>,
    corr: &mut Vec<i32>,
) {
    let kq = (k1 - k0).div_ceil(4);
    let ntiles = m.div_ceil(MR);
    let (t0, c0) = (tiles.len(), corr.len());
    tiles.resize(t0 + ntiles * kq * MR * 4, 0);
    corr.resize(c0 + ntiles * MR, 0);
    for i in 0..m {
        let (it, r) = (i / MR, i % MR);
        let arow = &a[i * lda + k0..i * lda + k1];
        let dst = &mut tiles[t0 + it * kq * MR * 4..];
        // Whole quads as fixed 4-byte moves, then the tail.
        let (quads, tail) = arow.as_chunks::<4>();
        for (q, quad) in quads.iter().enumerate() {
            dst[(q * MR + r) * 4..][..4].copy_from_slice(quad);
        }
        if !tail.is_empty() {
            dst[(quads.len() * MR + r) * 4..][..tail.len()].copy_from_slice(tail);
        }
        let sum: i32 = arow.iter().map(|&v| v as i32).sum();
        corr[c0 + i] = sum.wrapping_mul(-offset);
    }
}

/// Quad-interleaved lhs tiles of a weight block with their
/// `-offset·Σa` corrections ([`pack_quad_lhs`]), owned — the prepacked
/// lhs of [`LowBandLhs`], for panels stored at `+offset`.
#[derive(Debug, Clone)]
struct DenseLhs {
    offset: i32,
    tiles: Vec<i8>,
    corr: Vec<i32>,
}

impl DenseLhs {
    /// Packs a row-major `[m, kb]` block for `+offset` panels.
    fn pack(m: usize, kb: usize, rows: &[i8], offset: i32) -> Self {
        let (mut tiles, mut corr) = (Vec::new(), Vec::new());
        pack_quad_lhs(rows, kb, m, [0, kb], offset, &mut tiles, &mut corr);
        DenseLhs {
            offset,
            tiles,
            corr,
        }
    }

    /// Bytes held (tiles and corrections).
    fn bytes(&self) -> usize {
        self.tiles.len() + self.corr.len() * size_of::<i32>()
    }
}

/// One band of a byte-quad run ([`quad_run`]): its reduction extent,
/// the lhs quad tiles of every row tile of the call with their
/// corrections, and the write-back of its sums. The epilogue's row
/// shifts are indexed by absolute output row.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct QuadBand<'a> {
    kb: usize,
    tiles: &'a [i8],
    corr: &'a [i32],
    epi: Epilogue<'a>,
}

/// Packs all `n` columns of the consecutive reduction bands `kbs`
/// (starting at step `k0`) of a row-major or weight-layout `rhs` into
/// quad panels (a conv run packs its own, [`ConvSource::pack_quads`]):
/// `buf[((jp*kq + q0_s + q)*NR_I8 + lane)*4 + t]` holds column
/// `jp*NR_I8 + lane` of band `s`'s step `4q + t`, **offset by
/// `+offset`** and stored as a wrapping byte, where `kq = Σ_s ⌈kb_s/4⌉`
/// and `q0_s` is band `s`'s first quad — every band starts on a quad
/// boundary, so each can be fed to the tile on its own. Steps past a
/// band's end and lanes past the matrix edge stay zero (the lhs tiles
/// are zero there, so the value is moot). Returns the OR of every
/// stored byte: `≤ 15` iff a `+8` pack met only values in `[-8, 7]`.
fn pack_b_quads(
    rhs: Rhs<'_, i8>,
    k0: usize,
    kbs: impl Iterator<Item = usize> + Clone,
    n: usize,
    offset: i32,
    buf: &mut Vec<i8>,
) -> u8 {
    let kq: usize = kbs.clone().map(|kb| kb.div_ceil(4)).sum();
    let npan = n.div_ceil(NR_I8);
    let offset = offset as i8;
    let simd_rows = cfg!(target_arch = "x86_64") && simd::detect().has_avx2();
    buf.clear();
    buf.resize(npan * kq * NR_I8 * 4, 0);
    let mut seen = 0u8;
    for jp in 0..npan {
        let j0 = jp * NR_I8;
        let lanes = (n - j0).min(NR_I8);
        let (mut p0, mut q0) = (k0, jp * kq);
        for kb in kbs.clone() {
            let dst = &mut buf[q0 * NR_I8 * 4..(q0 + kb.div_ceil(4)) * NR_I8 * 4];
            match rhs {
                Rhs::Rows { b, n: ldb } => {
                    let full = if lanes == NR_I8 && simd_rows {
                        kb / 4
                    } else {
                        0
                    };
                    #[cfg(target_arch = "x86_64")]
                    if full > 0 {
                        let src = &b[p0 * ldb + j0..];
                        // SAFETY: `full > 0` only after runtime detection
                        // reported AVX2.
                        seen |= unsafe { simd::x86::quads_pack_avx2(src, ldb, full, offset, dst) };
                    }
                    for p in 4 * full..kb {
                        let src = &b[(p0 + p) * ldb + j0..][..lanes];
                        for (lane, &v) in src.iter().enumerate() {
                            let u = v.wrapping_add(offset);
                            seen |= u as u8;
                            dst[(p / 4 * NR_I8 + lane) * 4 + p % 4] = u;
                        }
                    }
                }
                Rhs::WeightT { w, k } => {
                    // A column's quad is four adjacent bytes of its
                    // weight row.
                    for lane in 0..lanes {
                        let wrow = &w[(j0 + lane) * k + p0..][..kb];
                        for (q, quad) in wrow.chunks(4).enumerate() {
                            let d = &mut dst[(q * NR_I8 + lane) * 4..][..quad.len()];
                            for (d, &v) in d.iter_mut().zip(quad) {
                                *d = v.wrapping_add(offset);
                                seen |= *d as u8;
                            }
                        }
                    }
                }
            }
            p0 += kb;
            q0 += kb.div_ceil(4);
        }
    }
    seen
}

/// Byte-quad pass over lhs tiles `tiles` of every band into `c`, those
/// tiles' rows of the output (row stride `n`), against quad panels `bq`
/// covering all `n` columns: each output tile sums all bands'
/// contributions in registers and touches `c` once. `vnni` picks the
/// tile — the AVX-VNNI tile, or the AVX2 dense tile (`+8` panels only).
#[cfg(target_arch = "x86_64")]
fn quad_block<'a>(
    vnni: bool,
    m: usize,
    tiles: Range<usize>,
    bands: impl Iterator<Item = QuadBand<'a>> + Clone,
    bq: &[i8],
    c: &mut [i32],
    n: usize,
) {
    let kq: usize = bands.clone().map(|s| s.kb.div_ceil(4)).sum();
    for jp in 0..n.div_ceil(NR_I8) {
        let col0 = jp * NR_I8;
        let nrw = (n - col0).min(NR_I8);
        for it in tiles.clone() {
            let mr = (m - it * MR).min(MR);
            let mut total = [[0i32; NR_I8]; MR];
            let mut q0 = jp * kq;
            for band in bands.clone() {
                let kqs = band.kb.div_ceil(4);
                let mut corr = [0i32; MR];
                let mut shl = [0u32; MR];
                corr.copy_from_slice(&band.corr[it * MR..(it + 1) * MR]);
                if let Epilogue::ShlRows { act, weight } = band.epi {
                    for r in 0..mr {
                        shl[r] = (act + weight[it * MR + r]) as u32;
                    }
                }
                let ap = &band.tiles[it * kqs * MR * 4..(it + 1) * kqs * MR * 4];
                let bp = &bq[q0 * NR_I8 * 4..(q0 + kqs) * NR_I8 * 4];
                let out = &mut total;
                // SAFETY: quad runs dispatch on runtime-detected AVX2, and
                // `vnni` is set only on runtime-detected AVX-VNNI.
                unsafe {
                    if vnni {
                        simd::x86::i8_tile_quads_vnni(kqs, ap, bp, &corr, &shl, out)
                    } else {
                        simd::x86::i8_tile_dense_avx2(kqs, ap, bp, &corr, &shl, out)
                    }
                };
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

/// A run of byte-quad bands through [`run_plan`]: the rhs quad panels
/// of all `n` columns are `pre` or are packed once per call by
/// `pack_b`, and [`quad_block`] visits each output tile once. Row bands
/// split whole lhs tiles, so each output element's integer sum is
/// untouched. The caller checked the shape against the blocking
/// threshold. Returns the rhs bytes packed.
#[cfg(target_arch = "x86_64")]
fn quad_run<'a>(
    vnni: bool,
    [m, n]: [usize; 2],
    bands: impl Iterator<Item = QuadBand<'a>> + Clone + Sync,
    pre: Option<&[i8]>,
    pack_b: impl FnOnce(&mut Vec<i8>),
    c: &mut [i32],
) -> u64 {
    let kb = bands.clone().map(|s| s.kb).sum();
    run_plan([m, n, kb], pre, c, true, pack_b, |rows, bq, c_rows| {
        let bq = bq.expect("a quad run always blocks");
        // Row bands are tile-aligned (`row_bands`), and the lhs tiles
        // were packed ahead of the plan: nothing staged here.
        let tiles = rows.start / MR..rows.end.div_ceil(MR);
        quad_block(vnni, m, tiles, bands.clone(), bq, c_rows, n);
        0
    })
}

/// A blocked full-range i8 GEMM under AVX-VNNI: the lhs rows are packed
/// into quad tiles with their `-128·Σa` corrections per call (`m·kb`
/// bytes), the rhs into `+128` quad panels once per call unless `pre`
/// holds them, and one single-band quad run does the rest. Returns the
/// bytes packed.
#[cfg(target_arch = "x86_64")]
fn quads_general(
    m: usize,
    n: usize,
    ops: Operands<'_, i8>,
    pre: Option<&[i8]>,
    epi: Epilogue<'_>,
    c: &mut [i32],
) -> u64 {
    let Operands {
        a,
        lda,
        rhs,
        k0,
        k1,
    } = ops;
    let (mut tiles, mut corr) = (i8::take(), i32::take());
    pack_quad_lhs(
        a,
        lda,
        m,
        [k0, k1],
        FULL_RANGE_OFFSET,
        &mut tiles,
        &mut corr,
    );
    let lhs_bytes = tiles.len() + corr.len() * size_of::<i32>();
    let band = QuadBand {
        kb: k1 - k0,
        tiles: &tiles,
        corr: &corr,
        epi,
    };
    let rhs_bytes = quad_run(
        true,
        [m, n],
        std::iter::once(band),
        pre,
        |buf| {
            pack_b_quads(rhs, k0, std::iter::once(k1 - k0), n, FULL_RANGE_OFFSET, buf);
        },
        c,
    );
    i8::put(tiles);
    i32::put(corr);
    lhs_bytes as u64 + rhs_bytes
}

// ─── The convolution rhs ────────────────────────────────────────────────

/// Bytes of one quad step of a panel: [`NR_I8`] lanes of four steps.
const QUAD_STEP_BYTES: usize = NR_I8 * 4;

/// Where each lane of one panel reads: `base[lane]` is the offset of
/// the lane's output column's window corner (quad 0, tap `(0, 0)`) in
/// the padded quads, so tap `(ki, kj)` of quad `q` is `base[lane] +
/// q·quad_len + ki·row + 4·kj`. `run` is the widest chunk — 16, 8, 4 or
/// 1 lanes — whose lanes read consecutive quads in every aligned chunk
/// of a full panel (one output row at stride 1), so a quad step copies
/// `NR_I8 / run` contiguous pieces.
struct PanelLanes {
    base: [usize; NR_I8],
    lanes: usize,
    run: usize,
}

/// The rhs of a convolution's band GEMMs, read straight from its
/// **channel-quad** activations: no `[K, N·OH·OW]` lowered matrix is
/// ever built.
///
/// A sample's activations are `[quads][H + 2·pad][W + 2·pad][4]`: one
/// byte quad is four adjacent channels of one band at one pixel, each
/// quad plane carries a zero border of the conv's `pad` (so every
/// kernel tap reads inside the plane, and a padding tap reads a zero),
/// and a band whose channel count is not a multiple of four pads its
/// last quad with zero channels, so every band is whole quads
/// ([`channel_quads_fill`] writes this layout). Sample `s` starts at
/// `s * sample_stride`. A band of `nq` quads reduces over `nq·KH·KW·4`
/// steps in the order (quad, `kh`, `kw`, channel): step `p` is channel
/// `4·(p / (4·KH·KW)) + p % 4` of the band at tap `(p / 4) % (KH·KW)`.
/// The lhs (the weights) is laid out in the same order. Output column
/// `j` is sample `j / (OH·OW)` at output position `j % (OH·OW)`, as in
/// the column-stacked batch layout.
///
/// A run of bands reads consecutive quads from `q0`; each band's
/// [`LowBandLhs`] width says how many. One quad step of one panel lane
/// is four contiguous bytes, so at stride 1 a panel row of [`NR_I8`]
/// lanes is a copy of whole quads (two 64-byte copies for a 16-wide
/// output row) and at larger strides a gather of every `stride`-th quad.
#[derive(Debug, Clone, Copy)]
pub struct ConvSource<'a> {
    /// Padded channel-quad activations of every sample.
    pub quads: &'a [i8],
    /// Samples stacked along the output columns.
    pub nb: usize,
    /// Elements from one sample's quads to the next sample's.
    pub sample_stride: usize,
    /// Input extent (unpadded), kernel, stride and padding. `c_in` is
    /// not read: the bands' widths say how many quads a run reads.
    pub geom: Conv2dGeometry,
    /// The run's first quad within a sample.
    pub q0: usize,
}

impl ConvSource<'_> {
    /// Output columns: every sample's `OH·OW` positions, stacked.
    pub fn n(&self) -> usize {
        self.nb * self.geom.cols()
    }

    /// Reduction steps of one quad: four channels at each of the
    /// `KH·KW` taps.
    pub fn quad_steps(&self) -> usize {
        4 * self.geom.kh * self.geom.kw
    }

    /// Elements of one padded quad plane of one sample.
    pub fn quad_len(&self) -> usize {
        let g = &self.geom;
        4 * (g.h + 2 * g.pad) * (g.w + 2 * g.pad)
    }

    /// The number of quads a `kb`-step reduction reads, after checking
    /// that they are whole and lie inside the activations.
    fn quads_for(&self, kb: usize) -> usize {
        let steps = self.quad_steps();
        assert!(
            kb % steps == 0,
            "a band must be whole quads ({steps} steps each)"
        );
        let nq = kb / steps;
        assert!(self.nb > 0, "empty batch");
        assert!(
            self.quads.len()
                >= (self.nb - 1) * self.sample_stride + (self.q0 + nq) * self.quad_len(),
            "channel-quad activations too short"
        );
        nq
    }

    /// The lane sources of the panel starting at column `j0`, `lanes`
    /// lanes wide.
    fn panel_lanes(&self, j0: usize, lanes: usize) -> PanelLanes {
        let g = &self.geom;
        let (oh, ow, row) = (g.out_h(), g.out_w(), 4 * (g.w + 2 * g.pad));
        let (mut s, r) = (j0 / (oh * ow), j0 % (oh * ow));
        let (mut oy, mut ox) = (r / ow, r % ow);
        let mut base = [0; NR_I8];
        for b in &mut base[..lanes] {
            *b = s * self.sample_stride + g.stride * (oy * row + 4 * ox);
            ox += 1;
            if ox == ow {
                (ox, oy) = (0, oy + 1);
                if oy == oh {
                    (oy, s) = (0, s + 1);
                }
            }
        }
        let contiguous = |w: usize| (0..NR_I8).all(|l| base[l] == base[l - l % w] + 4 * (l % w));
        let full = lanes == NR_I8 && g.stride == 1;
        let run = [16, 8, 4]
            .into_iter()
            .find(|&w| full && contiguous(w))
            .unwrap_or(1);
        PanelLanes { base, lanes, run }
    }

    /// The primitive: writes quad step `off` (tap `(ki, kj)` of quad
    /// `q` at `off = q·quad_len + ki·row + 4·kj`) of a panel's lanes into
    /// `dst`, four bytes per lane, each byte offset by `+offset`
    /// (wrapping), so padding taps land as the offset's zero; lanes past
    /// the panel's end hold the offset's zero too. ORs every byte written
    /// into `seen`. `RUN` is the panel's [`PanelLanes::run`]: the lanes
    /// move as `NR_I8 / RUN` contiguous pieces with the offset fused in,
    /// or (`RUN == 1`) as a gather of one quad per lane and one offset
    /// pass over the step.
    #[inline(always)]
    fn quad_step<const RUN: usize>(
        &self,
        lanes: &PanelLanes,
        off: usize,
        offset: i8,
        dst: &mut [i8; QUAD_STEP_BYTES],
        seen: &mut [u8; 16],
    ) {
        if RUN >= 4 {
            for c in 0..NR_I8 / RUN {
                let src = &self.quads[lanes.base[c * RUN] + off..][..4 * RUN];
                let d = &mut dst[c * 4 * RUN..][..4 * RUN];
                for (d, s) in d
                    .as_chunks_mut::<16>()
                    .0
                    .iter_mut()
                    .zip(src.as_chunks::<16>().0)
                {
                    *d = s.map(|v| v.wrapping_add(offset));
                    for (o, &v) in seen.iter_mut().zip(d.iter()) {
                        *o |= v as u8;
                    }
                }
            }
            return;
        }
        for (d, &b) in dst
            .as_chunks_mut::<4>()
            .0
            .iter_mut()
            .zip(&lanes.base[..lanes.lanes])
        {
            *d = self.quads[b + off..][..4].try_into().expect("4 bytes");
        }
        dst[4 * lanes.lanes..].fill(0);
        for d in dst.as_chunks_mut::<16>().0 {
            *d = d.map(|v| v.wrapping_add(offset));
            for (o, &v) in seen.iter_mut().zip(d.iter()) {
                *o |= v as u8;
            }
        }
    }

    /// Packs one panel's `nq` quads of steps into `steps`, in reduction
    /// order: quad, `kh`, `kw`.
    #[inline(always)]
    fn pack_panel<const RUN: usize>(
        &self,
        nq: usize,
        lanes: &PanelLanes,
        offset: i8,
        steps: &mut [[i8; QUAD_STEP_BYTES]],
        seen: &mut [u8; 16],
    ) {
        let g = &self.geom;
        let (row, quad_len) = (4 * (g.w + 2 * g.pad), self.quad_len());
        let mut steps = steps.iter_mut();
        for q in self.q0..self.q0 + nq {
            for ki in 0..g.kh {
                for kj in 0..g.kw {
                    let dst = steps.next().expect("one step per tap");
                    self.quad_step::<RUN>(
                        lanes,
                        q * quad_len + ki * row + 4 * kj,
                        offset,
                        dst,
                        seen,
                    );
                }
            }
        }
    }

    /// Packs the quad panels of a `kb`-step run from `q0` at `+offset`
    /// — the rhs a byte-quad run streams its tiles against:
    /// `buf[((jp·kq + qs)·NR_I8 + lane)·4 + t]` holds column
    /// `jp·NR_I8 + lane` of reduction step `4·qs + t`, where
    /// `kq = kb / 4` and step `qs` is tap `(qs / KW % KH, qs % KW)` of
    /// quad `qs / (KH·KW)`. Padding taps and lanes past `n` hold the
    /// offset's zero. Returns the OR of every stored byte: `≤ 15` iff a
    /// `+8` pack met only values in `[-8, 7]`.
    ///
    /// # Panics
    ///
    /// Panics if `kb` is not whole quads or they overrun the activations.
    pub fn pack_quads(&self, kb: usize, offset: i32, buf: &mut Vec<i8>) -> u8 {
        let nq = self.quads_for(kb);
        let n = self.n();
        let len = n.div_ceil(NR_I8) * (kb / 4) * QUAD_STEP_BYTES;
        // Every byte is written below: no zero fill first.
        buf.truncate(len);
        buf.resize(len, 0);
        if len == 0 {
            return 0;
        }
        let offset = offset as i8;
        let mut seen = [0u8; 16];
        let panels = buf
            .as_chunks_mut::<QUAD_STEP_BYTES>()
            .0
            .chunks_exact_mut(kb / 4);
        for (jp, steps) in panels.enumerate() {
            let lanes = self.panel_lanes(jp * NR_I8, (n - jp * NR_I8).min(NR_I8));
            // One monomorphized step loop per piece width.
            match lanes.run {
                16 => self.pack_panel::<16>(nq, &lanes, offset, steps, &mut seen),
                8 => self.pack_panel::<8>(nq, &lanes, offset, steps, &mut seen),
                4 => self.pack_panel::<4>(nq, &lanes, offset, steps, &mut seen),
                _ => self.pack_panel::<1>(nq, &lanes, offset, steps, &mut seen),
            }
        }
        seen.iter().fold(0, |acc, &v| acc | v)
    }

    /// Materializes the row-major `[kb, n]` block of a `kb`-step run
    /// from `q0` (step `4·qs + t` is row `4·qs + t`), for the tiers that
    /// read plain rows: the AVX2 pair panels, the scalar panels and the
    /// reference-order loops. It transposes the run's offset-free quad
    /// panels.
    fn rows_block(&self, kb: usize, buf: &mut Vec<i8>) {
        let n = self.n();
        buf.truncate(kb * n);
        buf.resize(kb * n, 0);
        if kb * n == 0 {
            return;
        }
        let mut panels = i8::take();
        self.pack_quads(kb, 0, &mut panels);
        let steps = panels.as_chunks::<QUAD_STEP_BYTES>().0.chunks_exact(kb / 4);
        for (jp, steps) in steps.enumerate() {
            let j0 = jp * NR_I8;
            let lanes = (n - j0).min(NR_I8);
            for (qs, step) in steps.iter().enumerate() {
                for t in 0..4 {
                    let row = &mut buf[(4 * qs + t) * n + j0..][..lanes];
                    for (d, quad) in row.iter_mut().zip(step.as_chunks::<4>().0) {
                        *d = quad[t];
                    }
                }
            }
        }
        i8::put(panels);
    }
}

/// A row of zero channel values, for the dead channels of a band's last
/// quad.
static ZERO_ROW: [i8; 256] = [0; 256];

/// Zeroes a short run of border pixels: one fixed-size store for the
/// one- and two-pixel runs of a pad-1 border, where a `fill` would be a
/// `memset` call per row.
#[inline(always)]
fn zero_pixels(d: &mut [i8]) {
    match d.len() {
        0 => {}
        4 => d.copy_from_slice(&[0; 4]),
        8 => d.copy_from_slice(&[0; 8]),
        _ => d.fill(0),
    }
}

/// Interleaves `nb` samples of `[C, h, w]` channel planes into the
/// padded channel quads a [`ConvSource`] reads: `widths` splits the `C`
/// channels into consecutive bands, each band is cut into quads of four
/// adjacent channels (its last quad padded with zero channels), and
/// each quad plane gets a zero border of `pad` pixels. `out` is
/// `[nb][Σ ⌈width/4⌉][h + 2·pad][w + 2·pad][4]`; every element is
/// written.
///
/// # Panics
///
/// Panics if a buffer does not match its extent.
pub fn channel_quads_fill(
    planes: &[i8],
    nb: usize,
    [h, w]: [usize; 2],
    pad: usize,
    widths: &[usize],
    out: &mut [i8],
) {
    let (c, hw): (usize, _) = (widths.iter().sum(), h * w);
    let nq: usize = widths.iter().map(|w| w.div_ceil(4)).sum();
    let (wp, quad_len) = (w + 2 * pad, 4 * (h + 2 * pad) * (w + 2 * pad));
    assert_eq!(planes.len(), nb * c * hw, "planes must be [nb, C, h, w]");
    assert_eq!(
        out.len(),
        nb * nq * quad_len,
        "quads must be [nb, quads, h + 2·pad, w + 2·pad, 4]"
    );
    if nq == 0 || hw == 0 {
        out.fill(0);
        return;
    }
    let empty = [0i8; 0];
    for (src, dst) in planes
        .chunks_exact(c * hw)
        .zip(out.chunks_exact_mut(nq * quad_len))
    {
        let mut quads = dst.chunks_exact_mut(quad_len);
        let mut chans = src.chunks_exact(hw);
        for &width in widths {
            for q in 0..width.div_ceil(4) {
                let d = quads.next().expect("sized above");
                let p: [&[i8]; 4] = std::array::from_fn(|t| match 4 * q + t < width {
                    true => chans.next().expect("sized above"),
                    false => &empty,
                });
                // The top border and the first row's left border, then
                // per row its pixels and the border run that joins it to
                // the next row; the bottom border ends the plane.
                d[..4 * (pad * wp + pad)].fill(0);
                d[4 * ((pad + h) * wp - pad)..].fill(0);
                for y in 0..h {
                    let row = &mut d[4 * ((pad + y) * wp + pad)..][..4 * wp];
                    let (pixels, border) = row.split_at_mut(4 * w);
                    if y + 1 < h {
                        zero_pixels(border);
                    }
                    let pixels = pixels.as_chunks_mut::<4>().0;
                    if p[3].is_empty() && w > ZERO_ROW.len() {
                        // A band's last, partly live quad on a row wider
                        // than the zero row.
                        for (x, d) in pixels.iter_mut().enumerate() {
                            *d = std::array::from_fn(|t| p[t].get(y * w + x).copied().unwrap_or(0));
                        }
                        continue;
                    }
                    // The dead channels of a band's last quad read zeros.
                    let at = |t: usize| match p[t].is_empty() {
                        true => &ZERO_ROW[..w],
                        false => &p[t][y * w..(y + 1) * w],
                    };
                    let (p0, p1, p2, p3) = (at(0), at(1), at(2), at(3));
                    let planes = p0.iter().zip(p1).zip(p2.iter().zip(p3));
                    for (d, ((&a, &b), (&c, &e))) in pixels.iter_mut().zip(planes) {
                        // Byte arithmetic on a u32 lane, which the
                        // compiler vectorizes.
                        let v = a as u8 as u32
                            | (b as u8 as u32) << 8
                            | (c as u8 as u32) << 16
                            | (e as u8 as u32) << 24;
                        *d = v.to_le_bytes().map(|x| x as i8);
                    }
                }
            }
        }
    }
}

/// The `+offset` quad panels of the first `kb` rows of a row-major
/// `[k, n]` matrix — the rhs a blocked [`gemm_i8_band`] packs per call
/// under AVX-VNNI. With [`ConvSource::pack_quads`], exposed so the kernel
/// sweep can time both rhs sources and compare their bytes. Returns the
/// OR of every stored byte.
pub fn pack_rows_quads(b: &[i8], n: usize, kb: usize, offset: i32, buf: &mut Vec<i8>) -> u8 {
    assert!(b.len() >= kb * n, "rhs buffer too small");
    pack_b_quads(Rhs::Rows { b, n }, 0, std::iter::once(kb), n, offset, buf)
}

// ─── Convolution bands and the conv entry point ─────────────────────────

/// One weight band of a convolution in **convolution orientation**
/// (weights are the GEMM lhs), in the reduction order of a
/// [`ConvSource`]: the `[m, kb]` block, and either one extraction shift
/// per output row (a bit-lowered band, [`LowBandLhs::new`]) or none (a
/// full-range 8-bit band, [`LowBandLhs::full`]). Construction prepacks
/// the block's lhs quad tiles for the active ISA: `+8` tiles under AVX2
/// or AVX-VNNI when every weight lies in `[-8, 7]` (anything lowered to
/// four bits or fewer), `+128` tiles under AVX-VNNI otherwise. The
/// quantized engine caches both kinds per (layer, conv group, feature
/// group), so no conv GEMM packs weights per call.
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
        assert_eq!(shifts.len(), m, "one shift per output row");
        // True of anything lowered to four bits or fewer.
        let low_range = rows.iter().all(|v| (-8..=7).contains(v));
        Self::prepacked(m, kb, rows, shifts, low_range)
    }

    /// Wraps a full-range row-major `[m, kb]` weight block — a band of
    /// an 8-bit run, which adds its plain sum — prepacking for the
    /// active ISA.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is not `[m, kb]`.
    pub fn full(m: usize, kb: usize, rows: Vec<i8>) -> Self {
        Self::prepacked(m, kb, rows, Vec::new(), false)
    }

    fn prepacked(m: usize, kb: usize, rows: Vec<i8>, shifts: Vec<u8>, low_range: bool) -> Self {
        assert_eq!(rows.len(), m * kb, "weight block must be [m, kb]");
        let isa = simd::active();
        let offset = if low_range && isa.has_avx2() {
            Some(LOW_RANGE_OFFSET)
        } else {
            (isa == Isa::AvxVnni).then_some(FULL_RANGE_OFFSET)
        };
        let dense = offset.map(|offset| DenseLhs::pack(m, kb, &rows, offset));
        LowBandLhs {
            m,
            kb,
            rows,
            shifts,
            low_range,
            dense,
        }
    }

    /// Bytes held (weight block, shifts, quad tiles and corrections).
    pub fn bytes(&self) -> usize {
        self.rows.len() + self.shifts.len() + self.dense.as_ref().map_or(0, DenseLhs::bytes)
    }

    /// Whether the block holds prepacked quad tiles.
    pub fn has_tiles(&self) -> bool {
        self.dense.is_some()
    }

    /// The write-back of this band's sums: shifted in by `act` plus the
    /// row's shift for a lowered band, added plainly for a full one.
    fn epilogue(&self, act: Option<&u8>) -> Epilogue<'_> {
        match act {
            Some(&act) => Epilogue::ShlRows {
                act,
                weight: &self.shifts,
            },
            None => Epilogue::Add,
        }
    }
}

/// The operands of one conv call ([`gemm_i8_low_bands`]): a run of
/// consecutive weight bands of one conv group as the lhs, and the
/// channel-quad activations they reduce over as the rhs. A **lowered**
/// run carries one activation extraction shift per band and shifts each
/// band's partial sum into the 8-bit accumulator scale at write-back:
/// with `sh(s, i) = a_shifts[s] + bands[s].shift[i]`, `c[i, j] += Σ_s
/// (bands[s] · b_s)[i, j] << sh(s, i)`, where `b_s` is band `s`'s rows of
/// the source in its reduction order. A **full-range** (8-bit) run has
/// empty `a_shifts` and adds `Σ_s (bands[s] · b_s)[i, j]`.
#[derive(Clone, Copy)]
pub struct LowBands<'a> {
    /// The run's weight bands, all `m` rows tall: all lowered
    /// ([`LowBandLhs::new`]) or all full-range ([`LowBandLhs::full`]).
    pub bands: &'a [LowBandLhs],
    /// Activation extraction shift of each lowered band; empty for a
    /// full-range run.
    pub a_shifts: &'a [u8],
    /// The activations, read from quad `src.q0` on.
    pub src: ConvSource<'a>,
}

/// The convolution GEMM, for both precisions: a run of weight bands
/// against the channel-quad activations, **shifted accumulation applied
/// at write-back** for a lowered run — the paper's low-precision
/// convolution band in one call, accumulating straight into `c`
/// (`[m, n]`, `n = src.n()`).
///
/// A blocked run is one byte-quad run ([`crate::simd`]) wherever the
/// ISA has a tile for its operands: under AVX-VNNI always (`+8` panels
/// when every operand lies in `[-8, 7]`, `+128` otherwise — every 8-bit
/// run), under AVX2 when every operand lies in `[-8, 7]` (the dense
/// `vpmaddubsw` tile). Its quad panels are packed once per call straight
/// from the source, and each output tile is visited once however many
/// bands the run has; the bands' prepacked tiles are the lhs. Everything
/// else — scalar dispatch, sub-threshold shapes, full-range operands
/// under AVX2 — materializes the run's `[Σ kb, n]` block from the same
/// source and runs the ordinary i8 kernels per band with the same
/// write-back. Every path is exact in `i32`, so results are
/// bit-identical to per-band GEMMs into a scratch buffer followed by
/// `c += scratch << shift`.
///
/// # Panics
///
/// Panics if a buffer is smaller than its extent, if a band is not
/// whole quads, if band heights or shift counts disagree, if lowered
/// and full-range bands mix, if a total shift exceeds
/// [`MAX_EPILOGUE_SHIFT`], or if a `+8` run meets an activation outside
/// `[-8, 7]` under bands that promised that range.
pub fn gemm_i8_low_bands(call: LowBands<'_>, c: &mut [i32]) {
    let LowBands {
        bands,
        a_shifts,
        src,
    } = call;
    let Some(first) = bands.first() else { return };
    let (m, n) = (first.m, src.n());
    let kb: usize = bands.iter().map(|s| s.kb).sum();
    assert!(bands.iter().all(|s| s.m == m), "bands differ in height");
    let lowered = !a_shifts.is_empty();
    if lowered {
        assert_eq!(a_shifts.len(), bands.len(), "one activation shift per band");
    }
    assert!(
        bands.iter().all(|s| s.shifts.is_empty() != lowered),
        "a run is all lowered bands or all full-range bands"
    );
    for s in bands {
        src.quads_for(s.kb);
    }
    src.quads_for(kb);
    assert!(c.len() >= m * n, "out buffer too small");
    for (s, band) in bands.iter().enumerate() {
        band.epilogue(a_shifts.get(s)).validate(m);
    }
    let isa = simd::active();
    gemm_traced(
        "gemm_i8_low_bands",
        [m, n, kb],
        isa,
        || 0,
        || {
            #[cfg(target_arch = "x86_64")]
            if isa.has_avx2()
                && worth_blocking(m, n, kb, NR_I8, 0)
                && (isa == Isa::AvxVnni || bands.iter().all(|s| s.low_range))
            {
                return conv_run_quads(isa, m, bands, a_shifts, src, c);
            }
            let mut block = i8::take();
            src.rows_block(kb, &mut block);
            let mut packed = block.len() as u64;
            let mut row0 = 0;
            for (s, band) in bands.iter().enumerate() {
                let rhs = Rhs::Rows {
                    b: &block[row0 * n..],
                    n,
                };
                let ops = Operands::new(&band.rows, band.kb, rhs, 0, band.kb);
                let epi = band.epilogue(a_shifts.get(s));
                packed += gemm_i8_general(m, n, ops, None, epi, c, isa);
                row0 += band.kb;
            }
            i8::put(block);
            packed
        },
    );
}

/// Byte-quad path of [`gemm_i8_low_bands`] (an ISA with AVX2, blocked
/// shape, and — without VNNI — all operands in `[-8, 7]`) as one
/// [`quad_run`]. A low-range run uses `+8` panels, a wider one `+128`
/// panels; each band's prepacked tiles serve where they were packed at
/// the run's offset, and the rest (bands built under another ISA, or a
/// `+8` band in a `+128` run) are packed here. The rhs quad panels are
/// packed once per call from the source. Returns the bytes packed.
#[cfg(target_arch = "x86_64")]
fn conv_run_quads(
    isa: Isa,
    m: usize,
    bands: &[LowBandLhs],
    a_shifts: &[u8],
    src: ConvSource<'_>,
    c: &mut [i32],
) -> u64 {
    let low = bands.iter().all(|s| s.low_range);
    let offset = if low {
        LOW_RANGE_OFFSET
    } else {
        FULL_RANGE_OFFSET
    };
    fn own(s: &LowBandLhs, offset: i32) -> Option<&DenseLhs> {
        s.dense.as_ref().filter(|d| d.offset == offset)
    }
    let (mut ltiles, mut lcorr) = (i8::take(), i32::take());
    for s in bands.iter().filter(|s| own(s, offset).is_none()) {
        pack_quad_lhs(&s.rows, s.kb, m, [0, s.kb], offset, &mut ltiles, &mut lcorr);
    }
    let lhs_bytes = ltiles.len() + lcorr.len() * size_of::<i32>();
    let (ltiles_ref, lcorr_ref) = (&ltiles[..], &lcorr[..]);
    let quads = bands
        .iter()
        .enumerate()
        .scan((0, 0), move |(t0, c0), (i, s)| {
            let (tiles, corr) = match own(s, offset) {
                Some(d) => (&d.tiles[..], &d.corr[..]),
                None => {
                    let ntiles = m.div_ceil(MR);
                    let (tl, cl) = (ntiles * s.kb.div_ceil(4) * MR * 4, ntiles * MR);
                    let own = (&ltiles_ref[*t0..*t0 + tl], &lcorr_ref[*c0..*c0 + cl]);
                    (*t0, *c0) = (*t0 + tl, *c0 + cl);
                    own
                }
            };
            Some(QuadBand {
                kb: s.kb,
                tiles,
                corr,
                epi: s.epilogue(a_shifts.get(i)),
            })
        });
    let kb = bands.iter().map(|s| s.kb).sum();
    let rhs_bytes = quad_run(
        isa == Isa::AvxVnni,
        [m, src.n()],
        quads,
        None,
        |bq| {
            let seen = src.pack_quads(kb, offset, bq);
            assert!(!low || seen <= 15, "low-band activation outside [-8, 7]");
        },
        c,
    );
    i8::put(ltiles);
    i32::put(lcorr);
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
        let _cap = simd::cap_lock();
        let total =
            |c: &tel::CountersSnapshot| c.gemm_isa_avx2 + c.gemm_isa_vnni + c.gemm_isa_scalar;
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
        // Under every cap this host has, a panel in each of the three
        // formats (plain, pair, +128 quad) is consumed where it is the
        // dispatching ISA's and re-packed per call where it is not —
        // either way with the reference's results.
        let _cap = simd::cap_lock();
        let mut rng = seeded(35);
        let (m, n, k) = (24usize, 2 * NR_I8 + 5, 67usize);
        let ai = rand_i8(m * k, &mut rng);
        let wi = rand_i8(n * k, &mut rng);
        let mut want = vec![0i32; m * n];
        reference::gemm_i8_band_wt(m, n, k, 2, k, &ai, &wi, &mut want);
        for cap in simd::host_caps() {
            simd::set_cap(Some(cap));
            for format in Isa::ALL {
                let packed = prepack_i8_rhs(format, Rhs::WeightT { w: &wi, k }, n, 2, k);
                let (mut c0, mut c1) = (vec![0i32; m * n], vec![0i32; m * n]);
                gemm_i8_band_wt(m, n, k, 2, k, &ai, &wi, &mut c0);
                gemm_i8_band_wt_prepacked(m, n, k, 2, k, &ai, &wi, &packed, &mut c1);
                assert_eq!(c0, want, "cap {cap:?}");
                assert_eq!(c1, want, "cap {cap:?}, {format:?} panel");
            }
        }
        simd::set_cap(None);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn quad_panels_hold_the_offset_operands_in_both_layouts() {
        // Every (step, lane) of a quad panel is the plain panel's byte
        // plus the offset (wrapping), zero past an odd band tail and a
        // partial panel's edge; the weight layout packs the same panel
        // as the materialized transpose through the Rows arm.
        let mut rng = seeded(36);
        let (k, n) = (23usize, NR_I8 + 7);
        let (k0, k1) = (2usize, 19usize);
        let b = rand_i8(k * n, &mut rng);
        let w: Vec<i8> = (0..n * k).map(|i| b[(i % k) * n + i / k]).collect();
        let kb = k1 - k0;
        let kq = kb.div_ceil(4);
        for offset in [LOW_RANGE_OFFSET, FULL_RANGE_OFFSET] {
            let band = std::iter::once(kb);
            let (mut rows, mut wt) = (Vec::new(), Vec::new());
            pack_b_quads(
                Rhs::Rows { b: &b, n },
                k0,
                band.clone(),
                n,
                offset,
                &mut rows,
            );
            pack_b_quads(Rhs::WeightT { w: &w, k }, k0, band, n, offset, &mut wt);
            assert_eq!(rows, wt, "offset {offset}");
            for jp in 0..n.div_ceil(NR_I8) {
                for q in 0..kq {
                    for lane in 0..NR_I8 {
                        for t in 0..4 {
                            let (p, j) = (4 * q + t, jp * NR_I8 + lane);
                            let want = if p < kb && j < n {
                                b[(k0 + p) * n + j].wrapping_add(offset as i8)
                            } else {
                                0
                            };
                            let got = rows[((jp * kq + q) * NR_I8 + lane) * 4 + t];
                            assert_eq!(got, want, "offset {offset} jp={jp} p={p} lane={lane}");
                        }
                    }
                }
            }
        }
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

    // ── the conv entry point ──

    fn rand_low(len: usize, lo: i16, hi: i16, rng: &mut impl Rng) -> Vec<i8> {
        (0..len).map(|_| rng.gen_range(lo..=hi) as i8).collect()
    }

    fn geom(hw: [usize; 2], k: usize, stride: usize, pad: usize) -> Conv2dGeometry {
        Conv2dGeometry {
            c_in: 0,
            h: hw[0],
            w: hw[1],
            kh: k,
            kw: k,
            stride,
            pad,
        }
    }

    /// The `[Σ kb, nb·OH·OW]` rhs of bands of `widths` channels over the
    /// `[nb, C, H, W]` planes, written from the definition: step `p` of
    /// a band is channel `4·(p / (4·KH·KW)) + p % 4` of the band at tap
    /// `(p / 4) % (KH·KW)` — zero past the band's channels and on
    /// padding taps.
    fn block_by_definition(
        planes: &[i8],
        nb: usize,
        g: &Conv2dGeometry,
        widths: &[usize],
    ) -> Vec<i8> {
        let (oh, ow, khkw) = (g.out_h(), g.out_w(), g.kh * g.kw);
        let (c, n) = (widths.iter().sum::<usize>(), nb * oh * ow);
        let mut rows = Vec::new();
        let mut c0 = 0;
        for &w in widths {
            for p in 0..w.div_ceil(4) * 4 * khkw {
                let (ch, tap) = (4 * (p / (4 * khkw)) + p % 4, p / 4 % khkw);
                let (ki, kj) = (tap / g.kw, tap % g.kw);
                rows.extend((0..n).map(|j| {
                    let (s, oy, ox) = (j / (oh * ow), j / ow % oh, j % ow);
                    let iy = (oy * g.stride + ki) as isize - g.pad as isize;
                    let ix = (ox * g.stride + kj) as isize - g.pad as isize;
                    let inside = (0..g.h as isize).contains(&iy) && (0..g.w as isize).contains(&ix);
                    if ch >= w || !inside {
                        return 0;
                    }
                    planes[((s * c + c0 + ch) * g.h + iy as usize) * g.w + ix as usize]
                }));
            }
            c0 += w;
        }
        rows
    }

    /// Random `[nb, C, H, W]` planes in `[lo, hi]` and their channel
    /// quads.
    fn conv_planes(
        g: &Conv2dGeometry,
        nb: usize,
        widths: &[usize],
        [lo, hi]: [i16; 2],
        rng: &mut impl Rng,
    ) -> (Vec<i8>, Vec<i8>) {
        let (c, hw) = (widths.iter().sum::<usize>(), g.h * g.w);
        let planes = rand_low(nb * c * hw, lo, hi, rng);
        let nq: usize = widths.iter().map(|w| w.div_ceil(4)).sum();
        let mut quads = vec![0i8; nb * nq * 4 * (g.h + 2 * g.pad) * (g.w + 2 * g.pad)];
        channel_quads_fill(&planes, nb, [g.h, g.w], g.pad, widths, &mut quads);
        (planes, quads)
    }

    /// `c += Σ_s (w_s · b_s) << (a_shifts[s] + shifts_s[i])` — or the
    /// plain sum with no `a_shifts` — one term at a time: the semantics
    /// [`gemm_i8_low_bands`] must reproduce.
    fn low_run_oracle(
        m: usize,
        n: usize,
        blocks: &[(usize, Vec<i8>, Vec<u8>)],
        a_shifts: &[u8],
        b: &[i8],
        c: &mut [i32],
    ) {
        let mut row0 = 0;
        for (s, (kb, w, shifts)) in blocks.iter().enumerate() {
            for i in 0..m {
                for j in 0..n {
                    let mut sum = 0i32;
                    for p in 0..*kb {
                        sum += w[i * kb + p] as i32 * b[(row0 + p) * n + j] as i32;
                    }
                    c[i * n + j] += match a_shifts.get(s) {
                        Some(act) => sum << (act + shifts[i]),
                        None => sum,
                    };
                }
            }
            row0 += kb;
        }
    }

    /// One run of bands of `widths` channels over a random conv source,
    /// against [`low_run_oracle`] over the block by definition: lowered
    /// bands when `lowered`, full-range 8-bit ones otherwise.
    fn check_conv_run(
        m: usize,
        g: Conv2dGeometry,
        nb: usize,
        widths: &[usize],
        range: [i16; 2],
        lowered: bool,
        seed: u64,
    ) {
        let mut rng = seeded(seed);
        let (planes, quads) = conv_planes(&g, nb, widths, range, &mut rng);
        let khkw = g.kh * g.kw;
        let blocks: Vec<(usize, Vec<i8>, Vec<u8>)> = widths
            .iter()
            .map(|&w| {
                let kb = w.div_ceil(4) * 4 * khkw;
                let rows = rand_low(m * kb, range[0], range[1], &mut rng);
                let shifts = (0..m).map(|_| rng.gen_range(0u8..=4)).collect();
                (kb, rows, shifts)
            })
            .collect();
        let a_shifts: Vec<u8> = match lowered {
            true => widths.iter().map(|_| rng.gen_range(0u8..=4)).collect(),
            false => Vec::new(),
        };
        let src = ConvSource {
            quads: &quads,
            nb,
            sample_stride: quads.len() / nb,
            geom: g,
            q0: 0,
        };
        let n = src.n();
        let b = block_by_definition(&planes, nb, &g, widths);
        let start: Vec<i32> = (0..m * n).map(|_| rng.gen_range(-999..999)).collect();
        let bands: Vec<LowBandLhs> = blocks
            .iter()
            .map(|(kb, w, s)| match lowered {
                true => LowBandLhs::new(m, *kb, w.clone(), s.clone()),
                false => LowBandLhs::full(m, *kb, w.clone()),
            })
            .collect();
        let mut want = start.clone();
        low_run_oracle(m, n, &blocks, &a_shifts, &b, &mut want);
        let mut got = start;
        let call = LowBands {
            bands: &bands,
            a_shifts: &a_shifts,
            src,
        };
        gemm_i8_low_bands(call, &mut got);
        assert_eq!(
            want, got,
            "m={m} {g:?} nb={nb} widths={widths:?} range={range:?}"
        );
    }

    fn check_low_run(
        m: usize,
        g: Conv2dGeometry,
        nb: usize,
        widths: &[usize],
        lo: i16,
        hi: i16,
        seed: u64,
    ) {
        check_conv_run(m, g, nb, widths, [lo, hi], true, seed)
    }

    #[test]
    fn low_run_matches_the_per_band_oracle() {
        // Blocked and sub-threshold shapes, partial lane panels, partial
        // row tiles, bands of 1–9 channels (padded quads), runs of one
        // and of many bands, strides past the kernel — under whichever
        // tile the ISA picks for nibble-range operands, and full-range
        // 8-bit runs through the same entry point.
        let shapes: &[(usize, Conv2dGeometry, usize, &[usize])] = &[
            (16, geom([16, 16], 3, 1, 1), 8, &[4, 4, 4, 4]),
            (24, geom([8, 8], 3, 1, 1), 2, &[4, 3, 1]),
            (33, geom([5, 4], 1, 1, 0), 5, &[5, 3, 7, 1, 4]),
            (4, geom([6, 6], 2, 3, 1), 3, &[16]),
            (7, geom([9, 5], 3, 2, 2), 2, &[9]),
            (1, geom([10, 10], 3, 1, 1), 3, &[1]),
            (2, geom([1, 31], 1, 1, 0), 1, &[2, 2]),
            (64, geom([3, 33], 1, 2, 0), 4, &[36, 37]),
        ];
        for (i, &(m, g, nb, widths)) in shapes.iter().enumerate() {
            let seed = i as u64;
            check_low_run(m, g, nb, widths, -8, 7, 400 + seed);
            check_low_run(m, g, nb, widths, -2, 1, 500 + seed);
            // Full i8 operands take the ordinary tiles, same write-back.
            check_low_run(m, g, nb, widths, -128, 127, 600 + seed);
            check_conv_run(m, g, nb, widths, [-128, 127], false, 700 + seed);
        }
    }

    #[test]
    fn conv_panels_match_the_row_panels_of_the_block() {
        // A conv source's quad panels are the row packer's panels of the
        // block by definition, byte for byte, at both offsets; its
        // materialized block is that block. Lanes past `n` differ by
        // design (the offset's zero against a raw zero) and are skipped.
        let mut rng = seeded(37);
        for (g, nb, widths) in [
            (geom([16, 16], 3, 1, 1), 2usize, &[4usize, 4][..]),
            (geom([7, 5], 3, 2, 1), 3, &[3, 5]),
            (geom([6, 6], 1, 2, 0), 2, &[8]),
            (geom([4, 4], 2, 3, 2), 1, &[1, 2]),
        ] {
            let (planes, quads) = conv_planes(&g, nb, widths, [-128, 127], &mut rng);
            let b = block_by_definition(&planes, nb, &g, widths);
            let src = ConvSource {
                quads: &quads,
                nb,
                sample_stride: quads.len() / nb,
                geom: g,
                q0: 0,
            };
            let (n, kb) = (src.n(), b.len() / src.n());
            let mut block = Vec::new();
            src.rows_block(kb, &mut block);
            assert_eq!(block, b, "{g:?} block");
            for offset in [LOW_RANGE_OFFSET, FULL_RANGE_OFFSET] {
                let (mut conv, mut rows) = (Vec::new(), Vec::new());
                src.pack_quads(kb, offset, &mut conv);
                pack_rows_quads(&b, n, kb, offset, &mut rows);
                assert_eq!(conv.len(), rows.len());
                for (i, (x, y)) in conv.iter().zip(&rows).enumerate() {
                    let lane = i / 4 % NR_I8;
                    let j = i / (kb * NR_I8) * NR_I8 + lane;
                    if j < n {
                        assert_eq!(x, y, "{g:?} offset {offset} byte {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn low_run_is_exact_at_the_range_and_accumulation_limits() {
        // Constant operands at each corner of [-8, 7]² drive every i16
        // lane to its extreme; band widths straddle the proven i16
        // accumulation limit (136 steps of four) and its padded tails.
        let limit = 4 * simd::DENSE_I16_STEPS;
        for width in [limit - 1, limit, limit + 1, limit + 4, 2 * limit + 3] {
            for (wv, bv) in [(-8i8, 7i8), (-8, -8), (7, 7), (7, -8)] {
                let (m, n) = (5usize, 70usize);
                let kb = width.div_ceil(4) * 4;
                let band = LowBandLhs::new(m, kb, vec![wv; m * kb], vec![1; m]);
                let mut quads = vec![0i8; kb * n];
                channel_quads_fill(&vec![bv; width * n], 1, [1, n], 0, &[width], &mut quads);
                let src = ConvSource {
                    quads: &quads,
                    nb: 1,
                    sample_stride: quads.len(),
                    geom: geom([1, n], 1, 1, 0),
                    q0: 0,
                };
                let mut c = vec![3i32; m * n];
                let call = LowBands {
                    bands: std::slice::from_ref(&band),
                    a_shifts: &[2],
                    src,
                };
                gemm_i8_low_bands(call, &mut c);
                let want = 3 + ((width as i32 * wv as i32 * bv as i32) << 3);
                assert!(c.iter().all(|&v| v == want), "width={width} w={wv} b={bv}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside [-8, 7]")]
    fn low_run_rejects_wide_activations_under_low_range_bands() {
        let _cap = simd::cap_lock();
        if !simd::active().has_avx2() {
            panic!("outside [-8, 7] (dense tile not dispatched on this ISA)");
        }
        let (m, n, kb) = (8usize, 64usize, 32usize);
        let band = LowBandLhs::new(m, kb, vec![1; m * kb], vec![0; m]);
        let mut quads = vec![0i8; kb * n];
        quads[(n + 40) * 4 + 1] = 8;
        let src = ConvSource {
            quads: &quads,
            nb: 1,
            sample_stride: quads.len(),
            geom: geom([1, n], 1, 1, 0),
            q0: 0,
        };
        let call = LowBands {
            bands: std::slice::from_ref(&band),
            a_shifts: &[0],
            src,
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
                let (s1, s2) = (geom([16, 16], 3, 1, 1), geom([8, 8], 3, 2, 1));
                check_low_run(64, s1, 2, &[4, 4], -8, 7, 900);
                check_low_run(3, s1, 16, &[4, 1], -8, 7, 901);
                check_low_run(19, s2, 16, &[4, 4], -8, 7, 902);
                check_low_run(64, s1, 2, &[4, 4], -100, 100, 903);
                check_conv_run(64, s2, 8, &[4, 4, 4], [-128, 127], false, 904);
            });
        }
    }
}
