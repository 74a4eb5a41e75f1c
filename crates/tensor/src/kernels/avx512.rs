//! AVX-512F implementations of the kernel table.
//!
//! Same structure as the AVX2 table (`avx2.rs`): every entry is a thin
//! safe wrapper around a `#[target_feature]` inner function, sound because
//! this table is only installed after `is_x86_feature_detected!` confirms
//! `avx512f` **and** `avx2`/`fma` (the tails and the shared `sum_abs`
//! entry run AVX2 code) — see `mod.rs::simd`.
//!
//! What the 512-bit ISA buys over the AVX2 tier:
//!
//! - **Mask registers replace movemask/LUT games.** `vcmpps` produces a
//!   `__mmask16` directly, so `sign_pack` builds a 32-bit sign word from
//!   two compares and one shift-or, and `gather_above` left-packs matching
//!   lanes with `vcompressps` (one instruction) instead of the 256-entry
//!   `vpermps` permutation LUT — and `vcompressps` stores *exactly*
//!   `popcount(mask)` elements, so no over-wide store trick is needed.
//! - **16-bit mask blends** turn half a sign word into one `vblendmps`
//!   on the unpack and vote-tally hot loops.
//!
//! The exactness contract is unchanged: ordered compares (`_CMP_GE_OQ` /
//! `_CMP_GT_OQ`) against `+0.0` reproduce the scalar predicates on NaN and
//! `-0.0`; `unpack_add` adds per lane with no reassociation; and `sum_abs`
//! **reuses the AVX2 entry unchanged**, because the kernel contract pins
//! the reduction to 8-lane striping — a 16-lane stripe would change the
//! result bits, which is exactly what the contract forbids.

use super::{avx2, scalar, Kernels};
use std::arch::x86_64::*;

pub(super) static KERNELS: Kernels = Kernels {
    name: "avx512",
    sign_pack,
    unpack_fill,
    unpack_add,
    vote_add,
    vote_pack,
    // 8-lane striping is the kernel contract; see the module docs.
    sum_abs: avx2::sum_abs,
    gather_above,
};

/// IEEE-754 abs mask (clears the sign bit), matching `f32::abs` bitwise.
const ABS_MASK: i32 = 0x7fff_ffff;

// ---------------------------------------------------------------------------
// sign pack / unpack / majority vote
// ---------------------------------------------------------------------------

fn sign_pack(data: &[f32], out: &mut [u32]) {
    // SAFETY: table installed only after AVX-512F runtime detection.
    unsafe { sign_pack_avx512(data, out) }
}

// SAFETY: caller must guarantee AVX-512F is present; `out` must hold
// `ceil(data.len() / 32)` words (the table contract checked by `mod.rs`).
#[target_feature(enable = "avx512f")]
unsafe fn sign_pack_avx512(data: &[f32], out: &mut [u32]) {
    let full_words = data.len() / 32;
    let zero = _mm512_setzero_ps();
    for (w, out_w) in out.iter_mut().enumerate().take(full_words) {
        let base = data.as_ptr().add(w * 32);
        // Two 16-lane ordered >= compares fill one u32, LSB-first like the
        // scalar pack (NaN → 0, -0.0 → 1).
        let lo = _mm512_cmp_ps_mask::<_CMP_GE_OQ>(_mm512_loadu_ps(base), zero);
        let hi = _mm512_cmp_ps_mask::<_CMP_GE_OQ>(_mm512_loadu_ps(base.add(16)), zero);
        *out_w = (lo as u32) | ((hi as u32) << 16);
    }
    scalar::sign_pack(&data[full_words * 32..], &mut out[full_words..]);
}

fn unpack_fill(words: &[u32], neg: f32, pos: f32, out: &mut [f32]) {
    // SAFETY: table installed only after AVX-512F runtime detection.
    unsafe { unpack_select_avx512::<false>(words, neg, pos, out) }
}

fn unpack_add(words: &[u32], neg: f32, pos: f32, out: &mut [f32]) {
    // SAFETY: table installed only after AVX-512F runtime detection.
    unsafe { unpack_select_avx512::<true>(words, neg, pos, out) }
}

/// Shared body of `unpack_fill` / `unpack_add`: 16 bits of the sign stream
/// become one mask register, which blends `neg`/`pos` in a single
/// `vblendmps`. `ACCUMULATE` adds into `out` instead of storing.
// SAFETY: caller must guarantee AVX-512F is present; `words` must hold at
// least `ceil(out.len() / 32)` bit words.
#[target_feature(enable = "avx512f")]
unsafe fn unpack_select_avx512<const ACCUMULATE: bool>(
    words: &[u32],
    neg: f32,
    pos: f32,
    out: &mut [f32],
) {
    let n = out.len();
    let negv = _mm512_set1_ps(neg);
    let posv = _mm512_set1_ps(pos);
    let groups = n / 16;
    for g in 0..groups {
        let k = ((words[g / 2] >> ((g % 2) * 16)) & 0xffff) as __mmask16;
        let sel = _mm512_mask_blend_ps(k, negv, posv);
        let dst = out.as_mut_ptr().add(g * 16);
        if ACCUMULATE {
            _mm512_storeu_ps(dst, _mm512_add_ps(_mm512_loadu_ps(dst), sel));
        } else {
            _mm512_storeu_ps(dst, sel);
        }
    }
    for (i, o) in out.iter_mut().enumerate().skip(groups * 16) {
        let v = if (words[i / 32] >> (i % 32)) & 1 == 1 {
            pos
        } else {
            neg
        };
        if ACCUMULATE {
            *o += v;
        } else {
            *o = v;
        }
    }
}

fn vote_add(words: &[u32], tally: &mut [i32]) {
    // SAFETY: table installed only after AVX-512F runtime detection.
    unsafe { vote_add_avx512(words, tally) }
}

// SAFETY: caller must guarantee AVX-512F is present; `words` must hold at
// least `ceil(tally.len() / 32)` bit words.
#[target_feature(enable = "avx512f")]
unsafe fn vote_add_avx512(words: &[u32], tally: &mut [i32]) {
    let n = tally.len();
    let plus = _mm512_set1_epi32(1);
    let minus = _mm512_set1_epi32(-1);
    let groups = n / 16;
    for g in 0..groups {
        let k = ((words[g / 2] >> ((g % 2) * 16)) & 0xffff) as __mmask16;
        // t += bit ? +1 : -1, as one masked blend + integer add (exact).
        let delta = _mm512_mask_blend_epi32(k, minus, plus);
        let dst = tally.as_mut_ptr().add(g * 16);
        let t = _mm512_loadu_si512(dst as *const _);
        _mm512_storeu_si512(dst as *mut _, _mm512_add_epi32(t, delta));
    }
    for (i, t) in tally.iter_mut().enumerate().skip(groups * 16) {
        *t += (((words[i / 32] >> (i % 32)) & 1) as i32) * 2 - 1;
    }
}

fn vote_pack(tally: &[i32], out: &mut [u32]) {
    // SAFETY: table installed only after AVX-512F runtime detection.
    unsafe { vote_pack_avx512(tally, out) }
}

// SAFETY: caller must guarantee AVX-512F is present; `out` must hold
// `ceil(tally.len() / 32)` words.
#[target_feature(enable = "avx512f")]
unsafe fn vote_pack_avx512(tally: &[i32], out: &mut [u32]) {
    let full_words = tally.len() / 32;
    let zero = _mm512_setzero_si512();
    for (w, out_w) in out.iter_mut().enumerate().take(full_words) {
        let base = tally.as_ptr().add(w * 32);
        // t >= 0 as a signed not-less-than compare straight to a mask.
        let lo =
            _mm512_cmp_epi32_mask::<_MM_CMPINT_NLT>(_mm512_loadu_si512(base as *const _), zero);
        let hi = _mm512_cmp_epi32_mask::<_MM_CMPINT_NLT>(
            _mm512_loadu_si512(base.add(16) as *const _),
            zero,
        );
        *out_w = (lo as u32) | ((hi as u32) << 16);
    }
    scalar::vote_pack(&tally[full_words * 32..], &mut out[full_words..]);
}

// ---------------------------------------------------------------------------
// top-k threshold gather (stream compaction)
// ---------------------------------------------------------------------------

fn gather_above(data: &[f32], threshold: f32, indices: &mut Vec<u32>, values: &mut Vec<f32>) {
    // SAFETY: table installed only after AVX-512F runtime detection.
    unsafe { gather_above_avx512(data, threshold, indices, values) }
}

// SAFETY: caller must guarantee AVX-512F is present. `vcompressps` /
// `vpcompressd` store exactly `popcount(mask)` elements into capacity
// reserved immediately beforehand (`reserve(16)`), and `set_len` commits
// exactly that count.
#[target_feature(enable = "avx512f")]
unsafe fn gather_above_avx512(
    data: &[f32],
    threshold: f32,
    indices: &mut Vec<u32>,
    values: &mut Vec<f32>,
) {
    let absmask = _mm512_set1_epi32(ABS_MASK);
    let tv = _mm512_set1_ps(threshold);
    let sixteen = _mm512_set1_epi32(16);
    let mut idx = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
    let full = data.len() / 16;
    for blk in 0..full {
        let v = _mm512_loadu_ps(data.as_ptr().add(blk * 16));
        let av = _mm512_castsi512_ps(_mm512_and_si512(_mm512_castps_si512(v), absmask));
        // Ordered > : NaNs compare false, matching the scalar `abs() > t`.
        let m = _mm512_cmp_ps_mask::<_CMP_GT_OQ>(av, tv);
        if m != 0 {
            let cnt = m.count_ones() as usize;
            let il = indices.len();
            indices.reserve(16);
            _mm512_mask_compressstoreu_epi32(indices.as_mut_ptr().add(il) as *mut i32, m, idx);
            indices.set_len(il + cnt);
            let vl = values.len();
            values.reserve(16);
            _mm512_mask_compressstoreu_ps(values.as_mut_ptr().add(vl), m, v);
            values.set_len(vl + cnt);
        }
        idx = _mm512_add_epi32(idx, sixteen);
    }
    scalar::gather_above_from(
        &data[full * 16..],
        (full * 16) as u32,
        threshold,
        indices,
        values,
    );
}
