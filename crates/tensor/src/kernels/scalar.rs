//! Canonical portable implementations of every dispatched kernel.
//!
//! These define the exact semantics (bit patterns, association order) that
//! the vectorized tables must reproduce. The vectorized tables also call
//! into these for sub-lane tails, so the helpers are `pub(super)`.

use super::Kernels;

pub(super) static KERNELS: Kernels = Kernels {
    name: "scalar",
    sign_pack,
    unpack_fill,
    unpack_add,
    vote_add,
    vote_pack,
    sum_abs,
    gather_above,
};

/// The sign predicate shared by pack and vote: NaN packs as 0 (negative),
/// `-0.0` packs as 1 (non-negative), matching IEEE `>=`.
#[inline(always)]
fn is_non_negative(v: f32) -> bool {
    v >= 0.0
}

pub(super) fn sign_pack(data: &[f32], out: &mut [u32]) {
    for (w, chunk) in out.iter_mut().zip(data.chunks(32)) {
        let mut acc = 0u32;
        for (b, &v) in chunk.iter().enumerate() {
            acc |= u32::from(is_non_negative(v)) << b;
        }
        *w = acc;
    }
}

pub(super) fn unpack_fill(words: &[u32], neg: f32, pos: f32, out: &mut [f32]) {
    for (w, block) in words.iter().zip(out.chunks_mut(32)) {
        for (b, o) in block.iter_mut().enumerate() {
            *o = if (w >> b) & 1 == 1 { pos } else { neg };
        }
    }
}

pub(super) fn unpack_add(words: &[u32], neg: f32, pos: f32, out: &mut [f32]) {
    for (w, block) in words.iter().zip(out.chunks_mut(32)) {
        for (b, o) in block.iter_mut().enumerate() {
            *o += if (w >> b) & 1 == 1 { pos } else { neg };
        }
    }
}

pub(super) fn vote_add(words: &[u32], tally: &mut [i32]) {
    for (w, block) in words.iter().zip(tally.chunks_mut(32)) {
        for (b, t) in block.iter_mut().enumerate() {
            *t += (((w >> b) & 1) as i32) * 2 - 1;
        }
    }
}

pub(super) fn vote_pack(tally: &[i32], out: &mut [u32]) {
    for (w, chunk) in out.iter_mut().zip(tally.chunks(32)) {
        let mut acc = 0u32;
        for (b, &t) in chunk.iter().enumerate() {
            acc |= u32::from(t >= 0) << b;
        }
        *w = acc;
    }
}

/// Lane-striped |x| reduction. The stripe width (8) and the pairwise
/// combination tree are part of the kernel contract — see the module docs
/// in `mod.rs` and DESIGN.md §10.
pub(super) fn sum_abs(data: &[f32]) -> f32 {
    let mut lanes = [0.0f32; 8];
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        for (l, &v) in lanes.iter_mut().zip(c) {
            *l += v.abs();
        }
    }
    let mut total = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
        + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
    for &v in chunks.remainder() {
        total += v.abs();
    }
    total
}

/// Appends `(i, data[i])` for every `|data[i]| > threshold` in index order.
/// `base` offsets the emitted indices so the AVX2 table can delegate its
/// tail without renumbering.
pub(super) fn gather_above_from(
    data: &[f32],
    base: u32,
    threshold: f32,
    indices: &mut Vec<u32>,
    values: &mut Vec<f32>,
) {
    for (i, &v) in data.iter().enumerate() {
        if v.abs() > threshold {
            indices.push(base + i as u32);
            values.push(v);
        }
    }
}

pub(super) fn gather_above(
    data: &[f32],
    threshold: f32,
    indices: &mut Vec<u32>,
    values: &mut Vec<f32>,
) {
    gather_above_from(data, 0, threshold, indices, values);
}
