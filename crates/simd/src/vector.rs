//! The 256-bit integer vector value (`__m256i` holding eight `i32` lanes).
//!
//! The semantics follow the Intel intrinsics guide for the AVX2 integer
//! instructions used by the pipeline. All arithmetic wraps (two's
//! complement), exactly like the hardware.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Number of 32-bit lanes in a 256-bit vector.
pub const LANES: usize = 8;

/// A 256-bit vector of eight 32-bit signed integers (`__m256i`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct I32x8(pub [i32; LANES]);

impl I32x8 {
    /// All lanes zero (`_mm256_setzero_si256`).
    pub fn zero() -> I32x8 {
        I32x8([0; LANES])
    }

    /// All lanes set to `v` (`_mm256_set1_epi32`).
    pub fn splat(v: i32) -> I32x8 {
        I32x8([v; LANES])
    }

    /// Lanes in memory order, lane 0 first (`_mm256_setr_epi32`).
    pub fn from_lanes(lanes: [i32; LANES]) -> I32x8 {
        I32x8(lanes)
    }

    /// Lanes in `_mm256_set_epi32` order (highest lane first).
    pub fn from_lanes_reversed(lanes: [i32; LANES]) -> I32x8 {
        let mut v = lanes;
        v.reverse();
        I32x8(v)
    }

    /// Loads eight lanes from a slice (`_mm256_loadu_si256`).
    ///
    /// # Panics
    ///
    /// Panics if the slice has fewer than [`LANES`] elements; bounds are the
    /// interpreter's responsibility.
    pub fn load(slice: &[i32]) -> I32x8 {
        let mut lanes = [0; LANES];
        lanes.copy_from_slice(&slice[..LANES]);
        I32x8(lanes)
    }

    /// Stores eight lanes into a slice (`_mm256_storeu_si256`).
    ///
    /// # Panics
    ///
    /// Panics if the slice has fewer than [`LANES`] elements.
    pub fn store(self, slice: &mut [i32]) {
        slice[..LANES].copy_from_slice(&self.0);
    }

    /// The lanes as an array, lane 0 first.
    pub fn lanes(self) -> [i32; LANES] {
        self.0
    }

    /// A single lane (`_mm256_extract_epi32`); the index is taken modulo 8,
    /// as the hardware only uses the low three bits of the immediate.
    pub fn extract(self, idx: i32) -> i32 {
        self.0[(idx as usize) % LANES]
    }

    /// Replaces a single lane (`_mm256_insert_epi32`).
    pub fn insert(self, value: i32, idx: i32) -> I32x8 {
        let mut out = self.0;
        out[(idx as usize) % LANES] = value;
        I32x8(out)
    }

    fn zip_with(self, other: I32x8, f: impl Fn(i32, i32) -> i32) -> I32x8 {
        let mut out = [0; LANES];
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = f(self.0[i], other.0[i]);
        }
        I32x8(out)
    }

    fn map(self, f: impl Fn(i32) -> i32) -> I32x8 {
        let mut out = [0; LANES];
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = f(self.0[i]);
        }
        I32x8(out)
    }

    /// Lane-wise wrapping addition (`_mm256_add_epi32`).
    #[allow(clippy::should_implement_trait)] // wrapping, unlike `Add`
    pub fn add(self, other: I32x8) -> I32x8 {
        self.zip_with(other, i32::wrapping_add)
    }

    /// Lane-wise wrapping subtraction (`_mm256_sub_epi32`).
    #[allow(clippy::should_implement_trait)] // wrapping, unlike `Sub`
    pub fn sub(self, other: I32x8) -> I32x8 {
        self.zip_with(other, i32::wrapping_sub)
    }

    /// Lane-wise low-32-bit product (`_mm256_mullo_epi32`).
    pub fn mullo(self, other: I32x8) -> I32x8 {
        self.zip_with(other, i32::wrapping_mul)
    }

    /// Lane-wise bitwise and (`_mm256_and_si256`).
    pub fn and(self, other: I32x8) -> I32x8 {
        self.zip_with(other, |a, b| a & b)
    }

    /// Lane-wise bitwise or (`_mm256_or_si256`).
    pub fn or(self, other: I32x8) -> I32x8 {
        self.zip_with(other, |a, b| a | b)
    }

    /// Lane-wise bitwise xor (`_mm256_xor_si256`).
    pub fn xor(self, other: I32x8) -> I32x8 {
        self.zip_with(other, |a, b| a ^ b)
    }

    /// Lane-wise `(!a) & b` (`_mm256_andnot_si256`).
    pub fn andnot(self, other: I32x8) -> I32x8 {
        self.zip_with(other, |a, b| !a & b)
    }

    /// Lane-wise signed maximum (`_mm256_max_epi32`).
    pub fn max(self, other: I32x8) -> I32x8 {
        self.zip_with(other, i32::max)
    }

    /// Lane-wise signed minimum (`_mm256_min_epi32`).
    pub fn min(self, other: I32x8) -> I32x8 {
        self.zip_with(other, i32::min)
    }

    /// Lane-wise absolute value (`_mm256_abs_epi32`); `i32::MIN` wraps to
    /// itself exactly like the hardware.
    pub fn abs(self) -> I32x8 {
        self.map(i32::wrapping_abs)
    }

    /// Lane-wise comparison `a > b`, producing all-ones or all-zeros lanes
    /// (`_mm256_cmpgt_epi32`).
    pub fn cmpgt(self, other: I32x8) -> I32x8 {
        self.zip_with(other, |a, b| if a > b { -1 } else { 0 })
    }

    /// Lane-wise comparison `a == b` (`_mm256_cmpeq_epi32`).
    pub fn cmpeq(self, other: I32x8) -> I32x8 {
        self.zip_with(other, |a, b| if a == b { -1 } else { 0 })
    }

    /// Byte-wise blend (`_mm256_blendv_epi8`): for each byte, picks `other`
    /// (the second operand, `b` in the intrinsic) when the mask byte's most
    /// significant bit is set, else `self` (`a`).
    pub fn blendv(self, other: I32x8, mask: I32x8) -> I32x8 {
        let a = self.to_bytes();
        let b = other.to_bytes();
        let m = mask.to_bytes();
        let mut out = [0u8; 32];
        for i in 0..32 {
            out[i] = if m[i] & 0x80 != 0 { b[i] } else { a[i] };
        }
        I32x8::from_bytes(out)
    }

    /// Logical left shift of each lane by `count` bits (`_mm256_slli_epi32`).
    /// Counts of 32 or more produce zero, as on hardware.
    #[allow(clippy::should_implement_trait)] // saturates at 32, unlike `Shl`
    pub fn shl(self, count: i32) -> I32x8 {
        if !(0..32).contains(&count) {
            return I32x8::zero();
        }
        self.map(|a| ((a as u32) << count) as i32)
    }

    /// Logical right shift (`_mm256_srli_epi32`).
    pub fn shr_logical(self, count: i32) -> I32x8 {
        if !(0..32).contains(&count) {
            return I32x8::zero();
        }
        self.map(|a| ((a as u32) >> count) as i32)
    }

    /// Arithmetic right shift (`_mm256_srai_epi32`). The count is unsigned,
    /// as on hardware: counts of 32 or more — negative ones included — shift
    /// by 31, replicating the sign bit.
    pub fn shr_arith(self, count: i32) -> I32x8 {
        let c = (count as u32).min(31);
        self.map(|a| a >> c)
    }

    /// Horizontal pairwise add (`_mm256_hadd_epi32`). Operates independently
    /// on the two 128-bit halves, interleaving pairwise sums of `self` and
    /// `other` exactly like the hardware instruction.
    pub fn hadd(self, other: I32x8) -> I32x8 {
        let a = self.0;
        let b = other.0;
        I32x8([
            a[0].wrapping_add(a[1]),
            a[2].wrapping_add(a[3]),
            b[0].wrapping_add(b[1]),
            b[2].wrapping_add(b[3]),
            a[4].wrapping_add(a[5]),
            a[6].wrapping_add(a[7]),
            b[4].wrapping_add(b[5]),
            b[6].wrapping_add(b[7]),
        ])
    }

    /// In-lane shuffle by immediate (`_mm256_shuffle_epi32`): the same
    /// 4-element permutation is applied to both 128-bit halves.
    pub fn shuffle(self, imm: i32) -> I32x8 {
        let sel = |k: usize| ((imm >> (2 * k)) & 0b11) as usize;
        let mut out = [0; LANES];
        for half in 0..2 {
            let base = half * 4;
            for k in 0..4 {
                out[base + k] = self.0[base + sel(k)];
            }
        }
        I32x8(out)
    }

    /// 128-bit lane permute/blend (`_mm256_permute2x128_si256`).
    pub fn permute2x128(self, other: I32x8, imm: i32) -> I32x8 {
        let pick = |sel: i32| -> [i32; 4] {
            if sel & 0x8 != 0 {
                return [0; 4];
            }
            let source = match sel & 0b11 {
                0 => &self.0[0..4],
                1 => &self.0[4..8],
                2 => &other.0[0..4],
                _ => &other.0[4..8],
            };
            [source[0], source[1], source[2], source[3]]
        };
        let lo = pick(imm & 0xf);
        let hi = pick((imm >> 4) & 0xf);
        I32x8([lo[0], lo[1], lo[2], lo[3], hi[0], hi[1], hi[2], hi[3]])
    }

    /// Full cross-lane permute (`_mm256_permutevar8x32_epi32`): lane `i` of
    /// the result is lane `idx[i] & 7` of `self`.
    pub fn permutevar(self, idx: I32x8) -> I32x8 {
        let mut out = [0; LANES];
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.0[(idx.0[i] as usize) & 7];
        }
        I32x8(out)
    }

    /// Byte-level move mask (`_mm256_movemask_epi8`): bit `i` of the result
    /// is the most significant bit of byte `i`.
    pub fn movemask_epi8(self) -> i32 {
        let bytes = self.to_bytes();
        let mut mask: u32 = 0;
        for (i, byte) in bytes.iter().enumerate() {
            if byte & 0x80 != 0 {
                mask |= 1 << i;
            }
        }
        mask as i32
    }

    /// Sum of all lanes with wrapping arithmetic; used by reduction code
    /// generation and by tests.
    pub fn horizontal_sum(self) -> i32 {
        self.0.iter().fold(0i32, |acc, &x| acc.wrapping_add(x))
    }

    fn to_bytes(self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for (i, lane) in self.0.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&lane.to_le_bytes());
        }
        out
    }

    fn from_bytes(bytes: [u8; 32]) -> I32x8 {
        let mut lanes = [0i32; LANES];
        for (i, lane) in lanes.iter_mut().enumerate() {
            let mut b = [0u8; 4];
            b.copy_from_slice(&bytes[i * 4..i * 4 + 4]);
            *lane = i32::from_le_bytes(b);
        }
        I32x8(lanes)
    }
}

impl fmt::Display for I32x8 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<")?;
        for (i, lane) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", lane)?;
        }
        write!(f, ">")
    }
}

impl From<[i32; LANES]> for I32x8 {
    fn from(lanes: [i32; LANES]) -> Self {
        I32x8(lanes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq() -> I32x8 {
        I32x8::from_lanes([1, 2, 3, 4, 5, 6, 7, 8])
    }

    #[test]
    fn splat_and_zero() {
        assert_eq!(I32x8::splat(3).lanes(), [3; 8]);
        assert_eq!(I32x8::zero().lanes(), [0; 8]);
    }

    #[test]
    fn set_order_is_reversed() {
        let r = I32x8::from_lanes([1, 2, 3, 4, 5, 6, 7, 8]);
        let s = I32x8::from_lanes_reversed([8, 7, 6, 5, 4, 3, 2, 1]);
        assert_eq!(r, s);
    }

    #[test]
    fn arithmetic_wraps() {
        let max = I32x8::splat(i32::MAX);
        assert_eq!(max.add(I32x8::splat(1)), I32x8::splat(i32::MIN));
        assert_eq!(
            I32x8::splat(i32::MIN).sub(I32x8::splat(1)),
            I32x8::splat(i32::MAX)
        );
        assert_eq!(
            I32x8::splat(65536).mullo(I32x8::splat(65536)),
            I32x8::splat(0)
        );
    }

    #[test]
    fn comparisons_produce_masks() {
        let a = seq();
        let b = I32x8::splat(4);
        assert_eq!(a.cmpgt(b).lanes(), [0, 0, 0, 0, -1, -1, -1, -1]);
        assert_eq!(a.cmpeq(b).lanes(), [0, 0, 0, -1, 0, 0, 0, 0]);
    }

    #[test]
    fn blendv_selects_by_mask_msb() {
        let a = I32x8::splat(10);
        let b = I32x8::splat(20);
        let mask = I32x8::from_lanes([0, -1, 0, -1, 0, -1, 0, -1]);
        assert_eq!(a.blendv(b, mask).lanes(), [10, 20, 10, 20, 10, 20, 10, 20]);
    }

    #[test]
    fn blendv_matches_ternary_for_cmp_masks() {
        let a = seq();
        let b = I32x8::splat(4);
        let mask = a.cmpgt(b);
        let blended = b.blendv(a, mask);
        for i in 0..LANES {
            let expected = if a.0[i] > b.0[i] { a.0[i] } else { b.0[i] };
            assert_eq!(blended.0[i], expected);
        }
    }

    #[test]
    fn shifts() {
        let v = I32x8::splat(-8);
        assert_eq!(v.shr_arith(1), I32x8::splat(-4));
        assert_eq!(v.shr_logical(1), I32x8::splat(((-8i32) as u32 >> 1) as i32));
        assert_eq!(I32x8::splat(3).shl(2), I32x8::splat(12));
        assert_eq!(I32x8::splat(3).shl(40), I32x8::zero());
        assert_eq!(I32x8::splat(-1).shr_arith(40), I32x8::splat(-1));
        // A negative count is a huge unsigned one: every shift saturates.
        assert_eq!(v.shr_arith(-1), I32x8::splat(-1));
        assert_eq!(I32x8::splat(8).shr_arith(-1), I32x8::zero());
        assert_eq!(v.shr_logical(-1), I32x8::zero());
        assert_eq!(v.shl(-1), I32x8::zero());
    }

    #[test]
    fn min_max_abs() {
        let a = I32x8::from_lanes([-3, 5, -7, 9, 0, 1, -1, 2]);
        let b = I32x8::zero();
        assert_eq!(a.max(b).lanes(), [0, 5, 0, 9, 0, 1, 0, 2]);
        assert_eq!(a.min(b).lanes(), [-3, 0, -7, 0, 0, 0, -1, 0]);
        assert_eq!(a.abs().lanes(), [3, 5, 7, 9, 0, 1, 1, 2]);
        assert_eq!(I32x8::splat(i32::MIN).abs(), I32x8::splat(i32::MIN));
    }

    #[test]
    fn hadd_matches_reference() {
        let a = seq();
        let b = I32x8::from_lanes([10, 20, 30, 40, 50, 60, 70, 80]);
        assert_eq!(a.hadd(b).lanes(), [3, 7, 30, 70, 11, 15, 110, 150]);
    }

    #[test]
    fn shuffle_identity_and_reverse() {
        let a = seq();
        // imm 0b11100100 = identity.
        assert_eq!(a.shuffle(0b11_10_01_00), a);
        // imm 0b00011011 reverses each 128-bit half.
        assert_eq!(a.shuffle(0b00_01_10_11).lanes(), [4, 3, 2, 1, 8, 7, 6, 5]);
    }

    #[test]
    fn permute2x128_swap_halves() {
        let a = seq();
        // 0x01 selects the high half of a into the low output half and 0x2? —
        // imm 0x21 picks a.hi then b.lo; with b == a this swaps the halves.
        assert_eq!(a.permute2x128(a, 0x21).lanes(), [5, 6, 7, 8, 1, 2, 3, 4]);
        // Bit 3 of each selector nibble zeroes the corresponding output half.
        assert_eq!(a.permute2x128(a, 0x80).lanes()[4..8], [0, 0, 0, 0]);
        assert_eq!(a.permute2x128(a, 0x08).lanes()[0..4], [0, 0, 0, 0]);
    }

    #[test]
    fn permutevar_rotates() {
        let a = seq();
        let idx = I32x8::from_lanes([1, 2, 3, 4, 5, 6, 7, 0]);
        assert_eq!(a.permutevar(idx).lanes(), [2, 3, 4, 5, 6, 7, 8, 1]);
    }

    #[test]
    fn extract_insert_roundtrip() {
        let a = seq();
        assert_eq!(a.extract(3), 4);
        assert_eq!(a.extract(11), 4, "index is taken mod 8");
        assert_eq!(a.insert(99, 0).lanes()[0], 99);
    }

    #[test]
    fn load_store_roundtrip() {
        let data = [9, 8, 7, 6, 5, 4, 3, 2, 1];
        let v = I32x8::load(&data);
        assert_eq!(v.lanes(), [9, 8, 7, 6, 5, 4, 3, 2]);
        let mut out = [0; 9];
        v.store(&mut out);
        assert_eq!(&out[..8], &data[..8]);
        assert_eq!(out[8], 0);
    }

    #[test]
    fn movemask_and_horizontal_sum() {
        let mask = I32x8::from_lanes([-1, 0, -1, 0, 0, 0, 0, 0]);
        assert_eq!(mask.movemask_epi8(), 0x0000_0f0f);
        assert_eq!(seq().horizontal_sum(), 36);
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(I32x8::splat(1).to_string(), "<1, 1, 1, 1, 1, 1, 1, 1>");
    }
}
