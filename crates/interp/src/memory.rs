//! Runtime values and the region-based memory model.
//!
//! Every array parameter of a kernel is bound to its own *region*, mirroring
//! the "arrays allocated in different memory regions" modelling the paper
//! uses to communicate non-aliasing to Alive2 (Section 3.1). A pointer value
//! is a `(region, element offset)` pair; pointer arithmetic moves the offset
//! and can never jump between regions. Regions are numbered in allocation
//! order; a region's name is borrowed from the AST and only shows in the
//! text of an out-of-bounds event.

use crate::error::{ExecError, UbDetail, UbEvent, UbKind};
use lv_simd::{I32x8, LANES};
use std::fmt;

/// Identifies a memory region (one per array).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionId(pub usize);

/// A pointer value: a region plus an element offset (may be negative or past
/// the end while it is only being *computed*; bounds are checked on access).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Pointer {
    /// The region this pointer points into.
    pub region: RegionId,
    /// Offset in `i32` elements from the start of the region.
    pub offset: i64,
}

impl Pointer {
    /// Returns the pointer moved by `delta` elements.
    pub fn offset_by(self, delta: i64) -> Pointer {
        Pointer {
            region: self.region,
            offset: self.offset + delta,
        }
    }
}

/// A runtime value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Value {
    /// A scalar `int`.
    Int(i32),
    /// A 256-bit vector.
    Vec(I32x8),
    /// A pointer into an array region.
    Ptr(Pointer),
}

impl Value {
    /// The scalar payload, or a type-mismatch error.
    pub fn as_int(self) -> Result<i32, ExecError> {
        match self {
            Value::Int(v) => Ok(v),
            other => Err(ExecError::TypeMismatch(format!(
                "expected int, found {}",
                other
            ))),
        }
    }

    /// The vector payload, or a type-mismatch error.
    pub fn as_vec(self) -> Result<I32x8, ExecError> {
        match self {
            Value::Vec(v) => Ok(v),
            other => Err(ExecError::TypeMismatch(format!(
                "expected __m256i, found {}",
                other
            ))),
        }
    }

    /// The pointer payload, or a type-mismatch error.
    pub fn as_ptr(self) -> Result<Pointer, ExecError> {
        match self {
            Value::Ptr(p) => Ok(p),
            other => Err(ExecError::TypeMismatch(format!(
                "expected pointer, found {}",
                other
            ))),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{}", v),
            Value::Vec(v) => write!(f, "{}", v),
            Value::Ptr(p) => write!(f, "&region{}[{}]", p.region.0, p.offset),
        }
    }
}

/// The memory: a set of named `i32` regions plus the log of UB events.
#[derive(Debug, Clone, Default)]
pub struct Memory<'n> {
    regions: Vec<RegionData<'n>>,
    /// Undefined-behaviour events recorded so far (fatal ones also abort).
    pub ub_events: Vec<UbEvent>,
}

#[derive(Debug, Clone)]
struct RegionData<'n> {
    name: &'n str,
    data: Vec<i32>,
}

impl<'n> Memory<'n> {
    /// Creates an empty memory.
    pub fn new() -> Memory<'n> {
        Memory::default()
    }

    /// Creates an empty memory with room for `regions` regions.
    pub fn with_capacity(regions: usize) -> Memory<'n> {
        Memory {
            regions: Vec::with_capacity(regions),
            ub_events: Vec::new(),
        }
    }

    /// Allocates a region for an array parameter and returns its id; ids
    /// count up from 0 in allocation order. `name` only labels the region
    /// in out-of-bounds events.
    pub fn alloc_region(&mut self, name: &'n str, data: Vec<i32>) -> RegionId {
        let id = RegionId(self.regions.len());
        self.regions.push(RegionData { name, data });
        id
    }

    /// The name a region was allocated under.
    pub fn region_name(&self, id: RegionId) -> &'n str {
        self.regions[id.0].name
    }

    /// The length (in elements) of a region.
    pub fn region_len(&self, id: RegionId) -> usize {
        self.regions[id.0].data.len()
    }

    /// A read-only view of a region's contents.
    pub fn region_data(&self, id: RegionId) -> &[i32] {
        &self.regions[id.0].data
    }

    /// The contents of every region, in allocation order.
    pub fn into_regions(self) -> Vec<Vec<i32>> {
        self.regions.into_iter().map(|r| r.data).collect()
    }

    fn check_bounds(&mut self, ptr: Pointer, len: usize, write: bool) -> Result<usize, ExecError> {
        let region_len = self.region_len(ptr.region);
        let start = ptr.offset;
        let end = ptr.offset + len as i64;
        if start < 0 || end > region_len as i64 {
            let kind = if write {
                UbKind::OobWrite
            } else {
                UbKind::OobRead
            };
            let event = UbEvent {
                kind,
                detail: UbDetail::Text(format!(
                    "{}[{}..{}] with region of length {}",
                    self.region_name(ptr.region),
                    start,
                    end,
                    region_len
                )),
            };
            self.ub_events.push(event.clone());
            return Err(ExecError::Ub(event));
        }
        Ok(start as usize)
    }

    /// Reads one element.
    ///
    /// # Errors
    ///
    /// Returns a fatal [`ExecError::Ub`] on out-of-bounds access.
    pub fn read(&mut self, ptr: Pointer) -> Result<i32, ExecError> {
        let idx = self.check_bounds(ptr, 1, false)?;
        Ok(self.regions[ptr.region.0].data[idx])
    }

    /// Writes one element.
    ///
    /// # Errors
    ///
    /// Returns a fatal [`ExecError::Ub`] on out-of-bounds access.
    pub fn write(&mut self, ptr: Pointer, value: i32) -> Result<(), ExecError> {
        let idx = self.check_bounds(ptr, 1, true)?;
        self.regions[ptr.region.0].data[idx] = value;
        Ok(())
    }

    /// Reads eight contiguous elements (`_mm256_loadu_si256`).
    ///
    /// # Errors
    ///
    /// Returns a fatal [`ExecError::Ub`] if any lane is out of bounds.
    pub fn read_vector(&mut self, ptr: Pointer) -> Result<I32x8, ExecError> {
        let idx = self.check_bounds(ptr, LANES, false)?;
        Ok(I32x8::load(
            &self.regions[ptr.region.0].data[idx..idx + LANES],
        ))
    }

    /// Writes eight contiguous elements (`_mm256_storeu_si256`).
    ///
    /// # Errors
    ///
    /// Returns a fatal [`ExecError::Ub`] if any lane is out of bounds.
    pub fn write_vector(&mut self, ptr: Pointer, value: I32x8) -> Result<(), ExecError> {
        let idx = self.check_bounds(ptr, LANES, true)?;
        value.store(&mut self.regions[ptr.region.0].data[idx..idx + LANES]);
        Ok(())
    }

    /// Masked load (`_mm256_maskload_epi32`): lanes whose mask MSB is clear
    /// read as zero and are *not* bounds-checked, exactly like hardware.
    ///
    /// # Errors
    ///
    /// Returns a fatal [`ExecError::Ub`] if an *enabled* lane is out of bounds.
    pub fn masked_read_vector(&mut self, ptr: Pointer, mask: I32x8) -> Result<I32x8, ExecError> {
        let mut lanes = [0i32; LANES];
        for (i, slot) in lanes.iter_mut().enumerate() {
            if mask.lanes()[i] < 0 {
                *slot = self.read(ptr.offset_by(i as i64))?;
            }
        }
        Ok(I32x8::from_lanes(lanes))
    }

    /// Masked store (`_mm256_maskstore_epi32`): only lanes with the mask MSB
    /// set are written or bounds-checked.
    ///
    /// # Errors
    ///
    /// Returns a fatal [`ExecError::Ub`] if an *enabled* lane is out of bounds.
    pub fn masked_write_vector(
        &mut self,
        ptr: Pointer,
        mask: I32x8,
        value: I32x8,
    ) -> Result<(), ExecError> {
        for i in 0..LANES {
            if mask.lanes()[i] < 0 {
                self.write(ptr.offset_by(i as i64), value.lanes()[i])?;
            }
        }
        Ok(())
    }

    /// Records a non-fatal UB event (signed overflow).
    pub fn record_overflow(&mut self, detail: UbDetail) {
        self.ub_events.push(UbEvent {
            kind: UbKind::SignedOverflow,
            detail,
        });
    }

    /// Returns `true` if any event of the given kind was recorded.
    pub fn has_ub(&self, kind: UbKind) -> bool {
        self.ub_events.iter().any(|e| e.kind == kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_lookup() {
        let mut mem = Memory::new();
        let a = mem.alloc_region("a", vec![1, 2, 3]);
        let b = mem.alloc_region("b", vec![4, 5]);
        assert_eq!((a, b), (RegionId(0), RegionId(1)));
        assert_eq!(mem.region_name(b), "b");
        assert_eq!(mem.region_len(b), 2);
        assert_eq!(mem.into_regions(), vec![vec![1, 2, 3], vec![4, 5]]);
    }

    #[test]
    fn scalar_read_write() {
        let mut mem = Memory::new();
        let a = mem.alloc_region("a", vec![0; 4]);
        let p = Pointer {
            region: a,
            offset: 2,
        };
        mem.write(p, 42).unwrap();
        assert_eq!(mem.read(p).unwrap(), 42);
        assert_eq!(mem.region_data(a), &[0, 0, 42, 0]);
    }

    #[test]
    fn out_of_bounds_is_fatal_and_recorded() {
        let mut mem = Memory::new();
        let a = mem.alloc_region("a", vec![0; 4]);
        let p = Pointer {
            region: a,
            offset: 4,
        };
        assert!(matches!(mem.read(p), Err(ExecError::Ub(_))));
        assert!(mem.has_ub(UbKind::OobRead));
        let p = Pointer {
            region: a,
            offset: -1,
        };
        assert!(matches!(mem.write(p, 1), Err(ExecError::Ub(_))));
        assert!(mem.has_ub(UbKind::OobWrite));
    }

    #[test]
    fn vector_read_write() {
        let mut mem = Memory::new();
        let a = mem.alloc_region("a", (0..16).collect());
        let p = Pointer {
            region: a,
            offset: 3,
        };
        let v = mem.read_vector(p).unwrap();
        assert_eq!(v.lanes(), [3, 4, 5, 6, 7, 8, 9, 10]);
        mem.write_vector(p, I32x8::splat(-1)).unwrap();
        assert_eq!(mem.region_data(a)[3], -1);
        assert_eq!(mem.region_data(a)[10], -1);
        assert_eq!(mem.region_data(a)[11], 11);
        // Partially out-of-bounds vector access is UB.
        let p = Pointer {
            region: a,
            offset: 9,
        };
        assert!(mem.read_vector(p).is_err());
    }

    #[test]
    fn masked_access_skips_disabled_lanes() {
        let mut mem = Memory::new();
        let a = mem.alloc_region("a", vec![1, 2, 3, 4]);
        let p = Pointer {
            region: a,
            offset: 0,
        };
        // Only the first four lanes are enabled, so reading 8 lanes from a
        // 4-element region is fine.
        let mask = I32x8::from_lanes([-1, -1, -1, -1, 0, 0, 0, 0]);
        let v = mem.masked_read_vector(p, mask).unwrap();
        assert_eq!(v.lanes(), [1, 2, 3, 4, 0, 0, 0, 0]);
        mem.masked_write_vector(p, mask, I32x8::splat(9)).unwrap();
        assert_eq!(mem.region_data(a), &[9, 9, 9, 9]);
        // Enabling an out-of-bounds lane is UB.
        let bad_mask = I32x8::splat(-1);
        assert!(mem.masked_read_vector(p, bad_mask).is_err());
    }

    #[test]
    fn value_accessors() {
        assert_eq!(Value::Int(3).as_int().unwrap(), 3);
        assert!(Value::Int(3).as_vec().is_err());
        assert!(Value::Vec(I32x8::zero()).as_int().is_err());
        let p = Pointer {
            region: RegionId(0),
            offset: 1,
        };
        assert_eq!(Value::Ptr(p).as_ptr().unwrap(), p);
        assert_eq!(p.offset_by(3).offset, 4);
    }
}
