//! Signature table for the AVX2 intrinsics supported by the pipeline.
//!
//! The *semantics* of each intrinsic live in the `lv-simd` crate; this module
//! only records type signatures so that the type checker, the dependence
//! analysis and the translation validator can reason about intrinsic calls
//! without depending on the executable model.

use crate::ast::Type;
use crate::typecheck::Ty;
use serde::{Deserialize, Serialize};

/// The argument / result types an intrinsic can mention.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IntrinsicType {
    /// A scalar `int`.
    I32,
    /// A 256-bit vector of eight `i32` lanes (`__m256i`).
    Vec,
    /// A pointer used as a vector memory operand (`__m256i *` or `int *`).
    VecPtr,
    /// A pointer to `int` used by masked loads/stores.
    IntPtr,
    /// No value (`void`), only for stores.
    Void,
}

impl IntrinsicType {
    /// Whether an argument of mini-C type `ty` is acceptable for this slot.
    pub fn accepts(self, ty: &Type) -> bool {
        self.accepts_ty(Ty::of(ty))
    }

    /// [`accepts`](Self::accepts) on the type checker's copyable type.
    pub(crate) fn accepts_ty(self, ty: Ty) -> bool {
        match self {
            IntrinsicType::I32 => ty == Ty::INT,
            IntrinsicType::Vec => ty == Ty::M256I,
            // Vector memory operands are written either as `(__m256i *)&a[i]`
            // or directly as `(__m256i *)(a + i)`, and some code passes the
            // `int *` through unchanged; accept any pointer.
            IntrinsicType::VecPtr | IntrinsicType::IntPtr => ty.is_ptr(),
            IntrinsicType::Void => false,
        }
    }

    /// The mini-C result type for this intrinsic type.
    pub fn result_type(self) -> Type {
        self.result_ty().to_type()
    }

    /// [`result_type`](Self::result_type) as the type checker's copyable
    /// type.
    pub(crate) fn result_ty(self) -> Ty {
        match self {
            IntrinsicType::I32 => Ty::INT,
            IntrinsicType::Vec => Ty::M256I,
            IntrinsicType::VecPtr => Ty::M256I.ptr(),
            IntrinsicType::IntPtr => Ty::INT.ptr(),
            IntrinsicType::Void => Ty::VOID,
        }
    }
}

/// The signature of a supported intrinsic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntrinsicSig {
    /// The C name, e.g. `_mm256_add_epi32`.
    pub name: &'static str,
    /// Parameter types in order.
    pub params: &'static [IntrinsicType],
    /// Result type.
    pub ret: IntrinsicType,
    /// Whether the intrinsic reads memory.
    pub reads_memory: bool,
    /// Whether the intrinsic writes memory.
    pub writes_memory: bool,
}

use IntrinsicType::{IntPtr, Vec as V, VecPtr, Void, I32};

/// All supported intrinsics. The set covers every intrinsic appearing in the
/// paper's listings (Figures 1 and 4, the s453 walk-through) plus the ones the
/// synthetic vectorizer emits for reductions and shuffles.
pub const INTRINSICS: &[IntrinsicSig] = &[
    IntrinsicSig {
        name: "_mm256_loadu_si256",
        params: &[VecPtr],
        ret: V,
        reads_memory: true,
        writes_memory: false,
    },
    IntrinsicSig {
        name: "_mm256_storeu_si256",
        params: &[VecPtr, V],
        ret: Void,
        reads_memory: false,
        writes_memory: true,
    },
    IntrinsicSig {
        name: "_mm256_maskload_epi32",
        params: &[IntPtr, V],
        ret: V,
        reads_memory: true,
        writes_memory: false,
    },
    IntrinsicSig {
        name: "_mm256_maskstore_epi32",
        params: &[IntPtr, V, V],
        ret: Void,
        reads_memory: false,
        writes_memory: true,
    },
    IntrinsicSig {
        name: "_mm256_add_epi32",
        params: &[V, V],
        ret: V,
        reads_memory: false,
        writes_memory: false,
    },
    IntrinsicSig {
        name: "_mm256_sub_epi32",
        params: &[V, V],
        ret: V,
        reads_memory: false,
        writes_memory: false,
    },
    IntrinsicSig {
        name: "_mm256_mullo_epi32",
        params: &[V, V],
        ret: V,
        reads_memory: false,
        writes_memory: false,
    },
    IntrinsicSig {
        name: "_mm256_set1_epi32",
        params: &[I32],
        ret: V,
        reads_memory: false,
        writes_memory: false,
    },
    IntrinsicSig {
        name: "_mm256_setr_epi32",
        params: &[I32, I32, I32, I32, I32, I32, I32, I32],
        ret: V,
        reads_memory: false,
        writes_memory: false,
    },
    IntrinsicSig {
        name: "_mm256_set_epi32",
        params: &[I32, I32, I32, I32, I32, I32, I32, I32],
        ret: V,
        reads_memory: false,
        writes_memory: false,
    },
    IntrinsicSig {
        name: "_mm256_setzero_si256",
        params: &[],
        ret: V,
        reads_memory: false,
        writes_memory: false,
    },
    IntrinsicSig {
        name: "_mm256_cmpgt_epi32",
        params: &[V, V],
        ret: V,
        reads_memory: false,
        writes_memory: false,
    },
    IntrinsicSig {
        name: "_mm256_cmpeq_epi32",
        params: &[V, V],
        ret: V,
        reads_memory: false,
        writes_memory: false,
    },
    IntrinsicSig {
        name: "_mm256_blendv_epi8",
        params: &[V, V, V],
        ret: V,
        reads_memory: false,
        writes_memory: false,
    },
    IntrinsicSig {
        name: "_mm256_and_si256",
        params: &[V, V],
        ret: V,
        reads_memory: false,
        writes_memory: false,
    },
    IntrinsicSig {
        name: "_mm256_or_si256",
        params: &[V, V],
        ret: V,
        reads_memory: false,
        writes_memory: false,
    },
    IntrinsicSig {
        name: "_mm256_xor_si256",
        params: &[V, V],
        ret: V,
        reads_memory: false,
        writes_memory: false,
    },
    IntrinsicSig {
        name: "_mm256_andnot_si256",
        params: &[V, V],
        ret: V,
        reads_memory: false,
        writes_memory: false,
    },
    IntrinsicSig {
        name: "_mm256_max_epi32",
        params: &[V, V],
        ret: V,
        reads_memory: false,
        writes_memory: false,
    },
    IntrinsicSig {
        name: "_mm256_min_epi32",
        params: &[V, V],
        ret: V,
        reads_memory: false,
        writes_memory: false,
    },
    IntrinsicSig {
        name: "_mm256_abs_epi32",
        params: &[V],
        ret: V,
        reads_memory: false,
        writes_memory: false,
    },
    IntrinsicSig {
        name: "_mm256_slli_epi32",
        params: &[V, I32],
        ret: V,
        reads_memory: false,
        writes_memory: false,
    },
    IntrinsicSig {
        name: "_mm256_srli_epi32",
        params: &[V, I32],
        ret: V,
        reads_memory: false,
        writes_memory: false,
    },
    IntrinsicSig {
        name: "_mm256_srai_epi32",
        params: &[V, I32],
        ret: V,
        reads_memory: false,
        writes_memory: false,
    },
    IntrinsicSig {
        name: "_mm256_hadd_epi32",
        params: &[V, V],
        ret: V,
        reads_memory: false,
        writes_memory: false,
    },
    IntrinsicSig {
        name: "_mm256_shuffle_epi32",
        params: &[V, I32],
        ret: V,
        reads_memory: false,
        writes_memory: false,
    },
    IntrinsicSig {
        name: "_mm256_permute2x128_si256",
        params: &[V, V, I32],
        ret: V,
        reads_memory: false,
        writes_memory: false,
    },
    IntrinsicSig {
        name: "_mm256_permutevar8x32_epi32",
        params: &[V, V],
        ret: V,
        reads_memory: false,
        writes_memory: false,
    },
    IntrinsicSig {
        name: "_mm256_extract_epi32",
        params: &[V, I32],
        ret: I32,
        reads_memory: false,
        writes_memory: false,
    },
    IntrinsicSig {
        name: "_mm256_insert_epi32",
        params: &[V, I32, I32],
        ret: V,
        reads_memory: false,
        writes_memory: false,
    },
    IntrinsicSig {
        name: "_mm256_movemask_epi8",
        params: &[V],
        ret: I32,
        reads_memory: false,
        writes_memory: false,
    },
];

/// Looks up the signature of an intrinsic by name.
pub fn intrinsic_sig(name: &str) -> Option<&'static IntrinsicSig> {
    INTRINSICS.iter().find(|sig| sig.name == name)
}

/// Returns `true` if `name` is one of the supported AVX2 intrinsics.
pub fn is_intrinsic(name: &str) -> bool {
    intrinsic_sig(name).is_some()
}

/// Returns `true` if `name` looks like an AVX2 intrinsic (by prefix) even if
/// it is not in the supported table. The agents use this to detect candidates
/// that call *unmodeled* intrinsics, which the paper reports as one source of
/// `Inconclusive` verification results.
pub fn looks_like_intrinsic(name: &str) -> bool {
    name.starts_with("_mm256_") || name.starts_with("_mm_") || name.starts_with("_mm512_")
}

/// The number of 32-bit lanes in a 256-bit vector; the paper's vectorization
/// width for integer TSVC kernels.
pub const VECTOR_WIDTH: usize = 8;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_known_intrinsics() {
        let sig = intrinsic_sig("_mm256_add_epi32").unwrap();
        assert_eq!(sig.params.len(), 2);
        assert_eq!(sig.ret, IntrinsicType::Vec);
        assert!(!sig.reads_memory);

        let load = intrinsic_sig("_mm256_loadu_si256").unwrap();
        assert!(load.reads_memory);
        assert!(!load.writes_memory);

        let store = intrinsic_sig("_mm256_storeu_si256").unwrap();
        assert!(store.writes_memory);
        assert_eq!(store.ret, IntrinsicType::Void);
    }

    #[test]
    fn unknown_intrinsics_are_detected() {
        assert!(intrinsic_sig("_mm256_dpbusd_epi32").is_none());
        assert!(looks_like_intrinsic("_mm256_dpbusd_epi32"));
        assert!(!looks_like_intrinsic("memcpy"));
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = INTRINSICS.iter().map(|s| s.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
    }

    #[test]
    fn type_acceptance() {
        assert!(IntrinsicType::I32.accepts(&Type::Int));
        assert!(!IntrinsicType::I32.accepts(&Type::M256i));
        assert!(IntrinsicType::Vec.accepts(&Type::M256i));
        assert!(IntrinsicType::VecPtr.accepts(&Type::m256i_ptr()));
        assert!(IntrinsicType::VecPtr.accepts(&Type::int_ptr()));
        assert_eq!(IntrinsicType::Vec.result_type(), Type::M256i);
    }

    #[test]
    fn setr_takes_eight_lanes() {
        assert_eq!(intrinsic_sig("_mm256_setr_epi32").unwrap().params.len(), 8);
        assert_eq!(VECTOR_WIDTH, 8);
    }
}
