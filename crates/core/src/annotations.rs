//! User annotations: state handlers and reinitialization handlers.
//!
//! These are the Rust counterparts of the paper's `MCR_ADD_OBJ_HANDLER` and
//! `MCR_ADD_REINIT_HANDLER` annotations (Listing 1). They are the escape
//! hatch for the cases MCR cannot automate: "hidden" pointers in opaque
//! buffers, semantic state transformations, encoded pointers, and startup
//! operations whose semantics changed between versions.
//!
//! The registry also tracks the *annotation effort* (lines of code) each
//! annotation represents, which is what Table 1 reports per program.

use std::collections::BTreeMap;
use std::fmt;

use mcr_procsim::Syscall;

use crate::log::LogEntry;

/// How mutable tracing should treat an annotated object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObjTreatment {
    /// The object hides pointers at the given byte offsets (e.g. Listing 1's
    /// `char b[8]`); tracing treats those slots as precise pointers.
    PointerSlots(Vec<u64>),
    /// The object stores encoded pointers: the low `mask_bits` bits carry
    /// metadata and must be masked off before following (nginx's
    /// least-significant-bit tags, paper §8).
    EncodedPointers {
        /// Number of low bits used as metadata.
        mask_bits: u32,
    },
    /// Force conservative treatment even though type information exists.
    ForceConservative,
    /// Do not transfer the object at all (it is reinitialized by the new
    /// version or intentionally dropped).
    SkipTransfer,
}

/// The low-bit mask of an [`ObjTreatment::EncodedPointers`] annotation: the
/// bits that carry metadata and are not part of the address. `mask_bits` is
/// below 64 for every registered annotation
/// ([`AnnotationRegistry::add_obj_handler`] rejects wider ones).
pub(crate) fn pointer_mask(mask_bits: u32) -> u64 {
    (1u64 << mask_bits) - 1
}

/// A state annotation attached to a global symbol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct StateAnnotation {
    /// Symbol the annotation applies to.
    pub(crate) symbol: String,
    /// Treatment requested.
    pub(crate) treatment: ObjTreatment,
}

/// Decision returned by a reinitialization handler for a conflicting or
/// special-cased startup operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReinitDecision {
    /// Not handled; fall through to the next handler / default behaviour.
    NotHandled,
    /// Replay the recorded entry even though the arguments differ.
    ReplayRecorded,
    /// Execute the call live despite a recorded counterpart.
    ExecuteLive,
    /// Skip the call entirely (return a unit result to the program).
    Skip,
    /// Abort the update with a conflict carrying this message.
    Abort(String),
}

/// A reinitialization handler: invoked when replay matching finds a
/// mismatch, or when the startup log has entries the new version omitted.
pub type ReinitHandler = Box<dyn Fn(&Syscall, Option<&LogEntry>) -> ReinitDecision>;

/// A semantic transform handler: given the old object's raw bytes, produces
/// the bytes of the new representation. Registered per type name or per
/// symbol for updates whose state changes cannot be derived structurally.
pub type TransformHandler = Box<dyn Fn(&[u8]) -> Vec<u8>>;

/// Registry of every annotation of one MCR-enabled program version.
#[derive(Default)]
pub struct AnnotationRegistry {
    state: Vec<StateAnnotation>,
    reinit: Vec<(String, ReinitHandler)>,
    transforms: BTreeMap<String, TransformHandler>,
    annotation_loc: u64,
}

impl fmt::Debug for AnnotationRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AnnotationRegistry")
            .field("state", &self.state)
            .field("reinit_handlers", &self.reinit.iter().map(|(n, _)| n).collect::<Vec<_>>())
            .field("transforms", &self.transforms.keys().collect::<Vec<_>>())
            .field("annotation_loc", &self.annotation_loc)
            .finish()
    }
}

impl AnnotationRegistry {
    /// Creates an empty registry.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Registers a state annotation (`MCR_ADD_OBJ_HANDLER`), accounting
    /// `loc` lines of annotation code.
    ///
    /// # Panics
    ///
    /// Panics on [`ObjTreatment::EncodedPointers`] with `mask_bits >= 64`: a
    /// 64-bit pointer has no address bits left under such a mask.
    pub(crate) fn add_obj_handler(&mut self, symbol: impl Into<String>, treatment: ObjTreatment, loc: u64) {
        if let ObjTreatment::EncodedPointers { mask_bits } = treatment {
            assert!(mask_bits < 64, "EncodedPointers: mask_bits must be below 64, got {mask_bits}");
        }
        self.state.push(StateAnnotation { symbol: symbol.into(), treatment });
        self.annotation_loc += loc;
    }

    /// Registers a reinitialization handler (`MCR_ADD_REINIT_HANDLER`).
    pub(crate) fn add_reinit_handler(&mut self, name: impl Into<String>, handler: ReinitHandler, loc: u64) {
        self.reinit.push((name.into(), handler));
        self.annotation_loc += loc;
    }

    /// Registers a semantic state-transfer transform for a type or symbol
    /// name.
    pub(crate) fn add_transform(&mut self, name: impl Into<String>, handler: TransformHandler) {
        self.transforms.insert(name.into(), handler);
    }

    /// Accounts additional annotation lines that are not tied to a handler
    /// (e.g. source tweaks needed to keep startup deterministic).
    pub(crate) fn add_annotation_loc(&mut self, loc: u64) {
        self.annotation_loc += loc;
    }

    /// The state annotation for `symbol`, if any.
    pub(crate) fn obj_treatment(&self, symbol: &str) -> Option<&ObjTreatment> {
        self.state.iter().rev().find(|a| a.symbol == symbol).map(|a| &a.treatment)
    }

    /// Runs the reinitialization handlers on a replay situation, returning
    /// the first decision that is not [`ReinitDecision::NotHandled`].
    pub(crate) fn resolve_reinit(&self, call: &Syscall, recorded: Option<&LogEntry>) -> ReinitDecision {
        for (_, handler) in &self.reinit {
            let decision = handler(call, recorded);
            if decision != ReinitDecision::NotHandled {
                return decision;
            }
        }
        ReinitDecision::NotHandled
    }

    /// The semantic transform registered for `name`, if any.
    pub(crate) fn transform(&self, name: &str) -> Option<&TransformHandler> {
        self.transforms.get(name)
    }

    /// Total annotation LOC accounted so far (Table 1 "Ann LOC").
    pub fn annotation_loc(&self) -> u64 {
        self.annotation_loc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcr_procsim::Fd;

    #[test]
    fn obj_handlers_latest_wins() {
        let mut reg = AnnotationRegistry::new();
        reg.add_obj_handler("b", ObjTreatment::ForceConservative, 1);
        reg.add_obj_handler("b", ObjTreatment::PointerSlots(vec![0]), 2);
        assert_eq!(reg.obj_treatment("b"), Some(&ObjTreatment::PointerSlots(vec![0])));
        assert_eq!(reg.obj_treatment("other"), None);
        assert_eq!(reg.annotation_loc(), 3);
        assert_eq!(reg.state.len(), 2);
    }

    #[test]
    fn pointer_mask_covers_the_low_bits() {
        assert_eq!(pointer_mask(0), 0);
        assert_eq!(pointer_mask(2), 0b11);
        assert_eq!(pointer_mask(63), u64::MAX >> 1);
        let mut reg = AnnotationRegistry::new();
        for mask_bits in [0, 2, 63] {
            reg.add_obj_handler("tagged", ObjTreatment::EncodedPointers { mask_bits }, 1);
        }
        assert_eq!(reg.obj_treatment("tagged"), Some(&ObjTreatment::EncodedPointers { mask_bits: 63 }));
    }

    #[test]
    #[should_panic(expected = "mask_bits must be below 64")]
    fn encoded_pointer_mask_of_64_bits_is_rejected() {
        AnnotationRegistry::new().add_obj_handler(
            "tagged",
            ObjTreatment::EncodedPointers { mask_bits: 64 },
            1,
        );
    }

    #[test]
    fn reinit_handlers_chain_until_decision() {
        let mut reg = AnnotationRegistry::new();
        reg.add_reinit_handler(
            "ignore-sleeps",
            Box::new(|call, _| match call {
                Syscall::Nanosleep { .. } => ReinitDecision::Skip,
                _ => ReinitDecision::NotHandled,
            }),
            4,
        );
        reg.add_reinit_handler(
            "port-change",
            Box::new(|call, _| match call {
                Syscall::Bind { port: 8080, .. } => ReinitDecision::ExecuteLive,
                _ => ReinitDecision::NotHandled,
            }),
            6,
        );
        assert_eq!(reg.resolve_reinit(&Syscall::Nanosleep { ns: 1 }, None), ReinitDecision::Skip);
        assert_eq!(
            reg.resolve_reinit(&Syscall::Bind { fd: Fd(3), port: 8080 }, None),
            ReinitDecision::ExecuteLive
        );
        assert_eq!(reg.resolve_reinit(&Syscall::Socket, None), ReinitDecision::NotHandled);
        assert_eq!(reg.annotation_loc(), 10);
    }

    #[test]
    fn transforms_by_name() {
        let mut reg = AnnotationRegistry::new();
        reg.add_transform(
            "conf_s",
            Box::new(|old| {
                let mut new = old.to_vec();
                new.extend_from_slice(&[0u8; 8]);
                new
            }),
        );
        let out = reg.transform("conf_s").unwrap()(&[1, 2, 3]);
        assert_eq!(out.len(), 11);
        assert!(reg.transform("missing").is_none());
    }

    #[test]
    fn loc_accounting_accumulates() {
        let mut reg = AnnotationRegistry::new();
        reg.add_annotation_loc(8);
        reg.add_annotation_loc(10);
        assert_eq!(reg.annotation_loc(), 18);
    }
}
