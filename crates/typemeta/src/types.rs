//! Data-type descriptors and layout computation.
//!
//! The original MCR obtains type information from an LLVM link-time pass and
//! stores it as in-memory *data type tags*. Here the same information is
//! described explicitly with [`TypeDesc`] values held in a [`TypeRegistry`].
//! Every simulated program version registers the types of its global
//! variables and heap allocations; the registry is what MCR's precise tracing
//! consults to locate pointers, and what the transfer engine diffs across
//! versions to compute type transformations.
//!
//! Types that C cannot describe unambiguously — unions, `char` buffers,
//! pointer-sized integers, and allocations from uninstrumented allocators —
//! are modelled as *opaque* layout elements, which is precisely what forces
//! the conservative half of mutable tracing.
//!
//! # Hot paths: what is computed once
//!
//! The paper's data-type tags are emitted once at link time and only
//! *consulted* per object. The registry keeps that property: a type's size,
//! alignment and struct field layout are derived on the first query and
//! memoised per [`TypeId`], and so is its flattened [`LayoutElement`] list;
//! [`TypeRegistry::struct_layout`] and [`TypeRegistry::layout_elements`] hand
//! out borrowed slices of the memo. The memo sits in [`OnceLock`]s, so the
//! tracer's shard workers may race on a first query and all see one answer.
//! [`TypeRegistry::register`] is the only mutation, and a newly registered
//! type can change the layout of an older one that named its id before it
//! existed, so registering a *new* type drops every memoised entry. Answers
//! are the same values the per-call derivation produced; only when they are
//! computed changed.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// Identifier of a type within a [`TypeRegistry`].
///
/// The numeric value doubles as the in-band allocator tag
/// ([`mcr_procsim::TypeTag`]) so that chunk headers written by the simulated
/// allocator can be resolved back to a descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TypeId(pub u64);

/// Structural description of a type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeKind {
    /// A plain integer of the given byte width (1, 2, 4 or 8) that never
    /// holds a pointer.
    Int {
        /// Width in bytes.
        size: u64,
    },
    /// A pointer-sized integer that *may* hold a pointer (e.g. `intptr_t`,
    /// encoded pointers). Treated as opaque by precise tracing.
    PtrSizedInt,
    /// A pointer to an object of the given type.
    Pointer {
        /// Pointee type.
        to: TypeId,
    },
    /// A fixed-size `char` buffer; opaque (may hide pointers, Listing 1's
    /// `char b[8]`).
    CharArray {
        /// Length in bytes.
        len: u64,
    },
    /// An array of `len` elements of a known type.
    Array {
        /// Element type.
        elem: TypeId,
        /// Element count.
        len: u64,
    },
    /// A struct with named fields laid out with natural alignment.
    Struct {
        /// Fields in declaration order.
        fields: Vec<Field>,
    },
    /// A union of variants; opaque to precise tracing.
    Union {
        /// The variants sharing the storage.
        variants: Vec<Field>,
    },
    /// A blob with unknown layout (uninstrumented library data, custom
    /// allocator internals).
    Opaque {
        /// Size in bytes.
        size: u64,
    },
}

/// A named member of a struct or union.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Field name (used to match fields across versions).
    pub(crate) name: String,
    /// Field type.
    pub(crate) ty: TypeId,
}

impl Field {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, ty: TypeId) -> Self {
        Field { name: name.into(), ty }
    }
}

/// A registered type: identifier, name and structure.
///
/// The name is interned as an `Arc<str>` so the transfer engine's hot path
/// can carry type names around without copying the bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeDesc {
    /// Identifier within the registry.
    pub id: TypeId,
    /// Type name (used to pair types across program versions).
    pub name: Arc<str>,
    /// Structure.
    pub kind: TypeKind,
}

/// One element of a type's flattened layout, as consumed by mutable tracing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayoutElement {
    /// A pointer slot at `offset`, pointing to an object of type `to`.
    Pointer {
        /// Byte offset from the start of the object.
        offset: u64,
        /// Pointee type.
        to: TypeId,
    },
    /// Plain (pointer-free) data that can be copied verbatim.
    Scalar {
        /// Byte offset from the start of the object.
        offset: u64,
        /// Length in bytes.
        len: u64,
    },
    /// Opaque bytes that may hide pointers; must be scanned conservatively.
    Opaque {
        /// Byte offset from the start of the object.
        offset: u64,
        /// Length in bytes.
        len: u64,
    },
}

/// Field location resolved within a struct layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldLayout {
    /// Field name.
    pub name: String,
    /// Field type.
    pub ty: TypeId,
    /// Byte offset from the start of the struct.
    pub offset: u64,
    /// Field size in bytes.
    pub(crate) size: u64,
}

/// What the registry derives from a descriptor on first use and keeps.
#[derive(Debug, Clone)]
struct Shape {
    size: u64,
    align: u64,
    /// Field layout of a struct; empty for every other kind.
    fields: Vec<FieldLayout>,
}

/// A registered type and its memoised layout.
#[derive(Debug, Clone)]
struct Entry {
    desc: TypeDesc,
    shape: OnceLock<Shape>,
    /// Kept apart from `shape` so asking for the size of a large array does
    /// not materialise its flattened layout.
    elements: OnceLock<Vec<LayoutElement>>,
}

/// The memoised value of `cell`, derived first if it is empty. `derive` runs
/// outside the cell's initialisation (it recurses into other types' cells),
/// so two racing first queries may both derive; they derive the same value
/// and the first to finish publishes it.
fn publish<T>(cell: &OnceLock<T>, derive: impl FnOnce() -> T) -> &T {
    match cell.get() {
        Some(value) => value,
        None => {
            let derived = derive();
            cell.get_or_init(|| derived)
        }
    }
}

/// Registry of every type known to one program version.
#[derive(Debug, Clone, Default)]
pub struct TypeRegistry {
    /// The registered types, in id order. Ids are handed out consecutively
    /// from `next_id`, so the entry of id `i` sits at `i - (next_id -
    /// types.len())`: a lookup is one index, not a tree descent.
    types: Vec<Entry>,
    by_name: BTreeMap<Arc<str>, u64>,
    next_id: u64,
}

impl TypeRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        TypeRegistry { types: Vec::new(), by_name: BTreeMap::new(), next_id: 1 }
    }

    /// Registers a type under `name`, returning its id. Registering the same
    /// name twice returns the existing id (types are identified by name
    /// within one version).
    ///
    /// A new type drops every memoised layout: an older struct, array or
    /// union may have named this id before it existed.
    pub fn register(&mut self, name: impl Into<Arc<str>>, kind: TypeKind) -> TypeId {
        let name: Arc<str> = name.into();
        if let Some(&id) = self.by_name.get(&name) {
            return TypeId(id);
        }
        let id = TypeId(self.next_id);
        self.next_id += 1;
        self.by_name.insert(Arc::clone(&name), id.0);
        for entry in &mut self.types {
            entry.shape.take();
            entry.elements.take();
        }
        let desc = TypeDesc { id, name, kind };
        self.types.push(Entry { desc, shape: OnceLock::new(), elements: OnceLock::new() });
        id
    }

    /// Shorthand: a non-pointer integer type.
    pub fn int(&mut self, name: &str, size: u64) -> TypeId {
        self.register(name, TypeKind::Int { size })
    }

    /// Shorthand: a pointer-sized integer (opaque).
    pub fn ptr_sized_int(&mut self, name: &str) -> TypeId {
        self.register(name, TypeKind::PtrSizedInt)
    }

    /// Shorthand: a pointer type.
    pub fn pointer(&mut self, name: &str, to: TypeId) -> TypeId {
        self.register(name, TypeKind::Pointer { to })
    }

    /// Shorthand: a `char[len]` buffer.
    pub fn char_array(&mut self, name: &str, len: u64) -> TypeId {
        self.register(name, TypeKind::CharArray { len })
    }

    /// Shorthand: an array type.
    pub fn array(&mut self, name: &str, elem: TypeId, len: u64) -> TypeId {
        self.register(name, TypeKind::Array { elem, len })
    }

    /// Shorthand: a struct type.
    pub fn struct_type(&mut self, name: &str, fields: Vec<Field>) -> TypeId {
        self.register(name, TypeKind::Struct { fields })
    }

    /// Shorthand: an opaque blob.
    pub fn opaque(&mut self, name: &str, size: u64) -> TypeId {
        self.register(name, TypeKind::Opaque { size })
    }

    /// Where `id` sits in `types`; past its end for an unregistered id.
    fn index(&self, id: TypeId) -> usize {
        let first = self.next_id - self.types.len() as u64;
        usize::try_from(id.0.wrapping_sub(first)).unwrap_or(usize::MAX)
    }

    fn entry(&self, id: TypeId) -> Option<&Entry> {
        self.types.get(self.index(id))
    }

    /// Looks up a type descriptor by id.
    pub fn get(&self, id: TypeId) -> Option<&TypeDesc> {
        self.entry(id).map(|e| &e.desc)
    }

    /// Looks up a type id by name.
    pub fn lookup(&self, name: &str) -> Option<TypeId> {
        self.by_name.get(name).map(|&id| TypeId(id))
    }

    /// Iterates over all registered types.
    pub fn iter(&self) -> impl Iterator<Item = &TypeDesc> {
        self.types.iter().map(|e| &e.desc)
    }

    /// Number of registered types.
    pub fn len(&self) -> usize {
        self.types.len()
    }

    /// True if no types are registered.
    pub fn is_empty(&self) -> bool {
        self.types.is_empty()
    }

    /// The memoised shape of a registered type, derived on first use.
    fn shape(&self, id: TypeId) -> Option<&Shape> {
        let entry = self.entry(id)?;
        Some(publish(&entry.shape, || self.derive_shape(&entry.desc.kind)))
    }

    fn derive_shape(&self, kind: &TypeKind) -> Shape {
        let plain = |size, align| Shape { size, align, fields: Vec::new() };
        match kind {
            TypeKind::Int { size } => plain(*size, (*size).max(1)),
            TypeKind::PtrSizedInt | TypeKind::Pointer { .. } => plain(8, 8),
            TypeKind::CharArray { len } => plain(*len, 1),
            TypeKind::Array { elem, len } => plain(self.stride_of(*elem) * len, self.align_of(*elem)),
            TypeKind::Struct { fields } => {
                let mut out = Vec::with_capacity(fields.len());
                let mut offset = 0u64;
                let mut max_align = 1u64;
                for f in fields {
                    let align = self.align_of(f.ty);
                    let size = self.size_of(f.ty);
                    max_align = max_align.max(align);
                    offset = offset.div_ceil(align) * align;
                    out.push(FieldLayout { name: f.name.clone(), ty: f.ty, offset, size });
                    offset += size;
                }
                let total = offset.div_ceil(max_align) * max_align;
                Shape { size: total.max(1), align: max_align, fields: out }
            }
            TypeKind::Union { variants } => plain(
                variants.iter().map(|f| self.size_of(f.ty)).max().unwrap_or(0),
                variants.iter().map(|f| self.align_of(f.ty)).max().unwrap_or(1),
            ),
            TypeKind::Opaque { size } => plain(*size, 8),
        }
    }

    /// Size of an object of type `id`, in bytes.
    ///
    /// Unknown ids have size 0 (they behave like opaque, untraceable blobs).
    pub fn size_of(&self, id: TypeId) -> u64 {
        self.shape(id).map_or(0, |s| s.size)
    }

    /// Alignment of a type, in bytes.
    pub fn align_of(&self, id: TypeId) -> u64 {
        self.shape(id).map_or(1, |s| s.align)
    }

    fn stride_of(&self, id: TypeId) -> u64 {
        let size = self.size_of(id);
        let align = self.align_of(id);
        size.div_ceil(align) * align
    }

    /// The field layout of a struct type, borrowed from the registry's memo.
    ///
    /// Empty for non-struct types.
    pub fn struct_layout(&self, id: TypeId) -> &[FieldLayout] {
        self.shape(id).map_or(&[], |s| &s.fields)
    }

    /// Byte offset of a named field within a struct type.
    pub fn field_offset(&self, id: TypeId, field: &str) -> Option<u64> {
        self.struct_layout(id).iter().find(|f| f.name == field).map(|f| f.offset)
    }

    /// A type's traced layout, flattened: pointer slots, scalar runs and
    /// opaque runs, in offset order, borrowed from the registry's memo. This
    /// is the unit of work of precise tracing: pointer slots are followed,
    /// scalars copied, opaque runs handed to the conservative scanner.
    pub fn layout_elements(&self, id: TypeId) -> &[LayoutElement] {
        let Some(entry) = self.entry(id) else { return &[] };
        publish(&entry.elements, || {
            let mut out = Vec::new();
            self.flatten(id, 0, &mut out);
            out
        })
        .as_slice()
    }

    fn flatten(&self, id: TypeId, base: u64, out: &mut Vec<LayoutElement>) {
        let Some(desc) = self.get(id) else { return };
        match &desc.kind {
            TypeKind::Int { size } => out.push(LayoutElement::Scalar { offset: base, len: *size }),
            TypeKind::PtrSizedInt => out.push(LayoutElement::Opaque { offset: base, len: 8 }),
            TypeKind::Pointer { to } => out.push(LayoutElement::Pointer { offset: base, to: *to }),
            TypeKind::CharArray { len } => out.push(LayoutElement::Opaque { offset: base, len: *len }),
            TypeKind::Array { elem, len } => {
                let stride = self.stride_of(*elem);
                for i in 0..*len {
                    self.flatten(*elem, base + i * stride, out);
                }
            }
            TypeKind::Struct { .. } => {
                for f in self.struct_layout(id) {
                    self.flatten(f.ty, base + f.offset, out);
                }
            }
            TypeKind::Union { .. } | TypeKind::Opaque { .. } => {
                out.push(LayoutElement::Opaque { offset: base, len: self.size_of(id) });
            }
        }
    }

    /// Structural comparison of a type in this registry against a type in
    /// another registry (typically: old version vs. new version).
    ///
    /// Two types are *layout-compatible* when their flattened layouts have the
    /// same element kinds, offsets and sizes, and the names of struct fields
    /// match pairwise. Pointee type *names* must match but pointee ids may
    /// differ (ids are version-local).
    pub fn is_layout_compatible(&self, id: TypeId, other: &TypeRegistry, other_id: TypeId) -> bool {
        let a = self.layout_elements(id);
        let b = other.layout_elements(other_id);
        if a.len() != b.len() {
            return false;
        }
        a.iter().zip(b.iter()).all(|(x, y)| match (x, y) {
            (
                LayoutElement::Scalar { offset: o1, len: l1 },
                LayoutElement::Scalar { offset: o2, len: l2 },
            ) => o1 == o2 && l1 == l2,
            (
                LayoutElement::Opaque { offset: o1, len: l1 },
                LayoutElement::Opaque { offset: o2, len: l2 },
            ) => o1 == o2 && l1 == l2,
            (
                LayoutElement::Pointer { offset: o1, to: t1 },
                LayoutElement::Pointer { offset: o2, to: t2 },
            ) => {
                o1 == o2
                    && match (self.get(*t1), other.get(*t2)) {
                        (Some(a), Some(b)) => a.name == b.name,
                        _ => false,
                    }
            }
            _ => false,
        }) && self.size_of(id) == other.size_of(other_id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// True if any layout element of `id` satisfies `pred`.
    fn has(reg: &TypeRegistry, id: TypeId, pred: impl Fn(&LayoutElement) -> bool) -> bool {
        reg.layout_elements(id).iter().any(pred)
    }

    fn listing1_types() -> (TypeRegistry, TypeId, TypeId) {
        // The types from Listing 1 of the paper: `char b[8]` and
        // `struct list_s { int value; struct list_s *next; }`.
        let mut reg = TypeRegistry::new();
        let int = reg.int("int", 4);
        let list = reg.register(
            "l_t",
            TypeKind::Struct { fields: vec![Field::new("value", int), Field::new("next", TypeId(0))] },
        );
        // Patch the self-referential pointer after the struct id exists.
        let list_ptr = reg.pointer("l_t*", list);
        let at = reg.index(list);
        if let Some(entry) = reg.types.get_mut(at) {
            if let TypeKind::Struct { fields } = &mut entry.desc.kind {
                fields[1].ty = list_ptr;
            }
        }
        let b = reg.char_array("char[8]", 8);
        (reg, list, b)
    }

    #[test]
    fn primitive_sizes_and_alignment() {
        let mut reg = TypeRegistry::new();
        let i32t = reg.int("int", 4);
        let p = reg.pointer("int*", i32t);
        let c = reg.char_array("char[13]", 13);
        assert_eq!(reg.size_of(i32t), 4);
        assert_eq!(reg.size_of(p), 8);
        assert_eq!(reg.align_of(p), 8);
        assert_eq!(reg.size_of(c), 13);
        assert_eq!(reg.align_of(c), 1);
    }

    #[test]
    fn struct_layout_with_padding() {
        let (reg, list, _) = listing1_types();
        // int value at 0, pointer next aligned to 8, total 16.
        let layout = reg.struct_layout(list);
        assert_eq!(layout.len(), 2);
        assert_eq!(layout[0].offset, 0);
        assert_eq!(layout[1].offset, 8);
        assert_eq!(reg.size_of(list), 16);
        assert_eq!(reg.field_offset(list, "next"), Some(8));
        assert_eq!(reg.field_offset(list, "missing"), None);
    }

    #[test]
    fn layout_elements_classify_pointer_scalar_opaque() {
        let (reg, list, b) = listing1_types();
        let elems = reg.layout_elements(list);
        assert!(matches!(elems[0], LayoutElement::Scalar { offset: 0, len: 4 }));
        assert!(matches!(elems[1], LayoutElement::Pointer { offset: 8, .. }));
        assert!(has(&reg, list, |e| matches!(e, LayoutElement::Pointer { .. })));
        assert!(!has(&reg, list, |e| matches!(e, LayoutElement::Opaque { .. })));

        let belems = reg.layout_elements(b);
        assert_eq!(belems.len(), 1);
        assert!(matches!(belems[0], LayoutElement::Opaque { offset: 0, len: 8 }));
        assert!(has(&reg, b, |e| matches!(e, LayoutElement::Opaque { .. })));
    }

    #[test]
    fn arrays_flatten_per_element() {
        let mut reg = TypeRegistry::new();
        let int = reg.int("int", 4);
        let pair = reg.struct_type("pair", vec![Field::new("a", int), Field::new("b", int)]);
        let arr = reg.array("pair[3]", pair, 3);
        assert_eq!(reg.size_of(arr), 24);
        let elems = reg.layout_elements(arr);
        assert_eq!(elems.len(), 6);
        assert!(matches!(elems[5], LayoutElement::Scalar { offset: 20, .. }));
    }

    #[test]
    fn unions_and_ptr_sized_ints_are_opaque() {
        let mut reg = TypeRegistry::new();
        let int = reg.int("int", 4);
        let ptr = reg.pointer("int*", int);
        let u =
            reg.register("u", TypeKind::Union { variants: vec![Field::new("i", int), Field::new("p", ptr)] });
        let elems = reg.layout_elements(u);
        assert_eq!(elems, [LayoutElement::Opaque { offset: 0, len: 8 }]);
        let psi = reg.ptr_sized_int("uintptr_t");
        assert!(has(&reg, psi, |e| matches!(e, LayoutElement::Opaque { .. })));
    }

    #[test]
    fn duplicate_registration_returns_same_id() {
        let mut reg = TypeRegistry::new();
        let a = reg.int("int", 4);
        let b = reg.int("int", 4);
        assert_eq!(a, b);
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.lookup("int"), Some(a));
    }

    #[test]
    fn layout_compatibility_across_registries() {
        let (reg_v1, list_v1, _) = listing1_types();
        // v2 with an identical list type.
        let (reg_v2, list_v2, _) = listing1_types();
        assert!(reg_v1.is_layout_compatible(list_v1, &reg_v2, list_v2));

        // v2 with an extra field (the `new` field of Figure 2) is not
        // layout-compatible and therefore needs a type transformation.
        let mut reg_v2b = TypeRegistry::new();
        let int = reg_v2b.int("int", 4);
        let list2 = reg_v2b.register(
            "l_t",
            TypeKind::Struct {
                fields: vec![Field::new("value", int), Field::new("new", int), Field::new("next", TypeId(0))],
            },
        );
        let lp = reg_v2b.pointer("l_t*", list2);
        let at = reg_v2b.index(list2);
        if let Some(entry) = reg_v2b.types.get_mut(at) {
            if let TypeKind::Struct { fields } = &mut entry.desc.kind {
                fields[2].ty = lp;
            }
        }
        assert!(!reg_v1.is_layout_compatible(list_v1, &reg_v2b, list2));
    }

    /// Everything the memo answers for one type.
    fn answers(reg: &TypeRegistry, id: TypeId) -> (u64, u64, Vec<FieldLayout>, Vec<LayoutElement>) {
        (reg.size_of(id), reg.align_of(id), reg.struct_layout(id).to_vec(), reg.layout_elements(id).to_vec())
    }

    /// Replays a registry's registrations into a new one that has answered
    /// nothing yet.
    fn rebuilt(reg: &TypeRegistry) -> TypeRegistry {
        let mut fresh = TypeRegistry::new();
        for desc in reg.iter() {
            assert_eq!(fresh.register(Arc::clone(&desc.name), desc.kind.clone()), desc.id);
        }
        fresh
    }

    #[test]
    fn no_memoised_answer_survives_a_registration() {
        let mut reg = TypeRegistry::new();
        let int = reg.int("int", 4);
        // `holder` names the next three ids before they exist: as an array
        // element, as a by-value field and as a union variant.
        let (elem, inner, variant) = (TypeId(int.0 + 2), TypeId(int.0 + 3), TypeId(int.0 + 4));
        let holder = reg.struct_type(
            "holder",
            vec![Field::new("tag", int), Field::new("inner", inner), Field::new("tail", int)],
        );
        assert_eq!(answers(&reg, holder).0, 8, "an unknown field has size 0 and alignment 1");
        assert_eq!(reg.field_offset(holder, "tail"), Some(4));
        assert_eq!(answers(&reg, elem), (0, 1, vec![], vec![]), "queried before it exists");

        // An array and a pointer whose element id was queried before.
        assert_eq!(reg.struct_type("pair", vec![Field::new("a", int), Field::new("b", int)]), elem);
        assert_eq!(reg.size_of(elem), 8);
        let arr = reg.array("pair[3]", elem, 3);
        assert_eq!(arr, inner, "the array is the id `holder.inner` named");
        assert_eq!(reg.size_of(arr), 24);
        assert_eq!(reg.layout_elements(arr).len(), 6);
        // `holder` now holds a 24-byte array: every memoised answer moved.
        assert_eq!(reg.size_of(holder), 32);
        assert_eq!(reg.field_offset(holder, "tail"), Some(28));
        assert_eq!(reg.layout_elements(holder).len(), 8);
        let ptr = reg.pointer("pair*", elem);
        assert_eq!(ptr, variant);
        assert_eq!(reg.layout_elements(ptr), [LayoutElement::Pointer { offset: 0, to: elem }]);

        // A union that names a later id, queried, then completed.
        let late = TypeId(ptr.0 + 2);
        let u = reg.register(
            "u",
            TypeKind::Union { variants: vec![Field::new("i", int), Field::new("late", late)] },
        );
        assert_eq!(answers(&reg, u), (4, 4, vec![], vec![LayoutElement::Opaque { offset: 0, len: 4 }]));
        assert_eq!(reg.char_array("char[13]", 13), late);
        assert_eq!(answers(&reg, u), (13, 4, vec![], vec![LayoutElement::Opaque { offset: 0, len: 13 }]));

        // Whatever order the queries and registrations interleaved in, the
        // answers are those of a registry that was only asked at the end; a
        // repeated registration changes nothing.
        assert_eq!(reg.int("int", 4), int);
        let fresh = rebuilt(&reg);
        for desc in reg.iter() {
            assert_eq!(answers(&reg, desc.id), answers(&fresh, desc.id), "{}", desc.name);
        }
    }

    #[test]
    fn a_cloned_registry_answers_identically_and_independently() {
        let (mut reg, list, _) = listing1_types();
        let before = answers(&reg, list);
        let mut warm = reg.clone();
        assert_eq!(answers(&warm, list), before, "a clone of a warm memo");
        // Each side registers a different type under the id the other uses:
        // neither sees the other's registration, nor a stale memo of its own.
        let next = TypeId(list.0 + 4);
        let wide = reg.struct_type("wide", vec![Field::new("node", list), Field::new("extra", next)]);
        assert_eq!(reg.size_of(wide), 16);
        assert_eq!(reg.opaque("blob", 40), next);
        assert_eq!(warm.char_array("char[3]", 3), wide);
        assert_eq!(warm.size_of(wide), 3);
        assert_eq!(reg.size_of(wide), 56);
        assert_eq!(warm.size_of(next), 0);
        assert_eq!(answers(&warm, list), before);
        assert_eq!(answers(&reg, list), before);
        let cold = reg.clone();
        for desc in reg.iter() {
            assert_eq!(answers(&cold, desc.id), answers(&reg, desc.id), "{}", desc.name);
        }
    }

    #[test]
    fn concurrent_first_queries_agree() {
        let mut reg = TypeRegistry::new();
        let int = reg.int("int", 4);
        let c5 = reg.char_array("char[5]", 5);
        let ptr = reg.pointer("int*", int);
        let leaf = reg.struct_type("leaf", vec![Field::new("c", c5), Field::new("p", ptr)]);
        let leaves = reg.array("leaf[7]", leaf, 7);
        let top = reg.struct_type("top", vec![Field::new("n", int), Field::new("leaves", leaves)]);
        let expected = answers(&rebuilt(&reg), top);
        assert_eq!(expected.0, 8 + 7 * 16);
        assert_eq!(expected.3.len(), 1 + 7 * 2);

        // Nothing is memoised yet; every worker's first query races the
        // others through the nested types, from the top and from the leaves.
        let workers = 4;
        let start = std::sync::Barrier::new(workers);
        let seen: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let (reg, start) = (&reg, &start);
                    scope.spawn(move || {
                        start.wait();
                        if w % 2 == 1 {
                            assert_eq!(reg.layout_elements(leaf).len(), 2);
                        }
                        answers(reg, top)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("query worker panicked")).collect()
        });
        for got in seen {
            assert_eq!(got, expected);
        }
    }

    #[test]
    fn dense_ids_resolve_from_either_first_id() {
        for (mut reg, first) in [(TypeRegistry::new(), 1), (TypeRegistry::default(), 0)] {
            let int = reg.int("int", 4);
            let ptr = reg.pointer("int*", int);
            let pair = reg.struct_type("pair", vec![Field::new("a", int), Field::new("p", ptr)]);
            assert_eq!([int, ptr, pair], [TypeId(first), TypeId(first + 1), TypeId(first + 2)]);
            assert_eq!(reg.iter().map(|d| d.id).collect::<Vec<_>>(), [int, ptr, pair]);
            assert_eq!(reg.get(ptr).map(|d| &*d.name), Some("int*"));
            assert_eq!(reg.size_of(pair), 16);
            assert_eq!(reg.layout_elements(pair).len(), 2);
            // Below the first id, at `next_id`, and the far end of the id space.
            let below = first.checked_sub(1).map(TypeId);
            for missing in [below, Some(TypeId(first + 3)), Some(TypeId(u64::MAX))].into_iter().flatten() {
                assert!(reg.get(missing).is_none(), "{missing:?}");
                assert_eq!(reg.size_of(missing), 0, "{missing:?}");
                assert_eq!(reg.layout_elements(missing), &[], "{missing:?}");
            }
        }
        assert!(TypeRegistry::default().get(TypeId(0)).is_none(), "an empty registry holds no id");
    }

    #[test]
    fn unknown_type_behaves_as_empty() {
        let reg = TypeRegistry::new();
        assert_eq!(reg.size_of(TypeId(99)), 0);
        assert!(reg.layout_elements(TypeId(99)).is_empty());
    }
}
