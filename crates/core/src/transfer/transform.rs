//! Structural type transformations between program versions.
//!
//! When an update changes a data structure (adds, removes or reorders
//! fields), state transfer must re-lay the old object's bytes into the new
//! layout and rewrite the pointers it contains. The [`FieldMap`] computed
//! here pairs old and new byte ranges by walking both type descriptions and
//! matching struct fields *by name*, recursively — the automatic portion of
//! MCR's type transformation. Semantic changes beyond that are the job of
//! user transform handlers (annotations).

use mcr_typemeta::{TypeId, TypeKind, TypeRegistry};

/// A plan for converting one object from its old layout to its new layout.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FieldMap {
    /// Raw byte copies: `(old_offset, new_offset, len)`.
    pub(crate) copies: Vec<(u64, u64, u64)>,
    /// Pointer slots to rewrite: `(old_offset, new_offset)`.
    pub(crate) pointers: Vec<(u64, u64)>,
    /// Size of the old representation.
    pub(crate) old_size: u64,
    /// Size of the new representation.
    pub new_size: u64,
}

impl FieldMap {
    /// An identity map for an object whose layout did not change.
    pub fn identity(size: u64, pointer_offsets: &[u64]) -> Self {
        let mut copies = Vec::new();
        let mut last = 0u64;
        let mut pointers = Vec::new();
        for &off in pointer_offsets {
            if off > last {
                copies.push((last, last, off - last));
            }
            pointers.push((off, off));
            last = off + 8;
        }
        if last < size {
            copies.push((last, last, size - last));
        }
        FieldMap { copies, pointers, old_size: size, new_size: size }
    }
}

/// Computes the transformation plan from `old_ty` (in `old_reg`) to `new_ty`
/// (in `new_reg`).
///
/// Unknown types fall back to a raw copy of the overlapping prefix.
pub fn compute_field_map(
    old_reg: &TypeRegistry,
    old_ty: TypeId,
    new_reg: &TypeRegistry,
    new_ty: TypeId,
) -> FieldMap {
    let old_size = old_reg.size_of(old_ty);
    let new_size = new_reg.size_of(new_ty);
    let mut map = FieldMap { copies: Vec::new(), pointers: Vec::new(), old_size, new_size };
    map_into(old_reg, old_ty, 0, new_reg, new_ty, 0, &mut map);
    map
}

fn raw_copy(
    old_reg: &TypeRegistry,
    old_ty: TypeId,
    old_off: u64,
    new_reg: &TypeRegistry,
    new_ty: TypeId,
    new_off: u64,
    map: &mut FieldMap,
) {
    let len = old_reg.size_of(old_ty).min(new_reg.size_of(new_ty));
    if len > 0 {
        map.copies.push((old_off, new_off, len));
    }
}

fn map_into(
    old_reg: &TypeRegistry,
    old_ty: TypeId,
    old_off: u64,
    new_reg: &TypeRegistry,
    new_ty: TypeId,
    new_off: u64,
    map: &mut FieldMap,
) {
    let (Some(old_desc), Some(new_desc)) = (old_reg.get(old_ty), new_reg.get(new_ty)) else {
        // Unknown on either side: copy the overlapping bytes verbatim.
        let len = old_reg.size_of(old_ty).max(8).min(new_reg.size_of(new_ty).max(8));
        map.copies.push((old_off, new_off, len));
        return;
    };
    match (&old_desc.kind, &new_desc.kind) {
        (TypeKind::Pointer { .. }, TypeKind::Pointer { .. }) => {
            map.pointers.push((old_off, new_off));
        }
        (TypeKind::Struct { .. }, TypeKind::Struct { .. }) => {
            let old_layout = old_reg.struct_layout(old_ty);
            for new_field in new_reg.struct_layout(new_ty) {
                if let Some(old_field) = old_layout.iter().find(|f| f.name == new_field.name) {
                    map_into(
                        old_reg,
                        old_field.ty,
                        old_off + old_field.offset,
                        new_reg,
                        new_field.ty,
                        new_off + new_field.offset,
                        map,
                    );
                }
            }
        }
        (
            TypeKind::Array { elem: old_elem, len: old_len },
            TypeKind::Array { elem: new_elem, len: new_len },
        ) => {
            let old_stride = stride(old_reg, *old_elem);
            let new_stride = stride(new_reg, *new_elem);
            for i in 0..(*old_len).min(*new_len) {
                map_into(
                    old_reg,
                    *old_elem,
                    old_off + i * old_stride,
                    new_reg,
                    *new_elem,
                    new_off + i * new_stride,
                    map,
                );
            }
        }
        (TypeKind::Int { size: a }, TypeKind::Int { size: b }) => {
            map.copies.push((old_off, new_off, (*a).min(*b)));
        }
        (TypeKind::CharArray { len: a }, TypeKind::CharArray { len: b }) => {
            map.copies.push((old_off, new_off, (*a).min(*b)));
        }
        (TypeKind::PtrSizedInt, TypeKind::PtrSizedInt) => {
            map.copies.push((old_off, new_off, 8));
        }
        (TypeKind::Union { .. }, TypeKind::Union { .. })
        | (TypeKind::Opaque { .. }, TypeKind::Opaque { .. }) => {
            raw_copy(old_reg, old_ty, old_off, new_reg, new_ty, new_off, map);
        }
        // Kind changed (e.g. int widened to pointer): nothing can be copied
        // structurally; the slot is left zeroed for the new version (or
        // handled by a user transform).
        _ => {}
    }
}

fn stride(reg: &TypeRegistry, ty: TypeId) -> u64 {
    let size = reg.size_of(ty).max(1);
    let align = reg.align_of(ty).max(1);
    size.div_ceil(align) * align
}

/// Applies a field map to an old object's bytes, writing the new object's
/// bytes into `out` (`map.new_size.max(1)` bytes) with pointer slots still
/// holding their *old* values (the caller rewrites them afterwards using its
/// address map). Bytes no copy covers are left alone: fields the new version
/// added read as whatever `out` held, zeros for a fresh buffer.
pub fn apply_field_map(map: &FieldMap, old_bytes: &[u8], out: &mut [u8]) {
    let pointers = map.pointers.iter().map(|&(old_off, new_off)| (old_off, new_off, 8));
    for (old_off, new_off, len) in map.copies.iter().copied().chain(pointers) {
        let (old_off, new_off, len) = (old_off as usize, new_off as usize, len as usize);
        if old_off + len <= old_bytes.len() && new_off + len <= out.len() {
            out[new_off..new_off + len].copy_from_slice(&old_bytes[old_off..old_off + len]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcr_typemeta::Field;

    /// The new object's bytes, from a zeroed buffer.
    fn applied(map: &FieldMap, old_bytes: &[u8]) -> Vec<u8> {
        let mut out = vec![0u8; map.new_size.max(1) as usize];
        apply_field_map(map, old_bytes, &mut out);
        out
    }

    fn listing1_old() -> (TypeRegistry, TypeId) {
        let mut reg = TypeRegistry::new();
        let int = reg.int("int", 4);
        let fwd = reg.opaque("l_t_fwd", 16);
        let ptr = reg.pointer("l_t*", fwd);
        let node = reg.struct_type("l_t", vec![Field::new("value", int), Field::new("next", ptr)]);
        (reg, node)
    }

    /// The Figure 2 update: `l_t` gains a `new` field between `value` and
    /// `next`.
    fn listing1_new() -> (TypeRegistry, TypeId) {
        let mut reg = TypeRegistry::new();
        let int = reg.int("int", 4);
        let fwd = reg.opaque("l_t_fwd", 24);
        let ptr = reg.pointer("l_t*", fwd);
        let node = reg.struct_type(
            "l_t",
            vec![Field::new("value", int), Field::new("new", int), Field::new("next", ptr)],
        );
        (reg, node)
    }

    #[test]
    fn field_added_between_existing_fields() {
        let (old_reg, old_ty) = listing1_old();
        let (new_reg, new_ty) = listing1_new();
        let map = compute_field_map(&old_reg, old_ty, &new_reg, new_ty);
        assert_eq!(map.old_size, 16);
        assert_eq!(map.new_size, 16, "value:4 + new:4 + ptr:8");
        // `value` copied 0 -> 0, pointer moves from offset 8 to offset 8.
        assert!(map.copies.contains(&(0, 0, 4)));
        assert_eq!(map.pointers, vec![(8, 8)]);

        // Apply to a concrete old node {value: 5, next: 0xabc0}.
        let mut old_bytes = vec![0u8; 16];
        old_bytes[0..4].copy_from_slice(&5i32.to_le_bytes());
        old_bytes[8..16].copy_from_slice(&0xabc0u64.to_le_bytes());
        let new_bytes = applied(&map, &old_bytes);
        assert_eq!(&new_bytes[0..4], &5i32.to_le_bytes());
        assert_eq!(&new_bytes[4..8], &[0, 0, 0, 0], "new field zero-initialized");
        assert_eq!(&new_bytes[8..16], &0xabc0u64.to_le_bytes());
    }

    #[test]
    fn reordered_fields_matched_by_name() {
        let mut old_reg = TypeRegistry::new();
        let int = old_reg.int("int", 4);
        let c8 = old_reg.char_array("char[8]", 8);
        let old = old_reg.struct_type("conf_s", vec![Field::new("workers", int), Field::new("name", c8)]);
        let mut new_reg = TypeRegistry::new();
        let int2 = new_reg.int("int", 4);
        let c8b = new_reg.char_array("char[8]", 8);
        let new = new_reg.struct_type("conf_s", vec![Field::new("name", c8b), Field::new("workers", int2)]);
        let map = compute_field_map(&old_reg, old, &new_reg, new);
        // workers: old offset 0 -> new offset 8; name: old 4 -> new 0.
        assert!(map.copies.contains(&(0, 8, 4)));
        assert!(map.copies.contains(&(4, 0, 8)));

        let mut old_bytes = vec![0u8; 12];
        old_bytes[0..4].copy_from_slice(&3i32.to_le_bytes());
        old_bytes[4..12].copy_from_slice(b"apache\0\0");
        let out = applied(&map, &old_bytes);
        assert_eq!(&out[0..8], b"apache\0\0");
        assert_eq!(&out[8..12], &3i32.to_le_bytes());
    }

    #[test]
    fn removed_field_dropped() {
        let mut old_reg = TypeRegistry::new();
        let int = old_reg.int("int", 4);
        let old = old_reg.struct_type("s", vec![Field::new("keep", int), Field::new("drop", int)]);
        let mut new_reg = TypeRegistry::new();
        let int2 = new_reg.int("int", 4);
        let new = new_reg.struct_type("s", vec![Field::new("keep", int2)]);
        let map = compute_field_map(&old_reg, old, &new_reg, new);
        assert_eq!(map.copies, vec![(0, 0, 4)]);
        assert_eq!(map.new_size, 4);
    }

    #[test]
    fn identity_map_roundtrips() {
        let map = FieldMap::identity(24, &[8]);
        assert_eq!(map.copies.iter().map(|c| c.2).sum::<u64>(), 16);
        let old: Vec<u8> = (0..24).collect();
        let out = applied(&map, &old);
        assert_eq!(out, old);
    }

    #[test]
    fn arrays_map_elementwise_with_truncation() {
        let mut old_reg = TypeRegistry::new();
        let int = old_reg.int("int", 4);
        let old = old_reg.array("int[4]", int, 4);
        let mut new_reg = TypeRegistry::new();
        let int2 = new_reg.int("int", 4);
        let new = new_reg.array("int[2]", int2, 2);
        let map = compute_field_map(&old_reg, old, &new_reg, new);
        assert_eq!(map.copies.len(), 2);
        assert_eq!(map.new_size, 8);
    }

    #[test]
    fn kind_change_leaves_slot_zeroed() {
        let mut old_reg = TypeRegistry::new();
        let int = old_reg.int("int", 4);
        let old = old_reg.struct_type("s", vec![Field::new("x", int)]);
        let mut new_reg = TypeRegistry::new();
        let tgt = new_reg.int("int", 4);
        let ptr = new_reg.pointer("int*", tgt);
        let new = new_reg.struct_type("s", vec![Field::new("x", ptr)]);
        let map = compute_field_map(&old_reg, old, &new_reg, new);
        assert!(map.copies.is_empty());
        assert!(map.pointers.is_empty());
        let out = applied(&map, &[7, 0, 0, 0]);
        assert_eq!(out, vec![0u8; 8]);
    }

    #[test]
    fn unknown_types_fall_back_to_prefix_copy() {
        let old_reg = TypeRegistry::new();
        let new_reg = TypeRegistry::new();
        let map = compute_field_map(&old_reg, TypeId(9), &new_reg, TypeId(8));
        assert_eq!(map.copies, vec![(0, 0, 8)]);
    }
}
