//! Per-update symbol interning.
//!
//! One live update resolves the same symbol, allocation-site and type names
//! over and over — once per traced object, across every matched process
//! pair. A [`SymbolTable`] interns each distinct name exactly once per
//! update: lookups hand back a compact [`Sym`] (a `u32`) that keys the
//! transfer engine's site indexes, and the stored `Arc<str>` lets reports
//! and conflict messages reference the name without copying its bytes.
//!
//! The table is built once before the pair-parallel trace/transfer phase
//! fans out and is then shared read-only across the worker threads.

use std::collections::HashMap;
use std::sync::Arc;

/// A compact interned-name identifier, valid within one [`SymbolTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct Sym(pub u32);

/// An append-only name interner: `u32` ids keyed by shared `Arc<str>` names.
#[derive(Debug, Clone, Default)]
pub(crate) struct SymbolTable {
    by_name: HashMap<Arc<str>, u32>,
}

impl SymbolTable {
    /// Creates an empty table.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its id. Interning the same name twice
    /// returns the same id without copying the bytes again.
    pub(crate) fn intern(&mut self, name: impl Into<Arc<str>>) -> Sym {
        let name: Arc<str> = name.into();
        if let Some(&id) = self.by_name.get(&name) {
            return Sym(id);
        }
        let id = u32::try_from(self.by_name.len()).expect("fewer than 2^32 interned names");
        self.by_name.insert(name, id);
        Sym(id)
    }

    /// The id of an already-interned name, if any. Read-only, so worker
    /// threads can share the table without synchronization.
    pub(crate) fn lookup(&self, name: &str) -> Option<Sym> {
        self.by_name.get(name).map(|&id| Sym(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_ids_are_dense() {
        let mut t = SymbolTable::new();
        let a = t.intern("conf");
        let b = t.intern("list");
        assert_eq!(t.intern("conf"), a);
        assert_ne!(a, b);
        assert_eq!(t.by_name.len(), 2);
        assert_eq!(t.by_name.get("conf"), Some(&a.0));
        assert_eq!(t.lookup("list"), Some(b));
        assert_eq!(t.lookup("missing"), None);
    }

    #[test]
    fn interning_an_arc_shares_the_allocation() {
        let mut t = SymbolTable::new();
        let name: Arc<str> = Arc::from("handle_event:node");
        let sym = t.intern(Arc::clone(&name));
        let (stored, &id) = t.by_name.get_key_value("handle_event:node").unwrap();
        assert!(Arc::ptr_eq(stored, &name), "no byte copy on intern");
        assert_eq!(id, sym.0);
    }
}
