//! Static-object and allocation-site registries.
//!
//! These registries stand in for the relocation and data-type tags that MCR's
//! LLVM pass emits for global variables, functions and allocator call sites.
//! Each program *version* owns one [`StaticRegistry`] and one
//! [`CallSiteRegistry`]; state transfer matches static objects by symbol name
//! and dynamic objects by allocation-site name across the two versions.

use std::collections::BTreeMap;
use std::sync::Arc;

use mcr_procsim::{Addr, AllocSite};

use crate::types::TypeId;

/// A registered global/static object of one program version.
///
/// The symbol is interned as an `Arc<str>`: mutable tracing resolves objects
/// by symbol on its hot path, and an `Arc` clone is a refcount bump instead
/// of a heap copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaticObject {
    /// Symbol name (e.g. `"conf"`, `"list"`, `"b"`).
    pub symbol: Arc<str>,
    /// Address of the object in the version's address space.
    pub addr: Addr,
    /// Type of the object.
    pub ty: TypeId,
    /// Size in bytes (cached from the type registry at registration time).
    pub size: u64,
    /// Whether the object is a *root* for mutable tracing (global pointers
    /// are roots; large read-only blobs may be registered without being
    /// roots).
    pub is_root: bool,
}

/// Registry of the static objects of one program version.
///
/// Static objects are disjoint, as a linker lays them out;
/// [`StaticRegistry::object_containing`] relies on it.
#[derive(Debug, Clone, Default)]
pub struct StaticRegistry {
    by_symbol: BTreeMap<Arc<str>, StaticObject>,
    /// Address → symbol, maintained by [`StaticRegistry::register`]: mutable
    /// tracing asks "which static holds this address" for every pointer it
    /// resolves, heap ones included.
    by_addr: BTreeMap<u64, Arc<str>>,
}

impl StaticRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) a static object.
    pub fn register(&mut self, object: StaticObject) {
        let (symbol, addr) = (Arc::clone(&object.symbol), object.addr.0);
        if let Some(old) = self.by_symbol.insert(Arc::clone(&symbol), object) {
            // The symbol may have moved: its old address no longer names it.
            if self.by_addr.get(&old.addr.0) == Some(&old.symbol) {
                self.by_addr.remove(&old.addr.0);
            }
        }
        self.by_addr.insert(addr, symbol);
    }

    /// Convenience: registers a root object.
    pub fn register_root(&mut self, symbol: impl Into<Arc<str>>, addr: Addr, ty: TypeId, size: u64) {
        self.register(StaticObject { symbol: symbol.into(), addr, ty, size, is_root: true });
    }

    /// Looks up an object by symbol name.
    pub fn lookup(&self, symbol: &str) -> Option<&StaticObject> {
        self.by_symbol.get(symbol)
    }

    /// Finds the object containing `addr`, if any. A zero-sized object
    /// contains its own address.
    pub fn object_containing(&self, addr: Addr) -> Option<&StaticObject> {
        let (_, symbol) = self.by_addr.range(..=addr.0).next_back()?;
        self.by_symbol.get(symbol).filter(|o| addr.0 < o.addr.0 + o.size.max(1))
    }

    /// Iterates over all registered objects in symbol order.
    pub fn iter(&self) -> impl Iterator<Item = &StaticObject> {
        self.by_symbol.values()
    }

    /// Iterates over the root objects only.
    pub fn roots(&self) -> impl Iterator<Item = &StaticObject> {
        self.by_symbol.values().filter(|o| o.is_root)
    }

    /// Number of registered objects.
    pub fn len(&self) -> usize {
        self.by_symbol.len()
    }

    /// True if the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.by_symbol.is_empty()
    }

    /// Total bytes of registered static objects (metadata accounting).
    pub fn total_bytes(&self) -> u64 {
        self.by_symbol.values().map(|o| o.size).sum()
    }
}

/// Information recorded for one allocation call site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSiteInfo {
    /// A stable, version-agnostic name for the site (typically
    /// `"function:variable"`), used to match dynamic objects across versions.
    /// Interned as an `Arc<str>` so per-object lookups during tracing and
    /// transfer never copy the name.
    pub name: Arc<str>,
    /// The type allocated at this site, as determined by MCR's static
    /// allocation-type analysis; `None` when the analysis cannot tell (the
    /// allocation is then opaque).
    pub ty: Option<TypeId>,
}

/// Registry of allocation call sites of one program version.
#[derive(Debug, Clone, Default)]
pub struct CallSiteRegistry {
    sites: BTreeMap<u64, CallSiteInfo>,
    by_name: BTreeMap<Arc<str>, u64>,
    next: u64,
}

impl CallSiteRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        CallSiteRegistry { sites: BTreeMap::new(), by_name: BTreeMap::new(), next: 1 }
    }

    /// Registers a call site (idempotent per name), returning its id.
    pub fn register(&mut self, name: impl Into<Arc<str>>, ty: Option<TypeId>) -> AllocSite {
        let name: Arc<str> = name.into();
        if let Some(&id) = self.by_name.get(&name) {
            return AllocSite(id);
        }
        let id = self.next;
        self.next += 1;
        self.by_name.insert(Arc::clone(&name), id);
        self.sites.insert(id, CallSiteInfo { name, ty });
        AllocSite(id)
    }

    /// Looks up a call site by id.
    pub fn get(&self, site: AllocSite) -> Option<&CallSiteInfo> {
        self.sites.get(&site.0)
    }

    /// Looks up a call site id by name.
    pub fn lookup(&self, name: &str) -> Option<AllocSite> {
        self.by_name.get(name).map(|&id| AllocSite(id))
    }

    /// Iterates over all registered call sites in id order.
    pub fn iter(&self) -> impl Iterator<Item = (AllocSite, &CallSiteInfo)> {
        self.sites.iter().map(|(&id, info)| (AllocSite(id), info))
    }

    /// Number of registered call sites.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// True if no call sites are registered.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_registry_lookup_and_containment() {
        let mut reg = StaticRegistry::new();
        reg.register_root("conf", Addr(0x40_0000), TypeId(1), 8);
        reg.register(StaticObject {
            symbol: "banner".into(),
            addr: Addr(0x40_0100),
            ty: TypeId(2),
            size: 64,
            is_root: false,
        });
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.lookup("conf").unwrap().addr, Addr(0x40_0000));
        assert!(reg.lookup("missing").is_none());
        assert_eq!(&*reg.object_containing(Addr(0x40_0120)).unwrap().symbol, "banner");
        assert!(reg.object_containing(Addr(0x50_0000)).is_none());
        assert_eq!(reg.roots().count(), 1);
        assert_eq!(reg.total_bytes(), 72);
    }

    #[test]
    fn reregistering_symbol_replaces() {
        let mut reg = StaticRegistry::new();
        reg.register_root("conf", Addr(0x1000), TypeId(1), 8);
        reg.register_root("conf", Addr(0x2000), TypeId(1), 8);
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.lookup("conf").unwrap().addr, Addr(0x2000));
    }

    #[test]
    fn containment_follows_reregistration_and_object_bounds() {
        let mut reg = StaticRegistry::new();
        reg.register_root("conf", Addr(0x1000), TypeId(1), 16);
        reg.register_root("empty", Addr(0x1800), TypeId(2), 0);
        let holder =
            |reg: &StaticRegistry, addr| reg.object_containing(Addr(addr)).map(|o| o.symbol.to_string());
        assert_eq!(holder(&reg, 0x1000).as_deref(), Some("conf"));
        assert_eq!(holder(&reg, 0x100f).as_deref(), Some("conf"), "interior address");
        assert_eq!(holder(&reg, 0x1010), None, "one past the end");
        assert_eq!(holder(&reg, 0xfff), None, "below the lowest object");
        assert_eq!(holder(&reg, 0x1800).as_deref(), Some("empty"), "a zero-sized object holds its address");
        assert_eq!(holder(&reg, 0x1801), None);

        // The symbol moves: the old address must stop resolving to it.
        reg.register_root("conf", Addr(0x2000), TypeId(1), 16);
        assert_eq!(holder(&reg, 0x1008), None, "stale entry survived re-registration");
        assert_eq!(holder(&reg, 0x2008).as_deref(), Some("conf"));
        // Re-registering in place (a new size) keeps the entry.
        reg.register_root("conf", Addr(0x2000), TypeId(1), 32);
        assert_eq!(holder(&reg, 0x201f).as_deref(), Some("conf"));
        // Another symbol takes over the vacated address.
        reg.register_root("late", Addr(0x1000), TypeId(3), 8);
        reg.register_root("conf", Addr(0x3000), TypeId(1), 8);
        assert_eq!(holder(&reg, 0x1000).as_deref(), Some("late"));
        assert_eq!(holder(&reg, 0x2000), None);
        assert_eq!(reg.len(), 3);
    }

    #[test]
    fn call_site_registry_idempotent() {
        let mut reg = CallSiteRegistry::new();
        let a = reg.register("server_init:conf", Some(TypeId(3)));
        let b = reg.register("server_init:conf", Some(TypeId(3)));
        let c = reg.register("handle_event:node", None);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(reg.len(), 2);
        assert_eq!(&*reg.get(a).unwrap().name, "server_init:conf");
        assert_eq!(reg.iter().count(), 2);
        assert_eq!(reg.get(c).unwrap().ty, None);
        assert_eq!(reg.lookup("handle_event:node"), Some(c));
        assert_eq!(reg.lookup("nope"), None);
    }
}
