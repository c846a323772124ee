//! # mcr-servers — simulated evaluation programs for MCR
//!
//! Models of the four server programs the paper evaluates — Apache httpd,
//! nginx, vsftpd and the OpenSSH daemon — implemented against the
//! [`mcr_core::Program`] API and running on the `mcr-procsim` substrate.
//! Each program is described by a [`ServerSpec`] (process model, allocator
//! family, library state, pointer-encoding idioms) and parameterized by a
//! *generation* number selecting the release; later generations change data
//! structure layouts and behaviour the way the paper's 40 updates do.
//!
//! ```rust
//! use mcr_core::runtime::{boot, BootOptions};
//! use mcr_procsim::Kernel;
//! use mcr_servers::programs;
//!
//! # fn main() -> Result<(), mcr_core::McrError> {
//! let mut kernel = Kernel::new();
//! kernel.add_file("/etc/nginx.conf", b"worker_processes 2;".to_vec());
//! let instance = boot(&mut kernel, Box::new(programs::nginx(1)), &BootOptions::default())?;
//! assert_eq!(instance.state.processes.len(), 3); // master + 2 workers
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub(crate) mod cache;
pub(crate) mod generic;
pub(crate) mod scenarios;
pub(crate) mod spec;
pub(crate) mod updates;

pub use cache::{dirty_cache_records, CacheServer, CACHE_PORT};
pub use generic::{programs, GenericServer};
pub use scenarios::{
    apply_scenario_writes, dirty_connection_nodes, precopy_scenarios, stamp_request_scratch, PrecopyScenario,
};
pub use spec::ServerSpec;
pub use updates::{paper_catalog, totals, CatalogTotals, UpdateCatalogEntry};

use mcr_procsim::{Addr, AddressSpace};
use mcr_typemeta::{TypeId, TypeKind, TypeRegistry};

/// Appends `<prefix>.<field>` for every integer field of the struct of type
/// `ty` at `addr`, read at the field's own width — the typed reads an audit
/// ([`mcr_core::Program::audit`]) is made of. Pointer fields are left out:
/// they name addresses, which an update relocates. `None` if the type is
/// unknown or a field is unreadable.
pub(crate) fn audit_fields(
    space: &AddressSpace,
    types: &TypeRegistry,
    ty: TypeId,
    addr: Addr,
    prefix: &str,
    out: &mut Vec<(String, u64)>,
) -> Option<()> {
    for field in types.struct_layout(ty) {
        let at = addr.offset(field.offset);
        let value = match types.get(field.ty)?.kind {
            TypeKind::Int { size: 4 } => u64::from(space.read_u32(at).ok()?),
            TypeKind::Int { size: 8 } => space.read_u64(at).ok()?,
            _ => continue,
        };
        out.push((format!("{prefix}.{}", field.name), value));
    }
    Some(())
}

/// Installs the configuration files and served documents every simulated
/// server expects into a kernel's file system.
pub fn install_standard_files(kernel: &mut mcr_procsim::Kernel) {
    for path in ["/etc/httpd.conf", "/etc/nginx.conf", "/etc/vsftpd.conf", "/etc/sshd_config"] {
        kernel.add_file(path, b"workers=2\nloglevel=info\nkeepalive=on\n".to_vec());
    }
    kernel.add_file("/var/www/index.html", vec![b'x'; 1024]);
    kernel.add_file("/var/ftp/large.bin", vec![b'y'; 1024 * 1024]);
}

/// Constructs a program model for `name` (one of `"httpd"`, `"nginx"`,
/// `"vsftpd"`, `"sshd"`) at the given generation.
///
/// # Panics
///
/// Panics on an unknown program name.
pub fn program_by_name(name: &str, generation: u32) -> GenericServer {
    match name {
        "httpd" => programs::httpd(generation),
        "nginx" => programs::nginx(generation),
        "vsftpd" => programs::vsftpd(generation),
        "sshd" => programs::sshd(generation),
        other => panic!("unknown program {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Constructs a boxed program model for `name`: one of the four paper
    /// programs, or `"cache"` for the single-process memcached-style
    /// [`CacheServer`] archetype.
    ///
    /// # Panics
    ///
    /// Panics on an unknown program name.
    fn boxed_program_by_name(name: &str, generation: u32) -> Box<dyn mcr_core::Program> {
        match name {
            "cache" => Box::new(CacheServer::new(generation)),
            other => Box::new(program_by_name(other, generation)),
        }
    }

    #[test]
    fn program_by_name_covers_all_specs() {
        for spec in ServerSpec::all() {
            let p = program_by_name(&spec.name, 1);
            assert_eq!(mcr_core::Program::name(&p), spec.name);
            assert_eq!(mcr_core::Program::version(&p), spec.version_string(1));
        }
    }

    /// The type registry of every program and generation, after boot has
    /// queried and extended it in whatever order startup did, answers every
    /// layout question exactly like a registry rebuilt from its descriptors
    /// and asked for the first time — no memoised entry outlived a
    /// registration that changed it.
    #[test]
    fn booted_type_registries_answer_like_freshly_rebuilt_ones() {
        use mcr_core::runtime::{boot, BootOptions};
        use mcr_typemeta::TypeRegistry;

        for name in ["httpd", "nginx", "vsftpd", "sshd", "cache"] {
            for generation in 1..=2 {
                let mut kernel = mcr_procsim::Kernel::new();
                install_standard_files(&mut kernel);
                let program = boxed_program_by_name(name, generation);
                let instance = boot(&mut kernel, program, &BootOptions::default()).unwrap();
                let booted = &instance.state.types;
                assert!(booted.len() > 4, "{name} gen {generation} registers its types");
                let mut rebuilt = TypeRegistry::new();
                for desc in booted.iter() {
                    let id = rebuilt.register(std::sync::Arc::clone(&desc.name), desc.kind.clone());
                    assert_eq!(id, desc.id);
                }
                for desc in booted.iter() {
                    let (id, what) = (desc.id, format!("{name} gen {generation}: {}", desc.name));
                    assert_eq!(booted.size_of(id), rebuilt.size_of(id), "{what}");
                    assert_eq!(booted.align_of(id), rebuilt.align_of(id), "{what}");
                    assert_eq!(booted.struct_layout(id), rebuilt.struct_layout(id), "{what}");
                    assert_eq!(booted.layout_elements(id), rebuilt.layout_elements(id), "{what}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "unknown program")]
    fn unknown_program_panics() {
        let _ = program_by_name("postfix", 1);
    }
}
