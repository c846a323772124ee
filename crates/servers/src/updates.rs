//! The update catalogue used by the engineering-effort evaluation (Table 1).
//!
//! The paper evaluates 40 releases of the four programs (5 updates each for
//! Apache httpd, vsftpd and OpenSSH, 25 for nginx) and reports, per program,
//! the size of the updates (changed LOC, functions, variables, types) and
//! the MCR-specific engineering effort (annotation LOC and state-transfer
//! LOC). Those quantities describe the *source releases*, which this
//! reproduction cannot re-diff; the catalogue therefore records the paper's
//! per-program figures as reference data and exposes the same aggregation
//! the Table 1 harness prints, alongside the live numbers measured from the
//! simulated programs (quiescence profile and annotation registries).

/// Engineering-effort record for one evaluated program (one row of Table 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateCatalogEntry {
    /// Program name.
    pub program: String,
    /// Version range covered by the updates.
    pub(crate) version_range: String,
    /// Number of releases (updates) considered.
    pub updates: u32,
    /// Lines of code changed across the updates.
    pub changed_loc: u32,
    /// Functions added, deleted or modified.
    pub changed_functions: u32,
    /// Variables added, deleted or modified.
    pub changed_variables: u32,
    /// Types added, deleted or modified.
    pub changed_types: u32,
    /// Annotation LOC required to prepare the program for MCR.
    pub annotation_loc: u32,
    /// Extra state-transfer LOC required across all the updates.
    pub state_transfer_loc: u32,
}

/// The paper's Table 1 catalogue.
pub fn paper_catalog() -> Vec<UpdateCatalogEntry> {
    vec![
        UpdateCatalogEntry {
            program: "httpd".into(),
            version_range: "2.2.23-2.3.8".into(),
            updates: 5,
            changed_loc: 10_844,
            changed_functions: 829,
            changed_variables: 28,
            changed_types: 48,
            annotation_loc: 181,
            state_transfer_loc: 302,
        },
        UpdateCatalogEntry {
            program: "nginx".into(),
            version_range: "0.8.54-1.0.15".into(),
            updates: 25,
            changed_loc: 9_681,
            changed_functions: 711,
            changed_variables: 51,
            changed_types: 54,
            annotation_loc: 22,
            state_transfer_loc: 335,
        },
        UpdateCatalogEntry {
            program: "vsftpd".into(),
            version_range: "1.1.0-2.0.2".into(),
            updates: 5,
            changed_loc: 5_830,
            changed_functions: 305,
            changed_variables: 121,
            changed_types: 35,
            annotation_loc: 82,
            state_transfer_loc: 21,
        },
        UpdateCatalogEntry {
            program: "sshd".into(),
            version_range: "3.5-3.8".into(),
            updates: 5,
            changed_loc: 14_370,
            changed_functions: 894,
            changed_variables: 84,
            changed_types: 33,
            annotation_loc: 49,
            state_transfer_loc: 135,
        },
    ]
}

/// Aggregate totals over a catalogue (the "Total" row of Table 1).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CatalogTotals {
    /// Total number of updates.
    pub(crate) updates: u32,
    /// Total changed LOC.
    pub(crate) changed_loc: u32,
    /// Total changed functions.
    pub(crate) changed_functions: u32,
    /// Total changed variables.
    pub(crate) changed_variables: u32,
    /// Total changed types.
    pub(crate) changed_types: u32,
    /// Total annotation LOC.
    pub annotation_loc: u32,
    /// Total state-transfer LOC.
    pub(crate) state_transfer_loc: u32,
}

/// Computes the totals row for a catalogue.
pub fn totals(entries: &[UpdateCatalogEntry]) -> CatalogTotals {
    let mut t = CatalogTotals::default();
    for e in entries {
        t.updates += e.updates;
        t.changed_loc += e.changed_loc;
        t.changed_functions += e.changed_functions;
        t.changed_variables += e.changed_variables;
        t.changed_types += e.changed_types;
        t.annotation_loc += e.annotation_loc;
        t.state_transfer_loc += e.state_transfer_loc;
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Number of generations (v1 plus updates) this reproduction models for a
    /// program: nginx gets a long chain like the paper's 25-release series, the
    /// others get 5 updates.
    fn generations_for(program: &str) -> u32 {
        match program {
            "nginx" => 26,
            _ => 6,
        }
    }

    #[test]
    fn catalog_matches_paper_totals() {
        let catalog = paper_catalog();
        assert_eq!(catalog.len(), 4);
        let t = totals(&catalog);
        assert_eq!(t.updates, 40);
        assert_eq!(t.changed_loc, 40_725);
        assert_eq!(t.changed_functions, 2_739);
        assert_eq!(t.changed_variables, 284);
        assert_eq!(t.changed_types, 170);
        assert_eq!(t.annotation_loc, 334);
        assert_eq!(t.state_transfer_loc, 793);
    }

    #[test]
    fn generation_counts() {
        assert_eq!(generations_for("nginx"), 26);
        assert_eq!(generations_for("httpd"), 6);
        assert_eq!(generations_for("vsftpd"), 6);
    }
}
