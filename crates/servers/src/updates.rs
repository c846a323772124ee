//! The update catalogue used by the engineering-effort evaluation (Table 1).
//!
//! The paper evaluates 40 releases of the four programs (5 updates each for
//! Apache httpd, vsftpd and OpenSSH, 25 for nginx) and reports, per program,
//! the size of the updates (changed LOC, functions, variables, types) and
//! the MCR-specific engineering effort (annotation LOC and state-transfer
//! LOC). Those quantities describe the *source releases*, which this
//! reproduction cannot re-diff; the catalogue therefore records the paper's
//! per-program figures as reference data; the Table 1 harness prints them,
//! with their column sums, alongside the quiescence profile measured from
//! the simulated programs.

/// Engineering-effort record for one evaluated program (one row of Table 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateCatalogEntry {
    /// Program name.
    pub program: String,
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
        let total = |column: fn(&UpdateCatalogEntry) -> u32| catalog.iter().map(column).sum::<u32>();
        assert_eq!(total(|e| e.updates), 40);
        assert_eq!(total(|e| e.changed_loc), 40_725);
        assert_eq!(total(|e| e.changed_functions), 2_739);
        assert_eq!(total(|e| e.changed_variables), 284);
        assert_eq!(total(|e| e.changed_types), 170);
        assert_eq!(total(|e| e.annotation_loc), 334);
        assert_eq!(total(|e| e.state_transfer_loc), 793);
    }

    #[test]
    fn generation_counts() {
        assert_eq!(generations_for("nginx"), 26);
        assert_eq!(generations_for("httpd"), 6);
        assert_eq!(generations_for("vsftpd"), 6);
    }
}
