//! Checks on the paper's tables through the public surface: the
//! `BENCH_paper.json` document that [`paper_json`] builds, and a live update
//! driven through the runtime API with idle connections open.
//!
//! The same properties at small sizes are `mcr-bench` unit tests on the
//! crate-private rows; `tests/tracked_reports.rs` pins the document's values.

use std::sync::OnceLock;

use mcr_bench::{paper_json, Json};
use mcr_core::runtime::{boot, live_update, BootOptions, UpdateOptions};
use mcr_procsim::Kernel;
use mcr_servers::{install_standard_files, program_by_name};
use mcr_typemeta::InstrumentationConfig;
use mcr_workload::{open_idle_connections, run_workload, workload_for};

/// `paper_json()`, built once for every test in this binary.
fn paper() -> &'static Json {
    static DOC: OnceLock<Json> = OnceLock::new();
    DOC.get_or_init(paper_json)
}

fn field<'a>(value: &'a Json, key: &str) -> &'a Json {
    match value {
        Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
    .unwrap_or_else(|| panic!("no {key:?} in {}", value.render()))
}

fn items(value: &Json) -> &[Json] {
    match value {
        Json::Arr(items) => items,
        other => panic!("not an array: {}", other.render()),
    }
}

fn num(value: &Json) -> f64 {
    match value {
        Json::Num(n) => *n,
        other => panic!("not a number: {}", other.render()),
    }
}

fn text(value: &Json) -> &str {
    match value {
        Json::Str(s) => s,
        other => panic!("not a string: {}", other.render()),
    }
}

/// The rows of the report's `experiment` section.
fn rows(experiment: &str) -> &'static [Json] {
    let section = items(field(paper(), "sections"))
        .iter()
        .find(|s| text(field(s, "experiment")) == experiment)
        .unwrap_or_else(|| panic!("no {experiment} section"));
    items(field(section, "rows"))
}

#[test]
fn table1_contains_all_rows_and_totals() {
    let t = rows("table1_effort");
    let programs: Vec<&str> = t.iter().map(|r| text(field(r, "program"))).collect();
    assert_eq!(programs, ["httpd", "nginx", "vsftpd", "sshd", "Total"]);
    assert_eq!(num(field(&t[4], "annotation_loc")), 334.0, "the paper's annotation total");
}

#[test]
fn figure3_state_transfer_grows_with_connections() {
    let sshd = rows("fig3_state_transfer").iter().find(|r| text(field(r, "program")) == "sshd").unwrap();
    let points = items(field(sshd, "points"));
    let transfer_ms = |p: &Json| num(field(p, "state_transfer_ms"));
    let (idle, busy) = (&points[0], points.last().unwrap());
    assert!(num(field(busy, "connections")) > num(field(idle, "connections")));
    assert!(transfer_ms(busy) > transfer_ms(idle), "{}", sshd.render());
    assert!(num(field(busy, "dirty_reduction")) > 0.0, "dirty tracking skips clean startup state");
}

#[test]
fn memory_overhead_is_positive_for_every_program() {
    let memory = rows("memory_usage");
    assert_eq!(memory.len(), 4);
    for row in memory {
        assert!(num(field(row, "overhead")) >= 1.0, "instrumentation never shrinks memory: {}", row.render());
    }
}

#[test]
fn update_with_connections_commits_for_every_program() {
    let config = InstrumentationConfig::full();
    for program in ["httpd", "nginx", "vsftpd", "sshd"] {
        let mut kernel = Kernel::new();
        install_standard_files(&mut kernel);
        let opts = BootOptions { config, ..BootOptions::default() };
        let mut v1 = boot(&mut kernel, Box::new(program_by_name(program, 1)), &opts).unwrap();
        let workload = workload_for(program, 3);
        run_workload(&mut kernel, &mut v1, &workload).unwrap();
        open_idle_connections(&mut kernel, &mut v1, workload.port, 5).unwrap();
        let (_v2, outcome) = live_update(
            &mut kernel,
            v1,
            Box::new(program_by_name(program, 2)),
            config,
            &UpdateOptions::default(),
        );
        assert!(outcome.is_committed(), "{program}: {:?}", outcome.conflicts());
    }
}
