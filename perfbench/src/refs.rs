//! Reference outputs the `paper` workload is checked against. None of them
//! comes from the run being checked:
//!
//! * the Table 1 ✓/✗ cells, flush counts and PTA work hand-written in
//!   `EXPERIMENTS.md`;
//! * the deterministic columns of `BENCH_pta.json` (work, call sites,
//!   polymorphic sites, average points-to size, reachable functions,
//!   root causes and the shortcut rows);
//! * `EvalBenchmark::expected` and `expected_detdom` from the corpus.
//!
//! The first two are transcribed into `refs/reference.json`.

use mujs_bench::pipeline::ShortcutCompareRow;
use mujs_bench::{EvalElimRow, PtaCompareRow, PtaModeRow, Table1Row};
use mujs_corpus::evalbench::{EvalBenchmark, Expected};
use serde_json::Value;

/// The parsed reference file.
pub struct Refs {
    v: Value,
}

fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("reference lacks `{key}`"))
}

fn num(v: &Value, key: &str) -> Result<f64, String> {
    field(v, key)?
        .as_f64()
        .ok_or_else(|| format!("reference `{key}` is not a number"))
}

fn flag(v: &Value, key: &str) -> Result<bool, String> {
    field(v, key)?
        .as_bool()
        .ok_or_else(|| format!("reference `{key}` is not a boolean"))
}

/// Equal as numbers; floats within a relative 1e-9 (they round-trip
/// through decimal text).
fn same(what: &str, got: f64, want: f64) -> Result<(), String> {
    if (got - want).abs() <= 1e-9 * want.abs().max(1.0) {
        Ok(())
    } else {
        Err(format!("{what}: got {got}, want {want}"))
    }
}

fn same_flag(what: &str, got: bool, want: bool) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: got {got}, want {want}"))
    }
}

impl Refs {
    /// Loads `refs/reference.json`.
    pub fn load() -> Self {
        let v = serde_json::from_str(include_str!("../refs/reference.json"))
            .expect("refs/reference.json parses");
        Refs { v }
    }

    fn row(&self, table: &str, version: &str) -> Result<&Value, String> {
        field(&self.v, table)?
            .as_array()
            .and_then(|rows| {
                rows.iter()
                    .find(|r| r.get("version").and_then(Value::as_str) == Some(version))
            })
            .ok_or_else(|| format!("no {table} reference for version {version}"))
    }

    /// The Table 1 cells: ✓/✗, flush counts (`null` in the reference = the
    /// flush cap was reached, the paper's `>1000`) and the PTA work of
    /// every completed solve. An exceeded solve's work is `null`: it is
    /// the budget, not a property of the page.
    pub fn check_table1(&self, row: &Table1Row) -> Result<(), String> {
        let r = self.row("table1", row.version)?;
        let v = row.version;
        let cell = |col: &str, ok: bool, work: u64| -> Result<(), String> {
            let c = field(r, col)?;
            same_flag(&format!("{v} {col} ok"), ok, flag(c, "ok")?)?;
            match field(c, "work")?.as_f64() {
                Some(want) => same(&format!("{v} {col} work"), work as f64, want),
                None => Ok(()),
            }
        };
        cell("baseline", row.baseline_ok, row.baseline_work)?;
        let cols = [
            (
                "spec",
                row.spec_ok,
                row.spec_work,
                row.spec_flushes,
                row.spec_capped,
            ),
            (
                "detdom",
                row.detdom_ok,
                row.detdom_work,
                row.detdom_flushes,
                row.detdom_capped,
            ),
        ];
        for (col, ok, work, flushes, capped) in cols {
            cell(col, ok, work)?;
            let c = field(r, col)?;
            match field(c, "flushes")?.as_f64() {
                Some(want) => {
                    same_flag(&format!("{v} {col} capped"), capped, false)?;
                    same(&format!("{v} {col} flushes"), f64::from(flushes), want)?;
                }
                None => same_flag(&format!("{v} {col} capped"), capped, true)?,
            }
        }
        Ok(())
    }

    /// The deterministic columns of a `BENCH_pta.json` comparison row.
    pub fn check_pta_compare(&self, row: &PtaCompareRow) -> Result<(), String> {
        let r = self.row("pta_compare", &row.version)?;
        let v = &row.version;
        same(
            &format!("{v} injected_sites"),
            row.injected_sites as f64,
            num(r, "injected_sites")?,
        )?;
        for (mode, m) in [
            ("baseline", &row.baseline),
            ("injected", &row.injected),
            ("specialized", &row.specialized),
        ] {
            check_mode(&format!("{v} {mode}"), m, field(r, mode)?)?;
        }
        let want = field(r, "root_causes")?
            .as_array()
            .ok_or("reference root_causes is not a list")?;
        if want.len() != row.root_causes.len() {
            return Err(format!(
                "{v} root causes: got {}, want {}",
                row.root_causes.len(),
                want.len()
            ));
        }
        for (i, (got, want)) in row.root_causes.iter().zip(want).enumerate() {
            let what = format!("{v} cause #{}", i + 1);
            let label = field(want, "label")?.as_str().unwrap_or_default();
            let kind = field(want, "kind")?.as_str().unwrap_or_default();
            if got.label != label || got.kind != kind {
                return Err(format!(
                    "{what}: got {} ({}), want {label} ({kind})",
                    got.label, got.kind
                ));
            }
            same(
                &format!("{what} tuples"),
                got.tuples as f64,
                num(want, "tuples")?,
            )?;
            same(
                &format!("{what} suggestions"),
                got.suggestions as f64,
                num(want, "suggestions")?,
            )?;
        }
        Ok(())
    }

    /// The deterministic columns of a `BENCH_pta.json` shortcut row.
    pub fn check_shortcut(&self, row: &ShortcutCompareRow) -> Result<(), String> {
        let r = self.row("shortcuts", &row.version)?;
        let v = &row.version;
        same(
            &format!("{v} candidates"),
            row.candidates as f64,
            num(r, "candidates")?,
        )?;
        same(
            &format!("{v} regions"),
            row.regions as f64,
            num(r, "regions")?,
        )?;
        same(&format!("{v} tuples"), row.tuples as f64, num(r, "tuples")?)?;
        same_flag(&format!("{v} degraded"), row.degraded, flag(r, "degraded")?)?;
        check_mode(
            &format!("{v} injected"),
            &row.injected,
            field(r, "injected")?,
        )?;
        check_mode(
            &format!("{v} shortcut"),
            &row.shortcut,
            field(r, "shortcut")?,
        )
    }
}

fn check_mode(what: &str, got: &PtaModeRow, want: &Value) -> Result<(), String> {
    same_flag(&format!("{what} ok"), got.ok, flag(want, "ok")?)?;
    same(&format!("{what} work"), got.work as f64, num(want, "work")?)?;
    same(
        &format!("{what} call_sites"),
        got.call_sites as f64,
        num(want, "call_sites")?,
    )?;
    same(
        &format!("{what} poly_sites"),
        got.poly_sites as f64,
        num(want, "poly_sites")?,
    )?;
    same(
        &format!("{what} avg_points_to"),
        got.avg_points_to,
        num(want, "avg_points_to")?,
    )?;
    same(
        &format!("{what} reachable_funcs"),
        got.reachable_funcs as f64,
        num(want, "reachable_funcs")?,
    )
}

/// A §5.2 row against the benchmark's expected outcomes.
pub fn check_eval(b: &EvalBenchmark, row: &EvalElimRow) -> Result<(), String> {
    same_flag(
        &format!("{} plain", b.name),
        row.plain_ok,
        b.expected == Expected::Eliminated,
    )?;
    same_flag(
        &format!("{} detdom", b.name),
        row.detdom_ok,
        b.expected_detdom == Expected::Eliminated,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_covers_every_version() {
        let r = Refs::load();
        for v in ["1.0", "1.1", "1.2", "1.3"] {
            for table in ["table1", "pta_compare", "shortcuts"] {
                assert!(r.row(table, v).is_ok(), "{table} {v}");
            }
        }
    }

    #[test]
    fn a_wrong_cell_is_reported() {
        let r = Refs::load();
        let mut row = Table1Row {
            version: "1.0",
            baseline_ok: false,
            baseline_work: 150_001,
            spec_ok: true,
            spec_work: 11_446,
            spec_flushes: 82,
            spec_capped: false,
            detdom_ok: true,
            detdom_work: 11_446,
            detdom_flushes: 2,
            detdom_capped: false,
        };
        assert_eq!(r.check_table1(&row), Ok(()));
        row.spec_flushes = 81;
        assert!(r.check_table1(&row).unwrap_err().contains("spec flushes"));
    }
}
