//! Table 2: BREL vs gyocro on the Boolean-relation benchmark family.
//!
//! For every instance both solvers are run; the solutions are then pushed
//! through the same downstream flow the paper uses: two-level metrics (CB,
//! LIT), the algebraic multilevel optimization (`ALG` — factored literal
//! count after the algebraic script stand-in) and technology mapping
//! (`AREA`), plus the solver runtime (`CPU`).

use std::time::{Duration, Instant};

use brel_benchdata::table2 as family;
use brel_core::{BrelConfig, BrelSolver};
use brel_engine::Json;
use brel_gyocro::GyocroSolver;
use brel_network::algebraic;
use brel_network::mapper::{map, MappingOptions};
use brel_network::Library;
use brel_relation::MultiOutputFunction;

/// Metrics of one solver on one instance.
#[derive(Debug, Clone)]
pub struct SolverMetrics {
    /// Number of cubes of the two-level solution (CB).
    pub cubes: usize,
    /// Number of literals of the two-level solution (LIT).
    pub literals: usize,
    /// Factored literal count after algebraic optimization (ALG).
    pub algebraic_literals: usize,
    /// Mapped area (AREA).
    pub area: f64,
    /// Solver runtime (CPU).
    pub cpu: Duration,
}

/// One row of Table 2.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Instance name.
    pub name: &'static str,
    /// Number of inputs (PI).
    pub num_inputs: usize,
    /// Number of outputs (PO).
    pub num_outputs: usize,
    /// gyocro metrics.
    pub gyocro: SolverMetrics,
    /// BREL metrics.
    pub brel: SolverMetrics,
}

fn downstream(name: &str, f: &MultiOutputFunction, cpu: Duration) -> SolverMetrics {
    let cover = f.to_multicover();
    let mut net = crate::network_from_function(name, f);
    algebraic::optimize(&mut net).expect("acyclic by construction");
    let algebraic_literals = algebraic::network_factored_literals(&net);
    let mapped = map(&net, &Library::lib2_like(), &MappingOptions::default())
        .expect("acyclic by construction");
    SolverMetrics {
        cubes: cover.num_cubes(),
        literals: cover.num_literals(),
        algebraic_literals,
        area: mapped.area,
        cpu,
    }
}

/// Runs the comparison over the first `num_instances` of the family.
pub fn run(num_instances: usize) -> Vec<Table2Row> {
    let mut rows = Vec::new();
    for instance in family::instances().into_iter().take(num_instances) {
        let (_space, relation) = family::generate(&instance);

        let start = Instant::now();
        let gyocro = GyocroSolver::default()
            .solve(&relation)
            .expect("well defined");
        let gyocro_cpu = start.elapsed();

        let start = Instant::now();
        let brel = BrelSolver::new(BrelConfig::table2())
            .solve(&relation)
            .expect("well defined");
        let brel_cpu = start.elapsed();

        rows.push(Table2Row {
            name: instance.name,
            num_inputs: instance.num_inputs,
            num_outputs: instance.num_outputs,
            gyocro: downstream(
                &format!("{}_gyocro", instance.name),
                &gyocro.function,
                gyocro_cpu,
            ),
            brel: downstream(&format!("{}_brel", instance.name), &brel.function, brel_cpu),
        });
    }
    rows
}

/// Summary ratios over a set of rows: average BREL/gyocro ratio of the ALG
/// and AREA columns (the paper reports an 11% and 14% average improvement).
pub(crate) fn summary(rows: &[Table2Row]) -> (f64, f64) {
    let mut alg_ratio = 0.0;
    let mut area_ratio = 0.0;
    let mut count = 0.0;
    for r in rows {
        if r.gyocro.algebraic_literals > 0 && r.gyocro.area > 0.0 {
            alg_ratio += r.brel.algebraic_literals as f64 / r.gyocro.algebraic_literals as f64;
            area_ratio += r.brel.area / r.gyocro.area;
            count += 1.0;
        }
    }
    if count == 0.0 {
        (1.0, 1.0)
    } else {
        (alg_ratio / count, area_ratio / count)
    }
}

/// Renders the rows in the layout of the paper's Table 2.
pub fn render(rows: &[Table2Row]) -> String {
    let mut out = String::new();
    out.push_str("Table 2: comparison with gyocro\n");
    out.push_str("               |            gyocro                  |             BREL\n");
    out.push_str(
        "name     PI PO |  CB  LIT  ALG    AREA    CPU[s]    |  CB  LIT  ALG    AREA    CPU[s]\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:8} {:2} {:2} | {:3}  {:3}  {:3}  {:7.1}  {:8.3}  | {:3}  {:3}  {:3}  {:7.1}  {:8.3}\n",
            r.name,
            r.num_inputs,
            r.num_outputs,
            r.gyocro.cubes,
            r.gyocro.literals,
            r.gyocro.algebraic_literals,
            r.gyocro.area,
            r.gyocro.cpu.as_secs_f64(),
            r.brel.cubes,
            r.brel.literals,
            r.brel.algebraic_literals,
            r.brel.area,
            r.brel.cpu.as_secs_f64(),
        ));
    }
    let (alg, area) = summary(rows);
    out.push_str(&format!(
        "average BREL/gyocro ratio: ALG {:.3}  AREA {:.3}  (paper: 0.89 and 0.86)\n",
        alg, area
    ));
    out
}

fn metrics_json(m: &SolverMetrics) -> Json {
    Json::object(vec![
        ("cubes", Json::UInt(m.cubes as u64)),
        ("literals", Json::UInt(m.literals as u64)),
        (
            "algebraic_literals",
            Json::UInt(m.algebraic_literals as u64),
        ),
        ("area", Json::Float(m.area)),
        ("cpu_micros", Json::UInt(m.cpu.as_micros() as u64)),
    ])
}

/// Serializes the rows through the shared `brel-engine` JSON writer (the
/// `--json` output of the `table2_gyocro` binary).
pub fn to_json(rows: &[Table2Row]) -> String {
    let (alg, area) = summary(rows);
    Json::object(vec![
        ("schema", Json::str("brel-bench/table2-v1")),
        (
            "rows",
            Json::Array(
                rows.iter()
                    .map(|r| {
                        Json::object(vec![
                            ("name", Json::str(r.name)),
                            ("inputs", Json::UInt(r.num_inputs as u64)),
                            ("outputs", Json::UInt(r.num_outputs as u64)),
                            ("gyocro", metrics_json(&r.gyocro)),
                            ("brel", metrics_json(&r.brel)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("avg_alg_ratio", Json::Float(alg)),
        ("avg_area_ratio", Json::Float(area)),
    ])
    .render_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_output_lists_every_instance() {
        let rows = run(2);
        let text = to_json(&rows);
        assert!(text.contains("\"schema\": \"brel-bench/table2-v1\""));
        for r in &rows {
            assert!(text.contains(&format!("\"name\": \"{}\"", r.name)));
        }
        assert!(text.contains("\"avg_area_ratio\""));
    }

    #[test]
    fn repeated_runs_report_identical_solver_metrics() {
        let metrics = |m: &SolverMetrics| (m.cubes, m.literals, m.algebraic_literals, m.area);
        let first = run(2);
        let second = run(2);
        assert_eq!(first.len(), second.len());
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(metrics(&a.gyocro), metrics(&b.gyocro), "{} gyocro", a.name);
            assert_eq!(metrics(&a.brel), metrics(&b.brel), "{} brel", a.name);
        }
    }

    #[test]
    fn rows_carry_consistent_metrics() {
        let rows = run(3);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.gyocro.cubes > 0);
            assert!(r.brel.cubes > 0);
            assert!(r.gyocro.literals >= r.gyocro.cubes);
            assert!(r.brel.literals >= r.brel.cubes);
            assert!(r.gyocro.area > 0.0);
            assert!(r.brel.area > 0.0);
        }
    }

    #[test]
    fn brel_is_competitive_on_average() {
        // Shape expectation of Table 2: averaged over the family, BREL's
        // mapped area is not worse than gyocro's.
        let rows = run(5);
        let (_alg, area) = summary(&rows);
        assert!(
            area <= 1.10,
            "BREL should stay within 10% of gyocro's mapped area on average, got ratio {area}"
        );
    }

    #[test]
    fn render_lists_every_instance() {
        let rows = run(2);
        let text = render(&rows);
        for r in &rows {
            assert!(text.contains(r.name));
        }
        assert!(text.contains("average BREL/gyocro ratio"));
    }
}
