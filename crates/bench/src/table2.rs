//! Table 2: BREL vs gyocro on the Boolean-relation benchmark family.
//!
//! For every instance both solvers are run; the solutions are then pushed
//! through the same downstream flow the paper uses: two-level metrics (CB,
//! LIT), the algebraic multilevel optimization (`ALG` — factored literal
//! count after the algebraic script stand-in) and technology mapping
//! (`AREA`), plus the solver runtime (`CPU`).

use std::time::Duration;

use brel_benchdata::table2 as family;
use brel_core::{BrelConfig, BrelSolver};
use brel_engine::Json;
use brel_gyocro::GyocroSolver;
use brel_network::algebraic;
use brel_network::mapper::{map, MappingOptions};
use brel_network::Library;
use brel_relation::MultiOutputFunction;

use crate::repro::paper_value;
use crate::{timed, Report};

/// The downstream metrics of one solver's solution to one instance.
struct SolverMetrics {
    cubes: usize,
    literals: usize,
    algebraic_literals: usize,
    area: f64,
    cpu: Duration,
}

impl SolverMetrics {
    /// Pushes `f` through the paper's downstream flow: two-level metrics,
    /// algebraic optimization and technology mapping.
    fn of(name: &str, f: &MultiOutputFunction, cpu: Duration) -> SolverMetrics {
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

    /// The solver's five columns of a text row.
    fn columns(&self) -> String {
        format!(
            "{:3}  {:3}  {:3}  {:7.1}  {:8.3}",
            self.cubes,
            self.literals,
            self.algebraic_literals,
            self.area,
            self.cpu.as_secs_f64()
        )
    }

    /// The solver's ledger object: every column but CPU.
    fn ledger(&self) -> Json {
        Json::object(vec![
            ("cubes", Json::UInt(self.cubes as u64)),
            ("literals", Json::UInt(self.literals as u64)),
            (
                "algebraic_literals",
                Json::UInt(self.algebraic_literals as u64),
            ),
            ("area", Json::Float(self.area)),
        ])
    }
}

/// Runs the comparison over the first `num_instances` of the family and
/// reports it in the layout of the paper's Table 2. Its ledger rows hold
/// every column but CPU; the summary holds the footer's average
/// BREL/gyocro ratios of the ALG and AREA columns (the paper reports an
/// 11% and 14% average improvement).
pub fn run(num_instances: usize) -> Report {
    let mut report = Report::titled(concat!(
        "Table 2: comparison with gyocro\n",
        "               |            gyocro                  |             BREL\n",
        "name     PI PO |  CB  LIT  ALG    AREA    CPU[s]    |  CB  LIT  ALG    AREA    CPU[s]\n",
    ));
    let (mut alg_ratio, mut area_ratio, mut count) = (0.0, 0.0, 0.0);
    for instance in family::instances().into_iter().take(num_instances) {
        let (_space, relation) = family::generate(&instance);
        let name = instance.name;
        let (gyocro, gyocro_cpu) = timed(|| {
            GyocroSolver::default()
                .solve(&relation)
                .expect("well defined")
        });
        let (brel, brel_cpu) = timed(|| {
            let solver = BrelSolver::new(BrelConfig::table2());
            solver.solve(&relation).expect("well defined")
        });
        let gyocro = SolverMetrics::of(&format!("{name}_gyocro"), &gyocro.function, gyocro_cpu);
        let brel = SolverMetrics::of(&format!("{name}_brel"), &brel.function, brel_cpu);

        report.text.push_str(&format!(
            "{name:8} {:2} {:2} | {}  | {}\n",
            instance.num_inputs,
            instance.num_outputs,
            gyocro.columns(),
            brel.columns(),
        ));
        report.rows.push(Json::object(vec![
            ("name", Json::str(name)),
            ("inputs", Json::UInt(instance.num_inputs as u64)),
            ("outputs", Json::UInt(instance.num_outputs as u64)),
            ("gyocro", gyocro.ledger()),
            ("brel", brel.ledger()),
        ]));
        if gyocro.algebraic_literals > 0 && gyocro.area > 0.0 {
            alg_ratio += brel.algebraic_literals as f64 / gyocro.algebraic_literals as f64;
            area_ratio += brel.area / gyocro.area;
            count += 1.0;
        }
    }
    let (alg, area) = if count == 0.0 {
        (1.0, 1.0)
    } else {
        (alg_ratio / count, area_ratio / count)
    };
    report.text.push_str(&format!(
        "average BREL/gyocro ratio: ALG {alg:.3}  AREA {area:.3}  (paper: {} and {})\n",
        paper_value("table2", "avg_alg_ratio"),
        paper_value("table2", "avg_area_ratio"),
    ));
    report.summary.push(("avg_alg_ratio", Json::Float(alg)));
    report.summary.push(("avg_area_ratio", Json::Float(area)));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{num, text};

    #[test]
    fn repeated_runs_report_identical_solver_metrics() {
        let (first, second) = (run(2), run(2));
        assert_eq!(first.rows.len(), 2);
        assert_eq!(first.rows, second.rows);
        assert_eq!(first.summary, second.summary);
    }

    #[test]
    fn rows_carry_consistent_metrics() {
        let rows = run(3).rows;
        assert_eq!(rows.len(), 3);
        for r in &rows {
            for solver in ["gyocro", "brel"] {
                let m = r.get(solver).expect("solver metrics");
                assert!(num(m, "cubes") > 0.0, "{} {solver}", text(r, "name"));
                assert!(num(m, "literals") >= num(m, "cubes"));
                assert!(num(m, "area") > 0.0);
            }
        }
    }

    #[test]
    fn brel_is_competitive_on_average() {
        // Shape expectation of Table 2: averaged over the family, BREL's
        // mapped area is not worse than gyocro's.
        let summary = Json::object(run(5).summary);
        let area = num(&summary, "avg_area_ratio");
        assert!(
            area <= 1.10,
            "BREL should stay within 10% of gyocro's mapped area on average, got ratio {area}"
        );
    }

    #[test]
    fn text_lists_every_instance() {
        let report = run(2);
        for r in &report.rows {
            assert!(report.text.contains(text(r, "name")));
        }
        assert!(report.text.contains("average BREL/gyocro ratio"));
    }
}
