//! The Section 7.7 prose experiment: impact of output-symmetry detection on
//! solution quality and runtime.
//!
//! The solver is run twice (symmetry pruning off / on) over the
//! Boolean-relation family, each run budgeted at the same number of
//! explored subrelations (50 by default). The cost ratio therefore
//! compares what each run reaches within that budget, not exact optima:
//! pruning changes which subrelations the budget is spent on, and can end
//! a run at a worse incumbent (`gr` goes from 17 to 21 at 50 explored).
//! Run to exhaustion, pruning keeps the optimum and visits fewer
//! subrelations (see the tests). The paper reports a small average
//! quality gain for a ~10% runtime overhead.

use brel_benchdata::table2 as family;
use brel_core::{BrelConfig, BrelSolver};
use brel_engine::Json;

use crate::repro::paper_value;
use crate::{timed, Report};

/// Runs the ablation over the first `num_instances` relations, budgeted at
/// `max_explored` per run, and reports it as a table. Its ledger rows
/// hold the costs and explored counts without CPU time; the summary holds
/// the average on/off cost ratio.
pub fn run(num_instances: usize, max_explored: usize) -> Report {
    let mut report = Report::titled(&format!(
        "Symmetry-detection ablation (Section 7.7), budgeted at {max_explored} explored per run\n\
         name      cost(off) cost(on)  explored(off) explored(on)  skipped  cpu(off)[s] cpu(on)[s]\n"
    ));
    let (mut quality, mut runtime, mut count) = (0.0, 0.0, 0);
    for instance in family::instances().into_iter().take(num_instances) {
        let (_space, relation) = family::generate(&instance);
        let [(off, cpu_off), (on, cpu_on)] = [false, true].map(|symmetry| {
            let config = BrelConfig::default()
                .with_max_explored(Some(max_explored))
                .with_symmetry(symmetry);
            timed(|| {
                BrelSolver::new(config)
                    .solve(&relation)
                    .expect("well defined")
            })
        });
        let (cpu_off, cpu_on) = (cpu_off.as_secs_f64(), cpu_on.as_secs_f64());
        report.text.push_str(&format!(
            "{:8} {:9} {:8} {:14} {:12} {:8} {:11.4} {:10.4}\n",
            instance.name,
            off.cost,
            on.cost,
            off.stats.explored,
            on.stats.explored,
            on.stats.skipped_by_symmetry,
            cpu_off,
            cpu_on,
        ));
        report.rows.push(Json::object(vec![
            ("name", Json::str(instance.name)),
            ("cost_off", Json::UInt(off.cost)),
            ("cost_on", Json::UInt(on.cost)),
            ("explored_off", Json::UInt(off.stats.explored as u64)),
            ("explored_on", Json::UInt(on.stats.explored as u64)),
            ("skipped", Json::UInt(on.stats.skipped_by_symmetry as u64)),
        ]));
        quality += on.cost as f64 / off.cost.max(1) as f64;
        runtime += cpu_on / cpu_off.max(1e-9);
        count += 1;
    }
    let count = count.max(1) as f64;
    let (quality, runtime) = (quality / count, runtime / count);
    report.text.push_str(&format!(
        "average cost ratio (on/off) {quality:.3}, average runtime ratio {runtime:.3} (paper: {} quality, {} runtime)\n",
        paper_value("symmetry", "avg_cost_ratio"),
        paper_value("symmetry", "avg_runtime_ratio"),
    ));
    report
        .summary
        .push(("avg_cost_ratio", Json::Float(quality)));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::text;

    #[test]
    fn exhaustive_pruning_keeps_the_optimum_and_visits_less() {
        // Run to exhaustion, pruning a symmetric subrelation loses nothing:
        // `int1` reaches the same optimum with fewer subrelations explored
        // (171 off, 124 on). Budgeted runs carry no such guarantee.
        let instance = &family::instances()[0];
        assert_eq!(instance.name, "int1");
        let (_space, relation) = family::generate(instance);
        let solve = |symmetry: bool| {
            BrelSolver::new(BrelConfig::exact().with_symmetry(symmetry))
                .solve(&relation)
                .expect("well defined")
        };
        let (off, on) = (solve(false), solve(true));
        assert_eq!((off.cost, on.cost), (4, 4));
        assert_eq!((off.stats.explored, on.stats.explored), (171, 124));
        assert!(on.stats.skipped_by_symmetry > 0);
    }

    #[test]
    fn text_mentions_every_instance() {
        let report = run(2, 10);
        for r in &report.rows {
            assert!(report.text.contains(text(r, "name")));
        }
    }
}
