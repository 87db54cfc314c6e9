//! Table 1: normalized comparison of the BDD-based ISF-minimization
//! strategies (ISOP, Constrain, Restrict, LICompact, each with and without
//! the elimination of non-essential variables).
//!
//! As in the paper, each strategy is plugged into the full BREL solver and
//! run over the Boolean-relation benchmark family; the reported numbers are
//! the total literal count of the final solutions (LIT) and the total CPU
//! time, both normalized to the default strategy (ISOP with variable
//! elimination).

use brel_benchdata::table2 as family;
use brel_core::{BrelConfig, BrelSolver, IsfMinimizer};
use brel_engine::Json;

use crate::{normalized, timed, Report};

/// Runs the experiment over the first `num_instances` relations of the
/// Table 2 family (use `usize::MAX` for all of them) and reports it in the
/// layout of the paper's Table 1. Its ledger rows hold the literal counts
/// without CPU time; the summary names the first strategy, in the paper's
/// order, with the fewest literals.
pub fn run(num_instances: usize) -> Report {
    let instances: Vec<_> = family::instances()
        .into_iter()
        .take(num_instances)
        .collect();
    let relations: Vec<_> = instances.iter().map(family::generate).collect();

    let mut raw = Vec::new();
    for (name, minimizer) in IsfMinimizer::table1_strategies() {
        let (literals, cpu) = timed(|| {
            let mut literals = 0usize;
            for (_space, relation) in &relations {
                let config = BrelConfig {
                    minimizer,
                    ..BrelConfig::table2()
                };
                let solution = BrelSolver::new(config)
                    .solve(relation)
                    .expect("family relations are well defined");
                literals += solution.function.num_literals();
            }
            literals
        });
        raw.push((name, literals, cpu.as_secs_f64()));
    }

    let mut report = Report::titled(concat!(
        "Table 1: normalized comparison of ISF minimization strategies\n",
        "strategy          LIT     LIT/ISOP+elim   CPU [s]   CPU/ISOP+elim\n",
    ));
    let (ref_lit, ref_cpu) = (raw[0].1 as f64, raw[0].2);
    for &(strategy, literals, cpu) in &raw {
        let lit_ratio = normalized(literals as f64, ref_lit);
        report.text.push_str(&format!(
            "{:16} {:6}   {:>12.3}   {:7.3}   {:>12.3}\n",
            strategy,
            literals,
            lit_ratio,
            cpu,
            normalized(cpu, ref_cpu),
        ));
        report.rows.push(Json::object(vec![
            ("strategy", Json::str(strategy)),
            ("literals", Json::UInt(literals as u64)),
            ("lit_ratio", Json::Float(lit_ratio)),
        ]));
    }
    let best = raw.iter().min_by_key(|(_, literals, _)| literals);
    let best = best.map_or(Json::Null, |(strategy, _, _)| Json::str(*strategy));
    report.summary.push(("best_strategy", best));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{num, text};

    #[test]
    fn reference_strategy_is_normalized_to_one() {
        let report = run(3);
        let rows = &report.rows;
        assert_eq!(rows.len(), 8);
        assert_eq!(text(&rows[0], "strategy"), "ISOP+elim");
        assert!((num(&rows[0], "lit_ratio") - 1.0).abs() < 1e-9);
        // The CPU ratio is a text column only; the reference's reads 1.000.
        let first = report.text.lines().nth(2).unwrap();
        assert!(first.starts_with("ISOP+elim") && first.ends_with("1.000"));
        // Every strategy produced some literals.
        assert!(rows.iter().all(|r| num(r, "literals") > 0.0));
    }

    #[test]
    fn isop_with_elimination_is_competitive_in_literals() {
        // The paper's conclusion is that ISOP + variable elimination is the
        // best strategy *on average*; individual instances can go either way
        // (different minimizers steer the branch-and-bound differently), so
        // the check is a competitiveness bound rather than strict dominance.
        let rows = run(4).rows;
        let isop_elim = rows.iter().find(|r| text(r, "strategy") == "ISOP+elim");
        let isop_elim = num(isop_elim.unwrap(), "literals");
        let best = rows
            .iter()
            .map(|r| num(r, "literals"))
            .fold(f64::MAX, f64::min);
        assert!(
            isop_elim <= best * 1.15,
            "ISOP+elim ({isop_elim}) should stay within 15% of the best strategy ({best})"
        );
    }

    #[test]
    fn text_contains_all_rows() {
        let report = run(2);
        for r in &report.rows {
            assert!(report.text.contains(text(r, "strategy")));
        }
    }
}
