//! Table 1: normalized comparison of the BDD-based ISF-minimization
//! strategies (ISOP, Constrain, Restrict, LICompact, each with and without
//! the elimination of non-essential variables).
//!
//! As in the paper, each strategy is plugged into the full BREL solver and
//! run over the Boolean-relation benchmark family; the reported numbers are
//! the total literal count of the final solutions (LIT) and the total CPU
//! time, both normalized to the default strategy (ISOP with variable
//! elimination).

use std::time::{Duration, Instant};

use brel_benchdata::table2 as family;
use brel_core::{BrelConfig, BrelSolver, IsfMinimizer};
use brel_engine::Json;

/// One row of Table 1.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Strategy name.
    pub strategy: &'static str,
    /// Total literal count of the final solutions.
    pub literals: usize,
    /// Total CPU time.
    pub cpu: Duration,
    /// Literal count normalized to the reference strategy.
    pub lit_ratio: f64,
    /// CPU time normalized to the reference strategy.
    pub cpu_ratio: f64,
}

/// Runs the experiment over the first `num_instances` relations of the
/// Table 2 family (use `usize::MAX` for all of them).
pub fn run(num_instances: usize) -> Vec<Table1Row> {
    let instances: Vec<_> = family::instances()
        .into_iter()
        .take(num_instances)
        .collect();
    let relations: Vec<_> = instances.iter().map(family::generate).collect();

    let mut raw: Vec<(&'static str, usize, Duration)> = Vec::new();
    for (name, minimizer) in IsfMinimizer::table1_strategies() {
        let start = Instant::now();
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
        raw.push((name, literals, start.elapsed()));
    }

    let (ref_lit, ref_cpu) = (raw[0].1 as f64, raw[0].2.as_secs_f64());
    raw.into_iter()
        .map(|(strategy, literals, cpu)| Table1Row {
            strategy,
            literals,
            cpu,
            lit_ratio: crate::normalized(literals as f64, ref_lit),
            cpu_ratio: crate::normalized(cpu.as_secs_f64(), ref_cpu),
        })
        .collect()
}

/// Renders the rows in the layout of the paper's Table 1.
pub fn render(rows: &[Table1Row]) -> String {
    let mut out = String::new();
    out.push_str("Table 1: normalized comparison of ISF minimization strategies\n");
    out.push_str("strategy          LIT     LIT/ISOP+elim   CPU [s]   CPU/ISOP+elim\n");
    for r in rows {
        out.push_str(&format!(
            "{:16} {:6}   {:>12.3}   {:7.3}   {:>12.3}\n",
            r.strategy,
            r.literals,
            r.lit_ratio,
            r.cpu.as_secs_f64(),
            r.cpu_ratio
        ));
    }
    out
}

/// Serializes the rows through the shared `brel-engine` JSON writer (the
/// `--json` output of the `table1_isf` binary).
pub fn to_json(rows: &[Table1Row]) -> String {
    Json::object(vec![
        ("schema", Json::str("brel-bench/table1-v1")),
        (
            "rows",
            Json::Array(
                rows.iter()
                    .map(|r| {
                        Json::object(vec![
                            ("strategy", Json::str(r.strategy)),
                            ("literals", Json::UInt(r.literals as u64)),
                            ("cpu_micros", Json::UInt(r.cpu.as_micros() as u64)),
                            ("lit_ratio", Json::Float(r.lit_ratio)),
                            ("cpu_ratio", Json::Float(r.cpu_ratio)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
    .render_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_output_lists_every_strategy() {
        let rows = run(1);
        let text = to_json(&rows);
        assert!(text.contains("\"schema\": \"brel-bench/table1-v1\""));
        for r in &rows {
            assert!(text.contains(&format!("\"strategy\": \"{}\"", r.strategy)));
        }
    }

    #[test]
    fn reference_strategy_is_normalized_to_one() {
        let rows = run(3);
        assert_eq!(rows.len(), 8);
        assert_eq!(rows[0].strategy, "ISOP+elim");
        assert!((rows[0].lit_ratio - 1.0).abs() < 1e-9);
        assert!((rows[0].cpu_ratio - 1.0).abs() < 1e-9);
        // Every strategy produced some literals.
        assert!(rows.iter().all(|r| r.literals > 0));
    }

    #[test]
    fn isop_with_elimination_is_competitive_in_literals() {
        // The paper's conclusion is that ISOP + variable elimination is the
        // best strategy *on average*; individual instances can go either way
        // (different minimizers steer the branch-and-bound differently), so
        // the check is a competitiveness bound rather than strict dominance.
        let rows = run(4);
        let lit = |name: &str| rows.iter().find(|r| r.strategy == name).unwrap().literals;
        let best = rows.iter().map(|r| r.literals).min().unwrap();
        assert!(
            (lit("ISOP+elim") as f64) <= best as f64 * 1.15,
            "ISOP+elim ({}) should stay within 15% of the best strategy ({best})",
            lit("ISOP+elim")
        );
    }

    #[test]
    fn render_contains_all_rows() {
        let rows = run(2);
        let text = render(&rows);
        for r in &rows {
            assert!(text.contains(r.strategy));
        }
    }
}
