//! One entry point for the paper's evaluation: the experiments of the
//! `reproduce` binary, its argument parser, the paper's reference values,
//! and the deterministic ledger that `reproduce --json` prints and
//! `REPRO.json` checks in. The ledger sets each measurement next to the
//! paper's value and judges neither: a verdict would need a tolerance
//! nobody has measured.

use brel_engine::Json;

use crate::{symmetry_ablation, table1, table2, table3, Report};

/// The paper's reference values as `(experiment, metric, value)`, each
/// value as the paper prints it (`~` marks an approximate one), `None`
/// where the paper reports the metric but the repository does not hold
/// its value. A metric is named as in its experiment's ledger summary,
/// but for §7.7's runtime ratio: a CPU figure, which the ledger leaves
/// out.
pub const PAPER_VALUES: [(&str, &str, Option<&str>); 9] = [
    ("table1", "best_strategy", Some("ISOP+elim")),
    ("table2", "avg_alg_ratio", Some("0.89")),
    ("table2", "avg_area_ratio", Some("0.86")),
    ("table3", "delay_cost_area_ratio", None),
    ("table3", "delay_cost_delay_ratio", None),
    ("table3", "area_cost_area_ratio", None),
    ("table3", "area_cost_delay_ratio", None),
    ("symmetry", "avg_cost_ratio", Some("~0.99")),
    ("symmetry", "avg_runtime_ratio", Some("~1.11")),
];

/// The paper's value of `metric` in `experiment`, as printed in a text
/// footer.
///
/// # Panics
///
/// Panics if [`PAPER_VALUES`] has no such entry.
pub fn paper_value(experiment: &str, metric: &str) -> &'static str {
    let (_, _, value) = PAPER_VALUES
        .iter()
        .find(|(e, m, _)| *e == experiment && *m == metric)
        .unwrap_or_else(|| panic!("no paper value for {experiment}/{metric}"));
    value.unwrap_or("not held")
}

/// One experiment of the paper's evaluation, in the order `reproduce`
/// prints them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Experiment {
    /// Table 1, [`table1`].
    Table1,
    /// Table 2, [`table2`].
    Table2,
    /// Table 3 under both cost functions, [`table3`].
    Table3,
    /// The §7.7 ablation, [`symmetry_ablation`].
    Symmetry,
}

impl Experiment {
    /// Every experiment, in order.
    pub const ALL: [Experiment; 4] = [Self::Table1, Self::Table2, Self::Table3, Self::Symmetry];

    /// The name that selects the experiment on the command line and keys
    /// it in the ledger.
    pub fn name(self) -> &'static str {
        match self {
            Self::Table1 => "table1",
            Self::Table2 => "table2",
            Self::Table3 => "table3",
            Self::Symmetry => "symmetry",
        }
    }

    /// The default per-relation exploration budget of an experiment that
    /// takes one.
    pub fn default_budget(self) -> Option<usize> {
        match self {
            Self::Table1 | Self::Table2 => None,
            Self::Table3 => Some(200),
            Self::Symmetry => Some(50),
        }
    }

    /// A run over the first `num_instances` instances, budgeted at
    /// `max_explored` where the experiment takes a budget.
    pub fn report(self, num_instances: usize, max_explored: usize) -> Report {
        match self {
            Self::Table1 => table1::run(num_instances),
            Self::Table2 => table2::run(num_instances),
            Self::Table3 => table3::run(num_instances, max_explored),
            Self::Symmetry => symmetry_ablation::run(num_instances, max_explored),
        }
    }

    /// The ledger entry of a run over the first `num_instances` instances
    /// at the default budget.
    fn ledger(self, num_instances: usize) -> Json {
        let budget = self.default_budget();
        let report = self.report(num_instances, budget.unwrap_or(0));
        let budget = budget.map(|b| ("max_explored", Json::UInt(b as u64)));
        let fields = budget.into_iter().chain([
            ("rows", Json::Array(report.rows)),
            ("summary", Json::object(report.summary)),
        ]);
        Json::object(fields.collect())
    }
}

/// The ledger of the paper's evaluation: the schema tag, the paper's
/// reference values, then every experiment's run over its first
/// `num_instances` instances at its default budget, as rows plus a
/// summary. It holds no timing field, so it is byte-identical across runs
/// and hosts; `reproduce --json` prints it at `usize::MAX` (every
/// instance).
pub fn ledger(num_instances: usize) -> Json {
    let paper = PAPER_VALUES.iter().map(|(experiment, metric, value)| {
        Json::object(vec![
            ("experiment", Json::str(*experiment)),
            ("metric", Json::str(*metric)),
            ("value", value.map_or(Json::Null, Json::str)),
        ])
    });
    let experiments = Experiment::ALL.map(|e| (e.name(), e.ledger(num_instances)));
    let header = [
        ("schema", Json::str("brel-bench/repro-v1")),
        ("paper", Json::Array(paper.collect())),
    ];
    Json::object(header.into_iter().chain(experiments).collect())
}

/// What one `reproduce` invocation asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// Every experiment's full default run, as text.
    All,
    /// One experiment as text: `(experiment, num_instances,
    /// max_explored)`, the budget 0 for an experiment without one.
    One(Experiment, usize, usize),
    /// The ledger of every experiment's full default run.
    Json,
}

/// The usage message of `reproduce`.
pub const USAGE: &str = "usage: reproduce [table1|table2|table3|symmetry] [num_instances] \
                         [max_explored]\n       reproduce --json";

/// Parses `reproduce`'s arguments: nothing, `--json` alone, or an
/// experiment followed by an optional instance count and, for Table 3 and
/// the ablation, an optional exploration budget. A missing count means
/// every instance.
///
/// # Errors
///
/// Returns a message naming the first argument that does not fit, so a
/// typo fails loudly instead of silently running a (possibly
/// minutes-long) default.
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Request, String> {
    let mut args = args.into_iter();
    let Some(first) = args.next() else {
        return Ok(Request::All);
    };
    if first == "--json" {
        return match args.next() {
            None => Ok(Request::Json),
            Some(arg) => Err(format!("`--json` takes no other argument, got `{arg}`")),
        };
    }
    let experiment = Experiment::ALL
        .into_iter()
        .find(|e| e.name() == first)
        .ok_or_else(|| format!("expected an experiment or `--json`, got `{first}`"))?;
    let max_numbers = 1 + usize::from(experiment.default_budget().is_some());
    let mut numbers = Vec::new();
    for arg in args {
        match arg.parse() {
            Ok(n) if numbers.len() < max_numbers => numbers.push(n),
            _ => return Err(format!("unexpected argument `{arg}`")),
        }
    }
    let num_instances = numbers.first().copied().unwrap_or(usize::MAX);
    let budget = numbers.get(1).copied().or(experiment.default_budget());
    Ok(Request::One(experiment, num_instances, budget.unwrap_or(0)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Request, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn args_select_one_experiment_with_its_count_and_budget() {
        use Experiment::*;
        assert_eq!(parse(&[]), Ok(Request::All));
        assert_eq!(parse(&["--json"]), Ok(Request::Json));
        assert_eq!(parse(&["table1"]), Ok(Request::One(Table1, usize::MAX, 0)));
        assert_eq!(parse(&["table2", "3"]), Ok(Request::One(Table2, 3, 0)));
        // The budget is the second positional, defaulting per experiment.
        assert_eq!(
            parse(&["table3"]),
            Ok(Request::One(Table3, usize::MAX, 200))
        );
        assert_eq!(parse(&["table3", "1"]), Ok(Request::One(Table3, 1, 200)));
        assert_eq!(
            parse(&["table3", "1", "10"]),
            Ok(Request::One(Table3, 1, 10))
        );
        assert_eq!(
            parse(&["symmetry"]),
            Ok(Request::One(Symmetry, usize::MAX, 50))
        );
        assert_eq!(
            parse(&["symmetry", "2", "10"]),
            Ok(Request::One(Symmetry, 2, 10))
        );
    }

    #[test]
    fn args_that_do_not_fit_fail_loudly() {
        let error = |args: &[&str]| parse(args).unwrap_err();
        assert!(error(&["--jsonn"]).contains("`--jsonn`"));
        assert!(error(&["table4"]).contains("`table4`"));
        assert!(error(&["3"]).contains("`3`"));
        // An experiment without a budget rejects a second count.
        assert!(error(&["table2", "2", "10"]).contains("`10`"));
        // Bad input fails instead of falling back to the full family.
        assert!(error(&["table3", "abc"]).contains("`abc`"));
        assert!(error(&["table3", "1", "x"]).contains("`x`"));
        assert!(error(&["table3", "1", "10", "3"]).contains("`3`"));
        // The ledger is always the full default run of every experiment.
        assert!(error(&["table1", "--json"]).contains("`--json`"));
        assert!(error(&["--json", "table1"]).contains("`table1`"));
        assert!(error(&["--json", "2"]).contains("`2`"));
    }

    #[test]
    fn ledger_holds_every_experiment_and_no_timing() {
        let ledger = ledger(1);
        let schema = ledger.get("schema").and_then(Json::as_str);
        assert_eq!(schema, Some("brel-bench/repro-v1"));
        for experiment in Experiment::ALL {
            let entry = ledger.get(experiment.name()).expect("experiment present");
            let rows = entry.get("rows").and_then(Json::as_array);
            assert!(!rows.expect("rows present").is_empty());
            let summary = entry.get("summary").expect("summary present");
            for (e, metric, _) in PAPER_VALUES {
                if e == experiment.name() && metric != "avg_runtime_ratio" {
                    assert!(summary.get(metric).is_some(), "{e}/{metric}");
                }
            }
        }
        let text = ledger.render_pretty();
        for timing in ["cpu", "micros", "wall", "_ms"] {
            assert!(!text.contains(timing), "{timing}");
        }
        // The only runtime figure is the paper's own §7.7 ratio.
        assert_eq!(text.matches("runtime").count(), 1);
        // A value the repository does not hold is null, not a guess.
        assert!(text.contains("\"metric\": \"delay_cost_area_ratio\",\n      \"value\": null"));
    }

    #[test]
    fn footers_print_the_paper_values() {
        assert_eq!(paper_value("table2", "avg_alg_ratio"), "0.89");
        assert_eq!(paper_value("symmetry", "avg_cost_ratio"), "~0.99");
        let text = Experiment::Table2.report(1, 0).text;
        assert!(text.ends_with("(paper: 0.89 and 0.86)\n"), "{text}");
        let text = Experiment::Symmetry.report(1, 10).text;
        assert!(
            text.ends_with("(paper: ~0.99 quality, ~1.11 runtime)\n"),
            "{text}"
        );
    }
}
