//! # brel-bench
//!
//! The experiment harness of the reproduction: one module per table or
//! prose experiment of the paper's evaluation. Each module exposes a `run`
//! function returning structured rows plus a `render` helper producing the
//! table in the same layout as the paper; the `--bin` targets print the
//! tables. Timing lives in `layerbench/`, which measures every layer from
//! the BDD kernel to the daemon.
//!
//! | Paper artefact | Module | Binary |
//! |---|---|---|
//! | Table 1 (ISF-minimization comparison) | [`table1`] | `table1_isf` |
//! | Table 2 (BREL vs gyocro) | [`table2`] | `table2_gyocro` |
//! | Table 3 (mux-latch decomposition) | [`table3`] | `table3_decomposition` |
//! | §7.7 symmetry experiment | [`symmetry_ablation`] | `symmetry_ablation` |
//! | Parallel portfolio batch run | [`engine_batch`] | `engine_batch` |
//! | Solver daemon (`--listen`) | — | `brel_serve` |
//!
//! The table binaries accept `--json` to emit their rows through the shared
//! `brel-engine` serializer; the `engine_batch` binary fans the corpora
//! over a `brel-engine` worker pool.

#![warn(missing_docs)]

use brel_bdd::Var;
use brel_network::{Network, SignalId};
use brel_relation::MultiOutputFunction;
use brel_sop::Cover;

pub mod engine_batch;
pub mod symmetry_ablation;
pub mod table1;
pub mod table2;
pub mod table3;

/// Builds a combinational [`Network`] computing a multiple-output function
/// (one SOP node per output), the bridge between solver output and the
/// technology-mapping flow used by Tables 2 and 3.
pub(crate) fn network_from_function(name: &str, f: &MultiOutputFunction) -> Network {
    let space = f.space();
    let mut net = Network::new(name);
    let inputs: Vec<SignalId> = (0..space.num_inputs())
        .map(|i| {
            net.add_input(space.input_name(i))
                .expect("fresh input name")
        })
        .collect();
    let input_vars: Vec<Var> = space.input_vars().to_vec();
    for (i, g) in f.outputs().iter().enumerate() {
        let cover = Cover::from_isop(&g.isop(), &input_vars);
        let node = net
            .add_node(
                &format!("{}_n", space.output_name(i)),
                inputs.clone(),
                cover,
            )
            .expect("fresh node name");
        net.add_output(node);
    }
    net
}

/// Formats a ratio as the normalized percentages used by Table 1
/// (1.00 = the reference strategy).
pub(crate) fn normalized(value: f64, reference: f64) -> f64 {
    if reference == 0.0 {
        1.0
    } else {
        value / reference
    }
}

/// Parses the `[num_instances] [max_explored] [--json]` argument
/// convention of the four table binaries into `(num_instances,
/// max_explored, json)`. A missing count means the whole family.
/// `default_budget` is the exploration budget of a table that takes one
/// as its second positional argument (`None`: no budget argument, and
/// `0` is returned); `accepts_json` says whether the table has a `--json`
/// mode.
///
/// # Errors
///
/// Returns a message naming the first argument the table does not take,
/// so typos fail loudly instead of silently running the default (and
/// possibly minutes-long) configuration.
pub fn parse_table_args<I: IntoIterator<Item = String>>(
    args: I,
    default_budget: Option<usize>,
    accepts_json: bool,
) -> Result<(usize, usize, bool), String> {
    let max_numbers = 1 + usize::from(default_budget.is_some());
    let mut numbers = Vec::new();
    let mut json = false;
    for arg in args {
        if arg == "--json" && accepts_json {
            json = true;
        } else if let (Ok(n), true) = (arg.parse(), numbers.len() < max_numbers) {
            numbers.push(n);
        } else {
            return Err(format!("unexpected argument `{arg}`"));
        }
    }
    let num = numbers.first().copied().unwrap_or(usize::MAX);
    let budget = numbers.get(1).copied().or(default_budget).unwrap_or(0);
    Ok((num, budget, json))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_args_accept_count_and_json_in_any_order() {
        let to_args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let json_table = |v: &[&str]| parse_table_args(to_args(v), None, true);
        let budget_table = |v: &[&str]| parse_table_args(to_args(v), Some(200), false);
        assert_eq!(json_table(&[]), Ok((usize::MAX, 0, false)));
        assert_eq!(json_table(&["3"]), Ok((3, 0, false)));
        assert_eq!(json_table(&["--json", "2"]), Ok((2, 0, true)));
        assert_eq!(json_table(&["2", "--json"]), Ok((2, 0, true)));
        assert!(json_table(&["--jsonn"]).unwrap_err().contains("--jsonn"));
        // A table without a budget rejects a second count.
        assert!(json_table(&["2", "10"]).unwrap_err().contains("`10`"));
        // The budget is the second positional, defaulting per table.
        assert_eq!(budget_table(&[]), Ok((usize::MAX, 200, false)));
        assert_eq!(budget_table(&["1"]), Ok((1, 200, false)));
        assert_eq!(budget_table(&["1", "10"]), Ok((1, 10, false)));
        // Bad input fails instead of falling back to the full family.
        assert!(budget_table(&["abc"]).unwrap_err().contains("`abc`"));
        assert!(budget_table(&["1", "x"]).unwrap_err().contains("`x`"));
        assert!(budget_table(&["1", "10", "3"]).unwrap_err().contains("`3`"));
        assert!(budget_table(&["--json"]).unwrap_err().contains("--json"));
    }
}
