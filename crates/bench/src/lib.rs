//! # brel-bench
//!
//! The experiment harness of the reproduction: one module per table or
//! prose experiment of the paper's evaluation. Each module's `run` returns
//! a [`Report`]: the table in the paper's layout plus its deterministic
//! ledger rows and summary. The [`repro`] module selects among them and
//! holds the paper's reference values. Timing lives in
//! `layerbench/`, which measures every layer from the BDD kernel to the
//! daemon.
//!
//! | Paper artefact | Module | Binary |
//! |---|---|---|
//! | Table 1 (ISF-minimization comparison) | [`table1`] | `reproduce table1` |
//! | Table 2 (BREL vs gyocro) | [`table2`] | `reproduce table2` |
//! | Table 3 (mux-latch decomposition) | [`table3`] | `reproduce table3` |
//! | §7.7 symmetry experiment | [`symmetry_ablation`] | `reproduce symmetry` |
//! | All four, as one deterministic ledger (`REPRO.json`) | [`repro`] | `reproduce --json` |
//! | Parallel portfolio batch run | [`engine_batch`] | `engine_batch` |
//! | Solver daemon (`--listen`) | — | `brel_serve` |
//!
//! The ledger is rendered through the shared `brel-engine` JSON writer;
//! the `engine_batch` binary fans the corpora over a `brel-engine` worker
//! pool.

#![warn(missing_docs)]

use std::time::{Duration, Instant};

use brel_bdd::Var;
use brel_engine::Json;
use brel_network::{Network, SignalId};
use brel_relation::MultiOutputFunction;
use brel_sop::Cover;

pub mod engine_batch;
pub mod repro;
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

/// One experiment's results in their two forms: the paper-style text
/// table, and the rows and summary of its ledger entry (see
/// [`repro::ledger`]), which leave out every CPU time.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// The text table(s), as `reproduce` prints them.
    pub text: String,
    /// One ledger object per table row.
    pub rows: Vec<Json>,
    /// The ledger summary, keyed as in [`repro::PAPER_VALUES`].
    pub summary: Vec<(&'static str, Json)>,
}

impl Report {
    /// An empty report whose text starts with `title`.
    pub(crate) fn titled(title: &str) -> Report {
        Report {
            text: title.to_string(),
            ..Report::default()
        }
    }
}

/// Runs `f` and returns its result with the wall time it took.
pub(crate) fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed())
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

/// The process arguments after the program name. Unlike
/// [`std::env::args`], which panics on an argument that is not valid
/// UTF-8, this returns a message naming it, so each binary can print its
/// usage and exit 1.
///
/// # Errors
///
/// Returns a message naming the first argument that is not valid UTF-8.
pub fn cli_args() -> Result<Vec<String>, String> {
    std::env::args_os()
        .skip(1)
        .map(|arg| {
            arg.into_string()
                .map_err(|arg| format!("argument {arg:?} is not valid UTF-8"))
        })
        .collect()
}

/// Parses the value that follows `flag` in `args`.
///
/// # Errors
///
/// Returns `"{flag} needs {what}"` when the value is missing or does not
/// parse.
pub fn flag_value<T: std::str::FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
    what: &str,
) -> Result<T, String> {
    args.next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("{flag} needs {what}"))
}

#[cfg(test)]
mod tests {
    use brel_engine::Json;

    /// The number under `key` of a ledger row.
    pub(crate) fn num(row: &Json, key: &str) -> f64 {
        match row.get(key) {
            Some(Json::UInt(n)) => *n as f64,
            Some(Json::Float(x)) => *x,
            other => panic!("`{key}` is not a number: {other:?}"),
        }
    }

    /// The string under `key` of a ledger row.
    pub(crate) fn text<'a>(row: &'a Json, key: &str) -> &'a str {
        row.get(key).and_then(Json::as_str).expect("a string field")
    }
}
