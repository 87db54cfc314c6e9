//! Reproduces the paper's evaluation: Tables 1–3 and the §7.7 symmetry
//! ablation.
//!
//! Usage: `cargo run --release -p brel-bench --bin reproduce -- [args]`
//!
//! * no arguments: every experiment's full default run, as text tables
//! * `table1|table2|table3|symmetry [num_instances] [max_explored]`: one
//!   experiment over its first `num_instances` instances (default: all);
//!   `table3` and `symmetry` take a per-relation exploration budget
//!   (default 200 and 50)
//! * `--json`: the deterministic ledger of every experiment's full default
//!   run, the checked-in `REPRO.json`
//!
//! An argument that does not fit prints the usage and exits 1.

use std::process::ExitCode;

use brel_bench::repro::{self, Experiment, Request};

fn main() -> ExitCode {
    let request = match brel_bench::cli_args().and_then(repro::parse_args) {
        Ok(request) => request,
        Err(error) => {
            eprintln!("reproduce: {error}");
            eprintln!("{}", repro::USAGE);
            return ExitCode::FAILURE;
        }
    };
    match request {
        Request::All => {
            let texts: Vec<String> = Experiment::ALL
                .into_iter()
                .map(|e| e.report(usize::MAX, e.default_budget().unwrap_or(0)).text)
                .collect();
            let texts: Vec<&str> = texts.iter().map(|text| text.trim_end()).collect();
            println!("{}", texts.join("\n\n"));
        }
        Request::One(experiment, num_instances, max_explored) => {
            print!("{}", experiment.report(num_instances, max_explored).text);
        }
        Request::Json => print!("{}", repro::ledger(usize::MAX).render_pretty()),
    }
    ExitCode::SUCCESS
}
