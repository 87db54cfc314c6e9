//! Prints the reproduction of Table 1 (ISF-minimization comparison).
//!
//! Usage: `cargo run --release -p brel-bench --bin table1_isf [num_instances] [--json]`
//!
//! With `--json` the rows are emitted through the shared `brel-engine`
//! serializer.

use std::process::ExitCode;

fn main() -> ExitCode {
    let (num, _, json) = match brel_bench::parse_table_args(std::env::args().skip(1), None, true) {
        Ok(parsed) => parsed,
        Err(error) => {
            eprintln!("table1_isf: {error}");
            eprintln!("usage: table1_isf [num_instances] [--json]");
            return ExitCode::FAILURE;
        }
    };
    let rows = brel_bench::table1::run(num);
    if json {
        print!("{}", brel_bench::table1::to_json(&rows));
    } else {
        print!("{}", brel_bench::table1::render(&rows));
    }
    ExitCode::SUCCESS
}
