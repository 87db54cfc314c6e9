//! Prints the reproduction of Table 2 (BREL vs gyocro).
//!
//! Usage: `cargo run --release -p brel-bench --bin table2_gyocro [num_instances] [--json]`
//!
//! With `--json` the rows are emitted through the shared `brel-engine`
//! serializer.

use std::process::ExitCode;

fn main() -> ExitCode {
    let (num, _, json) = match brel_bench::parse_table_args(std::env::args().skip(1), None, true) {
        Ok(parsed) => parsed,
        Err(error) => {
            eprintln!("table2_gyocro: {error}");
            eprintln!("usage: table2_gyocro [num_instances] [--json]");
            return ExitCode::FAILURE;
        }
    };
    let rows = brel_bench::table2::run(num);
    if json {
        print!("{}", brel_bench::table2::to_json(&rows));
    } else {
        print!("{}", brel_bench::table2::render(&rows));
    }
    ExitCode::SUCCESS
}
