//! Prints the reproduction of Table 3 (mux-latch decomposition) for both
//! cost functions.
//!
//! Usage: `cargo run --release -p brel-bench --bin table3_decomposition
//!         [num_instances] [max_explored]`

use std::process::ExitCode;

fn main() -> ExitCode {
    let args = std::env::args().skip(1);
    let (num, max_explored, _) = match brel_bench::parse_table_args(args, Some(200), false) {
        Ok(parsed) => parsed,
        Err(error) => {
            eprintln!("table3_decomposition: {error}");
            eprintln!("usage: table3_decomposition [num_instances] [max_explored]");
            return ExitCode::FAILURE;
        }
    };
    for delay_oriented in [true, false] {
        let rows = brel_bench::table3::run(num, delay_oriented, max_explored);
        print!("{}", brel_bench::table3::render(&rows, delay_oriented));
        println!();
    }
    ExitCode::SUCCESS
}
