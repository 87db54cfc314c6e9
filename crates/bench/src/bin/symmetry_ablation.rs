//! Prints the Section 7.7 symmetry-detection ablation.
//!
//! Usage: `cargo run --release -p brel-bench --bin symmetry_ablation
//!         [num_instances] [max_explored]`

use std::process::ExitCode;

fn main() -> ExitCode {
    let args = std::env::args().skip(1);
    let (num, max_explored, _) = match brel_bench::parse_table_args(args, Some(50), false) {
        Ok(parsed) => parsed,
        Err(error) => {
            eprintln!("symmetry_ablation: {error}");
            eprintln!("usage: symmetry_ablation [num_instances] [max_explored]");
            return ExitCode::FAILURE;
        }
    };
    let rows = brel_bench::symmetry_ablation::run(num, max_explored);
    print!("{}", brel_bench::symmetry_ablation::render(&rows));
    ExitCode::SUCCESS
}
