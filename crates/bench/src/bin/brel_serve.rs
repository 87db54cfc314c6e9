//! The solver daemon.
//!
//! Usage: `cargo run --release -p brel-bench --bin brel_serve -- --listen ADDR [--workers N]`
//!
//! * `--listen ADDR` bind `ADDR`, print the bound address, serve until a
//!   `shutdown` frame arrives, drain, exit 0
//! * `--workers N`   daemon worker threads (default: up to 4)
//!
//! The serving contracts (cancel, shedding, chaos drain, serial replay
//! against the batch engine) are pinned by `tests/serve_oracle.rs`; the
//! daemon's latency and throughput are measured by `layerbench`.

use std::process::ExitCode;

use brel_bench::flag_value;
use brel_serve::{ServeConfig, Server};

fn main() -> ExitCode {
    let mut listen: Option<String> = None;
    let mut workers: Option<usize> = None;

    let parsed = (|| -> Result<(), String> {
        let mut args = brel_bench::cli_args()?.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--listen" => listen = Some(flag_value(&mut args, &arg, "an address")?),
                "--workers" => workers = Some(flag_value(&mut args, &arg, "a number")?),
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        Ok(())
    })();
    if let Err(error) = parsed {
        return usage(&error);
    }
    let Some(addr) = listen else {
        return usage("--listen is required");
    };

    let config = ServeConfig {
        addr: addr.clone(),
        workers: workers.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get().min(4))
                .unwrap_or(2)
        }),
        ..ServeConfig::default()
    };
    let server = match Server::start(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("brel_serve: cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The bound address goes to stdout so scripts can `read` it even when
    // the caller asked for port 0.
    println!("listening on {}", server.addr());
    let drain = server.run_until_shutdown();
    eprintln!(
        "brel_serve: drained — {} admitted, {} completed, {} shed, {} cancelled, {} quarantines",
        drain.stats.admitted,
        drain.stats.completed,
        drain.stats.shed,
        drain.stats.cancelled,
        drain.stats.quarantines,
    );
    ExitCode::SUCCESS
}

fn usage(error: &str) -> ExitCode {
    eprintln!("brel_serve: {error}");
    eprintln!("usage: brel_serve --listen ADDR [--workers N]");
    ExitCode::FAILURE
}
