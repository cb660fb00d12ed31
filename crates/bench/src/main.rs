//! `stabl-bench` — every figure, table and extension of the Stabl
//! reproduction behind one command line (see [`stabl_bench::campaigns`]).

use std::process::ExitCode;

fn main() -> ExitCode {
    match stabl_bench::campaigns::dispatch(std::env::args().skip(1).collect()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
