//! Regenerates Table 1: the literature survey.

use std::process::ExitCode;

use scibench_bench::figures::table1;
use scibench_bench::output;

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("table1_survey: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let t = table1::compute();
    println!("{}", t.render());
    let path = output::write_csv(&output::figures_dir(), "table1_scores", &t.dataset())?;
    println!("score distributions: {}", path.display());
    let raw = output::write_csv(&output::figures_dir(), "table1_raw", &t.raw_dataset())?;
    println!("raw per-paper grades: {}", raw.display());
    Ok(())
}
