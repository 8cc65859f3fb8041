//! Times zone membership queries along the paper's complexity sweeps
//! (BDD and explicit set against width and stored patterns, the interval
//! box and the DBM against width), fits a log-log slope per curve and
//! writes `results/complexity.json`.  Exits non-zero when a slope leaves
//! the bound stated in `naps_eval::complexity`'s module doc.
//! Usage: `cargo run --release -p naps-eval --bin complexity [--full]`.
fn main() {
    let cfg = naps_eval::RunConfig::from_env();
    let result = naps_eval::complexity::run(&cfg);
    let failures: Vec<_> = result.curves.iter().filter(|c| !c.pass).collect();
    if !failures.is_empty() {
        for c in failures {
            eprintln!(
                "FAIL: {} query time against {} has slope {:.2}, outside its bound \
                 (max {:?}, min {:?})",
                c.zone, c.swept, c.slope, c.max_slope, c.min_slope
            );
        }
        std::process::exit(1);
    }
}
