//! Checks the committed bench records against the bins' smoke output:
//! for each of [`RECORDS`], the committed `BENCH_<name>.json` must come
//! from a full run (`"smoke": false`) and name its host (`"machine"`),
//! and `target/smoke/BENCH_<name>.json` must have exactly its key paths
//! ([`check_record`]). Run it from the repository root after the five
//! bins' `--smoke` runs; it exits non-zero on any mismatch.

use znn_bench::{check_record, record_path, Verdicts, RECORDS};

fn main() {
    let mut v = Verdicts::default();
    for name in RECORDS {
        let read = |smoke| {
            let path = record_path(name, smoke);
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
        };
        let checked = read(false).and_then(|full| check_record(&full, &read(true)?));
        if let Err(e) = &checked {
            eprintln!("BENCH_{name}.json: {e}");
        }
        v.check(&format!("BENCH_{name}.json is a full run with its smoke run's key paths"), checked.is_ok());
    }
    std::process::exit(v.exit_code());
}
