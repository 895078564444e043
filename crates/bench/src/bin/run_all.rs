//! Runs every figure harness in sequence (`fig all`, then `ablation`),
//! honouring the same `APUAMA_*` environment knobs. Useful for producing
//! the full EXPERIMENTS.md data in one command:
//!
//! ```text
//! cargo run --release -p apuama-bench --bin run_all
//! ```

use std::process::Command;

fn main() {
    let exe = std::env::current_exe().expect("own path");
    let dir = exe.parent().expect("bin dir");
    for (bin, args) in [("fig", &["all"][..]), ("ablation", &[])] {
        let path = dir.join(bin);
        eprintln!("\n########## {bin} ##########");
        let status = Command::new(&path)
            .args(args)
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {}: {e}", path.display()));
        assert!(status.success(), "{bin} exited with {status}");
    }
    eprintln!("\nall figures regenerated; CSVs under target/figures/");
}
