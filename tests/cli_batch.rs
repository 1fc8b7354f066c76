//! CLI contract for `batch` mode over a mixed job file: plain lines and
//! `chain=` lines run in one batch, with one output line per step.

use std::process::Command;

#[test]
fn batch_runs_plain_and_chain_lines_with_one_line_per_step() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("mixed_jobs.txt");
    std::fs::write(&path, "rmat=6,4 repeat=2\nchain=galerkin rmat=6,4\n").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_blockreorg-cli"))
        .args(["batch", "--jobs", path.to_str().unwrap()])
        .output()
        .expect("CLI binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stdout}\n{stderr}");

    // Each step line reads `<label> worker <n>  hit|miss  ...`.
    let plan_of = |marker: &str| -> Vec<String> {
        stdout
            .lines()
            .filter(|l| l.contains(marker) && l.contains(" worker "))
            .map(|l| {
                let after = l.split(" worker ").nth(1).unwrap();
                after.split_whitespace().nth(1).unwrap().to_string()
            })
            .collect()
    };
    assert_eq!(plan_of("rmat-6-4["), ["miss", "hit"], "{stdout}");
    assert_eq!(
        plan_of("rmat-6-4:galerkin["),
        ["miss", "miss", "hit", "hit"],
        "{stdout}"
    );
    assert!(stdout.contains("batch: 3 jobs (0 failed)"), "{stdout}");
}
