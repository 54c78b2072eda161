//! Records which compiler built the benchmark and, where the source
//! tree is a git checkout, which commit — for the run metadata.

use std::process::Command;

fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    println!(
        "cargo:rustc-env=ANYKBENCH_RUSTC={}",
        first_line(&rustc, &["-V"])
    );
    println!(
        "cargo:rustc-env=ANYKBENCH_GIT={}",
        first_line("git", &["rev-parse", "HEAD"])
    );
    println!("cargo:rerun-if-changed=build.rs");
    // Only where it exists: a path that is missing counts as changed on
    // every build, and an exported tree has no `.git`.
    if std::path::Path::new("../.git/HEAD").exists() {
        println!("cargo:rerun-if-changed=../.git/HEAD");
    }
}
