//! Experiment harness: regenerates the paper's quantitative claims
//! (E1–E13) and asserts the engine's (E14, E15, E17, E20).
//!
//! ```text
//! experiments [--scale X] [all | e1 e2 ...]
//! ```

use anyk_bench::exp;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = 1.0f64;
    let mut ids: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .expect("--scale needs a number");
            }
            "all" => ids.extend(exp::ALL.iter().map(|s| s.to_string())),
            other => ids.push(other.to_lowercase()),
        }
        i += 1;
    }
    if ids.is_empty() {
        eprintln!("usage: experiments [--scale X] [all | e1 e2 ...]");
        eprintln!("experiments: {}", exp::ALL.join(" "));
        std::process::exit(2);
    }
    println!("anyk experiment harness — scale {scale}");
    for id in &ids {
        if !exp::run(id, scale) {
            eprintln!("unknown experiment `{id}` (known: {})", exp::ALL.join(" "));
            std::process::exit(2);
        }
    }
}
