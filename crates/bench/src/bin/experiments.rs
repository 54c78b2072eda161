//! Experiment harness: asserts the engine's claims (E14, E15, E17,
//! E20). The paper's claims are counted in `tests/paper_claims.rs`.
//!
//! ```text
//! experiments [--scale X] [all | e14 e15 e17 e20]
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
            "all" => ids.extend(exp::ALL.iter().map(|(id, _)| id.to_string())),
            other => ids.push(other.to_lowercase()),
        }
        i += 1;
    }
    let find = |id: &String| exp::ALL.iter().find(|&&(known, _)| known == id);
    let runs: Option<Vec<_>> = ids.iter().map(find).collect();
    let Some(runs) = runs.filter(|runs| !runs.is_empty()) else {
        if let Some(id) = ids.iter().find(|id| find(id).is_none()) {
            eprintln!("unknown experiment `{id}`");
        }
        let known: Vec<&str> = exp::ALL.iter().map(|&(id, _)| id).collect();
        eprintln!("usage: experiments [--scale X] [all | {}]", known.join(" "));
        eprintln!("the paper's claims: cargo test --test paper_claims");
        std::process::exit(2);
    };
    println!("anyk experiment harness — scale {scale}");
    for (_, run) in runs {
        run(scale);
    }
}
