//! Walks the registry of timed bodies in `sprinkler_experiments::micro`: for
//! each body, prints the paper figures it carries, then times it and prints
//! one human line and one `{"bench": ...}` JSON line.
//!
//! ```sh
//! cargo bench -p sprinkler_experiments              # every body, timed
//! cargo bench -p sprinkler_experiments -- fig10     # bodies whose name contains "fig10"
//! cargo bench -p sprinkler_experiments -- --test    # each body once (smoke)
//! ```

use sprinkler_experiments::micro::{REGISTRY, SAMPLES};

fn main() {
    let mut samples = SAMPLES;
    let mut filter = String::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--test" => samples = 1,
            // Flags cargo and libtest pass through (`--bench`, ...).
            other if other.starts_with('-') => {}
            other => filter = other.to_string(),
        }
    }
    for body in REGISTRY.iter().filter(|body| body.name.contains(&filter)) {
        for print_figure in body.figures {
            print_figure();
        }
        body.time(samples).print(body.name);
    }
}
