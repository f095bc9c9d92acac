//! Workload inputs: the paper's functions by name, seeded relabellings of
//! them, and seeded random specifications.

use crate::Rng;
use qsyn_revlogic::benchmarks;
use qsyn_revlogic::{Spec, SpecRow};

/// A named benchmark function.
pub fn named(name: &str) -> Spec {
    benchmarks::by_name(name)
        .unwrap_or_else(|| panic!("{name} is a built-in benchmark"))
        .spec
}

pub fn rows(spec: &Spec) -> Vec<(u32, u32)> {
    spec.rows().iter().map(|r| (r.value, r.care)).collect()
}

/// Moves bit `j` of `x` to bit `p[j]`.
fn move_bits(x: u32, p: &[u32]) -> u32 {
    p.iter()
        .enumerate()
        .fold(0, |y, (j, &to)| y | ((x >> j) & 1) << to)
}

/// The function with its input lines relabelled by `sigma` and its output
/// lines by `tau`: input line `j` becomes line `sigma[j]`, output line `j`
/// becomes line `tau[j]`.
pub fn relabel(spec: &Spec, sigma: &[u32], tau: &[u32]) -> Spec {
    let n = spec.lines();
    let mut out = vec![SpecRow { value: 0, care: 0 }; 1 << n];
    for (x, r) in spec.rows().iter().enumerate() {
        out[move_bits(x as u32, sigma) as usize] = SpecRow {
            value: move_bits(r.value, tau),
            care: move_bits(r.care, tau),
        };
    }
    Spec::new_incomplete(n, out).expect("a relabelled spec stays realizable")
}

/// A seeded permutation of `0..n`, never the identity when `n > 1`.
pub fn shuffled_lines(rng: &mut Rng, n: u32) -> Vec<u32> {
    loop {
        let mut p: Vec<u32> = (0..n).collect();
        rng.shuffle(&mut p);
        if n < 2 || p.iter().enumerate().any(|(i, &v)| i as u32 != v) {
            return p;
        }
    }
}

/// The function of a random cascade of `gates` Toffoli gates on `n`
/// lines (so its minimal depth is at most `gates`).
pub fn random_cascade(rng: &mut Rng, n: u32, gates: u32) -> Spec {
    let mut map: Vec<u32> = (0..1 << n).collect();
    for _ in 0..gates {
        let target = rng.below(u64::from(n)) as u32;
        let controls = rng.below(1 << n) as u32 & !(1 << target);
        for y in &mut map {
            if *y & controls == controls {
                *y ^= 1 << target;
            }
        }
    }
    let rows = map
        .into_iter()
        .map(|value| SpecRow {
            value,
            care: (1 << n) - 1,
        })
        .collect();
    Spec::new_incomplete(n, rows).expect("a cascade is reversible")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relabelling_by_the_identity_keeps_the_spec() {
        let spec = named("rd32-v0");
        assert_eq!(
            rows(&relabel(&spec, &[0, 1, 2, 3], &[0, 1, 2, 3])),
            rows(&spec)
        );
    }

    #[test]
    fn output_relabelling_moves_output_bits_only() {
        let spec = named("3_17");
        let r = relabel(&spec, &[0, 1, 2], &[1, 2, 0]);
        for x in 0..8 {
            assert_eq!(r.row(x).value, move_bits(spec.row(x).value, &[1, 2, 0]));
        }
    }
}
