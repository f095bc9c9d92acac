//! Answer checking written apart from the synthesizer.
//!
//! Nothing here calls into qsyn: circuits are read back from their RevLib
//! `.real` text and evaluated gate by gate, quantum costs come from the
//! standard NCV table, and minimality is checked by enumerating every
//! gate cascade of the library up to the reported depth.

/// One gate as read from `.real` text.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum G {
    /// Multiple-control Toffoli: positive and negative control masks.
    T { pos: u32, neg: u32, target: u32 },
    /// Peres: `t1 ^= c`, `t2 ^= c & old t1`.
    P { c: u32, t1: u32, t2: u32 },
}

/// A circuit read back from `.real` text.
#[derive(Clone, Debug)]
pub struct Net {
    pub gates: Vec<G>,
}

/// The most lines a checked circuit may have: the brute-force search holds
/// one row per bit of a `u32`, and the cost table stops at 5 lines.
pub const MAX_LINES: u32 = 5;

/// Parses RevLib `.real` text with `t<k>` and `p3` gate lines on at most
/// `MAX_LINES` lines. No checked library has Fredkin gates, so `f<k>` is
/// refused like any other unknown gate.
pub fn parse_real(text: &str) -> Result<Net, String> {
    let mut lines = 0u32;
    let mut names: Vec<String> = Vec::new();
    let mut gates = Vec::new();
    let mut inside = false;
    for raw in text.lines() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut toks = line.split_whitespace();
        let head = toks.next().unwrap_or("");
        match head {
            ".numvars" => {
                lines = toks
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or("bad .numvars")?;
            }
            ".variables" => names = toks.map(str::to_string).collect(),
            ".begin" => inside = true,
            ".end" => inside = false,
            h if h.starts_with('.') => {}
            h if inside => {
                let mut refs = Vec::new();
                for t in toks {
                    let (name, neg) = t.strip_prefix('-').map_or((t, false), |r| (r, true));
                    let idx = names
                        .iter()
                        .position(|n| n == name)
                        .ok_or(format!("unknown line {name}"))?;
                    refs.push((idx as u32, neg));
                }
                let arity: usize = h[1..].parse().map_err(|_| format!("bad gate {h}"))?;
                if arity != refs.len() || arity == 0 {
                    return Err(format!("arity mismatch in {line}"));
                }
                let (last, rest) = refs.split_last().expect("arity > 0");
                let gate = match &h[..1] {
                    "t" => {
                        let mut pos = 0;
                        let mut neg = 0;
                        for &(l, n) in rest {
                            if n {
                                neg |= 1 << l;
                            } else {
                                pos |= 1 << l;
                            }
                        }
                        G::T {
                            pos,
                            neg,
                            target: last.0,
                        }
                    }
                    "p" if arity == 3 => G::P {
                        c: refs[0].0,
                        t1: refs[1].0,
                        t2: refs[2].0,
                    },
                    _ => return Err(format!("unsupported gate {line}")),
                };
                gates.push(gate);
            }
            _ => return Err(format!("gate outside .begin/.end: {line}")),
        }
    }
    if lines == 0 || names.len() != lines as usize {
        return Err("missing .numvars/.variables".into());
    }
    if lines > MAX_LINES {
        return Err(format!("{lines} lines, the checker covers {MAX_LINES}"));
    }
    Ok(Net { gates })
}

fn bit(x: u32, l: u32) -> u32 {
    (x >> l) & 1
}

/// Applies one gate to a basis state.
pub fn apply(g: G, x: u32) -> u32 {
    match g {
        G::T { pos, neg, target } => {
            if x & pos == pos && x & neg == 0 {
                x ^ (1 << target)
            } else {
                x
            }
        }
        G::P { c, t1, t2 } => {
            let (cv, a) = (bit(x, c), bit(x, t1));
            x ^ (cv << t1) ^ ((cv & a) << t2)
        }
    }
}

pub fn eval(net: &Net, x: u32) -> u32 {
    net.gates.iter().fold(x, |s, &g| apply(g, s))
}

/// `true` when the circuit, with circuit output `perm[j]` wired to
/// specification line `j`, meets every cared-for output bit of `rows`
/// (`(value, care)` per input row).
pub fn realizes(net: &Net, rows: &[(u32, u32)], perm: &[u32]) -> bool {
    rows.iter().enumerate().all(|(x, &(value, care))| {
        let y = eval(net, x as u32);
        (0..perm.len() as u32)
            .filter(|&j| bit(care, j) == 1)
            .all(|j| bit(y, perm[j as usize]) == bit(value, j))
    })
}

/// Quantum cost of a Toffoli gate with `c` controls on at most
/// `MAX_LINES` lines (the standard NCV table). Four controls leave no free
/// line there, so they cost 29, not the 26 of a gate with two free lines.
fn toffoli_cost(c: u32) -> u64 {
    match c {
        0 | 1 => 1,
        2 => 5,
        3 => 13,
        _ => 29,
    }
}

pub fn quantum_cost(net: &Net) -> u64 {
    net.gates
        .iter()
        .map(|&g| match g {
            G::T { pos, neg, .. } => toffoli_cost((pos | neg).count_ones()),
            G::P { .. } => 4,
        })
        .sum()
}

/// Gate kinds a library admits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Lib {
    pub peres: bool,
}

impl Lib {
    pub fn admits(self, g: G) -> bool {
        match g {
            G::T { neg, .. } => neg == 0,
            G::P { .. } => self.peres,
        }
    }

    /// Every gate of the library on `n` lines.
    fn gates(self, n: u32) -> Vec<G> {
        let mut out = Vec::new();
        for target in 0..n {
            let others: Vec<u32> = (0..n).filter(|&l| l != target).collect();
            for mask in 0..1u32 << others.len() {
                let pos = (0..others.len())
                    .filter(|&i| mask & 1 << i != 0)
                    .fold(0, |m, i| m | 1 << others[i]);
                out.push(G::T {
                    pos,
                    neg: 0,
                    target,
                });
            }
        }
        if self.peres {
            for c in 0..n {
                for t1 in 0..n {
                    for t2 in 0..n {
                        if c != t1 && c != t2 && t1 != t2 {
                            out.push(G::P { c, t1, t2 });
                        }
                    }
                }
            }
        }
        out
    }
}

/// Exhaustive search over gate cascades, one truth-table word per line
/// (bit `x` of word `l` is line `l`'s value on input row `x`).
pub struct Brute {
    n: u32,
    gates: Vec<G>,
    full: u32,
    want: Vec<u32>,
    care: Vec<u32>,
    perms: Vec<Vec<u32>>,
}

impl Brute {
    /// A search for `rows` on `n ≤ MAX_LINES` lines. With `any_output_order` a
    /// cascade counts when some wiring of its outputs meets the spec (the
    /// permuted search); otherwise only the identity wiring counts.
    pub fn new(n: u32, rows: &[(u32, u32)], lib: Lib, any_output_order: bool) -> Brute {
        assert!(
            n <= MAX_LINES,
            "one u32 word per line holds at most 32 rows"
        );
        let mut want = vec![0u32; n as usize];
        let mut care = vec![0u32; n as usize];
        for (x, &(v, c)) in rows.iter().enumerate() {
            for l in 0..n {
                want[l as usize] |= bit(v, l) << x;
                care[l as usize] |= bit(c, l) << x;
            }
        }
        let perms = if any_output_order {
            permutations(n)
        } else {
            vec![(0..n).collect()]
        };
        Brute {
            n,
            gates: lib.gates(n),
            full: if n == 5 {
                u32::MAX
            } else {
                (1u32 << (1 << n)) - 1
            },
            want,
            care,
            perms,
        }
    }

    fn met(&self, w: &[u32; 5]) -> bool {
        self.perms.iter().any(|p| {
            (0..self.n as usize).all(|j| (w[p[j] as usize] ^ self.want[j]) & self.care[j] == 0)
        })
    }

    fn step(&self, w: &[u32; 5], g: G) -> [u32; 5] {
        let mut o = *w;
        let and = |m: u32| {
            (0..self.n)
                .filter(|&l| m & 1 << l != 0)
                .fold(self.full, |a, l| a & w[l as usize])
        };
        match g {
            G::T { pos, target, .. } => o[target as usize] ^= and(pos),
            G::P { c, t1, t2 } => {
                o[t1 as usize] ^= w[c as usize];
                o[t2 as usize] ^= w[c as usize] & w[t1 as usize];
            }
        }
        o
    }

    /// Number of cascades of exactly `d` gates that meet the spec.
    fn count(&self, w: &[u32; 5], d: u32) -> u64 {
        if d == 0 {
            return u64::from(self.met(w));
        }
        self.gates
            .iter()
            .map(|&g| self.count(&self.step(w, g), d - 1))
            .sum()
    }

    /// `(minimal depth, number of minimal cascades)`, searching depths up
    /// to `max_depth`.
    pub fn minimum(&self, max_depth: u32) -> Option<(u32, u64)> {
        let mut w = [0u32; 5];
        for l in 0..self.n {
            w[l as usize] = (0..1u32 << self.n)
                .filter(|x| bit(*x, l) == 1)
                .fold(0, |m, x| m | 1 << x);
        }
        (0..=max_depth).find_map(|d| match self.count(&w, d) {
            0 => None,
            c => Some((d, c)),
        })
    }
}

/// Every permutation of `0..n`.
pub fn permutations(n: u32) -> Vec<Vec<u32>> {
    let mut all: Vec<Vec<u32>> = vec![Vec::new()];
    for _ in 0..n {
        let mut next = Vec::new();
        for p in &all {
            for v in (0..n).filter(|v| !p.contains(v)) {
                let mut q = p.clone();
                q.push(v);
                next.push(q);
            }
        }
        all = next;
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    const SWAP: &str = ".numvars 2\n.variables a b\n.begin\nt2 a b\nt2 b a\nt2 a b\n.end\n";

    #[test]
    fn evaluates_a_swap_and_its_cost() {
        let net = parse_real(SWAP).unwrap();
        let rows: Vec<(u32, u32)> = (0..4).map(|x| (((x & 1) << 1) | (x >> 1), 3)).collect();
        assert!(realizes(&net, &rows, &[0, 1]));
        assert!(!realizes(&net, &rows, &[1, 0]));
        assert_eq!(quantum_cost(&net), 3);
    }

    #[test]
    fn peres_matches_its_definition() {
        let g = G::P { c: 0, t1: 1, t2: 2 };
        for x in 0..8u32 {
            let (c, a, b) = (x & 1, (x >> 1) & 1, (x >> 2) & 1);
            assert_eq!(apply(g, x), c | (c ^ a) << 1 | ((c & a) ^ b) << 2);
        }
    }

    #[test]
    fn brute_force_finds_the_three_gate_swap() {
        let rows: Vec<(u32, u32)> = (0..4).map(|x| (((x & 1) << 1) | (x >> 1), 3)).collect();
        let b = Brute::new(2, &rows, Lib { peres: false }, false);
        // Two orders of the CNOT triple realize SWAP.
        assert_eq!(b.minimum(4), Some((3, 2)));
        // With free output order the identity wiring needs no gates.
        let b = Brute::new(2, &rows, Lib { peres: false }, true);
        assert_eq!(b.minimum(4), Some((0, 1)));
    }
}
