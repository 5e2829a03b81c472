//! Branch-free bit-plane gate kernels.
//!
//! Each kernel updates one plane word of every wire an operation touches,
//! using only bitwise logic — no per-lane branches. Truth tables follow the
//! scalar implementations in [`crate::gate::Gate::apply`] exactly; the
//! equivalence is pinned down by the lane-by-lane property tests in
//! `tests/batch_equivalence.rs`.
//!
//! The masked variants implement the paper's fault action per lane: where
//! the 64-lane `fault` mask is set, the operation does *not* execute and
//! every support bit is replaced by an independent uniform random bit
//! (`rand[k]` supplies the random plane for the k-th support wire).

use super::BatchState;
use crate::gate::{Gate, OpKind};
use crate::op::Op;
use crate::wire::Wire;

/// Applies `op` to plane word `word` of all lanes at once.
#[inline]
pub fn apply_word(state: &mut BatchState, op: &Op, word: usize) {
    match op {
        Op::Gate(g) => apply_gate_word(state, g, word),
        Op::Init(init) => {
            for &wire in init.wires() {
                state.set_w(wire, word, 0);
            }
        }
    }
}

/// Applies a reversible gate to plane word `word` of all lanes at once.
#[inline]
pub fn apply_gate_word(state: &mut BatchState, gate: &Gate, word: usize) {
    match *gate {
        Gate::Not(a) => {
            let va = state.w(a, word);
            state.set_w(a, word, !va);
        }
        Gate::Cnot { control, target } => {
            let c = state.w(control, word);
            state.xor_w(target, word, c);
        }
        Gate::Toffoli {
            controls: [c0, c1],
            target,
        } => {
            let c = state.w(c0, word) & state.w(c1, word);
            state.xor_w(target, word, c);
        }
        Gate::Swap(a, b) => {
            let (va, vb) = (state.w(a, word), state.w(b, word));
            state.set_w(a, word, vb);
            state.set_w(b, word, va);
        }
        Gate::Swap3(a, b, c) => {
            // swap(a,b) then swap(b,c): a←b, b←c, c←a.
            let (va, vb, vc) = (state.w(a, word), state.w(b, word), state.w(c, word));
            state.set_w(a, word, vb);
            state.set_w(b, word, vc);
            state.set_w(c, word, va);
        }
        Gate::Fredkin {
            control,
            targets: [t0, t1],
        } => {
            let d = (state.w(t0, word) ^ state.w(t1, word)) & state.w(control, word);
            state.xor_w(t0, word, d);
            state.xor_w(t1, word, d);
        }
        Gate::Maj(a, b, c) => {
            let va = state.w(a, word);
            let vb = state.w(b, word) ^ va;
            let vc = state.w(c, word) ^ va;
            state.set_w(b, word, vb);
            state.set_w(c, word, vc);
            state.set_w(a, word, va ^ (vb & vc));
        }
        Gate::MajInv(a, b, c) => {
            let vb = state.w(b, word);
            let vc = state.w(c, word);
            let va = state.w(a, word) ^ (vb & vc);
            state.set_w(a, word, va);
            state.set_w(b, word, vb ^ va);
            state.set_w(c, word, vc ^ va);
        }
        Gate::F2g(a, b, c) => {
            let va = state.w(a, word);
            state.xor_w(b, word, va);
            state.xor_w(c, word, va);
        }
        Gate::Nft(a, b, c) => {
            let (va, vb, vc) = (state.w(a, word), state.w(b, word), state.w(c, word));
            state.set_w(a, word, va ^ vb);
            state.set_w(b, word, (!vb & vc) ^ (va & !vc));
            state.set_w(c, word, (vb & vc) ^ (va & !vc));
        }
        Gate::NftInv(a, b, c) => {
            let (p, q, r) = (state.w(a, word), state.w(b, word), state.w(c, word));
            let vc = q ^ r;
            let vb = (vc & !q) | (!vc & (p ^ q));
            state.set_w(a, word, p ^ vb);
            state.set_w(b, word, vb);
            state.set_w(c, word, vc);
        }
        Gate::Ig(a, b, c, d) => {
            let (va, vb) = (state.w(a, word), state.w(b, word));
            state.set_w(b, word, va ^ vb);
            state.xor_w(c, word, va & vb);
            state.xor_w(d, word, va & !vb);
        }
        Gate::IgInv(a, b, c, d) => {
            let (p, q) = (state.w(a, word), state.w(b, word));
            state.set_w(b, word, p ^ q);
            state.xor_w(c, word, p & !q);
            state.xor_w(d, word, p & q);
        }
    }
}

/// Applies `op` to plane word `word` with per-lane faults: lanes in `fault`
/// skip the operation and take the random bits `rand[k]` on the k-th
/// support wire (support order matches [`crate::op::Op::support`]).
///
/// Driven by the engine's precomputed fault schedules (plain and
/// conditioned) on the raw op-at-a-time reference loop.
#[inline]
pub fn apply_word_masked(
    state: &mut BatchState,
    op: &Op,
    word: usize,
    fault: u64,
    rand: &[u64; 4],
) {
    if fault == 0 {
        apply_word(state, op, word);
        return;
    }
    let support = op.support();
    let wires = support.as_slice();
    if fault == u64::MAX {
        // Every lane faults: the ideal kernel's output would be fully
        // discarded, so skip it and write the random planes directly.
        for (k, &wire) in wires.iter().enumerate() {
            state.set_w(wire, word, rand[k]);
        }
        return;
    }
    // Save pre-op values, run the ideal kernel, then blend per lane:
    // healthy lanes keep the kernel output, faulted lanes take the random
    // plane (the op "does not execute" there, so its old value is simply
    // discarded).
    apply_word(state, op, word);
    for (k, &wire) in wires.iter().enumerate() {
        let out = state.w(wire, word);
        state.set_w(wire, word, (out & !fault) | (rand[k] & fault));
    }
}

/// Applies a pre-decoded op — its `kind` and its support `wires` in
/// [`crate::op::Op::support`] order, `arity` of them — to the full
/// `W`-word wide word of every wire it touches: the [`crate::microop`]
/// kernel. Requires `state.words_per_wire() == W`; the element-wise
/// `[u64; W]` logic autovectorizes (a wide word is `W` consecutive 64-lane
/// logical words).
#[inline]
pub(crate) fn apply_wide<const W: usize>(
    state: &mut BatchState,
    kind: OpKind,
    wires: &[Wire; 4],
    arity: usize,
) {
    #[inline]
    fn xor<const W: usize>(mut a: [u64; W], b: [u64; W]) -> [u64; W] {
        for (x, y) in a.iter_mut().zip(b) {
            *x ^= y;
        }
        a
    }
    #[inline]
    fn and<const W: usize>(mut a: [u64; W], b: [u64; W]) -> [u64; W] {
        for (x, y) in a.iter_mut().zip(b) {
            *x &= y;
        }
        a
    }
    let [a, b, c, d] = *wires;
    match kind {
        OpKind::Init => {
            for &wire in &wires[..arity] {
                state.set_wide(wire, [0u64; W]);
            }
        }
        OpKind::Not => {
            let mut va = state.wide::<W>(a);
            for x in va.iter_mut() {
                *x = !*x;
            }
            state.set_wide(a, va);
        }
        OpKind::Cnot => {
            let va = state.wide::<W>(a);
            state.xor_wide(b, va);
        }
        OpKind::Toffoli => {
            let v = and(state.wide::<W>(a), state.wide::<W>(b));
            state.xor_wide(c, v);
        }
        OpKind::Swap => {
            let (va, vb) = (state.wide::<W>(a), state.wide::<W>(b));
            state.set_wide(a, vb);
            state.set_wide(b, va);
        }
        OpKind::Swap3 => {
            let (va, vb, vc) = (state.wide::<W>(a), state.wide::<W>(b), state.wide::<W>(c));
            state.set_wide(a, vb);
            state.set_wide(b, vc);
            state.set_wide(c, va);
        }
        OpKind::Fredkin => {
            let v = and(
                xor(state.wide::<W>(b), state.wide::<W>(c)),
                state.wide::<W>(a),
            );
            state.xor_wide(b, v);
            state.xor_wide(c, v);
        }
        OpKind::Maj => {
            let va = state.wide::<W>(a);
            let vb = xor(state.wide::<W>(b), va);
            let vc = xor(state.wide::<W>(c), va);
            state.set_wide(b, vb);
            state.set_wide(c, vc);
            state.set_wide(a, xor(va, and(vb, vc)));
        }
        OpKind::MajInv => {
            let vb = state.wide::<W>(b);
            let vc = state.wide::<W>(c);
            let va = xor(state.wide::<W>(a), and(vb, vc));
            state.set_wide(a, va);
            state.set_wide(b, xor(vb, va));
            state.set_wide(c, xor(vc, va));
        }
        OpKind::F2g => {
            let va = state.wide::<W>(a);
            state.xor_wide(b, va);
            state.xor_wide(c, va);
        }
        OpKind::Nft => {
            let (va, vb, vc) = (state.wide::<W>(a), state.wide::<W>(b), state.wide::<W>(c));
            let mut nb = va;
            let mut nc = vb;
            for k in 0..W {
                nb[k] = (!vb[k] & vc[k]) ^ (va[k] & !vc[k]);
                nc[k] = (vb[k] & vc[k]) ^ (va[k] & !vc[k]);
            }
            state.set_wide(a, xor(va, vb));
            state.set_wide(b, nb);
            state.set_wide(c, nc);
        }
        OpKind::NftInv => {
            let (p, q, r) = (state.wide::<W>(a), state.wide::<W>(b), state.wide::<W>(c));
            let mut na = p;
            let mut nb = p;
            let nc = xor(q, r);
            for k in 0..W {
                nb[k] = (nc[k] & !q[k]) | (!nc[k] & (p[k] ^ q[k]));
                na[k] = p[k] ^ nb[k];
            }
            state.set_wide(a, na);
            state.set_wide(b, nb);
            state.set_wide(c, nc);
        }
        OpKind::Ig | OpKind::IgInv => {
            // IG: c ^= a & b, d ^= a & !b; IG⁻¹ swaps the two terms.
            let (va, vb) = (state.wide::<W>(a), state.wide::<W>(b));
            let mut both = va;
            let mut only_a = va;
            for k in 0..W {
                both[k] = va[k] & vb[k];
                only_a[k] = va[k] & !vb[k];
            }
            let (rc, rd) = if kind == OpKind::Ig {
                (both, only_a)
            } else {
                (only_a, both)
            };
            state.set_wide(b, xor(va, vb));
            state.xor_wide(c, rc);
            state.xor_wide(d, rd);
        }
    }
}

/// Applies `op` across every plane word (convenience for full-batch use).
#[inline]
pub fn apply(state: &mut BatchState, op: &Op) {
    for word in 0..state.words_per_wire() {
        apply_word(state, op, word);
    }
}

/// Lane-wise three-way majority vote: bit `l` of the result is the
/// majority of bit `l` of `a`, `b` and `c` — the bitwise form of the
/// repetition-code decoder used by every batch decode path.
#[inline]
pub const fn majority3(a: u64, b: u64, c: u64) -> u64 {
    (a & b) | (a & c) | (b & c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::BitState;
    use crate::wire::w;

    /// Exhaustive lane-by-lane comparison of one gate against the scalar
    /// implementation, over all inputs of an `n`-bit register packed into
    /// the first `2^n` lanes.
    fn check_gate(gate: Gate, n: usize) {
        let states: Vec<BitState> = (0..(1u64 << n)).map(|v| BitState::from_u64(v, n)).collect();
        let mut batch = BatchState::from_states(&states);
        apply(&mut batch, &Op::Gate(gate));
        for (lane, state) in states.iter().enumerate() {
            let mut expect = state.clone();
            gate.apply(&mut expect);
            assert_eq!(batch.lane(lane), expect, "{gate} lane {lane}");
        }
    }

    #[test]
    fn kernels_match_scalar_gates_exhaustively() {
        check_gate(Gate::Not(w(0)), 1);
        check_gate(
            Gate::Cnot {
                control: w(0),
                target: w(1),
            },
            2,
        );
        check_gate(
            Gate::Cnot {
                control: w(1),
                target: w(0),
            },
            2,
        );
        check_gate(
            Gate::Toffoli {
                controls: [w(0), w(1)],
                target: w(2),
            },
            3,
        );
        check_gate(Gate::Swap(w(0), w(1)), 2);
        check_gate(Gate::Swap3(w(0), w(1), w(2)), 3);
        check_gate(Gate::Swap3(w(2), w(0), w(1)), 3);
        check_gate(
            Gate::Fredkin {
                control: w(0),
                targets: [w(1), w(2)],
            },
            3,
        );
        check_gate(Gate::Maj(w(0), w(1), w(2)), 3);
        check_gate(Gate::Maj(w(2), w(0), w(1)), 3);
        check_gate(Gate::MajInv(w(0), w(1), w(2)), 3);
        check_gate(Gate::MajInv(w(1), w(2), w(0)), 3);
        check_gate(Gate::F2g(w(0), w(1), w(2)), 3);
        check_gate(Gate::F2g(w(1), w(2), w(0)), 3);
        check_gate(Gate::Nft(w(0), w(1), w(2)), 3);
        check_gate(Gate::Nft(w(2), w(0), w(1)), 3);
        check_gate(Gate::NftInv(w(0), w(1), w(2)), 3);
        check_gate(Gate::NftInv(w(2), w(0), w(1)), 3);
        check_gate(Gate::Ig(w(0), w(1), w(2), w(3)), 4);
        check_gate(Gate::Ig(w(3), w(1), w(0), w(2)), 4);
        check_gate(Gate::IgInv(w(0), w(1), w(2), w(3)), 4);
        check_gate(Gate::IgInv(w(3), w(1), w(0), w(2)), 4);
    }

    #[test]
    fn init_zeroes_planes() {
        let mut batch = BatchState::zeros(3, 1);
        batch.set_word(w(0), 0, u64::MAX);
        batch.set_word(w(1), 0, 0xF0F0);
        batch.set_word(w(2), 0, 0x1234);
        apply(&mut batch, &Op::init(&[w(0), w(2)]));
        assert_eq!(batch.word(w(0), 0), 0);
        assert_eq!(batch.word(w(1), 0), 0xF0F0);
        assert_eq!(batch.word(w(2), 0), 0);
    }

    #[test]
    fn masked_apply_blends_random_lanes() {
        // Lane 0 healthy, lane 1 faulted.
        let mut batch = BatchState::zeros(2, 1);
        batch.set_word(w(0), 0, 0b11); // control on in both lanes
        let op = Op::Gate(Gate::Cnot {
            control: w(0),
            target: w(1),
        });
        let rand = [0b00, 0b00, 0b00, 0b00]; // fault writes zeros
        apply_word_masked(&mut batch, &op, 0, 0b10, &rand);
        // Lane 0: CNOT fired (target 1). Lane 1: fault replaced both
        // support bits with the random bits (0).
        assert!(batch.get(w(1), 0));
        assert!(!batch.get(w(0), 1));
        assert!(!batch.get(w(1), 1));
        assert!(batch.get(w(0), 0));
    }

    #[test]
    fn masked_apply_with_zero_mask_is_ideal() {
        let mut a = BatchState::zeros(3, 1);
        let mut b = BatchState::zeros(3, 1);
        a.set_word(w(0), 0, 0xABCD);
        b.set_word(w(0), 0, 0xABCD);
        let op = Op::Gate(Gate::Maj(w(0), w(1), w(2)));
        apply_word(&mut a, &op, 0);
        apply_word_masked(&mut b, &op, 0, 0, &[u64::MAX; 4]);
        assert_eq!(a, b);
    }
}
