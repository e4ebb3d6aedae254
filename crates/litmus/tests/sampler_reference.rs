//! Pins `diy::random_cycle` and `diy::CycleSignature::of` to their
//! straightforward originals, draw for draw.
//!
//! The library samples against a table of valid cycles and canonicalises
//! without materialising rotations; the references below build a litmus
//! test per attempt and every rotation per signature. Seeded fuzz reports
//! are byte-identical only while both agree on every result *and* leave
//! the RNG in the same state, so these tests compare both.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};
use rtlcheck_litmus::diy::{
    all_cycles, cycle_name, generate, random_cycle, CycleSignature, DiyError, Edge, SAMPLE_ATTEMPTS,
};

/// The sampler as first written: candidates filtered into a fresh `Vec`
/// per edge, and each attempt probed with `generate`.
fn random_cycle_reference<R: Rng + ?Sized>(rng: &mut R, len: usize) -> Result<Vec<Edge>, DiyError> {
    if len < 2 {
        return Err(DiyError::TooShort);
    }
    'attempt: for _ in 0..SAMPLE_ATTEMPTS {
        let mut cycle: Vec<Edge> = Vec::with_capacity(len);
        let first: Edge = *Edge::ALL.choose(rng).expect("ALL is nonempty");
        cycle.push(first);
        for i in 1..len {
            let prev = cycle[i - 1];
            let candidates: Vec<Edge> = Edge::ALL
                .into_iter()
                .filter(|e| {
                    e.src_kind() == prev.dst_kind()
                        // Final edge must be external and close the kind chain.
                        && (i != len - 1
                            || (e.is_external() && e.dst_kind() == first.src_kind()))
                })
                .collect();
            match candidates.choose(rng) {
                Some(&e) => cycle.push(e),
                None => continue 'attempt,
            }
        }
        if generate("probe", &cycle).is_ok() {
            return Ok(cycle);
        }
    }
    // Sampling failed. For short lengths, settle the question exhaustively
    // so callers can distinguish "impossible" from "unlucky".
    if len <= 4 && all_cycles(len).is_empty() {
        return Err(DiyError::UnsatisfiableLength { len });
    }
    Err(DiyError::SamplingExhausted {
        len,
        attempts: SAMPLE_ATTEMPTS,
    })
}

/// The canonical form as first written: every rotation of the cycle and
/// of its reversal, materialised and compared.
fn signature_reference(cycle: &[Edge]) -> Vec<Edge> {
    let n = cycle.len();
    if n == 0 {
        return Vec::new();
    }
    let reversed: Vec<Edge> = cycle.iter().rev().copied().collect();
    let mut best: Option<Vec<Edge>> = None;
    for seq in [cycle, reversed.as_slice()] {
        for start in 0..n {
            let rot: Vec<Edge> = (0..n).map(|i| seq[(start + i) % n]).collect();
            if best.as_ref().is_none_or(|b| rot < *b) {
                best = Some(rot);
            }
        }
    }
    best.expect("nonempty cycle")
}

/// Same result and same RNG state afterwards, for many seeds at every
/// length from the too-short 0 and 1 and the unsatisfiable 2 up to 9,
/// past the table's reach, so both the lookup and the `generate` probe
/// are covered.
#[test]
fn random_cycle_matches_the_reference_draw_for_draw() {
    let mut outcomes = [0usize; 4];
    for seed in 0..200u64 {
        let mut fast = StdRng::seed_from_u64(seed);
        let mut slow = StdRng::seed_from_u64(seed);
        for len in 0..=9 {
            // Uneven repeats per length walk the generators through
            // different alignments of the draw stream.
            for _ in 0..1 + (seed as usize + len) % 3 {
                let got = random_cycle(&mut fast, len);
                let want = random_cycle_reference(&mut slow, len);
                assert_eq!(got, want, "seed {seed}, length {len}");
                outcomes[match got {
                    Ok(_) => 0,
                    Err(DiyError::TooShort) => 1,
                    Err(DiyError::UnsatisfiableLength { .. }) => 2,
                    Err(_) => 3,
                }] += 1;
                assert_eq!(
                    fast.next_u64(),
                    slow.next_u64(),
                    "RNG diverged: seed {seed}, length {len}"
                );
            }
        }
    }
    let [sampled, too_short, unsatisfiable, exhausted] = outcomes;
    assert!(sampled > 1_000, "{outcomes:?}");
    assert!(too_short > 100 && unsatisfiable > 100, "{outcomes:?}");
    assert!(
        exhausted > 0,
        "long lengths exhaust sometimes: {outcomes:?}"
    );
}

#[test]
fn signature_matches_the_reference_on_every_valid_cycle() {
    let mut swept = 0;
    for len in 3..=6 {
        for cycle in all_cycles(len) {
            assert_eq!(
                CycleSignature::of(&cycle).edges(),
                signature_reference(&cycle),
                "{}",
                cycle_name(&cycle)
            );
            swept += 1;
        }
    }
    assert_eq!(swept, 1_363);
}

/// Arbitrary edge sequences of length 0–9, kind-chained or not. Half are
/// drawn from two edges only, so equal rotations and periodic cycles,
/// where the comparison runs longest, are common.
#[test]
fn signature_matches_the_reference_on_random_sequences() {
    let mut rng = StdRng::seed_from_u64(0x516);
    for _ in 0..20_000 {
        let len = rng.gen_index(10);
        let alphabet = if rng.gen_bool(0.5) {
            &Edge::ALL[..]
        } else {
            &Edge::ALL[..2]
        };
        let cycle: Vec<Edge> = (0..len)
            .map(|_| *alphabet.choose(&mut rng).expect("alphabet is nonempty"))
            .collect();
        assert_eq!(
            CycleSignature::of(&cycle).edges(),
            signature_reference(&cycle),
            "{}",
            cycle_name(&cycle)
        );
    }
    for cycle in [
        vec![Edge::Fre; 4],
        vec![Edge::PodWR, Edge::Fre, Edge::PodWR, Edge::Fre],
        vec![
            Edge::Rfe,
            Edge::PodRR,
            Edge::Fre,
            Edge::Rfe,
            Edge::PodRR,
            Edge::Fre,
        ],
    ] {
        assert_eq!(
            CycleSignature::of(&cycle).edges(),
            signature_reference(&cycle)
        );
    }
}
