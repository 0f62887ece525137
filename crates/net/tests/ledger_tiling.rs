//! Ledger-tiling oracle: for every catalogue scheme and every graph of
//! the oracle family, an honest prover run under a bit-ledger capture
//! produces certificates whose component spans tile **exactly** — every
//! bit attributed to a named component, span boundaries contiguous from
//! 0 to the certificate length, and the ledger's size view agreeing
//! with the assignment's.
//!
//! This is the invariant the bound-conformance gate (`boundcheck`)
//! leans on: per-component size curves are only meaningful if no bits
//! escape attribution.

use locert_core::framework::Instance;
use locert_graph::IdAssignment;
use locert_net::catalogue::catalogue;
use locert_oracle::harness;
use proptest::prelude::*;

/// One tiling pass over (scheme, family graph) pairs whose prover
/// accepts. Returns how many ledgers were checked.
fn tiling(seed: u64) -> usize {
    let targets = catalogue(8);
    let graphs = harness::family(true, seed);
    let mut checked = 0;
    for graph in &graphs {
        let n = graph.num_nodes();
        if n == 0 {
            continue;
        }
        let ids = IdAssignment::contiguous(n);
        let zeros = vec![0usize; n];
        for target in &targets {
            let instance = match &target.inputs {
                Some(_) => Instance::with_inputs(graph, &ids, &zeros),
                None => Instance::new(graph, &ids),
            };
            let (result, captured) = locert_trace::capture(|| target.scheme.assign(&instance));
            let led = captured.ledger;
            // Out-of-domain graphs and no-instances are refused; the
            // tiling claim is only about honest assignments.
            let Ok(asg) = result else {
                continue;
            };
            checked += 1;
            assert!(
                led.fully_attributed(),
                "{}: unattributed bits on {graph:?}",
                target.name
            );
            assert_eq!(
                led.max_bits(),
                asg.max_bits(),
                "{}: ledger size view diverged on {graph:?}",
                target.name
            );
            let finals = led.final_certs();
            assert_eq!(
                finals.len(),
                n,
                "{}: {} of {n} vertices recorded on {graph:?}",
                target.name,
                finals.len()
            );
            for (v, cert) in finals {
                assert!(
                    cert.is_tiled(),
                    "{}: vertex {v} spans do not tile on {graph:?}",
                    target.name
                );
                let span_total: usize = cert.spans.iter().map(|s| s.len).sum();
                assert_eq!(
                    span_total,
                    asg.cert(locert_graph::NodeId(v)).len_bits(),
                    "{}: vertex {v} span total != certificate length on {graph:?}",
                    target.name
                );
            }
        }
    }
    checked
}

/// One arena-tiling pass over the same (scheme, family graph) pairs:
/// every honest assignment must be arena-backed — each certificate a
/// view into one shared buffer — and the views must tile that buffer
/// exactly, in vertex order, with no gaps, overlaps, or stray owned
/// certificates. Returns how many assignments were checked.
fn arena_tiling(seed: u64) -> usize {
    let targets = catalogue(8);
    let graphs = harness::family(true, seed);
    let mut checked = 0;
    for graph in &graphs {
        let n = graph.num_nodes();
        if n == 0 {
            continue;
        }
        let ids = IdAssignment::contiguous(n);
        let zeros = vec![0usize; n];
        for target in &targets {
            let instance = match &target.inputs {
                Some(_) => Instance::with_inputs(graph, &ids, &zeros),
                None => Instance::new(graph, &ids),
            };
            let Ok(asg) = target.scheme.assign(&instance) else {
                continue;
            };
            checked += 1;
            let mut expect_off = 0usize;
            for v in 0..n {
                let cert = asg.cert(locert_graph::NodeId(v));
                assert!(
                    cert.is_view(),
                    "{}: vertex {v} certificate not arena-backed on {graph:?}",
                    target.name
                );
                let (off, len) = cert.view_range().unwrap();
                assert_eq!(
                    off, expect_off,
                    "{}: vertex {v} view leaves a gap/overlap on {graph:?}",
                    target.name
                );
                assert_eq!(
                    len,
                    cert.as_bytes().len(),
                    "{}: vertex {v} view length diverged on {graph:?}",
                    target.name
                );
                assert_eq!(
                    len,
                    cert.len_bits().div_ceil(8),
                    "{}: vertex {v} byte length vs bit length on {graph:?}",
                    target.name
                );
                expect_off += len;
            }
        }
    }
    checked
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The seed steers the random half of the oracle graph family.
    #[test]
    fn honest_prover_ledgers_tile_exactly(seed in 0u64..1 << 16) {
        let checked = tiling(seed);
        // The exhaustive half of the family alone yields hundreds of
        // provable pairs; a tiny count means the harness went wrong.
        prop_assert!(checked > 100, "only {checked} ledgers checked");
    }

    /// Certificate views tile the assignment arena exactly, mirroring
    /// the bit-level tiling the ledger asserts above.
    #[test]
    fn honest_assignments_tile_their_arena(seed in 0u64..1 << 16) {
        let checked = arena_tiling(seed);
        prop_assert!(checked > 100, "only {checked} assignments checked");
    }
}
