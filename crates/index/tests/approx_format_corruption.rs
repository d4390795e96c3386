//! Corruption matrix for the `.fzvp` VP-tree format: an image damaged in
//! **any** way — truncated at every byte boundary, any single bit
//! flipped, a stale version stamp, a wrong-dimension header — must
//! surface as a typed [`StoreError`], never a panic and never a silently
//! wrong index. The format checksums **every byte before the trailer**
//! (header included), so even the reserved header word is
//! flip-protected. Mutated images are decoded in memory through
//! [`VpTree::decode`] under `catch_unwind`, so a panic shows up as its
//! own failure, not a test abort, and parallel tests share no files.

use std::panic::{catch_unwind, AssertUnwindSafe};

use fuzzy_core::metric::L2;
use fuzzy_core::{FuzzyObject, ObjectId, ObjectSummary};
use fuzzy_geom::Point;
use fuzzy_index::{MTree, MTreeConfig, VpTree, VpTreeConfig};
use fuzzy_store::format::{fnv1a, Encoder};
use fuzzy_store::StoreError;

fn object(id: u64, x: f64, y: f64) -> FuzzyObject<2> {
    let pts = vec![Point::new([x, y]), Point::new([x + 0.4, y + 0.3]), Point::new([x - 0.2, y])];
    let mus = vec![1.0, 0.6, 0.3];
    FuzzyObject::new(ObjectId(id), pts, mus).unwrap()
}

fn grid(n: u64) -> Vec<FuzzyObject<2>> {
    (0..n).map(|i| object(i, (i % 8) as f64 * 2.0, (i / 8) as f64 * 2.0)).collect()
}

/// The pristine `.fzvp` image every matrix mutates.
fn fixture() -> Vec<u8> {
    let summaries: Vec<ObjectSummary<2>> =
        grid(24).iter().map(ObjectSummary::from_object).collect();
    VpTree::build(&L2, &summaries, VpTreeConfig::default()).encode()
}

/// Decode a (possibly mutated) image; a panic is converted into a test
/// failure with the mutation's coordinates.
fn load_result(bytes: &[u8], what: &str) -> Result<(), StoreError> {
    match catch_unwind(AssertUnwindSafe(|| VpTree::<2>::decode(bytes, &L2).map(|_| ()))) {
        Err(_) => panic!("fzvp decode panicked on {what}"),
        Ok(r) => r,
    }
}

fn load_must_error(bytes: &[u8], what: &str) -> StoreError {
    match load_result(bytes, what) {
        Ok(()) => panic!("fzvp decode accepted {what}"),
        Err(e) => e,
    }
}

#[test]
fn truncation_at_every_byte_boundary_is_a_typed_error() {
    let bytes = fixture();
    assert!(load_result(&bytes, "the pristine image").is_ok());
    for len in 0..bytes.len() {
        let e = load_must_error(&bytes[..len], &format!("truncation to {len} bytes"));
        // Every truncation error must render (Display is part of the
        // typed contract — the CLI prints these verbatim).
        assert!(!e.to_string().is_empty());
    }
}

#[test]
fn every_single_bit_flip_is_rejected() {
    let bytes = fixture();
    for byte in 0..bytes.len() {
        for bit in 0..8 {
            let mut evil = bytes.clone();
            evil[byte] ^= 1 << bit;
            load_must_error(&evil, &format!("bit {bit} of byte {byte} flipped"));
        }
    }
}

/// Rewrite the 12-byte header field region and re-checksum, so only the
/// targeted typed check can reject the image.
fn with_header(bytes: &[u8], version: u16, dims: u16) -> Vec<u8> {
    let mut out = Encoder::with_capacity(bytes.len());
    out.bytes(&bytes[..4]);
    out.u16(version);
    out.u16(dims);
    out.bytes(&bytes[8..bytes.len() - 12]);
    let sum = fnv1a(&out.as_bytes()[..bytes.len() - 12]);
    out.u64(sum);
    out.bytes(&bytes[bytes.len() - 4..]);
    out.into_bytes()
}

#[test]
fn stale_version_is_a_version_mismatch() {
    let bytes = fixture();
    let stale = with_header(&bytes, 0, 2);
    let e = load_must_error(&stale, "a stale version stamp");
    assert!(
        matches!(e, StoreError::VersionMismatch { found: 0, expected: 1 }),
        "want VersionMismatch, got {e}"
    );
    let future = with_header(&bytes, 9, 2);
    let e = load_must_error(&future, "a future version stamp");
    assert!(matches!(e, StoreError::VersionMismatch { found: 9, expected: 1 }));
}

#[test]
fn wrong_dimension_header_is_a_dimension_mismatch() {
    let bytes = fixture();
    for dims in [0_u16, 3, 7] {
        let evil = with_header(&bytes, 1, dims);
        let e = load_must_error(&evil, "a wrong-dimension header");
        assert!(
            matches!(e, StoreError::DimensionMismatch { found, expected: 2 } if found == dims),
            "want DimensionMismatch({dims}), got {e}"
        );
    }
}

#[test]
fn garbage_and_degenerate_images_are_rejected() {
    load_must_error(b"", "an empty image");
    load_must_error(b"FZVP", "a bare magic");
    for fill in [0x00u8, 0xFF, 0x5A] {
        load_must_error(&vec![fill; 256], &format!("256 bytes of 0x{fill:02x}"));
    }
}

/// A fresh per-test directory (process id + test name), so parallel
/// tests and concurrent runs never share a path.
fn test_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("fz-vp-corrupt-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn cross_format_confusion_is_rejected() {
    // Feeding the metric tree's pristine bytes to the VP-tree decoder, and
    // the VP-tree's to the metric tree loader, must be a typed error, not
    // a decode attempt.
    let dir = test_dir("cross");
    let mtree_path = dir.join("ix.fzmt");
    MTree::build(&L2, &grid(24), MTreeConfig::default()).save(&mtree_path).unwrap();
    let e = load_must_error(&std::fs::read(&mtree_path).unwrap(), "an fzmt image");
    assert!(matches!(e, StoreError::Corrupt { .. }), "got {e}");
    let vp_path = dir.join("ix.fzvp");
    std::fs::write(&vp_path, fixture()).unwrap();
    let out = catch_unwind(AssertUnwindSafe(|| MTree::<2>::load(&vp_path, &L2).map(|_| ())));
    match out {
        Err(_) => panic!("fzmt load panicked on an fzvp image"),
        Ok(r) => assert!(matches!(r, Err(StoreError::Corrupt { .. })), "got {r:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn metric_mismatch_on_open_is_typed() {
    // A pristine `.fzvp` built under l2 opened under a different metric
    // name must fail by name, not by structure.
    struct FakeMetric;
    impl fuzzy_core::metric::Metric<2> for FakeMetric {
        fn name(&self) -> &'static str {
            "fake"
        }
        fn dist(&self, a: &Point<2>, b: &Point<2>) -> f64 {
            a.dist(b)
        }
    }
    let dir = test_dir("metric");
    let path = dir.join("ix.fzvp");
    let summaries: Vec<ObjectSummary<2>> =
        grid(24).iter().map(ObjectSummary::from_object).collect();
    VpTree::build(&L2, &summaries, VpTreeConfig::default()).save(&path).unwrap();
    assert!(VpTree::<2>::load(&path, &L2).is_ok(), "the saved file must load under l2");
    let out = catch_unwind(AssertUnwindSafe(|| VpTree::<2>::load(&path, &FakeMetric)));
    match out {
        Err(_) => panic!("load panicked on a metric mismatch"),
        Ok(Ok(_)) => panic!("load accepted a metric mismatch"),
        Ok(Err(e)) => assert!(e.to_string().contains("metric mismatch"), "got {e}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}
