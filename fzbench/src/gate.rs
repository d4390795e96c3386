//! The correctness gate: answers are reduced to a canonical byte string
//! (ids, bound kinds and the exact bits of every distance and interval
//! endpoint), and each checked answer must equal its reference byte for
//! byte.

use fuzzy_query::{DistBound, Neighbor, RknnItem};

/// Canonical bytes of an AKNN answer, in answer order.
pub fn aknn_bytes(neighbors: &[Neighbor]) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + neighbors.len() * 25);
    out.push(b'A');
    for n in neighbors {
        out.extend_from_slice(&n.id.0.to_le_bytes());
        match n.dist {
            DistBound::Exact(d) => {
                out.push(0);
                out.extend_from_slice(&d.to_bits().to_le_bytes());
            }
            DistBound::Bounded { lo, hi } => {
                out.push(1);
                out.extend_from_slice(&lo.to_bits().to_le_bytes());
                out.extend_from_slice(&hi.to_bits().to_le_bytes());
            }
        }
    }
    out
}

/// Canonical bytes of an RKNN answer, in answer order.
pub fn rknn_bytes(items: &[RknnItem]) -> Vec<u8> {
    let mut out = vec![b'R'];
    for item in items {
        out.extend_from_slice(&item.id.0.to_le_bytes());
        let intervals = item.range.intervals();
        out.extend_from_slice(&(intervals.len() as u32).to_le_bytes());
        for iv in intervals {
            out.extend_from_slice(&iv.lo.to_bits().to_le_bytes());
            out.extend_from_slice(&iv.hi.to_bits().to_le_bytes());
            out.push(iv.lo_closed as u8 | (iv.hi_closed as u8) << 1);
        }
    }
    out
}

/// Reference answers for a request sequence.
#[derive(Debug, Default)]
pub struct Gate {
    expected: Vec<Vec<u8>>,
}

impl Gate {
    /// A gate over the reference answers of requests `0..expected.len()`.
    pub fn new(expected: Vec<Vec<u8>>) -> Self {
        Self { expected }
    }

    /// True when `got` is byte-identical to the reference answer of
    /// request `index`.
    pub fn check(&self, index: usize, got: &[u8]) -> bool {
        self.expected.get(index).is_some_and(|want| want.as_slice() == got)
    }
}

/// Attempted and failed operations of one phase or thread.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations issued.
    pub attempted: u64,
    /// Mismatches, refusals, deadline and transport errors.
    pub failed: u64,
}

impl Tally {
    /// Record one operation and whether it succeeded.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += !ok as u64;
    }

    /// Add another tally.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}
