//! Stable content fingerprints of programs and platforms.
//!
//! The `mhla serve` result cache is *content-addressed*: a cached frontier
//! is keyed by what was explored — the program, the platform, and the
//! exploration options — not by who submitted it or when. The address of
//! the program/platform half of that key is a hash over the **canonical
//! serialized bytes** ([`mhla_ir::serdes::program_canonical_bytes`] /
//! [`mhla_hierarchy::serdes::platform_canonical_bytes`]): the compact,
//! whitespace-free rendering of the versioned JSON document, which is
//! byte-identical for structurally equal values and frozen with the
//! schema version. Two submissions of the same program therefore hash
//! equal whether they came from the same file, a re-export, or a
//! different machine.
//!
//! The hash is 128-bit FNV-1a — deterministic across processes, builds
//! and platforms (unlike `std`'s `DefaultHasher`, whose seeds are
//! per-process), dependency-free, and wide enough that accidental
//! collisions are out of the picture for any realistic cache population.
//! FNV is *not* cryptographic, and the cache keys on the fingerprint
//! alone — it does not keep or compare the canonical bytes. A submitter
//! who engineers an FNV-1a collision therefore gets the colliding key's
//! later requests served with the bytes cached under its own submission.
//! The trust assumption is that every submitter sharing a server is
//! trusted not to engineer collisions; a server shared with untrusted
//! submitters needs the canonical bytes kept and compared on every hit.

use mhla_hierarchy::Platform;
use mhla_ir::Program;

/// The FNV-1a offset basis, 128-bit.
const FNV128_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
/// The FNV-1a prime, 128-bit.
const FNV128_PRIME: u128 = 0x0000000001000000000000000000013b;

/// 128-bit FNV-1a over arbitrary bytes — the workspace's stable,
/// dependency-free content hash.
pub fn fnv1a_128(bytes: &[u8]) -> u128 {
    let mut h = FNV128_OFFSET;
    for &b in bytes {
        h ^= u128::from(b);
        h = h.wrapping_mul(FNV128_PRIME);
    }
    h
}

/// The content fingerprint of a program: [`fnv1a_128`] over its canonical
/// serialized bytes. Equal programs (by [`Program`]'s structural equality)
/// fingerprint equal; the value is stable across processes and builds for
/// a given schema version.
pub fn program_fingerprint(program: &Program) -> u128 {
    fnv1a_128(&mhla_ir::serdes::program_canonical_bytes(program))
}

/// The content fingerprint of a platform: [`fnv1a_128`] over its
/// canonical serialized bytes; see [`program_fingerprint`].
pub fn platform_fingerprint(platform: &Platform) -> u128 {
    fnv1a_128(&mhla_hierarchy::serdes::platform_canonical_bytes(platform))
}

/// Renders a fingerprint as the fixed-width lowercase hex the `serve`
/// status/result payloads use.
pub fn fingerprint_hex(fp: u128) -> String {
    format!("{fp:032x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhla_ir::{ElemType, ProgramBuilder};

    fn prog(name: &str, dim: u64) -> Program {
        let mut b = ProgramBuilder::new(name);
        let a = b.array("a", &[dim], ElemType::U8);
        b.loop_scope("i", 0, dim as i64, 1, |b, li| {
            let iv = b.var(li);
            b.stmt("s").read(a, vec![iv]).finish();
        });
        b.finish()
    }

    #[test]
    fn fnv_vectors_are_stable() {
        // Pinned values: any change here is a cache-key format break.
        assert_eq!(fnv1a_128(b""), FNV128_OFFSET);
        assert_eq!(fnv1a_128(b"a"), 0xd228cb696f1a8caf78912b704e4a8964);
        assert_eq!(
            fingerprint_hex(fnv1a_128(b"mhla")),
            "691872c13b757277b806e95bbd94bdef"
        );
    }

    #[test]
    fn equal_content_fingerprints_equal_and_distinct_content_differs() {
        let p1 = prog("p", 64);
        let p2 = prog("p", 64);
        let p3 = prog("p", 65);
        assert_eq!(program_fingerprint(&p1), program_fingerprint(&p2));
        assert_ne!(program_fingerprint(&p1), program_fingerprint(&p3));

        let a = Platform::three_level_default();
        let b = Platform::three_level_default();
        let c = Platform::four_level_default();
        assert_eq!(platform_fingerprint(&a), platform_fingerprint(&b));
        assert_ne!(platform_fingerprint(&a), platform_fingerprint(&c));
    }

    #[test]
    fn fingerprint_survives_a_serialization_round_trip() {
        let p = prog("rt", 32);
        let text = mhla_ir::serdes::program_to_json(&p);
        let back = mhla_ir::serdes::program_from_json(&text).unwrap();
        assert_eq!(program_fingerprint(&p), program_fingerprint(&back));
    }
}
