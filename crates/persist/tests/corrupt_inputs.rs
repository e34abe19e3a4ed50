//! Fuzz-style corrupt-input sweep for the chain restore path.
//!
//! A server restoring an untrusted checkpoint chain must never panic —
//! every truncation, bit flip, splice, or shuffle has to surface as a
//! typed [`PersistError`]. These tests feed systematically and
//! pseudo-randomly damaged chain files through [`restore_from_chain`]
//! (and the single-file path) and assert that the result is always an
//! `Err`: a panic anywhere in the envelope validation, section
//! resolution, or tracker decode stack fails the test harness itself,
//! so a pass certifies the whole restore path panic-free on these
//! inputs. The chain sweeps run on a SIEVEADN, a BasicReduction, and a
//! HistApprox chain, so every tracker's section readers see the damage.
//!
//! The damage generator is a deterministic xorshift so failures
//! reproduce exactly; no wall-clock or OS randomness is involved.

use tdn_core::{BasicReduction, HistApprox, InfluenceTracker, SieveAdnTracker, TrackerConfig};
use tdn_persist::manifest::PAYLOAD_OFFSET;
use tdn_persist::{
    checkpoint_base_to_vec, checkpoint_delta_to_vec, restore_from_chain, restore_from_slice,
    Persist, PersistError,
};
use tdn_streams::TimedEdge;

/// Deterministic xorshift64* for reproducible fuzz cases.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

fn batch_for(t: u64) -> Vec<TimedEdge> {
    vec![
        TimedEdge::new((t % 7) as u32, (9 + t % 13) as u32, 1 + (t % 5) as u32),
        TimedEdge::new((t % 4) as u32, (5 + t % 11) as u32, 2 + (t % 6) as u32),
    ]
}

fn cfg() -> TrackerConfig {
    TrackerConfig::new(2, 0.2, 12)
}

/// A 3-link chain (delta → delta → base) for one tracker. The middle
/// delta follows a busy step, the tip an empty one, so the tip is mostly
/// refs and the middle mostly fresh sections.
fn chain_of<T: InfluenceTracker + Persist>(mut t: T) -> Vec<Vec<u8>> {
    let cfg = cfg();
    t.step(0, &batch_for(0));
    t.step(1, &batch_for(1));
    let (base, idx, base_id) = checkpoint_base_to_vec(&t, &cfg, 2);
    t.step(2, &batch_for(2));
    let (d1, idx, d1_id) = checkpoint_delta_to_vec(&t, &cfg, 3, &idx, base_id);
    t.step(3, &[]);
    let (d2, _, _) = checkpoint_delta_to_vec(&t, &cfg, 4, &idx, d1_id);
    vec![d2, d1, base]
}

/// Restores a (possibly damaged) chain as `T`, discarding the tracker.
type Restore = fn(&[Vec<u8>]) -> Result<(), PersistError>;

fn restore<T: Persist>(links: &[Vec<u8>]) -> Result<(), PersistError> {
    let refs: Vec<&[u8]> = links.iter().map(Vec::as_slice).collect();
    restore_from_chain::<T>(&refs, &cfg()).map(|_| ())
}

/// SIEVEADN, BasicReduction and HistApprox chains, each with its restore.
fn chains() -> Vec<(&'static str, Vec<Vec<u8>>, Restore)> {
    vec![
        (
            "sieve",
            chain_of(SieveAdnTracker::new(&cfg())),
            restore::<SieveAdnTracker>,
        ),
        (
            "basic",
            chain_of(BasicReduction::new(&cfg())),
            restore::<BasicReduction>,
        ),
        (
            "hist",
            chain_of(HistApprox::new(&cfg())),
            restore::<HistApprox>,
        ),
    ]
}

#[test]
fn pristine_chain_restores() {
    // Control: the undamaged chains must restore, and their deltas must
    // actually ref their parents, or every assertion below is vacuous.
    for (label, links, restore) in chains() {
        assert!(restore(&links).is_ok(), "{label}");
        let m = tdn_persist::peek_manifest(&links[0]).unwrap();
        let payload = &links[0][PAYLOAD_OFFSET..PAYLOAD_OFFSET + m.payload_len as usize];
        let toc = codec::SectionReader::parse(payload).unwrap().toc().clone();
        assert!(
            toc.entries().iter().any(|e| e.is_ref),
            "{label}: the tip delta refs nothing"
        );
    }
}

#[test]
fn every_single_link_truncation_is_a_typed_error() {
    for (label, links, restore) in chains() {
        for li in 0..links.len() {
            for cut in 0..links[li].len() {
                let mut damaged = links.clone();
                damaged[li] = damaged[li][..cut].to_vec();
                assert!(
                    restore(&damaged).is_err(),
                    "{label}: link {li} truncated to {cut}/{} bytes restored",
                    links[li].len()
                );
            }
        }
    }
}

#[test]
fn every_single_byte_flip_is_a_typed_error() {
    // Exhaustive over every byte of every link: the envelope checksum
    // covers header + payload, so no flipped byte may survive.
    for (label, links, restore) in chains() {
        for li in 0..links.len() {
            for at in 0..links[li].len() {
                let mut damaged = links.clone();
                damaged[li][at] ^= 0xA7;
                assert!(
                    restore(&damaged).is_err(),
                    "{label}: flip at link {li} byte {at} restored"
                );
            }
        }
    }
}

#[test]
fn random_multi_site_damage_never_panics() {
    // 600 seeded cases per chain, each flipping 2–9 bytes and possibly
    // truncating one link — the combinations single-site sweeps cannot
    // reach.
    for (label, links, restore) in chains() {
        random_damage(label, &links, restore);
    }
}

fn random_damage(label: &str, links: &[Vec<u8>], restore: Restore) {
    let mut rng = Rng(0x00DE_FACE_D05E_ED01);
    for case in 0..600u32 {
        let mut damaged = links.to_vec();
        let flips = 2 + rng.below(8);
        for _ in 0..flips {
            let li = rng.below(damaged.len());
            if damaged[li].is_empty() {
                continue;
            }
            let at = rng.below(damaged[li].len());
            damaged[li][at] ^= (1 << rng.below(8)) as u8;
        }
        if rng.below(4) == 0 {
            let li = rng.below(damaged.len());
            let cut = rng.below(damaged[li].len() + 1);
            damaged[li].truncate(cut);
        }
        // Damaged chains must error; the astronomically unlikely case
        // where the flips cancel out would restore — treat an Ok as
        // suspicious and verify it is byte-identical to the original.
        if restore(&damaged).is_ok() {
            assert_eq!(
                damaged, links,
                "{label} case {case}: damaged chain restored"
            );
        }
    }
}

#[test]
fn shuffled_spliced_and_foreign_chains_error() {
    let all = chains();
    for (i, (label, links, restore)) in all.iter().enumerate() {
        let (d2, d1, base) = (&links[0], &links[1], &links[2]);
        let chain =
            |links: &[&Vec<u8>]| restore(&links.iter().map(|l| l.to_vec()).collect::<Vec<_>>());

        // Reversed order: base first is not a valid tip-first chain.
        assert!(chain(&[base, d1, d2]).is_err(), "{label}");
        // Duplicated link: a cycle, not an infinite loop.
        assert!(chain(&[d2, d1, d1, base]).is_err(), "{label}");
        // Missing middle link breaks parent linkage.
        assert!(chain(&[d2, base]).is_err(), "{label}");
        // Empty chain and empty links.
        assert!(chain(&[]).is_err(), "{label}");
        assert!(chain(&[&Vec::new()]).is_err(), "{label}");
        assert!(chain(&[d2, &Vec::new(), base]).is_err(), "{label}");

        // Splicing a *different tracker's* base under our deltas must fail
        // the kind check, not decode garbage.
        let (_, other, _) = &all[(i + 1) % all.len()];
        assert!(chain(&[d2, d1, &other[2]]).is_err(), "{label}");
        // And a wholly foreign blob anywhere in the chain.
        let foreign = b"GIF89a definitely not a checkpoint".to_vec();
        assert!(chain(&[&foreign, d1, base]).is_err(), "{label}");
        assert!(chain(&[d2, &foreign, base]).is_err(), "{label}");
    }
}

#[test]
fn single_file_restore_survives_random_damage_for_every_tracker() {
    // The same sweep through `restore_from_slice` for each persisted
    // tracker family, so every tracker's `read_sections` decoder gets
    // corrupt bytes too. Every damaged prefix is strictly shorter than the
    // original, so restore can never legitimately succeed — any `Ok` (or
    // panic) is a failure.
    fn sweep<T: Persist>(bytes: &[u8], cfg: &TrackerConfig, rng: &mut Rng, label: &str) {
        for cut in 0..bytes.len() {
            let mut damaged = bytes[..cut].to_vec();
            if !damaged.is_empty() {
                let at = rng.below(damaged.len());
                damaged[at] ^= 0x3C;
            }
            assert!(
                restore_from_slice::<T>(&damaged, cfg).is_err(),
                "{label}: damaged prefix {cut}/{} restored",
                bytes.len()
            );
        }
    }

    let cfg = TrackerConfig::new(2, 0.15, 20);
    let mut rng = Rng(0xBAD5_EED5_0F0F_0F0F);
    let mut s = SieveAdnTracker::new(&cfg);
    s.step(0, &batch_for(0));
    sweep::<SieveAdnTracker>(
        &checkpoint_base_to_vec(&s, &cfg, 1).0,
        &cfg,
        &mut rng,
        "sieve",
    );
    let mut b = BasicReduction::new(&cfg);
    b.step(0, &batch_for(0));
    sweep::<BasicReduction>(
        &checkpoint_base_to_vec(&b, &cfg, 1).0,
        &cfg,
        &mut rng,
        "basic",
    );
    let mut h = HistApprox::new(&cfg);
    h.step(0, &batch_for(0));
    sweep::<HistApprox>(
        &checkpoint_base_to_vec(&h, &cfg, 1).0,
        &cfg,
        &mut rng,
        "hist",
    );
}
