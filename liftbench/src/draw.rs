//! The seeded `twobyte_sweep` draw: which second bytes of `0x0f` a run
//! sweeps. The draw is a pure function of the `--seed` argument; the
//! program only ever sees the drawn bytes.

use pokemu_rt::rng::Rng;

/// Second bytes of `0x0f` that every draw keeps: the group opcodes whose
/// ModRM reg field selects among several instructions (grp6 `00`, grp7
/// `01`, grp8 `ba`). Each spans 8 to 14 instruction classes and carries a
/// large share of the lifting losses, so a coin flip on them would swing
/// the workload's composition from seed to seed.
pub const GROUP_BYTES: [u8; 3] = [0x00, 0x01, 0xba];

/// Draws about half the second bytes of `0x0f`, in ascending order: every
/// [`GROUP_BYTES`] entry, plus one byte of each other pair `(2k, 2k+1)`
/// chosen by `seed`. Neighbouring opcodes mostly share a form (the `cmovcc`,
/// `jcc` and `setcc` rows), so drawing within pairs keeps each row's share
/// of the workload the same for every seed.
pub fn twobyte_draw(seed: u64) -> Vec<u8> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(130);
    for pair in 0..=127u8 {
        let (lo, hi) = (2 * pair, 2 * pair + 1);
        // Draw for every pair, kept or not, so one pair's policy never
        // shifts the coins of the pairs after it.
        let take_hi = rng.next_u64() >> 63 == 1;
        let grouped: Vec<u8> = [lo, hi]
            .into_iter()
            .filter(|b| GROUP_BYTES.contains(b))
            .collect();
        if grouped.is_empty() {
            out.push(if take_hi { hi } else { lo });
        } else {
            out.extend(grouped);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draw_is_stable_for_one_seed_and_differs_for_another() {
        let a = twobyte_draw(1);
        assert_eq!(a, twobyte_draw(1));
        assert_ne!(a, twobyte_draw(2));
        assert_eq!(a.len(), 129, "one byte per pair, both of 00/01");
        assert!(a.windows(2).all(|w| w[0] < w[1]), "ascending, no repeats");
        for seed in [1, 2, 7, 1 << 40] {
            let d = twobyte_draw(seed);
            assert!(GROUP_BYTES.iter().all(|g| d.contains(g)));
            assert!(!d.contains(&0xbb), "ba's pair partner is never drawn");
        }
    }
}
