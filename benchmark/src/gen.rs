//! Seed-derived input streams. The seed drives only the key and operation
//! streams generated here; the program under test receives the generated
//! calls and nothing else.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Independent stream `stream` of run seed `seed` (one per load thread,
/// connection or role).
pub fn stream(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03) | 1),
    )
}

/// `keys` in the seed's prefill order (inserting in key order would leave
/// every tree leaf half full).
pub fn shuffled(mut keys: Vec<u64>, seed: u64) -> Vec<u64> {
    let mut rng = stream(seed, streams::PREFILL);
    for i in (1..keys.len()).rev() {
        keys.swap(i, rng.gen_range(0..=i));
    }
    keys
}

/// Stream numbers, so no two roles share one.
pub mod streams {
    pub const PREFILL: u64 = 1;
    pub const SCANNER: u64 = 2;
    pub const UPDATER: u64 = 3;
    pub const PHASES: u64 = 4;
    /// Worker / connection `t` of phase `phase`.
    pub const fn worker(phase: u64, t: u64) -> u64 {
        16 + phase * 16 + t
    }
}

/// Zipfian ranks over `0..n` (rank 0 hottest), Gray et al.'s analytical
/// approximation: one `powf` per sample after a one-off `zeta(n)`.
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    pub fn new(n: u64, theta: f64) -> Zipf {
        assert!(n >= 2 && theta > 0.0 && theta < 1.0);
        let zeta = |m: u64| (1..=m).map(|i| (i as f64).powf(-theta)).sum::<f64>();
        let zetan = zeta(n);
        Zipf {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2) / zetan),
        }
    }

    pub fn sample(&self, rng: &mut StdRng) -> u64 {
        let u: f64 = rng.gen();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let v = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        v.min(self.n - 1)
    }
}
