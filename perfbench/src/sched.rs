//! The serve_churn load schedule: an open loop with a fixed, seeded plan.
//!
//! Site `s` belongs to sender `s % SENDERS` at every seed, so one site's
//! requests reach the daemon strictly in schedule order. Each sender has
//! its own timeline: its sites take its slots round robin in a seeded
//! order, and the gap to its next slot is uniform in
//! `[0.5, 1.5] * SENDERS / rate`. After a cold or update slot the gap
//! grows by a fixed `hold`, so that a sender, which waits for each reply,
//! is not still blocked by that slow request when its next one falls due.
//!
//! Each site walks the same cycle of classes: `cold` (invalidate, then
//! revision A), a seeded run of `warm` requests, `update` (revision B), a
//! second run of `warm` that makes the pair up to 32, then `cold` again. Each site enters its cycle at
//! a seeded position; [`Plan::primed_with_b`] says which sites must hold
//! revision B in the cache when the run starts.

/// Sender threads driving the open loop.
pub const SENDERS: usize = 2;

/// Inclusive bounds of the first warm run of a cycle. The second run
/// makes the pair up to [`WARM_PAIR`], so every cycle is 34 requests long
/// and each site's class mix is the same at every seed.
pub const WARM_RUN: (u64, u64) = (8, 24);

/// Warm requests per cycle (two runs of mean 16).
pub const WARM_PAIR: u64 = 32;

/// A seeded SplitMix64 stream: small, fast and stable across platforms.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream seeded from `seed` and a stream label, so one benchmark
    /// seed yields independent streams per use.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// A request class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// Invalidate, then send revision A: a full site build.
    Cold,
    /// Resend the cached revision: no pipeline stage runs.
    Warm,
    /// Send revision B over cached revision A: refresh or rebuild.
    Update,
}

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slot {
    /// Due time, seconds after the start of the run.
    pub due: f64,
    /// Site index.
    pub site: usize,
    /// Request class.
    pub class: Class,
    /// `true` when the request carries revision B.
    pub rev_b: bool,
    /// The sender thread that sends it.
    pub sender: usize,
}

/// A seeded run plan: the slots in due order, plus the cache state each
/// site must be primed to.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Every request of the run, in due order.
    pub slots: Vec<Slot>,
    /// `primed_with_b[s]`: site `s` enters the run in its revision-B warm
    /// run, so the cache must hold revision B.
    pub primed_with_b: Vec<bool>,
}

impl Plan {
    /// The slots due in `[from, to)`, re-timed to start at 0, and the
    /// revision each site must hold when they begin.
    pub fn window(&self, from: f64, to: f64) -> Plan {
        let mut primed_with_b = self.primed_with_b.clone();
        for s in self.slots.iter().take_while(|s| s.due < from) {
            primed_with_b[s.site] = s.rev_b;
        }
        let slots = self
            .slots
            .iter()
            .filter(|s| s.due >= from && s.due < to)
            .map(|s| Slot {
                due: s.due - from,
                ..*s
            })
            .collect();
        Plan {
            slots,
            primed_with_b,
        }
    }
}

/// One site's endless class sequence.
struct Cycle {
    rng: Rng,
    /// Position: 0 cold, 1 warm A, 2 update, 3 warm B.
    phase: u8,
    /// Warm requests left in the current warm run.
    left: u64,
    /// Length of the cycle's first warm run.
    first: u64,
}

impl Cycle {
    fn new(rng: Rng) -> Cycle {
        Cycle {
            rng,
            phase: 0,
            left: 0,
            first: 0,
        }
    }

    /// The next `(class, revision B?)` of the site.
    fn next(&mut self) -> (Class, bool) {
        loop {
            match self.phase {
                0 => {
                    self.phase = 1;
                    self.first = self.rng.range(WARM_RUN.0, WARM_RUN.1);
                    self.left = self.first;
                    return (Class::Cold, false);
                }
                2 => {
                    self.phase = 3;
                    self.left = WARM_PAIR - self.first;
                    return (Class::Update, true);
                }
                p if self.left > 0 => {
                    self.left -= 1;
                    return (Class::Warm, p == 3);
                }
                p => self.phase = (p + 1) % 4,
            }
        }
    }
}

/// Builds the plan for `sites` sites over `seconds`: between warm slots
/// the senders together offer `rate` requests per second, and after each
/// cold or update slot its sender waits `hold` seconds more. Pure in its
/// arguments.
///
/// # Panics
///
/// Panics if `sites` is not a positive multiple of [`SENDERS`].
pub fn plan(seed: u64, sites: usize, rate: f64, hold: f64, seconds: f64) -> Plan {
    assert!(
        sites > 0 && sites.is_multiple_of(SENDERS),
        "sites must be a multiple of the sender count"
    );
    // Each sender's sites in a seeded round-robin order. The sites that
    // share a sender, and so could wait behind each other's slow requests,
    // are the same at every seed.
    let mut order_rng = Rng::new(seed, 1);
    let mut lanes: Vec<Vec<usize>> = (0..SENDERS)
        .map(|lane| (lane..sites).step_by(SENDERS).collect())
        .collect();
    for lane in &mut lanes {
        for i in (1..lane.len()).rev() {
            lane.swap(i, order_rng.range(0, i as u64) as usize);
        }
    }
    let mut cycles: Vec<Cycle> = (0..sites)
        .map(|s| Cycle::new(Rng::new(seed, 100 + s as u64)))
        .collect();
    // Enter each cycle at a seeded position within its first lap, and note
    // which revision the cache must hold for the first scheduled request.
    let mut primed_with_b = vec![false; sites];
    let mut skip_rng = Rng::new(seed, 2);
    for (s, cycle) in cycles.iter_mut().enumerate() {
        let skip = skip_rng.range(0, 2 * WARM_RUN.0 + 1);
        for _ in 0..skip {
            let (_, rev_b) = cycle.next();
            primed_with_b[s] = rev_b;
        }
    }
    let mean_gap = SENDERS as f64 / rate;
    let mut slots = Vec::new();
    for (sender, lane) in lanes.iter().enumerate() {
        let mut gap_rng = Rng::new(seed, 3 + sender as u64);
        // The senders start half a mean gap apart.
        let mut due = sender as f64 / rate;
        for &site in lane.iter().cycle() {
            if due >= seconds {
                break;
            }
            let (class, rev_b) = cycles[site].next();
            slots.push(Slot {
                due,
                site,
                class,
                rev_b,
                sender,
            });
            due += (0.5 + gap_rng.unit()) * mean_gap;
            if class != Class::Warm {
                due += hold;
            }
        }
    }
    slots.sort_by(|a, b| a.due.total_cmp(&b.due));
    Plan {
        slots,
        primed_with_b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_pure_in_the_seed() {
        let a = plan(7, 12, 300.0, 0.05, 5.0);
        assert_eq!(a, plan(7, 12, 300.0, 0.05, 5.0));
        let b = plan(8, 12, 300.0, 0.05, 5.0);
        assert_ne!(a.slots, b.slots);
        let classes = |p: &Plan| p.slots.iter().map(|s| s.class).collect::<Vec<_>>();
        assert_ne!(
            classes(&a),
            classes(&b),
            "class sequences differ across seeds"
        );
        let dues = |p: &Plan| p.slots.iter().map(|s| s.due).collect::<Vec<_>>();
        assert_ne!(dues(&a), dues(&b), "schedules differ across seeds");
    }

    #[test]
    fn offered_rate_and_sender_binding() {
        // Without a hold, the mean gap is 1 / rate.
        let p = plan(3, 12, 400.0, 0.0, 10.0);
        assert!((3900..=4100).contains(&p.slots.len()), "{}", p.slots.len());
        let last = p.slots.last().expect("non-empty plan").due;
        assert!(last < 10.0 && last > 9.9, "{last}");
        for w in p.slots.windows(2) {
            assert!(w[1].due >= w[0].due);
        }
        // One sender per site, the same at every seed: a site's requests
        // stay in order.
        for seed in [3, 4] {
            let p = plan(seed, 12, 400.0, 0.05, 2.0);
            for x in &p.slots {
                assert_eq!(x.sender, x.site % SENDERS, "seed {seed}");
            }
        }
    }

    #[test]
    fn a_hold_follows_every_slow_slot() {
        let (rate, hold, seconds) = (200.0, 0.06, 30.0);
        let p = plan(9, 12, rate, hold, seconds);
        let min_gap = 0.5 * SENDERS as f64 / rate;
        for sender in 0..SENDERS {
            let mine: Vec<&Slot> = p.slots.iter().filter(|s| s.sender == sender).collect();
            for w in mine.windows(2) {
                let gap = w[1].due - w[0].due;
                let want = if w[0].class == Class::Warm {
                    min_gap
                } else {
                    min_gap + hold
                };
                assert!(gap >= want - 1e-12, "{:?} then {gap}", w[0].class);
            }
        }
        // Two slow slots in every 34, so a sender's mean slot takes
        // `SENDERS / rate + hold * 2 / 34`.
        let expect = seconds * SENDERS as f64 / (SENDERS as f64 / rate + hold * 2.0 / 34.0);
        let n = p.slots.len() as f64;
        assert!(
            (n / expect - 1.0).abs() < 0.03,
            "{n} slots, {expect} expected"
        );
    }

    #[test]
    fn mix_proportions_follow_the_cycle() {
        let p = plan(11, 12, 1000.0, 0.0, 60.0);
        let n = p.slots.len() as f64;
        let share = |c: Class| p.slots.iter().filter(|s| s.class == c).count() as f64 / n;
        // One cold and one update per 32 warm requests: 1/34 each, and the
        // same for every site at any seed (up to the entry offset).
        let expect = 1.0 / 34.0;
        assert!(
            (share(Class::Cold) - expect).abs() < 0.001,
            "{}",
            share(Class::Cold)
        );
        assert!((share(Class::Update) - expect).abs() < 0.001);
        assert!((share(Class::Warm) - 32.0 / 34.0).abs() < 0.002);
        for seed in [1, 2, 3] {
            let p = plan(seed, 12, 300.0, 0.05, 30.0);
            let colds: Vec<usize> = (0..12)
                .map(|s| {
                    p.slots
                        .iter()
                        .filter(|x| x.site == s && x.class == Class::Cold)
                        .count()
                })
                .collect();
            let (lo, hi) = (colds.iter().min(), colds.iter().max());
            let (lo, hi) = (*lo.expect("12 sites"), *hi.expect("12 sites"));
            assert!(lo >= 10 && hi - lo <= 2, "seed {seed}: {colds:?}");
        }
    }

    fn assert_revisions_follow_the_class_order(p: &Plan) {
        for s in 0..p.primed_with_b.len() {
            let mut rev_b = p.primed_with_b[s];
            for slot in p.slots.iter().filter(|x| x.site == s) {
                match slot.class {
                    Class::Cold => assert!(!slot.rev_b),
                    Class::Update => assert!(!rev_b && slot.rev_b, "update follows revision A"),
                    Class::Warm => {
                        assert_eq!(slot.rev_b, rev_b, "warm resends the cached revision")
                    }
                }
                rev_b = slot.rev_b;
            }
        }
    }

    #[test]
    fn revisions_follow_the_class_order() {
        assert_revisions_follow_the_class_order(&plan(5, 12, 500.0, 0.05, 20.0));
    }

    #[test]
    fn windows_split_a_plan_and_carry_its_cache_state() {
        let p = plan(6, 12, 200.0, 0.06, 20.0);
        let windows: Vec<Plan> = (0..5)
            .map(|r| p.window(r as f64 * 4.0, (r + 1) as f64 * 4.0))
            .collect();
        let joined: Vec<Slot> = windows
            .iter()
            .enumerate()
            .flat_map(|(r, w)| {
                w.slots.iter().map(move |s| Slot {
                    due: s.due + r as f64 * 4.0,
                    ..*s
                })
            })
            .collect();
        assert_eq!(joined.len(), p.slots.len());
        for (a, b) in joined.iter().zip(&p.slots) {
            assert_eq!(
                (a.site, a.class, a.rev_b, a.sender),
                (b.site, b.class, b.rev_b, b.sender)
            );
            assert!((a.due - b.due).abs() < 1e-9);
        }
        for w in &windows {
            assert!(w.slots.iter().all(|s| (0.0..4.0).contains(&s.due)));
            assert_revisions_follow_the_class_order(w);
        }
    }
}
