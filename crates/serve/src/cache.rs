//! A sharded LRU cache of per-site state, with generation counters.
//!
//! The daemon keys learned site state (interner + template + page
//! indexes) by site name. The cache is sharded to keep lock hold times
//! short under concurrent requests; within a shard, eviction is strict
//! LRU driven by a monotonic use tick (every access gets a unique tick,
//! so eviction order is fully deterministic — the property test checks
//! it against a naive map-plus-timestamps oracle).
//!
//! **Generations.** Every site name has a monotonic generation counter
//! that survives eviction: it is bumped by every [`SiteCache::insert`]
//! (the state was (re)built) and every successful
//! [`SiteCache::invalidate`] (the state was explicitly discarded).
//! Capacity eviction does *not* bump it — nothing about the site
//! changed, the cache just forgot it. Responses echo the generation so
//! clients can tell a warm hit on fresh state from one on stale state.

use std::collections::HashMap;
use std::sync::Mutex;

/// A stable 64-bit hash of page bytes — the cache fingerprint of list
/// and detail pages and the shard selector for site names. Stable across
/// runs and platforms (unlike `std`'s `RandomState`), which keeps cache
/// behaviour reproducible.
///
/// It reads one little-endian 8-byte word per step (the last, partial
/// word zero-padded) into a state seeded with the length. Each step
/// (`mix_word`) is a bijection of the state for a fixed word and of the
/// word for a fixed state, so two inputs of one length that differ in a
/// single word always hash apart. The finalizer is a bijection too and
/// folds the high bits into the low ones, which [`SiteCache::shard_of`]
/// takes modulo the shard count.
pub fn fingerprint(bytes: &[u8]) -> u64 {
    let mut h = SEED ^ bytes.len() as u64;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        h = mix_word(
            h,
            u64::from_le_bytes(word.try_into().expect("8-byte chunk")),
        );
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        h = mix_word(h, u64::from_le_bytes(last));
    }
    finish(h)
}

/// The state a [`fingerprint`] starts from, before the length is folded in.
const SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// One fingerprint step: xor, an odd multiply and a rotation, each a
/// bijection. The rotation carries the product's well-mixed high bits
/// down, so the next multiply spreads them again.
pub(crate) fn mix_word(h: u64, word: u64) -> u64 {
    (h ^ word)
        .wrapping_mul(0xff51_afd7_ed55_8ccd)
        .rotate_left(29)
}

/// The fingerprint finalizer (MurmurHash3's `fmix64`): every output bit
/// depends on every state bit.
pub(crate) fn finish(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

struct Entry<V> {
    value: V,
    last_used: u64,
}

struct Shard<V> {
    entries: HashMap<String, Entry<V>>,
    /// Generation per site name; persists across eviction.
    generations: HashMap<String, u64>,
    /// Monotonic use counter: every get/insert draws a unique tick.
    tick: u64,
    capacity: usize,
}

impl<V> Shard<V> {
    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    fn evict_over_capacity(&mut self) {
        while self.entries.len() > self.capacity {
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
                .expect("non-empty over-capacity shard");
            self.entries.remove(&victim);
        }
    }
}

/// Point-in-time cache occupancy, summed over shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Entries currently resident.
    pub entries: usize,
    /// Total capacity across shards.
    pub capacity: usize,
}

/// The sharded LRU cache. `V` is cheap to clone (the daemon stores
/// `Arc`ed site state).
pub struct SiteCache<V> {
    shards: Vec<Mutex<Shard<V>>>,
}

impl<V: Clone> SiteCache<V> {
    /// Creates a cache holding at most `capacity` entries spread over
    /// `shards` shards (each shard gets an equal split, minimum one).
    pub fn new(capacity: usize, shards: usize) -> SiteCache<V> {
        let shards = shards.max(1);
        let per_shard = (capacity / shards).max(1);
        SiteCache {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        entries: HashMap::new(),
                        generations: HashMap::new(),
                        tick: 0,
                        capacity: per_shard,
                    })
                })
                .collect(),
        }
    }

    /// The shard a key maps to. Exposed so tests can model per-shard
    /// LRU behaviour exactly.
    pub fn shard_of(&self, key: &str) -> usize {
        (fingerprint(key.as_bytes()) % self.shards.len() as u64) as usize
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Looks up `key`, marking it most-recently-used on a hit. Returns
    /// the value and the key's current generation.
    pub fn get(&self, key: &str) -> Option<(V, u64)> {
        let mut shard = self.shards[self.shard_of(key)].lock().unwrap();
        let tick = shard.next_tick();
        let generation = shard.generations.get(key).copied().unwrap_or(0);
        let entry = shard.entries.get_mut(key)?;
        entry.last_used = tick;
        Some((entry.value.clone(), generation))
    }

    /// Inserts (or replaces) `key`, bumping its generation and evicting
    /// the shard's least-recently-used entries if over capacity.
    /// Returns the new generation.
    pub fn insert(&self, key: &str, value: V) -> u64 {
        let mut shard = self.shards[self.shard_of(key)].lock().unwrap();
        let tick = shard.next_tick();
        let generation = shard.generations.entry(key.to_string()).or_insert(0);
        *generation += 1;
        let generation = *generation;
        shard.entries.insert(
            key.to_string(),
            Entry {
                value,
                last_used: tick,
            },
        );
        shard.evict_over_capacity();
        generation
    }

    /// Drops `key` and bumps its generation. Returns the new generation
    /// when the key was resident, `None` when there was nothing to
    /// invalidate (the generation is *not* bumped then — invalidating
    /// an absent site is a no-op, not an event).
    pub fn invalidate(&self, key: &str) -> Option<u64> {
        let mut shard = self.shards[self.shard_of(key)].lock().unwrap();
        shard.entries.remove(key)?;
        let generation = shard
            .generations
            .get_mut(key)
            .expect("resident entry always has a generation");
        *generation += 1;
        Some(*generation)
    }

    /// The key's current generation (0 if never inserted).
    pub fn generation(&self, key: &str) -> u64 {
        let shard = self.shards[self.shard_of(key)].lock().unwrap();
        shard.generations.get(key).copied().unwrap_or(0)
    }

    /// Occupancy across all shards.
    pub fn stats(&self) -> CacheStats {
        let mut entries = 0;
        let mut capacity = 0;
        for shard in &self.shards {
            let shard = shard.lock().unwrap();
            entries += shard.entries.len();
            capacity += shard.capacity;
        }
        CacheStats { entries, capacity }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache: SiteCache<u32> = SiteCache::new(2, 1);
        cache.insert("a", 1);
        cache.insert("b", 2);
        // Touch "a" so "b" becomes the LRU victim.
        assert_eq!(cache.get("a"), Some((1, 1)));
        cache.insert("c", 3);
        assert!(cache.get("b").is_none(), "b should have been evicted");
        assert!(cache.get("a").is_some());
        assert!(cache.get("c").is_some());
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn generations_bump_on_insert_and_invalidate_only() {
        let cache: SiteCache<u32> = SiteCache::new(1, 1);
        assert_eq!(cache.generation("a"), 0);
        assert_eq!(cache.insert("a", 1), 1);
        assert_eq!(cache.insert("a", 2), 2);
        assert_eq!(cache.invalidate("a"), Some(3));
        assert_eq!(cache.invalidate("a"), None, "already gone");
        assert_eq!(cache.generation("a"), 3);
        // Capacity eviction does not bump the victim's generation.
        cache.insert("a", 1);
        cache.insert("b", 2); // evicts "a" (capacity 1)
        assert!(cache.get("a").is_none());
        assert_eq!(cache.generation("a"), 4);
    }

    #[test]
    fn generation_survives_eviction() {
        let cache: SiteCache<u32> = SiteCache::new(1, 1);
        cache.insert("a", 1);
        cache.insert("b", 2); // evicts "a"
        assert_eq!(
            cache.insert("a", 3),
            2,
            "generation continues after eviction"
        );
    }

    /// Known answers pin the documented stability across runs and
    /// platforms: the empty input, every tail length (1–7), one full
    /// word, a word plus a tail, and one 4 KB page.
    #[test]
    fn fingerprint_known_answers() {
        assert_eq!(fingerprint(b""), 0x9ca0_66f1_a4ab_2eea);
        let expected: [u64; 9] = [
            0x57cf_ded2_c94b_b256,
            0x9903_5fc6_8eaa_a6d7,
            0xb6c9_453e_2f2e_dc75,
            0x4304_222e_cb07_df1e,
            0xb9b7_5a1f_6fa9_e0e8,
            0xab2a_c85a_0c3c_64a8,
            0x8c21_6a04_5c77_8889,
            0x0b05_a35b_b3bc_7b4f,
            0x00c5_9020_9ded_ae9d,
        ];
        for (len, want) in (1..=9).zip(expected) {
            assert_eq!(fingerprint(&b"abcdefghi"[..len]), want, "length {len}");
        }
        let page: Vec<u8> = b"<tr><td>Ada Lovelace</td><td>555-0100</td></tr>\n"
            .iter()
            .copied()
            .cycle()
            .take(4096)
            .collect();
        assert_eq!(fingerprint(&page), 0xcb89_3ab3_2989_ff11);
    }

    /// Zero padding of the last word never aliases a shorter input: the
    /// length seeds the state.
    #[test]
    fn trailing_zero_bytes_change_the_fingerprint() {
        let mut bytes = b"abc".to_vec();
        let mut seen = vec![fingerprint(&bytes)];
        for _ in 0..9 {
            bytes.push(0);
            seen.push(fingerprint(&bytes));
        }
        let mut unique = seen.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seen.len());
    }

    /// `shard_of` takes the fingerprint modulo the shard count, so its
    /// low bits must be mixed: keys that differ only in their last bytes
    /// spread evenly over the shards.
    #[test]
    fn similar_keys_spread_over_the_shards() {
        let cache: SiteCache<u32> = SiteCache::new(64, 8);
        let mut per_shard = [0usize; 8];
        for i in 0..4096 {
            per_shard[cache.shard_of(&format!("site-{i:04}"))] += 1;
        }
        for (shard, &n) in per_shard.iter().enumerate() {
            assert!((410..=614).contains(&n), "shard {shard} holds {n} of 4096");
        }
    }

    #[test]
    fn sharding_is_stable_and_in_range() {
        let cache: SiteCache<u32> = SiteCache::new(16, 4);
        for key in ["alpha", "beta", "gamma", "delta"] {
            let s = cache.shard_of(key);
            assert!(s < cache.shard_count());
            assert_eq!(s, cache.shard_of(key), "shard choice must be stable");
        }
    }
}
