//! A set-associative LRU cache simulator.
//!
//! Models the per-SM texture L1 cache the adaptive simulator leans on: the
//! paper stores the lookup table in texture memory because "the texture
//! memory has the texture (L2) cache, which will speed up the access when
//! the same star data in lookup table has been accessed several times"
//! (§III-C). Each executor worker (one virtual SM) owns one instance, so
//! accesses need no locking.

/// Set-associative cache with true-LRU replacement.
#[derive(Debug, Clone)]
pub struct CacheSim {
    line_bytes: usize,
    /// `log2(line_bytes)` — the line size is asserted to be a power of two,
    /// so address → line is a shift, not a division.
    line_shift: u32,
    sets: usize,
    ways: usize,
    /// `tags[set * ways + way]`: cached line tag, `u64::MAX` = invalid.
    tags: Vec<u64>,
    /// LRU stamps parallel to `tags`.
    stamps: Vec<u64>,
    clock: u64,
    hits: u64,
    misses: u64,
    /// Line of the most recent access (`u64::MAX` = none) and its slot in
    /// `tags`/`stamps`. A repeat access to this line is a guaranteed hit —
    /// nothing can evict between two consecutive accesses of a
    /// single-threaded cache — so the set scan is skipped. The texture
    /// swizzle makes runs of same-line fetches the common case.
    last_line: u64,
    last_slot: usize,
}

impl CacheSim {
    /// A cache of `capacity_bytes` with `line_bytes` lines and `ways`-way
    /// associativity.
    ///
    /// # Panics
    /// Panics when parameters are zero, non-power-of-two line size, or the
    /// geometry doesn't divide evenly.
    pub fn new(capacity_bytes: usize, line_bytes: usize, ways: usize) -> Self {
        assert!(capacity_bytes > 0 && line_bytes > 0 && ways > 0);
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two, got {line_bytes}"
        );
        let lines = capacity_bytes / line_bytes;
        assert!(
            lines >= ways && lines.is_multiple_of(ways),
            "cache of {lines} lines cannot be {ways}-way associative"
        );
        let sets = lines / ways;
        CacheSim {
            line_bytes,
            line_shift: line_bytes.trailing_zeros(),
            sets,
            ways,
            tags: vec![u64::MAX; lines],
            stamps: vec![0; lines],
            clock: 0,
            hits: 0,
            misses: 0,
            last_line: u64::MAX,
            last_slot: 0,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> usize {
        self.line_bytes
    }

    /// Performs one access at byte address `addr`; returns `true` on hit.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        self.clock += 1;
        let line = addr >> self.line_shift;
        // MRU shortcut: the last-touched line is resident by construction
        // (its slot was filled or refreshed on the previous access and the
        // cache is single-threaded), and refreshing its stamp with the new
        // clock is exactly what the full scan would do — same stamps, same
        // statistics, same future evictions.
        if line == self.last_line {
            self.stamps[self.last_slot] = self.clock;
            self.hits += 1;
            return true;
        }
        let (slot, hit) = self.lookup_or_fill(line);
        self.stamps[slot] = self.clock;
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        self.last_line = line;
        self.last_slot = slot;
        hit
    }

    /// Replays an access sequence summarized by `fp`, whose relative lines
    /// start at absolute line `base_line`, in one step per distinct line.
    /// Returns the sequence's hit count, or `None` — leaving the cache
    /// untouched — when the footprint cannot be replayed exactly: it was
    /// built for another line size, or it spans more distinct lines than
    /// the cache has ways.
    ///
    /// Exactness: under true LRU, a line the sequence has touched carries
    /// a newer stamp than every line it has not, so while at most `ways`
    /// distinct lines are in play a miss always evicts an untouched way
    /// and touched lines stay resident. Every access after a line's first
    /// is therefore a hit, and the misses, victims and tags are those of
    /// the first accesses alone, in first-access order. Stamping each line
    /// with the clock of its *last* access and advancing the clock by the
    /// access count leaves tags, stamps, clock, statistics and the MRU
    /// slot exactly as [`Self::access`] would, access by access.
    pub fn replay(&mut self, fp: &CacheFootprint, base_line: u64) -> Option<u64> {
        if fp.line_bytes != self.line_bytes || fp.lines.len() > self.ways {
            return None;
        }
        let start = self.clock;
        let mut misses = 0u64;
        for (k, l) in fp.lines.iter().enumerate() {
            let line = base_line + l.line;
            let (slot, hit) = self.lookup_or_fill(line);
            misses += u64::from(!hit);
            self.stamps[slot] = start + l.last + 1;
            if k == fp.last {
                self.last_line = line;
                self.last_slot = slot;
            }
        }
        let hits = fp.accesses - misses;
        self.clock = start + fp.accesses;
        self.hits += hits;
        self.misses += misses;
        Some(hits)
    }

    /// The slot holding `line` and `true`, or — on a miss — the slot of
    /// the set's LRU way, refilled with `line`, and `false`. The caller
    /// stamps the slot.
    #[inline]
    fn lookup_or_fill(&mut self, line: u64) -> (usize, bool) {
        let set = (line % self.sets as u64) as usize;
        let base = set * self.ways;
        let slots = &self.tags[base..base + self.ways];
        if let Some(way) = slots.iter().position(|&t| t == line) {
            return (base + way, true);
        }
        // Miss: evict the LRU way of this set.
        let lru = (0..self.ways)
            .min_by_key(|&w| self.stamps[base + w])
            .expect("ways > 0");
        self.tags[base + lru] = line;
        (base + lru, false)
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Invalidates all contents, keeping statistics.
    pub fn flush(&mut self) {
        self.tags.fill(u64::MAX);
        self.stamps.fill(0);
        self.last_line = u64::MAX;
        self.last_slot = 0;
    }

    /// Resets both contents and statistics.
    pub fn reset(&mut self) {
        self.flush();
        self.hits = 0;
        self.misses = 0;
        self.clock = 0;
    }
}

/// The cache-line footprint of a fixed access sequence, in lines relative
/// to a line-aligned base address: the distinct lines in first-access
/// order, each with the indices of its first and last access.
/// A sequence that recurs at line-aligned bases — a texture layer fetched
/// whole, in a fixed order — is summarized once and applied with
/// [`CacheSim::replay`] instead of access by access.
#[derive(Debug, Clone)]
pub struct CacheFootprint {
    line_bytes: usize,
    lines: Vec<FootprintLine>,
    accesses: u64,
    /// Index into `lines` of the line the sequence touches last.
    last: usize,
}

/// One distinct line of a [`CacheFootprint`].
#[derive(Debug, Clone, Copy)]
pub struct FootprintLine {
    /// Line index relative to the sequence's base line.
    pub line: u64,
    /// Index of the first access to this line.
    pub first: u64,
    /// Index of the last access to this line.
    pub last: u64,
}

impl CacheFootprint {
    /// Summarizes the accesses at byte `offsets` (relative to a
    /// line-aligned base) for a cache with `line_bytes` lines.
    ///
    /// # Panics
    /// Panics when `line_bytes` is not a power of two.
    pub fn of_offsets(line_bytes: usize, offsets: impl IntoIterator<Item = u64>) -> Self {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two, got {line_bytes}"
        );
        let shift = line_bytes.trailing_zeros();
        let mut lines: Vec<FootprintLine> = Vec::new();
        let mut index = std::collections::HashMap::new();
        let (mut accesses, mut last) = (0u64, 0usize);
        for offset in offsets {
            let line = offset >> shift;
            let k = *index.entry(line).or_insert_with(|| {
                lines.push(FootprintLine {
                    line,
                    first: accesses,
                    last: accesses,
                });
                lines.len() - 1
            });
            lines[k].last = accesses;
            last = k;
            accesses += 1;
        }
        CacheFootprint {
            line_bytes,
            lines,
            accesses,
            last,
        }
    }

    /// The distinct lines, in first-access order.
    pub fn lines(&self) -> &[FootprintLine] {
        &self.lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_miss_then_hit() {
        let mut c = CacheSim::new(1024, 64, 2);
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.access(63), "same line");
        assert!(!c.access(64), "next line");
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // 2 sets × 2 ways × 64B = 256B. Addresses 0, 128, 256 share set 0.
        let mut c = CacheSim::new(256, 64, 2);
        assert!(!c.access(0));
        assert!(!c.access(128));
        assert!(c.access(0)); // refresh line 0
        assert!(!c.access(256)); // evicts 128 (LRU)
        assert!(c.access(0), "line 0 must survive");
        assert!(!c.access(128), "line 128 was evicted");
    }

    #[test]
    fn distinct_sets_do_not_interfere() {
        let mut c = CacheSim::new(256, 64, 2);
        assert!(!c.access(0)); // set 0
        assert!(!c.access(64)); // set 1
        assert!(c.access(0));
        assert!(c.access(64));
    }

    #[test]
    fn working_set_within_capacity_fully_hits_on_second_pass() {
        let mut c = CacheSim::new(8192, 128, 8);
        for pass in 0..2 {
            for addr in (0..8192u64).step_by(4) {
                let hit = c.access(addr);
                if pass == 1 {
                    assert!(hit, "second pass over resident set must hit");
                }
            }
        }
    }

    #[test]
    fn working_set_beyond_capacity_thrashes() {
        let mut c = CacheSim::new(1024, 64, 4);
        // Stream 16 KB twice: second pass misses too (LRU streaming).
        for _ in 0..2 {
            for addr in (0..16384u64).step_by(64) {
                c.access(addr);
            }
        }
        assert!(c.misses() > c.hits());
    }

    #[test]
    fn flush_and_reset() {
        let mut c = CacheSim::new(256, 64, 2);
        c.access(0);
        c.access(0);
        c.flush();
        assert!(!c.access(0), "flushed line must miss");
        assert_eq!(c.hits(), 1);
        c.reset();
        assert_eq!(c.hits(), 0);
        assert_eq!(c.misses(), 0);
    }

    #[test]
    fn geometry_accessors() {
        let c = CacheSim::new(12 * 1024, 128, 16);
        assert_eq!(c.sets(), 6);
        assert_eq!(c.line_bytes(), 128);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_line_rejected() {
        let _ = CacheSim::new(1024, 100, 2);
    }

    #[test]
    #[should_panic]
    fn bad_geometry_rejected() {
        let _ = CacheSim::new(64, 64, 2); // 1 line, 2 ways
    }

    /// Everything [`CacheSim::access`] and [`CacheSim::replay`] may change.
    fn state(c: &CacheSim) -> (u64, u64, u64, Vec<u64>, Vec<u64>, u64, usize) {
        (
            c.hits,
            c.misses,
            c.clock,
            c.tags.clone(),
            c.stamps.clone(),
            c.last_line,
            c.last_slot,
        )
    }

    /// A random geometry warmed by random accesses over `0..span` lines.
    fn warmed_cache(rng: &mut simrng::Rng64) -> CacheSim {
        let line = [32usize, 64, 128][rng.range_usize(0, 3)];
        let ways = rng.range_usize(1, 17);
        let sets = rng.range_usize(1, 9);
        let mut c = CacheSim::new(line * ways * sets, line, ways);
        let span = (2 * ways * sets) as u64;
        for _ in 0..rng.range_usize(0, 300) {
            c.access(rng.range_u64(0, span) * line as u64 + rng.range_u64(0, line as u64));
        }
        c
    }

    /// Byte offsets of `n` accesses drawn from `distinct` random lines,
    /// each line touched at least once.
    fn random_offsets(rng: &mut simrng::Rng64, c: &CacheSim, distinct: usize) -> Vec<u64> {
        let span = (2 * c.ways * c.sets) as u64;
        let mut lines: Vec<u64> = Vec::new();
        while lines.len() < distinct {
            let l = rng.range_u64(0, span);
            if !lines.contains(&l) {
                lines.push(l);
            }
        }
        let n = distinct + rng.range_usize(0, 200);
        let line_bytes = c.line_bytes as u64;
        let mut picks: Vec<u64> = (0..n)
            .map(|k| {
                lines[if k < distinct {
                    k
                } else {
                    rng.range_usize(0, distinct)
                }]
            })
            .collect();
        // Shuffle so first accesses are spread through the sequence.
        for i in (1..picks.len()).rev() {
            picks.swap(i, rng.range_usize(0, i + 1));
        }
        picks
            .into_iter()
            .map(|l| l * line_bytes + rng.range_u64(0, line_bytes))
            .collect()
    }

    #[test]
    fn footprint_records_first_and_last_access() {
        let fp = CacheFootprint::of_offsets(64, [0, 70, 10, 200, 64, 5]);
        let got: Vec<_> = fp
            .lines()
            .iter()
            .map(|l| (l.line, l.first, l.last))
            .collect();
        assert_eq!(got, vec![(0, 0, 5), (1, 1, 4), (3, 3, 3)]);
        assert_eq!((fp.accesses, fp.last), (6, 0));
    }

    #[test]
    fn replay_equals_the_per_access_loop() {
        let mut rng = simrng::Rng64::new(0x5EED_CACE);
        for _ in 0..2000 {
            let mut stepped = warmed_cache(&mut rng);
            let mut replayed = stepped.clone();
            let distinct = rng.range_usize(1, stepped.ways + 1);
            let offsets = random_offsets(&mut rng, &stepped, distinct);
            let base_line = rng.range_u64(0, (2 * stepped.ways * stepped.sets) as u64);
            let base = base_line * stepped.line_bytes as u64;

            let mut step_hits = 0;
            for &o in &offsets {
                step_hits += u64::from(stepped.access(base + o));
            }
            let fp = CacheFootprint::of_offsets(stepped.line_bytes, offsets.iter().copied());
            assert_eq!(replayed.replay(&fp, base_line), Some(step_hits));
            assert_eq!(state(&replayed), state(&stepped));

            // The two caches stay in lockstep on a random follow-on tail.
            let span = (3 * stepped.ways * stepped.sets * stepped.line_bytes) as u64;
            for _ in 0..100 {
                let a = rng.range_u64(0, span);
                assert_eq!(replayed.access(a), stepped.access(a));
            }
            assert_eq!(state(&replayed), state(&stepped));
        }
    }

    #[test]
    fn replay_refuses_footprints_wider_than_the_ways() {
        let mut rng = simrng::Rng64::new(0xF007);
        for _ in 0..200 {
            let mut c = warmed_cache(&mut rng);
            let before = state(&c);
            let offsets = random_offsets(&mut rng, &c, c.ways + 1);
            let fp = CacheFootprint::of_offsets(c.line_bytes, offsets);
            assert_eq!(c.replay(&fp, 0), None);
            assert_eq!(
                state(&c),
                before,
                "a refused replay must not touch the cache"
            );
        }
    }

    #[test]
    fn replay_refuses_a_foreign_line_size() {
        let mut c = CacheSim::new(1024, 64, 4);
        let fp = CacheFootprint::of_offsets(128, [0, 4, 8]);
        assert_eq!(c.replay(&fp, 0), None);
        assert_eq!((c.hits(), c.misses()), (0, 0));
    }
}
