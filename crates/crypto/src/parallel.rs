//! Scoped-thread helpers for chunked bulk encryption.
//!
//! The paper's data plane (bitstream encryption, the accelerator memory
//! shim, GCM over wire streams) moves megabytes per operation. CTR-mode
//! keystreams are position-addressable, so disjoint ranges of one
//! message can be processed on independent threads with no coordination
//! beyond the final join. These helpers centralise the chunking policy;
//! the build environment is offline, so everything is plain
//! [`std::thread::scope`] — no thread-pool dependency.

/// Minimum bytes a worker thread must have before forking is worth the
/// spawn cost. Set from `bench_crypto`'s `parallel_crossover` with the
/// AES-NI/SHA-NI kernels on a 2-vCPU x86-64 host whose second vCPU was
/// idle: a scoped spawn+join cost 35–47 µs, about 100 KiB of AES-CTR or
/// 15 KiB of Merkle hashing. Two workers beat inline hashing from about
/// 256 KiB each; CTR is so fast that two workers only broke even at
/// about 512 KiB each. When other tenants keep the second vCPU busy the
/// crossover moves up, as the committed `BENCH_crypto.json` shows.
pub const MIN_BYTES_PER_THREAD: usize = 256 * 1024;

/// Number of worker threads to use for `len` bytes of bulk crypto:
/// `1` (run inline) unless every worker would get at least
/// [`MIN_BYTES_PER_THREAD`], capped by available hardware parallelism.
#[must_use]
pub fn worker_count(len: usize) -> usize {
    if len < 2 * MIN_BYTES_PER_THREAD {
        return 1;
    }
    let hw = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    hw.clamp(1, len / MIN_BYTES_PER_THREAD)
}

/// Splits `len` bytes into per-worker chunk sizes that are multiples of
/// `align` (except possibly the last), returning the chunk byte size.
/// With the returned size, `data.chunks_mut(size)` yields at most
/// `workers` chunks.
#[must_use]
pub fn chunk_size(len: usize, workers: usize, align: usize) -> usize {
    debug_assert!(workers >= 1 && align >= 1);
    let units = len.div_ceil(align);
    let units_per_worker = units.div_ceil(workers).max(1);
    units_per_worker * align
}

/// Splits `0..n` items into at most `workers` contiguous, non-empty
/// ranges of near-equal length (earlier ranges take the remainder).
/// Used to stripe Merkle leaf updates across scoped worker threads.
#[must_use]
pub fn split_ranges(n: usize, workers: usize) -> Vec<std::ops::Range<usize>> {
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, n);
    let base = n / workers;
    let extra = n % workers;
    let mut ranges = Vec::with_capacity(workers);
    let mut start = 0;
    for w in 0..workers {
        let len = base + usize::from(w < extra);
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_ranges_cover_exactly_without_gaps() {
        for n in [0usize, 1, 2, 7, 16, 1000, 4097] {
            for workers in [1usize, 2, 3, 8, 64] {
                let ranges = split_ranges(n, workers);
                assert!(ranges.len() <= workers);
                let mut cursor = 0;
                for r in &ranges {
                    assert_eq!(r.start, cursor, "n={n} workers={workers}");
                    assert!(!r.is_empty());
                    cursor = r.end;
                }
                assert_eq!(cursor, n);
                if n > 0 {
                    let min = ranges.iter().map(|r| r.end - r.start).min().unwrap();
                    let max = ranges.iter().map(|r| r.end - r.start).max().unwrap();
                    assert!(max - min <= 1, "near-equal split");
                }
            }
        }
    }

    #[test]
    fn small_inputs_stay_inline() {
        assert_eq!(worker_count(0), 1);
        assert_eq!(worker_count(MIN_BYTES_PER_THREAD), 1);
        assert_eq!(worker_count(2 * MIN_BYTES_PER_THREAD - 1), 1);
    }

    #[test]
    fn workers_scale_with_len_and_respect_floor() {
        for len in [2 * MIN_BYTES_PER_THREAD, 10 * MIN_BYTES_PER_THREAD, 1 << 24] {
            let w = worker_count(len);
            assert!(w >= 1);
            assert!(len / w >= MIN_BYTES_PER_THREAD);
        }
    }

    #[test]
    fn chunk_size_is_aligned_and_covers() {
        for len in [1usize, 15, 16, 17, 1000, 1 << 20, (1 << 20) + 5] {
            for workers in [1usize, 2, 3, 7, 8] {
                let size = chunk_size(len, workers, 16);
                assert_eq!(size % 16, 0);
                assert!(size * workers >= len, "len={len} workers={workers}");
            }
        }
    }
}
