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
/// about 512 KiB each. The crossover moves with the host: records have
/// had two Merkle workers win from 128 KiB to 1 MiB each, and one taken
/// when other tenants kept the second vCPU busy only at 3.39 MB. On the
/// 512-bit VAES keystream, two CTR workers lose at every size measured
/// (up to 3.39 MB), which is why GCM no longer forks.
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

#[cfg(test)]
mod tests {
    use super::*;

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
