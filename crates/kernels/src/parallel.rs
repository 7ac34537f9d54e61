//! Scoped-thread work partitioning (std-only).
//!
//! Kernels split their output into contiguous row bands and run one band
//! per thread under [`std::thread::scope`]. Each output element is
//! produced by exactly one thread with the same sequential accumulation
//! order as the serial kernel, so parallel results are bit-for-bit equal
//! to serial ones.

use std::ops::Range;

/// Worker-thread count: the `NGA_THREADS` environment variable if set,
/// otherwise the machine's available parallelism.
#[must_use]
pub fn num_threads() -> usize {
    if let Some(n) = std::env::var("NGA_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        return n.max(1);
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Splits `0..n` into at most `parts` contiguous near-equal ranges
/// (never returns an empty range; may return fewer than `parts`).
fn split_bands(n: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.clamp(1, n.max(1));
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        if len == 0 {
            break;
        }
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Runs `f(rows, band)` over contiguous row bands of `out`, in parallel
/// when the work is large enough, and returns each band's result in row
/// order.
///
/// `out` has `rows` rows of `row_len` elements. Bands are disjoint
/// `&mut` slices, so `f` needs no synchronisation. Falls back to one
/// serial call (`f(0..rows, out)`) when a single thread is available or
/// the matrix is small enough that spawn overhead would dominate.
pub fn for_each_band<T: Send, R: Send, F>(
    out: &mut [T],
    rows: usize,
    row_len: usize,
    f: F,
) -> Vec<R>
where
    F: Fn(Range<usize>, &mut [T]) -> R + Sync,
{
    assert_eq!(out.len(), rows * row_len, "output shape mismatch");
    let threads = num_threads().min(rows.max(1));
    // Under ~16k output elements the per-thread spawn cost (~10 µs) is
    // comparable to the work itself; stay serial.
    if threads <= 1 || rows * row_len < 16_384 {
        return vec![f(0..rows, out)];
    }
    std::thread::scope(|s| {
        let mut rest = out;
        let mut handles = Vec::with_capacity(threads);
        for band in split_bands(rows, threads) {
            let (head, tail) = rest.split_at_mut((band.end - band.start) * row_len);
            rest = tail;
            let f = &f;
            handles.push(s.spawn(move || f(band, head)));
        }
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bands_cover_exactly() {
        for n in [0usize, 1, 7, 16, 100] {
            for parts in [1usize, 2, 3, 8, 200] {
                let bands = split_bands(n, parts);
                let mut next = 0;
                for b in &bands {
                    assert_eq!(b.start, next);
                    assert!(b.end > b.start, "no empty bands");
                    next = b.end;
                }
                assert_eq!(next, n, "bands cover 0..{n}");
            }
        }
    }

    #[test]
    fn for_each_band_touches_every_row_once() {
        let rows = 101;
        let row_len = 257;
        let mut out = vec![0u32; rows * row_len];
        let bands = for_each_band(&mut out, rows, row_len, |band, slice| {
            for (i, r) in band.clone().enumerate() {
                for v in &mut slice[i * row_len..(i + 1) * row_len] {
                    *v += r as u32 + 1;
                }
            }
            band
        });
        // One result per band, in row order, covering every row.
        assert_eq!(bands.first().map(|b| b.start), Some(0));
        assert_eq!(bands.last().map(|b| b.end), Some(rows));
        assert!(bands.windows(2).all(|w| w[0].end == w[1].start));
        for r in 0..rows {
            for c in 0..row_len {
                assert_eq!(out[r * row_len + c], r as u32 + 1);
            }
        }
    }
}
