"""Hot inner loops in vectorized numpy: histogram fill and per-event decay."""

import numpy as np


def histogram_fill(t, x, y, p, seg_start, seg_duration, num_bins, counts):
    # flat index: ((p_idx * B + tau) * H + y) * W + x, accumulated via bincount
    _, _, height, width = counts.shape
    rel = t - seg_start
    tau = (rel * num_bins) // seg_duration
    np.minimum(tau, num_bins - 1, out=tau)
    p_idx = (p.astype(np.int64) + 1) >> 1
    flat = ((p_idx * num_bins + tau) * height + y.astype(np.int64)) * width + x.astype(
        np.int64
    )
    counts += np.bincount(flat, minlength=counts.size).reshape(counts.shape)


def per_event_decay_fill(frame, last_t, t, x, y, p, alpha, threshold):
    """Per-pixel rule ``f = exp(-alpha * dt) * f + p * threshold``, in place.

    Pixels are independent, so the k-th event of every pixel is applied
    in one vectorized step. Events are laid out rank-major with pixels
    ordered by descending event count, so the pixels still active at rank
    k are a prefix of that order and the loop runs once per rank: as many
    times as the busiest pixel has events. ``t`` must be sorted.
    """
    n = t.shape[0]
    if n == 0:
        return
    width = frame.shape[1]
    # sorting the unique keys pixel * n + index is a stable argsort by pixel,
    # so events of one pixel keep their time order; ~10x faster than
    # argsort(kind="stable") on int64. The keys fit int64 for any 16-bit
    # geometry and fewer than 2**31 events.
    pix, order = np.divmod(np.sort((y * width + x) * n + np.arange(n)), n)
    t = t[order]
    first = np.flatnonzero(np.concatenate(([True], pix[1:] != pix[:-1])))
    counts = np.diff(np.append(first, n))
    py, px = np.divmod(pix[first], width)

    prev_t = np.empty_like(t)
    prev_t[1:] = t[:-1]
    prev_t[first] = last_t[py, px]
    # same operation order as the scalar rule
    decay = np.exp(-alpha * ((t - prev_t) * 1e-6))
    add = p[order] * threshold

    # slot of each pixel in descending-count order (pixels are independent,
    # so ties may go in any order), then each event's rank within its pixel
    # and its position in the rank-major layout
    by_count = np.argsort(-counts)
    slot = np.empty_like(by_count)
    slot[by_count] = np.arange(by_count.shape[0])
    group = np.repeat(np.arange(first.shape[0]), counts)
    rank = np.arange(n) - first[group]
    active = np.bincount(rank)  # pixels with more than k events, per rank k
    offset = np.concatenate(([0], np.cumsum(active)))
    dest = offset[rank] + slot[group]
    decay_rm = np.empty_like(decay)
    decay_rm[dest] = decay
    add_rm = np.empty_like(add)
    add_rm[dest] = add

    cells = (py[by_count], px[by_count])
    f = frame[cells]
    for lo, m in zip(offset.tolist(), active.tolist()):
        np.multiply(decay_rm[lo : lo + m], f[:m], out=f[:m])
        np.add(f[:m], add_rm[lo : lo + m], out=f[:m])
    frame[cells] = f
    last_t[py, px] = t[first + counts - 1]
