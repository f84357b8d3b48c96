"""The benchmark's arithmetic: percentiles, windowed throughput, span
self times and selectivity error.  Pure functions, so test_stats.py can pin
every rule down."""

import math
import statistics

# A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10
# Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def rank(n, p):
    """1-based nearest rank of the p-th percentile of n samples (rounded
    first, so 99.9% of 10000 is rank 9990, not 9991)."""
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def nearest_rank(sorted_xs, p):
    """The p-th percentile (0 < p <= 100) by the nearest-rank rule."""
    if not sorted_xs:
        raise ValueError("no samples")
    return sorted_xs[rank(len(sorted_xs), p) - 1]


def beyond(n, p):
    """How many of n samples lie above the nearest-rank p-th percentile."""
    return n - rank(n, p)


def tail_percentile(n):
    """The highest ladder percentile with at least TAIL_BEYOND of n samples
    beyond it; None when even the median has fewer."""
    for p in TAIL_LADDER:
        if beyond(n, p) >= TAIL_BEYOND:
            return p
    return None


def summary(xs):
    """Median and tail of a sample: (p50, tail, tail_percentile, n).
    With too few samples for a tail, the tail is the maximum."""
    s = sorted(xs)
    if not s:
        return (0.0, 0.0, None, 0)
    p = tail_percentile(len(s))
    tail = nearest_rank(s, p) if p is not None else s[-1]
    return (statistics.median(s), tail, p, len(s))


def median_rate(start, dones, window=1.0):
    """Closed-loop throughput: the median, over the whole `window`-second
    windows after `start`, of the operations completed in each, per
    second.  A short stall of the machine moves one window, not the
    figure.  The last, partial window is left out."""
    n = int((max(dones, default=start) - start) // window)
    if n < 1:
        raise ValueError("shorter than one window")
    counts = [0] * n
    for d in dones:
        k = int((d - start) // window)
        if 0 <= k < n:
            counts[k] += 1
    return statistics.median(counts) / window


def charged_latency(latency, failed):
    """A failed operation misses every latency limit: it is charged an
    infinite latency, so a fast error or shed can only raise the median
    and the tail, never lower them."""
    return math.inf if failed else latency


def self_times(spans):
    """Self time of every span: its duration minus the durations of its
    child spans of the same request.  spans: iterable of
    (rid, name, parent, t0, t1), parent '-' for a root.
    Returns {(rid, name): seconds}."""
    dur = {}
    children = {}
    for rid, name, parent, t0, t1 in spans:
        dur[(rid, name)] = t1 - t0
        if parent != "-":
            children.setdefault((rid, parent), []).append(t1 - t0)
    return {k: d - sum(children.get(k, ())) for k, d in dur.items()}


def breakdown_problems(parts, untraced, slack, negative_slack):
    """What is wrong with a read breakdown ({layer: mean self seconds})
    measured against the untraced mean request time: a layer whose mean
    self time is below -negative_slack x untraced (an inner call that
    cost more than the layer around it, so the breakdown does not
    describe the request), or a sum further than slack x untraced from
    the untraced mean.  Empty when the breakdown holds."""
    out = [f"{layer} self time {1e6 * v:.1f} us is below -{100 * negative_slack:.0f}% "
           f"of the untraced mean {1e6 * untraced:.1f} us"
           for layer, v in parts.items() if v < -negative_slack * untraced]
    gap = abs(sum(parts.values()) - untraced)
    if gap > slack * untraced:
        out.append(f"the layers sum to {1e6 * sum(parts.values()):.1f} us, "
                   f"{100 * gap / untraced:.1f}% off the untraced mean {1e6 * untraced:.1f} us "
                   f"(slack {100 * slack:.0f}%)")
    return out


def sanity_bound(actuals):
    """The paper's sanity bound: the 10-percentile of true counts, at
    least 1."""
    if not actuals:
        return 1.0
    return max(1.0, nearest_rank(sorted(actuals), 10.0))


def sel_err(pairs):
    """Mean relative selectivity error |r - e| / max(r, s) over
    (actual, estimate) pairs, with s the sanity bound of the actuals."""
    if not pairs:
        raise ValueError("no scored queries")
    s = sanity_bound([a for a, _ in pairs])
    return statistics.fmean(abs(a - e) / max(a, s) for a, e in pairs)
