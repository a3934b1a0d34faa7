"""Aggregation math of the benchmark: percentiles, tails, ratios with their
base, tracing overhead, and the exact binomial acceptance test.

Pure functions over plain numbers, so test_aggregate.py can check them
without building or running anything.
"""

import math

# Candidate tail percentiles, highest last. The reported tail is the
# highest one that still has at least TAIL_MIN_BEYOND samples above it.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99, 99.999)
TAIL_MIN_BEYOND = 10


def median(values):
    """Median of a non-empty sequence (mean of the middle two if even)."""
    v = sorted(values)
    if not v:
        raise ValueError("median of no values")
    mid = len(v) // 2
    return v[mid] if len(v) % 2 else (v[mid - 1] + v[mid]) / 2.0


def iqm(values):
    """Interquartile mean: the mean of what is left after dropping
    len // 4 values from each end. Ignores the odd world whose topology
    makes it far costlier, and uses more samples than the median does."""
    v = sorted(values)
    cut = len(v) // 4
    v = v[cut:len(v) - cut]
    if not v:
        raise ValueError("interquartile mean of no values")
    return sum(v) / len(v)


# Host gauge scaling. The gauge is the driver's fixed hash-table job; a
# time measured while it read g seconds is reported as
# time * (GAUGE_REF_S / g) ** GAUGE_EXPONENT. When neighbours slow the
# host, the simulator's time grows faster than the gauge's: fitted over
# 355 world measurements of the three workloads, log time moved 0.8-1.4
# times as far as log gauge, and 1.3 gave the narrowest run_s spread on
# all three.
GAUGE_REF_S = 0.25e-3
GAUGE_EXPONENT = 1.3


def scaled(seconds, gauge):
    """CPU seconds scaled to the host speed at which the gauge reads
    GAUGE_REF_S."""
    if gauge <= 0:
        raise ValueError("gauge reading must be positive")
    return seconds * (GAUGE_REF_S / gauge) ** GAUGE_EXPONENT


def run_time(passes):
    """Median over passes of the interquartile mean over worlds of each
    world's scaled time, where passes[p] is a list of (seconds, gauge)
    per world. The mean over worlds follows the typical world, not the
    odd costly one; the median over passes drops a pass that a burst of
    contention hit harder than the gauge saw."""
    return median([iqm([scaled(t, g) for t, g in worlds])
                   for worlds in passes])


def rank(p, n):
    """1-based nearest-rank position of percentile p among n samples."""
    return max(1, math.ceil(p / 100.0 * n - 1e-9))


def percentile(sorted_values, p):
    """Nearest-rank percentile p of already sorted values."""
    if not sorted_values:
        raise ValueError("percentile of no values")
    return sorted_values[rank(p, len(sorted_values)) - 1]


def tail(values):
    """(percentile, value, samples beyond it) for the highest ladder
    percentile with at least TAIL_MIN_BEYOND samples beyond its rank;
    falls back to the median when the sample is too small for any."""
    v = sorted(values)
    n = len(v)
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if n - rank(p, n) >= TAIL_MIN_BEYOND:
            best = p
    return best, percentile(v, best), n - rank(best, n)


def ratio(num, den):
    """num/den, 0.0 for an empty base."""
    return num / den if den else 0.0


def with_base(num, den):
    """A ratio printed with its base, e.g. '0.0139 (199/14333)'."""
    return "%.6g (%s/%s)" % (ratio(num, den), _count(num), _count(den))


def _count(x):
    return str(int(x)) if float(x).is_integer() else "%.6g" % x


def overhead(traced, untraced):
    """Relative cost of tracing: traced / untraced - 1."""
    if untraced <= 0:
        raise ValueError("untraced time must be positive")
    return traced / untraced - 1.0


def binomial_cdf(k, n, p):
    """P(X <= k) for X ~ Binomial(n, p), summed exactly in log space."""
    if k < 0:
        return 0.0
    if k >= n or p <= 0.0:
        return 1.0
    if p >= 1.0:
        return 0.0
    lp, lq = math.log(p), math.log1p(-p)
    terms = [math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
             + i * lp + (n - i) * lq for i in range(k + 1)]
    top = max(terms)
    return min(1.0, math.exp(top) * sum(math.exp(t - top) for t in terms))


def meets_floor(successes, trials, floor, alpha=1e-3):
    """Exact binomial acceptance of H0 'success probability >= floor':
    rejected only when so few successes are that unlikely (P <= alpha)
    at the floor itself."""
    return binomial_cdf(successes, trials, floor) > alpha
