"""Summary statistics shared by run.py and steady.py.

percentile() interpolates linearly between order statistics (the
"inclusive" definition); trimmed_mean() averages values without their
extremes; quartiles() is statistics.quantiles(n=4), the
definition the steadiness bounds are checked with; self_times() turns a
list of spans into per-span self time: the span's duration minus the part
of it its children cover.
"""

import statistics


def percentile(values, pct):
    """The pct-th percentile (0..100) of values, linearly interpolated."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0 <= pct <= 100:
        raise ValueError("percentile out of range: %r" % pct)
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def trimmed_mean(values, share):
    """Mean of values without the int(len * share) lowest and highest."""
    if not values:
        raise ValueError("trimmed mean of no values")
    if not 0 <= share < 0.5:
        raise ValueError("trim share out of range: %r" % share)
    ordered = sorted(values)
    k = int(len(ordered) * share)
    return statistics.fmean(ordered[k:len(ordered) - k])


def samples_beyond(n, pct):
    """How many of n samples lie above the pct-th percentile."""
    return int(n * (100 - pct) / 100.0)


def quartiles(values):
    """(Q1, median, Q3) as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_iqr(values):
    """Distance between the first and third quartile over the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def max_relative_deviation(values):
    """Largest |v - median| / median over values."""
    med = statistics.median(values)
    return max(abs(v - med) for v in values) / med if med else float("inf")


class Span:
    __slots__ = ("id", "parent", "request", "name", "start", "end")

    def __init__(self, id, parent, request, name, start, end):
        self.id, self.parent, self.request = id, parent, request
        self.name, self.start, self.end = name, start, end


def parse_spans(lines):
    """Spans from TSV lines: id, parent, request, name, start_ns, end_ns."""
    spans = []
    for line in lines:
        line = line.rstrip("\n")
        if not line:
            continue
        f = line.split("\t")
        if len(f) != 6:
            raise ValueError("malformed span line: %r" % line)
        spans.append(Span(int(f[0]), int(f[1]), int(f[2]), f[3], int(f[4]),
                          int(f[5])))
    return spans


def covered(intervals, start, end):
    """Length of [start, end) covered by the union of intervals."""
    clipped = sorted((max(s, start), min(e, end)) for s, e in intervals
                     if min(e, end) > max(s, start))
    total, cur_s, cur_e = 0, None, None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """{span id: self time in ns} — duration minus what children cover."""
    children = {}
    for s in spans:
        if s.parent:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: (s.end - s.start) - covered(children.get(s.id, ()),
                                               s.start, s.end)
            for s in spans}


def self_times_by_name(spans):
    """{span name: [self time in ns, ...]}."""
    own = self_times(spans)
    out = {}
    for s in spans:
        out.setdefault(s.name, []).append(own[s.id])
    return out
