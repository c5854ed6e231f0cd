"""The metric-independent half of approximate matching.

Both metrics follow one scheme: sweep the pattern once into breaks,
repetitive regions or an approximate period; then either mark candidate
starts over the whole text, by votes of the anchors' occurrences, and
verify them, or run the periodic matcher, which cuts the text into
overlapping blocks of less than 3m/2 (+k) bytes.  Breaks whose period is
short enough for the periodic matcher hand the query over to it when the
whole pattern is close to a power of that period (see `mark_breaks`), so a
pattern periodic on that scale is not marked by anchors that match once
per period.  When the votes leave so many starts that verifying them would
cost more than a dense scan of the whole text, marking runs the metric's
dense scan instead (see `_vote_and_verify`): short anchors, as when m/(8k)
is a few bytes, vote for nearly every start.  The dense scan also takes
every query with 8k > m, where the analysis does not apply.  This module
holds that scheme.  The metric modules supply what differs -- region growth,
verification, the near-power test, the periodic matcher and the dense
scan -- as arguments at call time, so each of those stays a plain
module-level function of its metric.

`pad` is the slack of a window beyond m: 0 for mismatches, k for edits
(an edit occurrence starting at s may end anywhere up to s + m + k).
"""

from __future__ import annotations

from dataclasses import dataclass

from .pillar import (ArithmeticProgression, ContractError, Fragment, OccurrenceSet,
                     exact_matches, extract, period)

# Constants wired to the inequalities the drivers rely on:
#  - break length m//(8k), break period threshold m/(128k)
#  - a region grows until it holds delta >= 8k|R|/m errors (DENSITY), and
#    the approximate-period route runs with d = 8k
#  - repetitive regions stop at total length >= (3/8)m
#  - region sub-budget k_i = floor(4k|R|/m); 8k|R|/m >= 1 gives d_i >= 2k_i,
#    and the mark threshold m_R - m/4 stays >= m/8 > 0.
BREAK_DIV = 8
PERIOD_DIV = 128
DENSITY = 8
REGION_NUM, REGION_DEN = 3, 8
MARK_DIV = 4

# After voting, `_vote_and_verify` runs the dense scan when verifying the
# voted starts would cost more.  Both estimates count units: verification
# (k+1) per start for mismatches and a band of (k+1)^2 for edits; the dense
# scan one per step, a numpy pass (mismatches) or a round of big-int
# operations (edits) per pattern byte, plus one per DENSE_BYTES text bytes
# of each step.  Timed on random DNA on a 2-core host (m 16..1024, n
# 2^6..2^16, k 1..8), an edit verification unit cost 0.9-2.9 us; a dense
# step cost 2.9-3.9 us (numpy) or 0.6-1.1 us (big ints, m >= 64), plus
# 0.3-0.5 us per 1024 text bytes.  A mismatch verification is one XOR pass
# over the start's m bytes, not k+1 lcp jumps: 1.1, 1.3, 2.0 and 5.0 us a
# start at (m, k) = (16, 1), (64, 2), (256, 4) and (1024, 8), 16 us at
# (4096, 16).  That is 0.4-0.6 us a unit, so the estimate overstates
# verification 5-10x against a numpy step.  The rule is left as it was
# timed (2.6-5.7 us a unit, with lcp jumps), so no query changes route;
# re-measure both routes before retuning it.
DENSE_BYTES = 2048


@dataclass(frozen=True)
class Breaks:
    """2k disjoint aperiodic anchors; items are (offset, length, period)
    triples, period being the break's smallest period if it is at most
    half its length, else None."""
    items: tuple[tuple[int, int, int | None], ...]


@dataclass(frozen=True)
class RepetitiveRegions:
    """Disjoint near-periodic stretches; items are
    (offset, length, period_offset, period_length)."""
    items: tuple[tuple[int, int, int, int], ...]


@dataclass(frozen=True)
class ApproxPeriod:
    """The whole pattern is close to a power of p[q_offset:q_offset+q_length)."""
    q_offset: int
    q_length: int


PatternAnalysis = Breaks | RepetitiveRegions | ApproxPeriod


def analyze(backend, p: Fragment, k: int, grow) -> PatternAnalysis:
    """Left-to-right structural decomposition of the pattern.

    Fragments of length m//(8k) become breaks when their period exceeds
    m/(128k).  Otherwise grow(backend, p, k, j, jp, q) extends the fragment
    p[j:jp) with period q error by error and returns either the end of a
    repetitive region starting at j, or -- having run off the pattern's
    end -- the final analysis (one suffix region or an approximate period).
    """
    m = len(p)
    if not 1 <= k <= m:
        raise ContractError("analysis needs 1 <= k <= m")
    if BREAK_DIV * k > m:
        raise ContractError("analysis needs k <= m/8")
    block = m // (BREAK_DIV * k)
    breaks: list[tuple[int, int, int | None]] = []
    regions: list[tuple[int, int, int, int]] = []
    region_total = 0
    j = 0
    while True:
        jp = j + block
        per = period(backend, extract(p, j, jp))
        if per is None or per * PERIOD_DIV * k > m:
            breaks.append((j, block, per))
            if len(breaks) == 2 * k:
                return Breaks(tuple(breaks))
            j = jp
            continue
        end = grow(backend, p, k, j, jp, per)
        if not isinstance(end, int):
            return end
        regions.append((j, end - j, j, per))
        region_total += end - j
        if region_total * REGION_DEN >= REGION_NUM * m:
            return RepetitiveRegions(tuple(regions))
        j = end


def blocks(n: int, m: int, pad: int):
    """Overlapping blocks t[lo:hi) of a length-n text, as (lo, hi, cut).

    Block i starts at im/2 and owns the starts in [lo, cut): up to the next
    block's start, or past the last start n-m+pad for the last block.  The
    window t[s:s+m+pad) of every owned start s lies inside its block, or
    runs to the text's end.  Blocks too short to hold a start are skipped.
    """
    count = max(1, (2 * n) // m)
    for i in range(count):
        lo = (i * m) // 2
        hi = min(n, ((i + 3) * m) // 2 - 1 + pad)
        if hi - lo >= m - pad:
            yield lo, hi, ((i + 1) * m) // 2 if i < count - 1 else n - m + pad + 1


def per_block(t: Fragment, m: int, pad: int, solve) -> OccurrenceSet:
    """Union over the blocks of t of the starts each block owns.

    solve(block) returns a fragment of the block and the occurrence starts
    found there, as progressions relative to that fragment.
    """
    progs: list[ArithmeticProgression] = []
    for lo, hi, cut in blocks(len(t), m, pad):
        frag, found = solve(extract(t, lo, hi))
        shift = frag.start - t.start
        for a in found:
            count = min(a.count, (cut - 1 - a.first - shift) // a.diff + 1)
            if count > 0:
                progs.append(ArithmeticProgression(a.first + shift, a.diff, count))
    return OccurrenceSet.from_progressions(progs)


def _vote_and_verify(backend, p: Fragment, t: Fragment, k: int, pad: int, anchors,
                     need: int, verify, dense) -> OccurrenceSet:
    """The occurrences of p in t: the verified starts among those that
    collect at least `need` votes, or dense(backend, p, t, k) when that is
    cheaper.

    anchors yields (hits, offset, weight): an anchor at pattern offset
    `offset` occurs at text positions `hits`, found over the whole text t.
    Without slack a hit tau votes for the start tau - offset.  With slack
    pad, errors before the anchor move it by up to pad: an anchor of an
    occurrence at s lands within +-pad of s + offset, so (tau - offset)//pad
    is within one of s//pad, and votes go to the pad-wide block of starts
    holding tau - offset and its two neighbours.  An anchor adds its weight
    at most once to each start or block, and each run of consecutive voted
    starts or blocks is verified once, as one interval:
    verify(backend, p, t, k, lo, hi) returns the occurrence starts in
    [lo, hi].

    Scanning the whole text rather than blocks of it loses nothing: the
    whole-text hits are a superset of every block's hits, so every true
    occurrence collects at least as many votes as it would in any block,
    and verification is exact, so no false start gets through.

    Once the votes are in, the voted starts are known, and verifying them
    is estimated at (k+1) units each for mismatches, (k+1)^2 for edits,
    against m * (1 + n // DENSE_BYTES) units for the dense scan (see
    DENSE_BYTES).  The dense scan is exact over the whole text, and so is
    marking, as above: both return every occurrence and nothing else, so
    the rule only picks the cheaper route and cannot change the output.
    The rule reads m, n, k, pad and the number of voted starts, so it grows
    with n and long texts with selective anchors keep marking.
    """
    m, n = len(p), len(t)
    max_start = n - m + pad
    if max_start < 0:
        return OccurrenceSet.empty()
    width = pad or 1
    top = max_start // width
    votes: dict[int, int] = {}
    for hits, offset, weight in anchors:
        keys = {(tau - offset) // width for tau in hits}
        if pad:
            keys = {key + s for key in keys for s in (-1, 0, 1)}
        for key in keys:
            if 0 <= key <= top:
                votes[key] = votes.get(key, 0) + weight
    marked = sorted(key for key, count in votes.items() if count >= need)
    if len(marked) * width * (k + 1) ** (2 if pad else 1) > m * (1 + n // DENSE_BYTES):
        return dense(backend, p, t, k)
    found: list[int] = []
    for first, last in runs(marked):
        found.extend(verify(backend, p, t, k, first * width,
                            min(last * width + width - 1, max_start)))
    return OccurrenceSet.from_positions(found)


def runs(xs: list[int]):
    """The maximal runs of consecutive integers in an ascending list, as
    closed intervals (first, last)."""
    i = 0
    while i < len(xs):
        j = i
        while j + 1 < len(xs) and xs[j + 1] == xs[j] + 1:
            j += 1
        yield xs[i], xs[j]
        i = j + 1


def mark_breaks(backend, p: Fragment, t: Fragment, analysis: Breaks, k: int,
                pad: int, near_power, periodic, verify, dense) -> OccurrenceSet:
    """Marking by 2k aperiodic breaks: one vote per exactly matching break,
    at least k votes to verify -- unless the pattern turns out periodic.

    A break is aperiodic only in the analysis' sense, period above m/(128k),
    while the periodic matchers take periods up to m/(8d) = m/(64k) for
    d = 8k.  A pattern with a period in that gap matches each break once per
    period, so marking would verify nearly every start.  So the breaks are
    first checked in order: at the first one whose period q has 64k|q| <= m
    and for which near_power(backend, p, off, |q|, d) finds the whole
    pattern within d of a power of q, the query goes to
    periodic(backend, p, t, k, d, *args), args being what near_power
    returned.  That answer is exact, as the periodic matchers are exact when
    d >= 2k (here d = 8k), |q| <= m/(8d) (the period check) and p is within
    d of q^inf (the near-power test, in the alignment the matcher uses).
    """
    m, d = len(p), DENSITY * k
    for off, _, per in analysis.items:
        if per is not None and 8 * d * per <= m:
            args = near_power(backend, p, off, per, d)
            if args is not None:
                return periodic(backend, p, t, k, d, *args)
    anchors = ((exact_matches(backend, extract(p, off, off + ln), t), off, 1)
               for off, ln, _ in analysis.items)
    return _vote_and_verify(backend, p, t, k, pad, anchors, k, verify, dense)


def mark_regions(backend, p: Fragment, t: Fragment, analysis: RepetitiveRegions, k: int,
                 pad: int, periodic, verify, dense) -> OccurrenceSet:
    """Weighted marking by repetitive regions: region R votes |R| wherever
    periodic() finds it within floor(4k|R|/m) errors; verify where the
    votes reach m_R - m/4."""
    m = len(p)
    anchors = ((periodic(backend, extract(p, off, off + ln), t, (MARK_DIV * k * ln) // m,
                         -(-DENSITY * k * ln // m), extract(p, qoff, qoff + qln)).positions(),
                off, ln)
               for off, ln, qoff, qln in analysis.items)
    need = sum(ln for _, ln, _, _ in analysis.items) - m // MARK_DIV
    return _vote_and_verify(backend, p, t, k, pad, anchors, need, verify, dense)


def occurrences(backend, p: Fragment, t: Fragment, k: int, analysis: PatternAnalysis | None,
                pad: int, analyze, dense, periodic, breaks, regions) -> OccurrenceSet:
    """Route a query: exact matching for k = 0, the dense scan for 8k > m,
    else the pattern's analysis picks the periodic matcher or marking by
    breaks or regions.  Each runs once over the whole text; only the
    periodic matchers cut it into blocks."""
    m, n = len(p), len(t)
    if m < 1:
        raise ContractError("pattern must be nonempty")
    if not 0 <= k <= m:
        raise ContractError("threshold must satisfy 0 <= k <= m")
    if n < m - pad:
        return OccurrenceSet.empty()
    if k == 0:
        return OccurrenceSet.from_positions(exact_matches(backend, p, t))
    if BREAK_DIV * k > m:
        return dense(backend, p, t, k)
    if analysis is None:
        analysis = analyze(backend, p, k)
    if isinstance(analysis, ApproxPeriod):
        q = extract(p, analysis.q_offset, analysis.q_offset + analysis.q_length)
        return periodic(backend, p, t, k, DENSITY * k, q)
    marker = breaks if isinstance(analysis, Breaks) else regions
    return marker(backend, p, t, analysis, k)
