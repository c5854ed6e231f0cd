"""Pattern matching with up to k mismatches.

What is particular to the Hamming metric: the mismatch generators (lcp
jumps against a power of a period), verification by XOR over both
fragments' bytes (no lcp, so no LCE index), region growth for the
pattern analysis, and the periodic machinery -- a relevant
fragment locked to one rotation of the period, then one run-length sweep
of the distances at all period-aligned alignments.  The analysis sweep, the
block split, marking and routing are shared with the edit metric in
`driver`.  Occurrence sets come back as arithmetic progressions with the
approximate period's length as the difference whenever the pattern is
nearly periodic.
"""

from __future__ import annotations

import numpy as np

from .driver import (DENSITY, ApproxPeriod, Breaks, PatternAnalysis, RepetitiveRegions,
                     analyze, mark_breaks, mark_regions, occurrences, per_block)
from .pillar import (ArithmeticProgression, ContractError, Fragment, Mirror, OccurrenceSet,
                     equal, extract, flip, lcp_power, rotations)


class MismatchGenerator:
    """Yields Mis(s, q^inf[offset:]) positions in increasing order.

    next() returns the next mismatch position in s, or None once exhausted;
    further calls keep returning None.
    """

    def __init__(self, backend, s: Fragment, q: Fragment, offset: int = 0):
        self.backend = backend
        self.s = s
        self.q = q
        self.offset = offset
        self.i = 0
        self.exhausted = False

    def next(self) -> int | None:
        if self.exhausted or self.i >= len(self.s):
            self.exhausted = True
            return None
        rest = extract(self.s, self.i, len(self.s))
        pi = lcp_power(self.backend, rest, self.q,
                       self.offset + self.i, self.offset + len(self.s))
        pos = self.i + pi
        if pos >= len(self.s):
            self.exhausted = True
            return None
        self.i = pos + 1
        return pos

    def __iter__(self):
        while (pos := self.next()) is not None:
            yield pos


class MismatchGeneratorR:
    """Mismatches of s against q^inf aligned to end at s's right edge.

    Positions come back in s's forward coordinates, in decreasing order.
    end_offset rotates the alignment: position |s| of s corresponds to
    q^inf position end_offset (mod |q|).
    """

    def __init__(self, backend, s: Fragment, q: Fragment, end_offset: int = 0):
        self._n = len(s)
        self._fwd = MismatchGenerator(Mirror(backend), flip(s), flip(q), (-end_offset) % len(q))

    def next(self) -> int | None:
        pos = self._fwd.next()
        if pos is None:
            return None
        return self._n - 1 - pos


def mismatches(backend, s: Fragment, q: Fragment, rotation: int = 0) -> list[int]:
    """All of Mis(s, rot^rotation(q)*), ascending."""
    if len(q) < 1:
        raise ContractError("mismatch generator needs a nonempty period")
    return list(MismatchGenerator(backend, s, q, (-rotation) % len(q)))


def verify_hd(backend, s: Fragment, t: Fragment, k: int) -> bool:
    """Hamming distance of equal-length fragments at most k?

    Reads both fragments' bytes and counts the mismatches in C-level
    passes over them: the bytes where the XOR of the two strings, read as
    integers, is nonzero.  No lcp is asked, so no LCE index is built.
    """
    if len(s) != len(t):
        raise ContractError("verify_hd needs equal lengths")
    n = len(s)
    a, b = backend.bytes_of(s), backend.bytes_of(t)
    x = int.from_bytes(a, "little") ^ int.from_bytes(b, "little")
    return n - x.to_bytes(n, "little").count(0) <= k


# -- pattern analysis --------------------------------------------------------

def analyze_hd(backend, p: Fragment, k: int) -> PatternAnalysis:
    """Structural decomposition of p for the mismatch metric (see driver.analyze)."""
    return analyze(backend, p, k, _grow_hd)


def _grow_hd(backend, p: Fragment, k: int, j: int, jp: int, q: int) -> int | PatternAnalysis:
    """Grow p[j:jp) rightward mismatch by mismatch against its period q until
    the mismatch count meets the density ceiling.  Running off the pattern's
    end turns into a backward extension with the same alignment, giving
    either one long suffix region or an approximate period."""
    m = len(p)
    qfrag = extract(p, j, j + q)
    gen = MismatchGenerator(backend, extract(p, j, m), qfrag, 0)
    delta = 0
    while delta * m < DENSITY * k * (jp - j):
        pi = gen.next()
        if pi is None:
            break
        jp = j + pi + 1
        delta += 1
    if delta * m >= DENSITY * k * (jp - j):
        return jp
    jpp = j
    rgen = MismatchGeneratorR(backend, extract(p, 0, j), qfrag, 0)
    while delta * m < DENSITY * k * (m - jpp):
        pi = rgen.next()
        if pi is None:
            jpp = 0
            break
        jpp = pi
        delta += 1
    if delta * m >= DENSITY * k * (m - jpp):
        # Suffix region anchored at jpp: rotate q to start there.
        return RepetitiveRegions(((jpp, m - jpp, j + ((jpp - j) % q), q),))
    return ApproxPeriod(j + ((-j) % q), q)


def find_rotation(backend, k: int, q: Fragment, s: Fragment) -> int | None:
    """The unique j with delta_H(s, rot^j(q)*) <= k, or None.

    Boyer-Moore majority over the first 2k+1 length-|q| blocks of s, then a
    global mismatch count and a rotation lookup.
    """
    nq = len(q)
    if len(s) < (2 * k + 1) * nq:
        raise ContractError("find_rotation needs |s| >= (2k+1)|q|")
    blocks = [extract(s, i * nq, (i + 1) * nq) for i in range(2 * k + 1)]
    cand = None
    votes = 0
    for b in blocks:
        if votes == 0:
            cand, votes = b, 1
        elif equal(backend, cand, b):
            votes += 1
        else:
            votes -= 1
    support = sum(1 for b in blocks if equal(backend, cand, b))
    if 2 * support <= len(blocks):
        return None
    gen = MismatchGenerator(backend, s, cand, 0)
    seen = 0
    while seen <= k:
        if gen.next() is None:
            break
        seen += 1
    if seen > k:
        return None
    rots = rotations(backend, q, cand)
    if rots.count == 0:
        return None
    return rots.first


def find_relevant_fragment_hd(backend, p: Fragment, t: Fragment, d: int, q: Fragment) -> Fragment:
    """Fragment of t containing every near-occurrence of p, grid-aligned.

    Starting from the middle window t[n-m:m), locks the rotation of q that
    any occurrence must follow, then extends right and left until the
    mismatch budget 3d/2 is exceeded on each side.  Returns an empty
    fragment when no rotation fits.
    """
    m, n = len(p), len(t)
    nq = len(q)
    if 2 * n > 3 * m:
        raise ContractError("relevant-fragment scan needs n <= 3m/2")
    if n < m:
        return extract(t, 0, 0)
    budget = (3 * d) // 2
    j = find_rotation(backend, budget, q, extract(t, n - m, m))
    if j is None:
        return extract(t, 0, 0)
    anchor = n - m + j
    r = anchor
    delta = 0
    gen = MismatchGenerator(backend, extract(t, anchor, n), q, 0)
    while True:
        if delta > budget:
            break
        pi = gen.next()
        if pi is None:
            r = n
            break
        r = anchor + pi
        delta += 1
    base = anchor % nq
    left = anchor
    delta = 0
    rgen = MismatchGeneratorR(backend, extract(t, base, anchor), q, 0)
    while True:
        if delta > budget:
            break
        pi = rgen.next()
        if pi is None:
            left = base
            break
        left = base + nq * ((pi + nq) // nq)  # first grid point past the mismatch
        delta += 1
    return extract(t, left, r)


def distances_rle(backend, p: Fragment, t: Fragment, q: Fragment,
                  p_mismatches: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Run-length encoded h_j = delta_H(t[j|q| : j|q|+m), p), j = 0..(n-m)/|q|.

    One weighted-event sweep: each text mismatch opens/closes a sliding
    window event, and each (text, pattern) mismatch pair cancels marks where
    the two mismatches coincide.  `p_mismatches` is
    _pattern_mismatches(backend, p, q).
    """
    m, n, nq = len(p), len(t), len(q)
    if n < m:
        return []
    mis_t = mismatches(backend, t, q)
    events: list[tuple[int, int]] = []
    for tau in mis_t:
        events.append((tau - m, 1))
        events.append((tau, -1))
        tch = backend.access(t, tau)
        for pi, pch in p_mismatches:
            a = 0 if pch == tch else 1
            events.append((tau - pi - 1, a - 2))
            events.append((tau - pi, 2 - a))
    events.sort()
    h = len(p_mismatches)
    idx = 0
    while idx < len(events) and events[idx][0] < 0:
        h += events[idx][1]
        idx += 1
    runs: list[tuple[int, int]] = []

    def emit(value: int, count: int) -> None:
        if count <= 0:
            return
        if runs and runs[-1][0] == value:
            runs[-1] = (value, runs[-1][1] + count)
        else:
            runs.append((value, count))

    cursor = 0
    limit = n - m
    while idx < len(events) and events[idx][0] < limit:
        pos, w = events[idx]
        emit(h, (pos + nq) // nq - (cursor + nq - 1) // nq)
        cursor = pos + 1
        h += w
        idx += 1
    emit(h, (limit + nq) // nq - (cursor + nq - 1) // nq)
    return runs


def _pattern_mismatches(backend, p: Fragment, q: Fragment) -> list[tuple[int, int]]:
    """Mis(p, q*) as (position, byte of p) pairs."""
    return [(pi, backend.access(p, pi)) for pi in mismatches(backend, p, q)]


def periodic_matches_hd(backend, p: Fragment, t: Fragment, k: int, d: int, q: Fragment) -> OccurrenceSet:
    """All k-mismatch occurrences when p is within d mismatches of a power of q."""
    m, nq = len(p), len(q)
    if d < max(1, 2 * k):
        raise ContractError("periodic matching needs d >= 2k, d >= 1")
    if 8 * d * nq > m:
        raise ContractError("periodic matching needs |q| <= m/(8d)")

    p_mismatches: list[tuple[int, int]] | None = None  # the same in every block

    def solve(block: Fragment):
        nonlocal p_mismatches
        frag = find_relevant_fragment_hd(backend, p, block, d, q)
        if len(frag) < m:
            return frag, []
        if p_mismatches is None:
            p_mismatches = _pattern_mismatches(backend, p, q)
        progs: list[ArithmeticProgression] = []
        jq = 0
        for value, count in distances_rle(backend, p, frag, q, p_mismatches):
            if value <= k:
                progs.append(ArithmeticProgression(jq * nq, nq, count))
            jq += count
        return frag, progs

    return per_block(t, m, 0, solve)


def _verified_hd(backend, p: Fragment, t: Fragment, k: int, lo: int, hi: int) -> list[int]:
    # One verify_hd per start of [lo, hi]; each needs lo >= 0 and hi <= n - m.
    m = len(p)
    return [pos for pos in range(lo, hi + 1) if verify_hd(backend, p, extract(t, pos, pos + m), k)]


def _near_power_hd(backend, p: Fragment, off: int, per: int, d: int) -> tuple[Fragment] | None:
    """(q,) when p is within d mismatches of q^inf, else None.

    q = p[o:o+per) for o the first multiple of per at or after off, so q^inf
    is aligned to p's start, as for ApproxPeriod and the periodic matcher.
    The scan stops at the (d+1)-st mismatch.
    """
    o = off + (-off) % per
    q = extract(p, o, o + per)
    gen = MismatchGenerator(backend, p, q, 0)
    for _ in range(d + 1):
        if gen.next() is None:
            return (q,)
    return None


def break_matches_hd(backend, p: Fragment, t: Fragment, analysis: Breaks, k: int) -> OccurrenceSet:
    """Marking driver for patterns with 2k aperiodic breaks (or the periodic
    matcher, when a break's period is short enough and fits all of p)."""
    return mark_breaks(backend, p, t, analysis, k, 0, _near_power_hd, periodic_matches_hd,
                       _verified_hd, _dense_mismatch_scan)


def repetitive_matches_hd(backend, p: Fragment, t: Fragment,
                          analysis: RepetitiveRegions, k: int) -> OccurrenceSet:
    """Weighted-marking driver for patterns covered by repetitive regions."""
    return mark_regions(backend, p, t, analysis, k, 0, periodic_matches_hd, _verified_hd,
                        _dense_mismatch_scan)


def _dense_mismatch_scan(backend, p: Fragment, t: Fragment, k: int) -> OccurrenceSet:
    # Large-k route (k > m/8): accumulate mismatch counts per pattern column.
    pb = np.frombuffer(backend.bytes_of(p), dtype=np.uint8)
    tb = np.frombuffer(backend.bytes_of(t), dtype=np.uint8)
    m, n = len(pb), len(tb)
    width = n - m + 1
    counts = np.zeros(width, dtype=np.int32)
    for r in range(m):
        counts += tb[r:r + width] != pb[r]
    return OccurrenceSet.from_positions(np.flatnonzero(counts <= k).tolist())


def mismatch_occurrences(backend, p: Fragment, t: Fragment, k: int,
                         analysis: PatternAnalysis | None = None) -> OccurrenceSet:
    """All positions i with delta_H(p, t[i:i+m)) <= k, exactly."""
    return occurrences(backend, p, t, k, analysis, 0, analyze_hd, _dense_mismatch_scan,
                       periodic_matches_hd, break_matches_hd, repetitive_matches_hd)
