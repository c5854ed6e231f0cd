"""Pattern matching with up to k edits (insertions, deletions, substitutions).

All alignments but the dense scan (Myers' bit vectors, for 8k > m or when
marking would verify nearly every start) are Landau-Vishkin bands:
diagonals advanced by lcp jumps.  Two byte-level bands probe bounded
costs: `verify_ed` settles a whole interval of candidate starts in one
band run right to left, and `_min_cost_window` finds the cheapest
alignment from one start, for witness search (where in q^inf a string
aligns best).  Where steps or a traceback are needed, a resumable
generator on the fragment interface's lcp serves instead: its c-th step
reports the longest prefix of a string within c edits of a prefix of a
period's power.  It drives region growth, locked fragments (short pieces
that pin down every error of a near-periodic string) and the synchronized
periodic matcher.  The analysis sweep, the block split, marking and routing
are shared with the mismatch metric in `driver`, run with slack k: an
occurrence may end up to k bytes past m, and marking votes for k-wide
blocks of starts.
"""

from __future__ import annotations

from collections import deque
from itertools import accumulate, compress
from operator import le, sub

from .driver import (DENSITY, ApproxPeriod, Breaks, PatternAnalysis, RepetitiveRegions,
                     analyze, mark_breaks, mark_regions, occurrences, per_block)
from .pillar import (ContractError, Fragment, Mirror, OccurrenceSet, _gallop, _lcp_bytes, extract,
                     flip, lcp_power, rotations)

_NEG = -(1 << 60)
_POPCOUNT = bytes(i.bit_count() for i in range(256))


class EditGenerator:
    """Resumable banded alignment of s against q^inf[offset:].

    The c-th call to next() (counting from zero) returns a pair
    (s_prefix_length, q_prefix_length): the longest prefix of s at edit
    distance at most c from some prefix of q^inf[offset:], and that
    witness prefix's length.  Once all of s is covered the output freezes.
    alignment() replays the edit transcript of the latest result.
    """

    def __init__(self, backend, s: Fragment, q: Fragment, offset: int = 0):
        if len(q) < 1:
            raise ContractError("edit generator needs a nonempty period")
        self.backend = backend
        self.s = s
        self.q = q
        self.offset = offset
        self.calls = -1
        self.frontier: dict[int, int] = {}
        self.trace: dict[tuple[int, int], tuple[int, int, tuple[int | None, int | None]]] = {}
        self.end = False
        self._frozen: tuple[int, int] | None = None
        self._best_diag = 0

    def _slide(self, r: int, diag: int) -> int:
        ns = len(self.s)
        if r >= ns:
            return ns
        rest = extract(self.s, r, ns)
        return r + lcp_power(self.backend, rest, self.q,
                             self.offset + r + diag, self.offset + ns + diag + len(self.s))

    def next(self) -> tuple[int, int]:
        if self.end:
            return self._frozen
        ns = len(self.s)
        self.calls += 1
        c = self.calls
        if c == 0:
            r = self._slide(0, 0)
            self.frontier = {0: r}
            self._best_diag = 0
            if r >= ns:
                self.end = True
                self._frozen = (r, r)
            return (r, r)
        prev = self.frontier
        cur: dict[int, int] = {}
        best_r, best_i = _NEG, 0
        for i in range(-c, c + 1):
            r0, src, edit = _NEG, 0, None
            base = prev.get(i, _NEG)
            if base != _NEG and base + 1 > r0:
                r0, src, edit = base + 1, i, (base, base + i)
            base = prev.get(i - 1, _NEG)
            if base != _NEG and base > r0:
                r0, src, edit = base, i - 1, (None, base + i - 1)
            base = prev.get(i + 1, _NEG)
            if base != _NEG and base + 1 > r0:
                r0, src, edit = base + 1, i + 1, (base, None)
            if r0 == _NEG or r0 + i < 0:
                continue
            r0 = min(r0, ns)
            r = self._slide(r0, i)
            cur[i] = r
            self.trace[(c, i)] = (c - 1, src, edit)
            if r > best_r:
                best_r, best_i = r, i
        self.frontier = cur
        self._best_diag = best_i
        result = (best_r, best_r + best_i)
        if best_r >= ns:
            self.end = True
            self._frozen = result
        return result

    def alignment(self) -> list[tuple[int | None, int | None]]:
        """Edit transcript of the latest next() result, in replay order.

        Entries are (s_position, q_position) for a substitution,
        (s_position, None) for a character of s with no partner, and
        (None, q_position) for a character of q^inf with no partner;
        q positions are relative to the generator's offset.
        """
        if self.calls < 0:
            raise ContractError("alignment requested before the first next()")
        out: list[tuple[int | None, int | None]] = []
        c, i = self.calls, self._best_diag
        while c > 0:
            pc, pi, edit = self.trace[(c, i)]
            out.append(edit)
            c, i = pc, pi
        out.reverse()
        return out


class EditGeneratorR:
    """Mirror of EditGenerator for suffixes of s against suffixes of powers
    of q; end_offset fixes the q^inf position (mod |q|) where the matched
    power ends."""

    def __init__(self, backend, s: Fragment, q: Fragment, end_offset: int = 0):
        self._fwd = EditGenerator(Mirror(backend), flip(s), flip(q), (-end_offset) % len(q))

    def next(self) -> tuple[int, int]:
        return self._fwd.next()


# -- bounded alignment cost probes ------------------------------------------

def _min_cost_window(pb: bytes, tb: bytes, wlo: int, whi: int, k: int
                     ) -> tuple[int, int] | None:
    """The cheapest alignment of pb against a prefix of tb[wlo:whi), if <= k.

    Returns (cost, used): cost is min over r <= whi-wlo of
    delta_E(pb, tb[wlo:wlo+r)), and used is the window length the cheapest
    alignment consumes, m + i for the first (lowest) diagonal i to reach m
    at that cost.  Diagonals advance by galloping byte-level lcp jumps.
    Witness search probes each rotation through this loop; verification
    runs its own band over a whole interval of starts (`verify_ed`).
    """
    m = len(pb)
    nw = whi - wlo
    if nw < m - k:
        return None

    def jump(r: int, diag: int) -> int:
        cap = min(m - r, nw - (r + diag))
        return r + _lcp_bytes(pb, tb, r, wlo + r + diag, cap)

    frontier = {0: jump(0, 0)}
    if frontier[0] >= m:
        return (0, m)
    for c in range(1, k + 1):
        cur: dict[int, int] = {}
        for i in range(-c, c + 1):
            r0 = _NEG
            base = frontier.get(i, _NEG)
            if base != _NEG and base < m and base + i < nw:
                r0 = base + 1
            base = frontier.get(i - 1, _NEG)
            if base != _NEG and base + i - 1 < nw and base > r0:
                r0 = base
            base = frontier.get(i + 1, _NEG)
            if base != _NEG and base < m and base + 1 > r0:
                r0 = base + 1
            if r0 == _NEG or r0 + i < 0 or r0 + i > nw:
                continue
            r = jump(r0, i)
            cur[i] = r
            if r >= m:
                return (c, m + i)
        if not cur:
            return None
        frontier = cur
    return None


def verify_ed(backend, p: Fragment, t: Fragment, k: int,
              interval: tuple[int, int]) -> list[int]:
    """Occurrence starts of p in t within the closed interval, ascending.

    A start qualifies when some prefix of t[pos:] is within k edits of p.
    Every start of the interval is settled by one Landau-Vishkin band
    (k-differences, J. Algorithms 10(2), 1989) run right to left over the
    window tb = t[lo : hi+m+k), the only text a start can reach, with p's
    bytes: the occurrence's end is free, its start fixed.  Diagonal o is
    the alignments that end at window offset o; row r on it has matched
    p's last r bytes, up to offset o - r.  A level adds one edit: a
    substitution keeps o, a skipped text byte comes from o + 1 at the same
    row, a skipped pattern byte from o - 1 one row on.  Rows reach m at
    most, and o at most (offset 0 is the window's start); a clamped
    diagonal keeps feeding its neighbours.  Start lo + s qualifies when
    diagonal s + m reaches row m within k levels.

    Level 0 galloping runs on the target diagonals first, and on the 2k
    flank diagonals only if some target is still undecided; level e spans
    the hull of the undecided targets widened by the k - e levels left.
    An interval of W starts costs about (W + 2k)(k + 1) backward lcp jumps.
    """
    m, n = len(p), len(t)
    k = min(k, m)  # deleting all of p costs m: with k >= m every start up to n qualifies
    lo, hi = max(0, interval[0]), min(interval[1], n - m + k)
    if hi < lo:
        return []
    end = min(n, hi + m + k)
    pb = backend.bytes_of(p)
    tb = backend.bytes_of(extract(t, lo, end))
    nw = end - lo
    base = m - k  # the lowest diagonal that can reach a target within k levels
    top = hi - lo + m
    first, last = m, top  # the hull of the undecided target diagonals
    rows = [_NEG] * (top - base + k + 1)

    def slide(o: int, r: int) -> int:
        # row r of diagonal o, clamped, then one backward lcp jump
        c = m if m < o else o
        if r >= c:
            return c
        if pb[m - r - 1] != tb[o - r - 1]:
            return r
        a, b = m - r, o - r
        return r + _gallop(lambda l: pb[a - l:a] == tb[b - l:b], c - r)

    def level0(a: int, b: int) -> None:
        for o in range(a, min(b, nw) + 1):
            rows[o - base] = slide(o, 0)

    level0(m, top)
    e = 0
    while True:
        while first <= last and rows[first - base] >= m:
            first += 1
        while first <= last and rows[last - base] >= m:
            last -= 1
        if first > last or e == k:
            break
        if e == 0:
            level0(first - k, m - 1)
            level0(top + 1, last + k)
        e += 1
        left = rows[first - k + e - base - 1]
        for i in range(first - k + e - base, last + k - e - base + 1):
            here = rows[i]
            r = (left if left > here else here) + 1
            if rows[i + 1] > r:
                r = rows[i + 1]
            left = here
            if r >= 0:
                rows[i] = slide(i + base, r)
    return [lo + o - m for o in range(m, hi - lo + m + 1) if rows[o - base] >= m]


# -- pattern analysis ---------------------------------------------------------

def analyze_ed(backend, p: Fragment, k: int) -> PatternAnalysis:
    """Structural decomposition of p for the edit metric (see driver.analyze)."""
    return analyze(backend, p, k, _grow_ed)


def _grow_ed(backend, p: Fragment, k: int, j: int, jp: int, q: int) -> int | PatternAnalysis:
    """Grow p[j:jp) error by error through the alignment generator against
    its period q.  Running off the pattern's end turns into a backward pass
    that rescans the whole pattern against the rotation where the forward
    alignment ended, giving one suffix region or an approximate period."""
    m = len(p)
    qfrag = extract(p, j, j + q)
    gen = EditGenerator(backend, extract(p, j, m), qfrag, 0)
    delta = 0
    qend = 0
    while delta * m < DENSITY * k * (jp - j) and jp <= m:
        pi, qend = gen.next()
        jp = j + pi + 1
        delta += 1
    if jp <= m:
        return jp
    rgen = EditGeneratorR(backend, p, qfrag, qend % q)
    jpp = m
    delta = 0
    while (jpp >= j or delta * m < DENSITY * k * (m - jpp)) and jpp >= 0:
        pi, _ = rgen.next()
        jpp = m - pi - 1
        delta += 1
    if jpp >= 0:
        return RepetitiveRegions(((jpp, m - jpp, j, q),))
    return ApproxPeriod(j, q)


# -- witnesses and locked fragments -------------------------------------------

def find_a_witness(backend, k: int, q: Fragment, s: Fragment
                   ) -> tuple[int, int, int] | None:
    """A window q^inf[x:y) with delta_E(s, that window) minimal and <= k.

    Returns (x, y, cost) with x in [0, |q|), or None when s is more than k
    edits from every substring of q^inf.  Candidate rotations come from a
    voting pass over the first 2k+1 period-length blocks of s: every
    rotation within k edits lies within k of k+1 agreeing votes, so only
    the union of those arcs is probed, in ascending order, and the least
    cost is the same as over all rotations.  Short periods (or short s)
    fall back to probing every rotation.  The lowest probed x of least cost
    wins.

    Each rotation x is probed by _min_cost_window on the bytes of s against
    one materialized stretch of q^inf, as the window [x, x + |s| + k); the
    probe's `used` gives y = x + used.  This agrees with a Landau-Vishkin
    loop over q^inf itself through interface lcp, whose one guard drops
    diagonals at negative q^inf indices, and with the end an EditGenerator
    replay from x reports:
    - the q-side index x + r + i of every diagonal stays >= x >= 0, by
      induction over the three transitions (from i with r+1, from i-1 with
      r, from i+1 with r+1), and <= x + |s| + k, as r <= |s| and i <= k;
      both loops stop once a diagonal reaches |s|; so neither that guard
      nor the kernel's window bounds ever bind, and both loops build the
      same frontier;
    - the first diagonal to reach |s| at the minimal cost is the smallest
      such i in both loops, which is the diagonal EditGenerator reports, as
      it keeps the first i with the largest r; so y is the same.
    """
    nq, ns = len(q), len(s)
    if nq <= 3 * k + 1 or ns < (2 * k + 1) * nq:
        xs = range(nq)
    else:
        votes: list[int] = []
        for i in range(2 * k + 1):
            block = extract(s, i * nq, (i + 1) * nq)
            votes.extend(rotations(backend, block, q))
        votes.sort()
        if len(votes) < k + 1:
            return None
        ext = votes + [v + nq for v in votes]
        xs = sorted({x % nq for idx in range(len(votes)) if ext[idx + k] - ext[idx] <= k
                     for x in range(ext[idx + k] - k, ext[idx] + k + 1)})
        if not xs:
            return None
    sb = backend.bytes_of(s)
    qb = backend.bytes_of(q) * ((ns + k) // nq + 2)  # covers [x, x + ns + k) for x < nq
    best: tuple[int, int, int] | None = None
    bound = k
    for x in xs:
        probe = _min_cost_window(sb, qb, x, x + ns + k, bound)
        if probe is not None:
            best = (x, x + probe[1], probe[0])
            if probe[0] == 0:
                break
            bound = probe[0] - 1  # only a strictly cheaper x can replace it
    return best


def locked(backend, s: Fragment, q: Fragment, d: int, k: int,
           witness: tuple[int, int, int] | None = None) -> tuple[tuple[int, int], ...]:
    """Locked fragments of s with respect to q: disjoint pieces (offset,
    length) of s, ascending, covering all edit errors against powers of q;
    the first is a prefix of s and the last a suffix.

    The optimal alignment from a witness is cut at period boundaries into
    single-period pieces carrying their error counts, then pieces merge:
    adjacent interesting pieces coalesce, and any piece with leftover
    budget swallows a clean period-copy on each side until its budget is
    spent.  The prefix piece starts with budget k+1.  `witness` is
    find_a_witness(backend, d, q, s), computed here when not given.
    """
    ns, nq = len(s), len(q)
    w = witness or find_a_witness(backend, d, q, s)
    if w is None:
        raise ContractError("locked() requires the string to be within d edits of a q-power")
    x = w[0]
    gen = EditGenerator(backend, s, q, x)
    pi, qlam = gen.next()
    while pi < ns:
        pi, qlam = gen.next()
    events = gen.alignment() + [(pi, qlam)]

    l_q = x
    r_q = nq * ((x + nq - 1) // nq)
    l_s = 0
    r_s = r_q - l_q
    budget = k + 1
    queue: deque[tuple[int, int, int]] = deque()
    for idx, (sp, qp) in enumerate(events):
        sentinel = idx == len(events) - 1
        if sp is None:
            sp = qp + x + r_s - r_q - 1
        if qp is None:
            qp = sp - x + r_q - r_s - 1
        if x + qp >= r_q:
            lo, hi = min(l_s, ns), min(max(l_s, r_s), ns)
            queue.append((lo, hi, budget))
            new_lq = nq * ((x + qp) // nq)
            l_s = r_s + (new_lq - r_q)
            l_q = new_lq
            r_q = l_q + nq
            budget = 0
        r_s = r_q - x + sp - qp
        if not sentinel:
            budget += 1
    queue.append((min(l_s, ns), ns, budget))

    stack: list[tuple[int, int]] = []
    while queue:
        l, r, budget = queue.popleft()
        while True:
            if stack and stack[-1][1] == l:
                l = stack.pop()[0]
            elif queue and queue[0][0] == r:
                l2, r2, b2 = queue.popleft()
                r = r2
                budget += b2
            elif budget > 0:
                l = max(0, l - nq)
                r = min(ns, r + nq)
                budget -= 1
            else:
                stack.append((l, r))
                break
    return tuple((l, r - l) for l, r in stack)


# -- periodic machinery --------------------------------------------------------

def find_relevant_fragment_ed(backend, p: Fragment, t: Fragment, k: int, d: int,
                              q: Fragment, witness: tuple[int, int, int]
                              ) -> tuple[Fragment | None, tuple[int, int] | None]:
    """Fragment of t holding every k-edit occurrence of p, plus a residue range.

    The returned interval I (closed, in fragment-local coordinates) covers
    occurrence start positions modulo |q|.  Returns (None, None) when the
    text's middle window is not close to any rotation of q.  `witness` is
    find_a_witness(backend, d, q, p).
    """
    m, n, nq = len(p), len(t), len(q)
    if 2 * n >= 3 * m + 2 * k:
        raise ContractError("relevant-fragment scan needs n < 3m/2 + k")
    if n < m - k:
        return (None, None)
    x = witness[0]
    mid_lo, mid_hi = max(0, n - m + k), min(n, m - k)
    if mid_lo > mid_hi:
        raise ContractError("text too long relative to the pattern for this scan")
    w2 = find_a_witness(backend, (3 * d) // 2, q, extract(t, mid_lo, mid_hi))
    if w2 is None:
        return (None, None)
    x2, y2, _ = w2
    budget = (3 * d) // 2
    gen = EditGenerator(backend, extract(t, mid_lo, n), q, x2)
    lam = 0
    for _ in range(budget + 1):
        lam, _ = gen.next()
    r = mid_lo + lam
    rgen = EditGeneratorR(backend, extract(t, 0, mid_hi), q, y2 % nq)
    lam2 = 0
    for _ in range(budget + 1):
        lam2, _ = rgen.next()
    left = mid_hi - lam2
    center = mid_lo - left + x - x2
    return (extract(t, left, r), (center - 3 * d, center + 3 * d))


def _arc_runs(a: int, b: int, ilo: int, ihi: int, nq: int):
    """Maximal subranges of [a,b] whose positions are ≡ [ilo..ihi] (mod nq)."""
    if b < a:
        return
    width = ihi - ilo
    if width >= nq - 1:
        yield (a, b)
        return
    start = a + ((ilo - a) % nq) - nq
    s = start
    while s <= b:
        lo = max(a, s)
        hi = min(b, s + width)
        if lo <= hi:
            yield (lo, hi)
        s += nq


def synched_matches(backend, p: Fragment, t: Fragment, interval: tuple[int, int] | None,
                    k: int, dp: int, q: Fragment,
                    p_locked: tuple[tuple[int, int], ...]) -> OccurrenceSet:
    """k-edit occurrences of p in t whose starts are ≡ interval (mod |q|).

    Positions near locked fragments of either string (or near the text's
    tail) are verified directly; each remaining stretch is resolved by
    verifying one period-length window and replicating the answer along
    the period grid.  `p_locked` is locked(backend, p, q, d, k) for p's
    distance bound d; the text's pieces are locked(backend, t, q, dp, 0).
    """
    m, n, nq = len(p), len(t), len(q)
    if interval is None:
        return OccurrenceSet.empty()
    max_start = n - m + k
    if max_start < 0:
        return OccurrenceSet.empty()
    ilo, ihi = interval
    if ihi - ilo + 1 > nq:
        ilo, ihi = 0, nq - 1
    t_locked = locked(backend, t, q, dp, 0)
    spans: list[tuple[int, int]] = [(n - m - k, n - m + k)]
    for poff, pln in p_locked:
        pl, pr = poff, poff + pln
        for toff, tln in t_locked:
            tl, tr = toff, toff + tln
            a, b = tl - pr - k + 1, tr - pl + k - 1
            if a <= b:
                spans.append((a, b))
    clipped = []
    for a, b in spans:
        a, b = max(a, 0), min(b, max_start)
        if a <= b:
            clipped.append((a, b))
    clipped.sort()
    marked: list[tuple[int, int]] = []
    for a, b in clipped:
        if marked and a <= marked[-1][1] + 1:
            marked[-1] = (marked[-1][0], max(marked[-1][1], b))
        else:
            marked.append((a, b))
    positions: list[int] = []
    for a, b in marked:
        for lo, hi in _arc_runs(a, b, ilo, ihi, nq):
            positions.extend(verify_ed(backend, p, t, k, (lo, hi)))
    # Unmarked stretches: one period window decides the whole stretch.
    cursor = 0
    gaps: list[tuple[int, int]] = []
    for a, b in marked:
        if cursor <= a - 1:
            gaps.append((cursor, a - 1))
        cursor = b + 1
    if cursor <= max_start:
        gaps.append((cursor, max_start))
    for a, b in gaps:
        probe_hi = min(b, a + nq - 1)
        for lo, hi in _arc_runs(a, probe_hi, ilo, ihi, nq):
            for pos in verify_ed(backend, p, t, k, (lo, hi)):
                positions.extend(range(pos, b + 1, nq))
    return OccurrenceSet.from_positions(positions)


def periodic_matches_ed(backend, p: Fragment, t: Fragment, k: int, d: int,
                        q: Fragment, witness: tuple[int, int, int] | None = None
                        ) -> OccurrenceSet:
    """All k-edit occurrences when p is within d edits of a power of q.

    `witness` is find_a_witness(backend, d, q, p), searched here when not given.
    """
    m, nq = len(p), len(q)
    if d < max(1, 2 * k):
        raise ContractError("periodic matching needs d >= 2k, d >= 1")
    if 8 * d * nq > m:
        raise ContractError("periodic matching needs |q| <= m/(8d)")
    if len(t) < m - k:
        return OccurrenceSet.empty()
    # The pattern side is the same in every block: one witness, and locked
    # fragments once some block needs them.
    if witness is None:
        witness = find_a_witness(backend, d, q, p)
    if witness is None:
        raise ContractError("pattern is not within d edits of a q-power")
    p_locked: tuple[tuple[int, int], ...] | None = None

    def solve(block: Fragment):
        nonlocal p_locked
        frag, interval = find_relevant_fragment_ed(backend, p, block, k, d, q, witness)
        if not frag:
            return block, []
        if p_locked is None:
            p_locked = locked(backend, p, q, d, k, witness)
        return frag, synched_matches(backend, p, frag, interval, k, 3 * d, q,
                                     p_locked).progressions

    return per_block(t, m, k, solve)


# -- marking drivers ------------------------------------------------------------

def _verified_ed(backend, p: Fragment, t: Fragment, k: int, lo: int, hi: int) -> list[int]:
    return verify_ed(backend, p, t, k, (lo, hi))


def _near_power_ed(backend, p: Fragment, off: int, per: int, d: int
                   ) -> tuple[Fragment, tuple[int, int, int]] | None:
    """(q, witness) for q = p[off:off+per) when p is within d edits of a
    substring of q^inf, else None; the witness is find_a_witness(backend, d,
    q, p), handed on so that the periodic matcher does not search again."""
    q = extract(p, off, off + per)
    witness = find_a_witness(backend, d, q, p)
    return None if witness is None else (q, witness)


def break_matches_ed(backend, p: Fragment, t: Fragment, analysis: Breaks, k: int) -> OccurrenceSet:
    """Block-marking driver for patterns with 2k aperiodic breaks (or the
    periodic matcher, when a break's period is short enough and fits all of p)."""
    return mark_breaks(backend, p, t, analysis, k, k, _near_power_ed, periodic_matches_ed,
                       _verified_ed, _dense_edit_scan)


def repetitive_matches_ed(backend, p: Fragment, t: Fragment,
                          analysis: RepetitiveRegions, k: int) -> OccurrenceSet:
    """Weighted block-marking driver over repetitive regions."""
    return mark_regions(backend, p, t, analysis, k, k, periodic_matches_ed, _verified_ed,
                        _dense_edit_scan)


# -- top level -------------------------------------------------------------------

def _dense_edit_scan(backend, p: Fragment, t: Fragment, k: int) -> OccurrenceSet:
    """Every start i (0..n) where some t[i:j) is within k edits of p, by
    Myers' bit-vector algorithm (J. ACM 46(3), 1999) on Python ints,
    transposed: one step per pattern byte, from the last, with bit vectors
    over the n text positions.

    The table is D[i][j], the least cost of the last i pattern bytes against
    t[n-j : n-j+r) for some r, so D[0][j] = 0 (an occurrence's end is free:
    Pv = Mv = 0 at the start) and D[i][0] = i (a carry of 1 into Ph at each
    step).  Bit j-1 of Pv / Mv says D[i][j] - D[i][j-1] is +1 / -1; bit
    n-1-s of the pattern byte's mask says t[s] is that byte.  Start n - j
    qualifies when D[m][j] = m + (the +1s minus the -1s below bit j) <= k;
    start n when m <= k.
    """
    pb, tb = backend.bytes_of(p), backend.bytes_of(t)
    m, n = len(pb), len(tb)
    mask = (1 << n) - 1
    # the leading "0" parses an empty text as 0
    peq = {c: int(b"0" + tb.translate(b"0" * c + b"1" + b"0" * (255 - c)), 2) for c in set(pb)}
    pv = mv = 0
    for c in reversed(pb):
        eq = peq[c]
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = ((mv | ((xh | pv) ^ mask)) << 1) | 1
        mh = (pv & xh) << 1
        pv = (mh | ((xv | ph) ^ mask)) & mask
        mv = ph & xv
    # D[m][8b] is m plus the running sum of the byte lanes (8 + the popcount
    # of Pv's byte b - that of Mv's) less 8b.  Within byte b the score falls
    # by at most the popcount of Mv's byte, so only bytes where it can reach
    # k are walked bit by bit.
    size = (n + 7) // 8
    up, down = pv.to_bytes(size, "little"), mv.to_bytes(size, "little")
    falls = down.translate(_POPCOUNT)
    lanes = (int.from_bytes(up.translate(_POPCOUNT), "little") - int.from_bytes(falls, "little")
             + int.from_bytes(b"\x08" * size, "little")).to_bytes(size, "little")
    entry = list(accumulate(lanes, initial=m))
    found = [n] if m <= k else []
    for b in compress(range(size), map(le, map(sub, entry, falls), range(k, k + 8 * size, 8))):
        score, u, d = entry[b] - 8 * b, up[b], down[b]
        for bit in range(min(8, n - 8 * b)):
            score += (u >> bit & 1) - (d >> bit & 1)
            if score <= k:
                found.append(n - 1 - 8 * b - bit)
    return OccurrenceSet.from_positions(found)


def edit_occurrences(backend, p: Fragment, t: Fragment, k: int,
                     analysis: PatternAnalysis | None = None) -> OccurrenceSet:
    """All positions i (0..n) where some t[i:j) is within k edits of p."""
    return occurrences(backend, p, t, k, analysis, k, analyze_ed, _dense_edit_scan,
                       periodic_matches_ed, break_matches_ed, repetitive_matches_ed)
