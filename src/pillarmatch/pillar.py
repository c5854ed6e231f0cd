"""Core string-interface primitives and the backend-independent toolbox.

Every backend (plain in-memory, grammar-compressed) exposes the same small
set of operations on fragment handles: extract, lcp, lcp_r, ipm, access,
length.  Everything else in this package -- periodicity checks, rotation
tests, power lcp queries, exact matching, mismatch/edit generators -- is
written against that interface and therefore runs unchanged over any
backend.  Right-to-left code is forward code run on `Mirror(backend)` over
`flip`ped fragments, whose lcp is the backend's lcp_r.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


class ContractError(ValueError):
    """A caller violated an operation's precondition."""


@dataclass(frozen=True)
class Fragment:
    """Handle to owner[start:end); never holds the characters themselves."""

    owner: int
    start: int
    end: int

    def __len__(self) -> int:
        return self.end - self.start


def extract(s: Fragment, l: int, r: int) -> Fragment:
    """Sub-fragment s[l:r) as a new handle; O(1), no copying."""
    if not (0 <= l <= r <= len(s)):
        raise ContractError(f"extract range [{l},{r}) outside fragment of length {len(s)}")
    return Fragment(s.owner, s.start + l, s.start + r)


@dataclass(frozen=True)
class ArithmeticProgression:
    """The set {first + j*diff : 0 <= j < count}; count 0 is the empty set."""

    first: int
    diff: int
    count: int

    def __post_init__(self) -> None:
        if self.diff < 1 or self.count < 0:
            raise ValueError(f"bad progression ({self.first},{self.diff},{self.count})")

    @property
    def last(self) -> int:
        return self.first + (self.count - 1) * self.diff

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.first, self.first + self.count * self.diff, self.diff))

    def __len__(self) -> int:
        return self.count

    def __contains__(self, x: int) -> bool:
        return self.count > 0 and self.first <= x <= self.last and (x - self.first) % self.diff == 0


EMPTY_PROGRESSION = ArithmeticProgression(0, 1, 0)


class OccurrenceSet:
    """Canonical set of positions stored as disjoint arithmetic progressions.

    Canonical form: the distinct positions in ascending order, encoded
    greedily from the left -- each progression is the longest run with a
    constant gap starting at the first position not yet covered, and a last
    lone position becomes (x, 1, 1).  Built by materializing and
    deduplicating positions, which is exact and cheap at the output sizes
    this package produces.
    """

    __slots__ = ("progressions",)

    def __init__(self, progressions: list[ArithmeticProgression]):
        self.progressions = progressions

    @classmethod
    def empty(cls) -> "OccurrenceSet":
        return cls([])

    @classmethod
    def from_positions(cls, positions: Iterable[int]) -> "OccurrenceSet":
        return cls(_encode(sorted(set(positions))))

    @classmethod
    def from_progressions(cls, progs: Iterable[ArithmeticProgression]) -> "OccurrenceSet":
        return cls(_encode(sorted({x for p in progs for x in p})))

    def positions(self) -> list[int]:
        out: list[int] = []
        for p in self.progressions:
            out.extend(p)
        return out

    def __len__(self) -> int:
        return sum(p.count for p in self.progressions)

    def __iter__(self) -> Iterator[int]:
        for p in self.progressions:
            yield from p

    def __contains__(self, x: int) -> bool:
        return any(x in p for p in self.progressions)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, OccurrenceSet):
            return self.positions() == other.positions()
        if isinstance(other, (set, frozenset, list, tuple)):
            return set(self.positions()) == set(other)
        return NotImplemented

    def __repr__(self) -> str:
        inner = ", ".join(f"({p.first},{p.diff},{p.count})" for p in self.progressions)
        return f"OccurrenceSet[{inner}]"


def _encode(xs: list[int]) -> list[ArithmeticProgression]:
    """Greedy run encoding of an ascending list without duplicates, in the
    canonical form that OccurrenceSet documents."""
    progs: list[ArithmeticProgression] = []
    n = len(xs)
    i = 0
    while i < n - 1:
        first = xs[i]
        d = xs[i + 1] - first
        j = i + 1
        while j + 1 < n and xs[j + 1] - xs[j] == d:
            j += 1
        progs.append(ArithmeticProgression(first, d, j - i + 1))
        i = j + 1
    if i == n - 1:
        progs.append(ArithmeticProgression(xs[i], 1, 1))
    return progs


def _lcp_bytes(a: bytes, b: bytes, i: int, j: int, cap: int) -> int:
    """Longest common prefix of a[i:] and b[j:], at most cap; slice compares."""
    if cap <= 0 or a[i] != b[j]:
        return 0
    lo, step = 1, 1
    while lo + step <= cap and a[i + lo:i + lo + step] == b[j + lo:j + lo + step]:
        lo += step
        step *= 2
    hi = min(cap, lo + step)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if a[i + lo:i + mid] == b[j + lo:j + mid]:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _gallop(eq, cap: int) -> int:
    """Largest l <= cap with eq(l), for eq true up to some length >= 1 and
    false past it: doubling steps, then binary search inside the last one."""
    lo, step = 1, 1
    while lo + step <= cap and eq(lo + step):
        lo += step
        step *= 2
    hi = min(cap, lo + step - 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if eq(mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


def flip(f: Fragment) -> Fragment:
    """f read right to left, as a handle in mirrored coordinates: its
    sub-fragment [l, r) is f's [|f| - r, |f| - l), and flip undoes itself."""
    return Fragment(f.owner, -f.end, -f.start)


class Mirror:
    """A backend seen in the mirror: lcp of flipped fragments is the backend's
    lcp_r of the originals, the lcp of the two reversed strings."""

    def __init__(self, backend):
        self.backend = backend

    def lcp(self, a: Fragment, b: Fragment) -> int:
        return self.backend.lcp_r(flip(a), flip(b))


# ---------------------------------------------------------------------------
# Toolbox operations built on the primitive interface.
# ---------------------------------------------------------------------------

def equal(backend, s: Fragment, t: Fragment) -> bool:
    """True iff the two fragments spell the same string."""
    return len(s) == len(t) and backend.lcp(s, t) == len(s)


def lcp_power(backend, s: Fragment, q: Fragment, l: int, r: int) -> int:
    """lcp(s, q^inf[l:r)): one in-q probe, then the periodic extension, capped.

    Past the partial first copy of q, two probes suffice: the rest of s
    against q itself and, if all of q matched, the rest of s against itself
    shifted by |q| (self-overlap carries the periodic extension).
    """
    if len(q) == 0:
        raise ContractError("lcp_power needs a nonempty period string")
    cap = min(r - l, len(s))
    if cap <= 0:
        return 0
    nq = len(q)
    off = l % nq
    a = backend.lcp(s, extract(q, off, nq))
    if a < nq - off:
        return min(a, cap)
    rest = extract(s, a, len(s))
    b = backend.lcp(rest, q) if len(rest) else 0
    if b == nq < len(rest):
        b += backend.lcp(extract(rest, nq, len(rest)), rest)
    return min(a + b, cap)


def period(backend, s: Fragment) -> int | None:
    """Smallest period of s if it is at most |s|/2, else None.

    Realized as the smallest exact self-overlap: the first occurrence of
    s[0:ceil(n/2)) inside s[1:), verified to extend over the whole string.
    """
    n = len(s)
    if n < 1:
        raise ContractError("period of an empty fragment")
    if n == 1:
        return None
    half = (n + 1) // 2
    occ = backend.ipm(extract(s, 0, half), extract(s, 1, n))
    for hit in occ:
        p = hit + 1
        if p > n // 2:
            break
        if backend.lcp(extract(s, 0, n - p), extract(s, p, n)) == n - p:
            return p
    return None


def rotations(backend, s: Fragment, t: Fragment) -> ArithmeticProgression:
    """All j in [0,|s|) with t equal to s rotated right by j positions."""
    n = len(s)
    if n != len(t):
        raise ContractError("rotations arguments must have equal length")
    if n == 0:
        return EMPTY_PROGRESSION
    sb = backend.bytes_of(s)
    # t occurs at offset n - j of s·s exactly when t is s rotated right by j.
    # Those offsets are f, f + r, ... below n, r the primitive root's length,
    # so the j are the residue -f (mod r) below n.
    hits = _ipm_bytes(backend.bytes_of(t), sb + sb[:-1])
    if hits.count < 2:
        return ArithmeticProgression((-hits.first) % n, 1, 1) if hits.count else hits
    return ArithmeticProgression((-hits.first) % hits.diff, hits.diff, hits.count)


def _find_all(pat: bytes, txt: bytes) -> list[int]:
    """Every start of pat in txt, ascending, by C-level substring scans.

    If the hit after a hit is d <= m/2 further on, pat has smallest period
    d, and the hits from the first one on are every d-th start as far as
    txt keeps period d, which one galloping comparison of txt with itself
    finds (as in _ipm_bytes); the scan resumes past that run.  So a
    periodic pat costs O(n + occ), not one scan of the needle per hit.
    """
    m, n = len(pat), len(txt)
    out: list[int] = []
    pos = txt.find(pat)
    while pos != -1:
        nxt = txt.find(pat, pos + 1)
        if nxt != -1 and 2 * (nxt - pos) <= m:
            run = range(pos, nxt + _lcp_bytes(txt, txt, pos, nxt, n - nxt) - m + 1, nxt - pos)
            out.extend(run)
            nxt = txt.find(pat, run[-1] + 1)
        else:
            out.append(pos)
        pos = nxt
    return out


def _ipm_bytes(pat: bytes, txt: bytes) -> ArithmeticProgression:
    """Every start of pat in txt, for |txt| <= 2|pat|, in linear time.

    Any two such starts lie at most |pat| apart, so the starts form one
    progression whose difference d is the second start minus the first,
    and pat has period d.  Two C-level scans find the first and the second
    start; the progression then runs as far as txt keeps period d from the
    first start on, one galloping comparison of txt with itself.  (rfind
    for the last start would re-read the pattern at each window it tries,
    quadratic on a^(h+1) b a^(h-2) against a^h.)
    """
    first = txt.find(pat)
    if first == -1:
        return EMPTY_PROGRESSION
    second = txt.find(pat, first + 1)
    if second == -1:
        return ArithmeticProgression(first, 1, 1)
    diff = second - first
    end = second + _lcp_bytes(txt, txt, first, second, len(txt) - second)
    return ArithmeticProgression(first, diff, (end - len(pat) - first) // diff + 1)


def exact_matches(backend, p: Fragment, t: Fragment) -> list[int]:
    """Every start of an exact occurrence of p in t (any lengths), ascending."""
    if len(p) < 1:
        raise ContractError("exact_matches pattern must be nonempty")
    n, m = len(t), len(p)
    if n < m:
        return []
    scan = getattr(backend, "scan_exact", None)
    if scan is not None:
        return scan(p, t)
    # Generic route: the ipm window t[lo : min(n, lo+2m-1)) holds exactly the
    # starts in [lo, lo+m), so the windows' hits come out ascending and distinct.
    hits: list[int] = []
    for lo in range(0, n - m + 1, m):
        hits.extend(lo + h for h in backend.ipm(p, extract(t, lo, min(n, lo + 2 * m - 1))))
    return hits


def access(backend, s: Fragment, i: int) -> int:
    """Byte value s[i]."""
    if not 0 <= i < len(s):
        raise ContractError(f"access index {i} outside fragment of length {len(s)}")
    return backend.access(s, i)
