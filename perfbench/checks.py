"""Reference answers for every benchmark query, computed after timing.

Hamming answers are compared with ``oracle.brute_hd_occurrences`` over the
whole text, in overlapping chunks (its full sliding-window view would need
n*m bytes).  Edit answers are compared with ``oracle.brute_ed_occurrences``
on text windows t[a:b], which decide every start i with i + m + k <= b
exactly: the whole text where that is cheap (every plain-periodic query),
otherwise windows around the planted starts, around every reported start,
one step before and after each reported progression, and at seeded random
places.
Compressed answers are compared with a closed form for runs of one byte,
and otherwise with the oracle on the decompressed text.
"""

from __future__ import annotations

import random

from pillarmatch.oracle import brute_ed_occurrences, brute_hd_occurrences
from workloads import EDIT, HAMMING

# Above this many cells of the oracle's dynamic program (pattern length x
# window length x band width), edit answers are checked on windows.  Every
# plain-periodic query (n <= 2^13, m * (2k + 1) <= 2048 * 9) is below it,
# so its progression-shaped answers are checked on the whole text.
_FULL_EDIT_CELLS = 80_000_000
_WINDOW_STARTS = 96


def expand(progressions) -> list[int]:
    out: list[int] = []
    for first, diff, count in progressions:
        out.extend(range(first, first + diff * count, diff))
    return out


def hamming_reference(pattern: bytes, text: bytes, k: int) -> set[int]:
    m, n = len(pattern), len(text)
    chunk = max(1, (1 << 22) // m)
    found: set[int] = set()
    for a in range(0, max(0, n - m + 1), chunk):
        part = text[a:a + chunk + m - 1]
        found.update(a + i for i in brute_hd_occurrences(pattern, part, k))
    return found


def edit_windows(pattern: bytes, text: bytes, k: int, progs, planted: list[int],
                 rng: random.Random) -> list[tuple[int, int]]:
    """Start ranges [lo, hi] to decide with the oracle.  A progression cut
    short or started late misses its next term, one step past either end,
    so those starts are decided too."""
    m, n = len(pattern), len(text)
    if m * (n + 1) * (2 * k + 1) <= _FULL_EDIT_CELLS:
        return [(0, n)]
    points = set(planted) | set(expand(progs))
    for first, diff, count in progs:
        points.update((first - diff, first + diff * count))
    points = sorted(i for i in points if 0 <= i <= n)
    ranges = [(max(0, i - k), i + k) for i in points]
    for _ in range(2):
        lo = rng.randrange(n + 1)
        ranges.append((lo, lo + _WINDOW_STARTS))
    ranges.sort()
    merged: list[list[int]] = []
    for lo, hi in ranges:
        hi = min(hi, n)
        if merged and lo <= merged[-1][1] + 1:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return [(lo, hi) for lo, hi in merged]


def edit_agrees(pattern: bytes, text: bytes, k: int, progs, planted: list[int],
                rng: random.Random) -> bool:
    m, n = len(pattern), len(text)
    got = set(expand(progs))
    for lo, hi in edit_windows(pattern, text, k, progs, planted, rng):
        b = min(n, hi + m + k)
        decided_hi = hi if b == n else min(hi, b - m - k)
        want = {lo + i for i in brute_ed_occurrences(pattern, text[lo:b], k)}
        for i in range(lo, decided_hi + 1):
            if (i in want) != (i in got):
                return False
    return True


def plain_agrees(metric: str, pattern: bytes, text: bytes, k: int, progs,
                 planted: list[int], rng: random.Random) -> bool:
    """progs: the reported (first, diff, count) progressions."""
    if metric == HAMMING:
        return set(expand(progs)) == hamming_reference(pattern, text, k)
    return edit_agrees(pattern, text, k, progs, planted, rng)


def run_reference(metric: str, pattern: bytes, length: int, byte: int, k: int) -> range:
    """Occurrences of pattern in byte^length, in closed form.

    With c bytes of the pattern other than ``byte``: a Hamming window
    matches iff c <= k.  For edits, ed(P, byte^L) = max(m, L) - min(m - c, L),
    which is at most k for some L <= length - i iff c <= k and
    length - i >= max(0, m - k).
    """
    m = len(pattern)
    c = sum(1 for x in pattern if x != byte)
    if c > k:
        return range(0)
    if metric == HAMMING:
        return range(max(0, length - m + 1))
    return range(max(0, length - max(0, m - k) + 1))


def compressed_reference(metric: str, pattern: bytes, text: bytes, k: int) -> set[int]:
    if metric == EDIT:
        return brute_ed_occurrences(pattern, text, k)
    return hamming_reference(pattern, text, k)
