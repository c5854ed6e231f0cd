"""Fully-compressed matching: count and report approximate occurrences of an
SLP-generated pattern inside an SLP-generated text without decompressing the
text.

The pattern is decompressed and analyzed once per query.  Occurrences that
cross the B/C boundary of a binary rule A -> BC, and are not already
witnessed inside B alone, are charged to A.  They lie in a short window
around the boundary, and many rules share one window, so each distinct
window is extracted and matched once per query; the rules sharing it shift
its starts.  A dynamic program over the rule DAG then turns per-symbol
crossing counts into the total, and a count-pruned parse-tree walk reports
positions.
"""

from __future__ import annotations

from .driver import BREAK_DIV, runs
from .edit import analyze_ed, edit_occurrences, verify_ed
from .hamming import analyze_hd, mismatch_occurrences
from .pillar import ContractError, OccurrenceSet, extract
from .slp import Slp
from .standard import StandardBackend

HAMMING = "hamming"
EDIT = "edit"


def _matcher(metric: str):
    if metric == HAMMING:
        return mismatch_occurrences
    if metric == EDIT:
        return edit_occurrences
    raise ContractError(f"unknown metric {metric!r}")


def _terminal_count(byte: int, pattern: bytes, k: int, metric: str) -> int:
    m = len(pattern)
    if metric == HAMMING:
        return 1 if m == 1 and (k >= 1 or pattern[0] == byte) else 0
    slack = 1 if byte in pattern else 0
    return 1 if m - slack <= k else 0


def _window_starts(g_t: Slp, sym: int, bl: int, cl: int, pattern: bytes, k: int,
                   metric: str, match, analysis) -> list[int]:
    """Starts charged to rule sym (A -> BC), local to its window: the last bl
    bytes of gen(B) followed by the first cl bytes of gen(C).  For the edit
    metric a start whose occurrence also fits inside gen(B) is B's, not A's."""
    beta = g_t.t.length[g_t.t.left[sym]]
    window = g_t.extract(beta - bl, beta + cl, root=sym)
    backend = StandardBackend([pattern, window])
    p = backend.handle(0)
    w = backend.handle(1)
    starts = [pos for pos in match(backend, p, w, k, analysis).positions() if pos < bl]
    if metric == EDIT:
        inside = extract(w, 0, bl)
        fits = {pos for run in runs(starts) for pos in verify_ed(backend, p, inside, k, run)}
        starts = [pos for pos in starts if pos not in fits]
    return starts


def _per_symbol(g_t: Slp, g_p: Slp, k: int,
                metric: str) -> tuple[list[int], dict[int, tuple[int, list[int]]]]:
    """Per-symbol occurrence counts, children before parents, and each
    rule's crossing starts as (shift, local): local starts within its window,
    shared by every rule with the same window, and the window's offset shift
    in gen(A).

    With reach = m - 1 + pad, the window of A -> BC is the last
    min(|B|, reach) bytes of gen(B) and the first min(|C|, reach) bytes of
    gen(C).  suf[X] is the first symbol down X's right spine that is a
    terminal or has a right child shorter than reach, so gen(suf[X]) ends with
    the same min(|X|, reach) bytes as gen(X); pre[X] likewise down the left
    spine.  The pair (suf[B], pre[C]) therefore fixes the window: each
    distinct pair is matched once per query, and every other rule sharing it
    only shifts the stored starts.
    """
    match = _matcher(metric)  # an unknown metric fails before any work
    m = g_p.length
    if not 0 <= k <= m:
        raise ContractError("threshold must satisfy 0 <= k <= |pattern|")
    pad = k if metric == EDIT else 0
    if m - pad > g_t.length:  # no occurrence fits; the pattern is never extracted
        return [0] * g_t.n_symbols, {}
    pattern = g_p.extract(0, m)
    analysis = None
    if k and BREAK_DIV * k <= m:  # else the matchers route around the analysis
        backend = StandardBackend([pattern])
        analyze = analyze_hd if metric == HAMMING else analyze_ed
        analysis = analyze(backend, backend.handle(0), k)
    t = g_t.t
    length = t.length
    reach = m - 1 + pad
    suf = list(range(g_t.n_symbols))
    pre = list(range(g_t.n_symbols))
    memo: dict[tuple[int, int], list[int]] = {}
    counts = [0] * g_t.n_symbols
    crossing: dict[int, tuple[int, list[int]]] = {}
    for sym in g_t.order:
        left, right = t.left[sym], t.right[sym]
        if left < 0:
            counts[sym] = _terminal_count(t.byte[sym], pattern, k, metric)
            continue
        if length[right] >= reach:
            suf[sym] = suf[right]
        if length[left] >= reach:
            pre[sym] = pre[left]
        bl = min(length[left], reach)
        cl = min(length[right], reach)
        if bl + cl < m - pad:  # no occurrence fits; covers bl == 0 (reach == 0)
            local: list[int] = []
        else:
            key = (suf[left], pre[right])
            local = memo.get(key)
            if local is None:
                local = memo[key] = _window_starts(g_t, sym, bl, cl, pattern, k, metric,
                                                    match, analysis)
        crossing[sym] = (length[left] - bl, local)
        counts[sym] = counts[left] + counts[right] + len(local)
    return counts, crossing


def count_occurrences_compressed(g_t: Slp, g_p: Slp, k: int, metric: str) -> int:
    """|Occ_k| of gen(g_p) in gen(g_t) for the chosen metric."""
    counts, _ = _per_symbol(g_t, g_p, k, metric)
    total = counts[g_t.start]
    if metric == EDIT and g_p.length <= k:
        total += 1  # the empty suffix at position |text|
    return total


def report_occurrences_compressed(g_t: Slp, g_p: Slp, k: int, metric: str) -> OccurrenceSet:
    """Absolute occurrence positions in gen(g_t), skipping barren subtrees."""
    counts, crossing = _per_symbol(g_t, g_p, k, metric)
    t = g_t.t
    positions: list[int] = []
    stack = [(g_t.start, 0)]
    while stack:
        sym, off = stack.pop()
        if counts[sym] == 0:
            continue
        if t.left[sym] < 0:
            positions.append(off)
            continue
        shift, local = crossing[sym]
        positions.extend(off + shift + pos for pos in local)
        l = t.left[sym]
        stack.append((t.right[sym], off + t.length[l]))
        stack.append((l, off))
    if metric == EDIT and g_p.length <= k:
        positions.append(g_t.length)
    return OccurrenceSet.from_positions(positions)
