"""Plain in-memory backend: byte strings plus one prefix-doubling LCE index.

Each registered string is held once.  The strings form one integer corpus,
each string followed by a unique negative separator.  Its
longest-common-extension index is the rank levels of a prefix-doubling
suffix sort, level t naming every window of width*2^t symbols, built on the
first lcp, so pure scanning workloads (exact matching, character access)
build nothing.  Verification asks no lcp either: Hamming verification XORs
the two fragments' bytes, and edit verification compares bytes too.  The
callers that still build the index are the mismatch and edit-error
generators (the analysis' region growth among them), the periodic
machinery and `period`.  An lcp of L is about 2*log2(L/width) rank
lookups, up the levels and back down (fewer under a shorter cap), and one
byte compare shorter than width.  lcp_r, the only right-to-left read,
gallops backwards over the stored bytes and never builds the index.
"""

from __future__ import annotations

import numpy as np

from .pillar import ArithmeticProgression, ContractError, Fragment, _find_all, _gallop, \
    _ipm_bytes, _lcp_bytes


def _rank_levels(arr: np.ndarray) -> tuple[int, list[memoryview]]:
    """The rank levels of a prefix-doubling sort (Manber-Myers) of an integer
    array's suffixes, as Karp-Miller-Rosenberg names: (width, levels) with
    levels[t][i] == levels[t][j] exactly when arr[i : i + width*2^t] equals
    arr[j : j + width*2^t], a window that runs past the end being distinct.

    Initial ranks compare packed prefixes: symbols are renumbered 1..sigma
    and as many as fit in 62 bits (width of them) are packed into one int64,
    0 standing for past-the-end.  Each doubling round re-sorts only the
    suffixes whose rank group still holds more than one suffix, by one
    stable argsort of the int64 key rank*(n+1) + second + 1, second being the
    rank h positions on (-1 past the end).  A suffix's rank is the position
    of its group's first member in the current order, so settled suffixes
    are never touched again.  The level at which every rank differs is not
    kept; the others are copied in the smallest unsigned type that holds n,
    behind memoryviews, whose items index as Python ints.
    """
    n = len(arr)
    _, codes = np.unique(arr, return_inverse=True)
    codes = codes.astype(np.int64) + 1
    bits = int(codes.max()).bit_length()
    width = max(1, 62 // bits)
    packed = np.zeros(n, dtype=np.int64)
    for j in range(min(width, n)):
        packed[: n - j] |= codes[j:] << (bits * (width - 1 - j))
    sa = np.argsort(packed, kind="stable")
    key = packed[sa]
    head = np.empty(n, dtype=bool)  # head[i]: sa[i] starts a rank group
    head[0] = True
    np.not_equal(key[1:], key[:-1], out=head[1:])
    rank = np.empty(n, dtype=np.int64)
    rank[sa] = np.maximum.accumulate(np.where(head, np.arange(n), 0))
    levels = []
    level_type = np.min_scalar_type(n)
    h = width
    while True:
        alone = head & np.append(head[1:], True)
        idx = np.flatnonzero(~alone)
        if len(idx) == 0:
            return width, levels
        levels.append(memoryview(rank.astype(level_type)))
        p = sa[idx]
        second = np.zeros(len(p), dtype=np.int64)
        nxt = p + h
        inside = nxt < n
        second[inside] = rank[nxt[inside]] + 1
        key = rank[p] * (n + 1) + second
        o = np.argsort(key, kind="stable")
        p, key = p[o], key[o]
        sa[idx] = p
        brk = np.empty(len(idx), dtype=bool)
        brk[0] = True
        np.not_equal(key[1:], key[:-1], out=brk[1:])
        head[idx] = brk
        rank[p] = idx[np.maximum.accumulate(np.where(brk, np.arange(len(idx)), 0))]
        h *= 2


def _build_index(strings: list[bytes]) -> tuple[int, list[memoryview], list[int]]:
    """LCE index over a corpus: the strings in order, each followed by a
    unique negative separator.  Returns the corpus's (width, rank levels)
    and the corpus offset of each string."""
    total = sum(len(s) + 1 for s in strings)
    corpus = np.empty(total, dtype=np.int64)
    starts = []
    pos = 0
    for i, s in enumerate(strings):
        starts.append(pos)
        corpus[pos:pos + len(s)] = np.frombuffer(s, dtype=np.uint8)
        corpus[pos + len(s)] = -1 - i
        pos += len(s) + 1
    return (*_rank_levels(corpus), starts)


class StandardBackend:
    """In-memory strings with lcp by binary lifting after a lazy index build.

    Owner i is the i-th registered string.
    """

    def __init__(self, strings: list[bytes]):
        if sum(len(s) for s in strings) < 1:
            raise ContractError("backend needs at least one nonempty string")
        self._strings = [bytes(s) for s in strings]
        # the LCE index, built by the first lcp: (width, rank levels, corpus
        # offset of each string), as _build_index returns it
        self._rank: tuple[int, list[memoryview], list[int]] | None = None

    # -- handle plumbing ----------------------------------------------------

    def handle(self, index: int) -> Fragment:
        """Whole-string handle for the index-th registered string."""
        return Fragment(index, 0, len(self._strings[index]))

    def bytes_of(self, f: Fragment) -> bytes:
        return self._strings[f.owner][f.start:f.end]

    # -- primitive operations ----------------------------------------------

    def access(self, f: Fragment, i: int) -> int:
        return self._strings[f.owner][f.start + i]

    def lcp(self, a: Fragment, b: Fragment) -> int:
        """Longest common prefix: skip width*2^t bytes whenever level t of the
        index names both windows alike, walking up from level 0 to the first
        level that differs and then back down to 0, then compare the last
        fewer than width bytes.  An LCE of L under a cap c costs about
        2*log2(min(L, c)/width) lookups."""
        la, lb = len(a), len(b)
        if la == 0 or lb == 0:
            return 0
        if a.owner == b.owner and a.start == b.start:
            return min(la, lb)
        sa_, sb_ = self._strings[a.owner], self._strings[b.owner]
        if sa_[a.start] != sb_[b.start]:
            return 0
        if self._rank is None:
            # _rank is the guard and is assigned last, so concurrent readers
            # never see a half-built index
            self._rank = _build_index(self._strings)
        width, levels, starts = self._rank
        cap = min(la, lb)
        i, j = starts[a.owner] + a.start, starts[b.owner] + b.start
        top = min(len(levels), (cap // width).bit_length())
        acc = t = 0
        # Up until level t differs at acc, or t reaches the cap's level or the
        # unkept level where every rank differs: the rest of the LCE, or of
        # the cap, is then under width*2^t.  Then down, one bit per level.
        while t < top and levels[t][i + acc] == levels[t][j + acc]:
            acc += width << t
            if acc >= cap:
                return cap
            t += 1
        for t in range(t - 1, -1, -1):
            if levels[t][i + acc] == levels[t][j + acc]:
                acc += width << t
                if acc >= cap:
                    return cap
        return acc + _lcp_bytes(sa_, sb_, a.start + acc, b.start + acc, min(width, cap - acc))

    def lcp_r(self, a: Fragment, b: Fragment) -> int:
        """Longest common suffix of a and b, galloping backwards over the
        stored bytes."""
        cap = min(len(a), len(b))
        if cap == 0 or (a.owner == b.owner and a.end == b.end):
            return cap
        sa_, sb_, ea, eb = self._strings[a.owner], self._strings[b.owner], a.end, b.end
        if sa_[ea - 1] != sb_[eb - 1]:
            return 0
        return _gallop(lambda l: sa_[ea - l:ea] == sb_[eb - l:eb], cap)

    def scan_exact(self, p: Fragment, t: Fragment) -> list[int]:
        """All exact occurrences of p in t by a C-level substring scan."""
        return _find_all(self.bytes_of(p), self.bytes_of(t))

    def ipm(self, p: Fragment, t: Fragment) -> ArithmeticProgression:
        if len(p) < 1:
            raise ContractError("ipm pattern must be nonempty")
        if len(t) > 2 * len(p):
            raise ContractError("ipm window longer than twice the pattern")
        return _ipm_bytes(self.bytes_of(p), self.bytes_of(t))
