"""Plain in-memory backend: byte strings plus one suffix-array LCE index.

Each registered string is held once.  The strings form one integer corpus,
each string followed by a unique negative separator, and its
longest-common-extension structure -- suffix array, lcp array, and a blocked
range-minimum table -- is built on the first lcp, so pure scanning workloads
(exact matching, character access) build nothing.  lcp_r, the only
right-to-left read, gallops backwards over the stored bytes and never builds
the index.
"""

from __future__ import annotations

import numpy as np

from .pillar import ArithmeticProgression, ContractError, Fragment, _find_all, _gallop, \
    _ipm_bytes


def _suffix_array(arr: np.ndarray) -> np.ndarray:
    """Suffix array of an integer array by prefix doubling (Manber-Myers).

    Initial ranks compare packed prefixes: symbols are renumbered 1..sigma
    and as many as fit in 62 bits are packed into one int64, 0 standing for
    past-the-end.  Each doubling round re-sorts only the suffixes whose rank
    group still holds more than one suffix, by one stable argsort of the int64
    key rank*(n+1) + second + 1, second being the rank h positions on (-1
    past the end).  A suffix's rank is the position of its group's first
    member in the current order, so settled suffixes are never touched
    again.
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
    h = width
    while True:
        alone = head & np.append(head[1:], True)
        idx = np.flatnonzero(~alone)
        if len(idx) == 0:
            return sa
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


def _lcp_array(text: list[int], sa: np.ndarray, rank: np.ndarray) -> np.ndarray:
    """Kasai's algorithm; lcp[i] = lcp(suffix sa[i-1], suffix sa[i])."""
    n = len(text)
    lcp = np.zeros(n, dtype=np.int32)
    sa_list = sa.tolist()
    rank_list = rank.tolist()
    h = 0
    for i in range(n):
        r = rank_list[i]
        if r > 0:
            j = sa_list[r - 1]
            while i + h < n and j + h < n and text[i + h] == text[j + h]:
                h += 1
            lcp[r] = h
            if h:
                h -= 1
        else:
            h = 0
    return lcp


class _BlockRmq:
    """Range-minimum over an int array: sparse table on block minima."""

    BLOCK = 32

    def __init__(self, arr: np.ndarray):
        self.arr = arr
        nb = (len(arr) + self.BLOCK - 1) // self.BLOCK
        pad = nb * self.BLOCK - len(arr)
        blocks = np.concatenate((arr, np.full(pad, np.iinfo(arr.dtype).max, arr.dtype)))
        mins = blocks.reshape(nb, self.BLOCK).min(axis=1)
        table = [mins]
        span = 1
        while span * 2 <= nb:
            prev = table[-1]
            table.append(np.minimum(prev[: len(prev) - span], prev[span:]))
            span *= 2
        self.table = table

    def query(self, l: int, r: int) -> int:
        """Minimum of arr[l:r); r > l required."""
        bl, br = l // self.BLOCK, (r - 1) // self.BLOCK
        if bl == br:
            return int(self.arr[l:r].min())
        best = min(int(self.arr[l: (bl + 1) * self.BLOCK].min()),
                   int(self.arr[br * self.BLOCK: r].min()))
        if bl + 1 <= br - 1:
            span = br - bl - 1
            lev = span.bit_length() - 1
            t = self.table[lev]
            best = min(best, int(t[bl + 1]), int(t[br - (1 << lev)]))
        return best


def _build_index(strings: list[bytes]) -> tuple[_BlockRmq, list[np.ndarray]]:
    """LCE structure over a corpus: the strings in order, each
    followed by a unique negative separator.  Returns the range-minimum table
    over the lcp array and, per string, the ranks of its positions."""
    total = sum(len(s) + 1 for s in strings)
    corpus = np.empty(total, dtype=np.int64)
    starts = []
    pos = 0
    for i, s in enumerate(strings):
        starts.append(pos)
        corpus[pos:pos + len(s)] = np.frombuffer(s, dtype=np.uint8)
        corpus[pos + len(s)] = -1 - i
        pos += len(s) + 1
    sa = _suffix_array(corpus)
    rank = np.empty(total, dtype=np.int64)
    rank[sa] = np.arange(total)
    return _BlockRmq(_lcp_array(corpus.tolist(), sa, rank)), \
        [rank[p:p + len(s)] for p, s in zip(starts, strings)]


class StandardBackend:
    """In-memory strings with O(1)-style lcp after a lazy index build.

    Owner i is the i-th registered string.
    """

    def __init__(self, strings: list[bytes]):
        if sum(len(s) for s in strings) < 1:
            raise ContractError("backend needs at least one nonempty string")
        self._strings = [bytes(s) for s in strings]
        # the LCE index, built by the first lcp; _rank[i][j] is the rank of
        # position j of string i
        self._rmq: _BlockRmq | None = None
        self._rank: list[np.ndarray] | None = None

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
        la, lb = len(a), len(b)
        if la == 0 or lb == 0:
            return 0
        if a.owner == b.owner and a.start == b.start:
            return min(la, lb)
        if self._strings[a.owner][a.start] != self._strings[b.owner][b.start]:
            return 0
        if self._rank is None:
            # _rank is the guard and is assigned last, so concurrent readers
            # never see a half-built index
            self._rmq, self._rank = _build_index(self._strings)
        ra, rb = int(self._rank[a.owner][a.start]), int(self._rank[b.owner][b.start])
        if ra > rb:
            ra, rb = rb, ra
        return min(self._rmq.query(ra + 1, rb + 1), la, lb)

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
