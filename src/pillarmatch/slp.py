"""Straight-line programs: parsing, random access and extraction, and the
fragment-interface backend over them.

A grammar is a list of symbols, each either a single byte or a pair of
earlier/later symbols, in Chomsky normal form after loading; expansion
lengths are precomputed bottom-up.  `SlpBackend` adds Karp-Rabin
fingerprints of every symbol of its grammars: a prefix fingerprint of a
generated string is then one root-to-position descent, the fingerprint of
any span is the difference of two prefix fingerprints, and lcp and lcp_r
queries between arbitrary fragments (even of different grammars) are
answered by doubling + binary search over span comparisons, with the final
boundary character checked by direct access.
"""

from __future__ import annotations

from dataclasses import dataclass

from .pillar import ArithmeticProgression, ContractError, Fragment, _gallop, _ipm_bytes

MAX_LEN = (1 << 63) - 1
_FIELD = (1 << 61) - 1
# Default pair of fingerprint bases in [256, _FIELD - 1); the grammars of one
# backend must share their bases.
FINGERPRINT_BASES = (238539297488483607, 204575138912540379)
_COLLISION = "fingerprint collision detected; build the grammars with other bases (Slp params)"


class SlpFormatError(ValueError):
    """Malformed grammar file; carries a 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class _SymbolError(ContractError):
    """Grammar validation failure attributable to one symbol."""

    def __init__(self, message: str, symbol: int):
        super().__init__(message)
        self.symbol = symbol


@dataclass
class _SymbolTables:
    # per symbol, index 0-based; terminals have left == -1 and byte >= 0
    left: list[int]
    right: list[int]
    byte: list[int]
    length: list[int]


class Slp:
    """A straight-line program plus cached per-symbol tables.  `params` are
    the fingerprint bases an `SlpBackend` over the grammar uses."""

    def __init__(self, left: list[int], right: list[int], byte: list[int], start: int,
                 params: tuple[int, int] = FINGERPRINT_BASES):
        self.params = params
        self.start = start
        self.order = self._toposort(left, right)  # children before parents
        self.t = _SymbolTables(left, right, byte, self._lengths(left, right, self.order))
        self.n_symbols = len(left)
        self.length = self.t.length[start]

    # -- construction --------------------------------------------------------

    @staticmethod
    def _toposort(left: list[int], right: list[int]) -> list[int]:
        n = len(left)
        indeg = [0] * n
        for a in range(n):
            if left[a] >= 0:
                indeg[left[a]] += 1
                indeg[right[a]] += 1
        # Kahn over reversed edges: process a symbol once all its users are done.
        ready = [a for a in range(n) if indeg[a] == 0]
        seen = 0
        order_rev: list[int] = []
        indeg2 = indeg[:]
        stack = ready[:]
        while stack:
            a = stack.pop()
            order_rev.append(a)
            seen += 1
            if left[a] >= 0:
                for c in (left[a], right[a]):
                    indeg2[c] -= 1
                    if indeg2[c] == 0:
                        stack.append(c)
        if seen != n:
            culprit = next(a for a in range(n) if indeg2[a] > 0)
            raise _SymbolError("grammar contains a cycle", culprit)
        order_rev.reverse()
        return order_rev  # children before parents

    @staticmethod
    def _lengths(left: list[int], right: list[int], order: list[int]) -> list[int]:
        length = [0] * len(left)
        for a in order:
            if left[a] < 0:
                length[a] = 1
            else:
                length[a] = length[left[a]] + length[right[a]]
                if length[a] > MAX_LEN:
                    raise _SymbolError("expansion length overflows 63 bits", a)
        return length

    # -- queries --------------------------------------------------------------

    def access(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise ContractError(f"access index {i} outside string of length {self.length}")
        t = self.t
        a = self.start
        while t.left[a] >= 0:
            l = t.left[a]
            if i < t.length[l]:
                a = l
            else:
                i -= t.length[l]
                a = t.right[a]
        return t.byte[a]

    def extract(self, l: int, r: int, root: int | None = None) -> bytes:
        """Materialize gen(root)[l:r) by one pruned in-order walk."""
        t = self.t
        root = self.start if root is None else root
        total = t.length[root]
        if not 0 <= l <= r <= total:
            raise ContractError(f"extract range [{l},{r}) outside string of length {total}")
        out = bytearray()
        stack = [(root, 0)]
        while stack:
            a, off = stack.pop()
            alen = t.length[a]
            if off >= r or off + alen <= l:
                continue
            if t.left[a] < 0:
                out.append(t.byte[a])
                continue
            lsym = t.left[a]
            stack.append((t.right[a], off + t.length[lsym]))
            stack.append((lsym, off))
        return bytes(out)


def slp_concat(a: Slp, b: Slp) -> Slp:
    """Grammar of size |a|+|b|+1 generating gen(a)·gen(b)."""
    if a.length + b.length > MAX_LEN:
        raise ContractError("concatenated length overflows 63 bits")
    na = a.n_symbols
    left = list(a.t.left)
    right = list(a.t.right)
    byte = list(a.t.byte)
    for sym in range(b.n_symbols):
        if b.t.left[sym] < 0:
            left.append(-1)
            right.append(-1)
        else:
            left.append(b.t.left[sym] + na)
            right.append(b.t.right[sym] + na)
        byte.append(b.t.byte[sym])
    left.append(a.start)
    right.append(b.start + na)
    byte.append(-1)
    return Slp(left, right, byte, len(left) - 1, a.params)


def left_comb_slp(data: bytes, params: tuple[int, int] = FINGERPRINT_BASES) -> Slp:
    """Trivial O(|data|)-symbol grammar for plain text (testing helper)."""
    if len(data) == 0:
        raise ContractError("cannot build a grammar for the empty string")
    uniq = sorted(set(data))
    sym_of = {c: i for i, c in enumerate(uniq)}
    left = [-1] * len(uniq)
    right = [-1] * len(uniq)
    byte = list(uniq)
    prev = sym_of[data[0]]
    for c in data[1:]:
        left.append(prev)
        right.append(sym_of[c])
        byte.append(-1)
        prev = len(left) - 1
    return Slp(left, right, byte, prev, params)


# ---------------------------------------------------------------------------
# Text format:  "SLP v1 <symbol_count> <start_id>" header, then one rule per
# line, either  <id> = '<byte>'  (escapes \' \\ \n)  or  <id> = <l> <r>.
# ---------------------------------------------------------------------------

def parse_slp(data: bytes) -> Slp:
    lines = data.split(b"\n")
    if not lines or not lines[0].startswith(b"SLP v1 "):
        raise SlpFormatError("missing 'SLP v1' header", 1)
    head = lines[0].split()
    if len(head) != 4:
        raise SlpFormatError("header must be 'SLP v1 <symbol_count> <start_id>'", 1)
    try:
        count, start_id = int(head[2]), int(head[3])
    except ValueError:
        raise SlpFormatError("non-numeric header fields", 1) from None
    if count < 1 or not 1 <= start_id <= count:
        raise SlpFormatError("start id outside symbol range", 1)

    left = [0] * count
    right = [0] * count
    byte = [-2] * count  # -2 marks undefined
    line_of = [0] * count
    ref_line = [0] * count
    lineno = 1
    for raw in lines[1:]:
        lineno += 1
        if not raw.strip():
            continue
        try:
            ident, rest = raw.split(b"=", 1)
        except ValueError:
            raise SlpFormatError("rule must contain '='", lineno) from None
        try:
            sym = int(ident)
        except ValueError:
            raise SlpFormatError("rule id is not a number", lineno) from None
        if not 1 <= sym <= count:
            raise SlpFormatError(f"id {sym} outside [1,{count}]", lineno)
        if byte[sym - 1] != -2:
            raise SlpFormatError(f"id {sym} defined twice", lineno)
        line_of[sym - 1] = lineno
        rest = rest.strip()
        if rest.startswith(b"'"):
            val = _parse_byte_literal(rest, lineno)
            left[sym - 1] = -1
            right[sym - 1] = -1
            byte[sym - 1] = val
        else:
            parts = rest.split()
            if len(parts) != 2:
                raise SlpFormatError("pair rule needs exactly two ids", lineno)
            try:
                l, r = int(parts[0]), int(parts[1])
            except ValueError:
                raise SlpFormatError("pair rule ids are not numbers", lineno) from None
            for ref in (l, r):
                if not 1 <= ref <= count:
                    raise SlpFormatError(f"reference {ref} outside [1,{count}]", lineno)
                if not ref_line[ref - 1]:
                    ref_line[ref - 1] = lineno
            left[sym - 1] = l - 1
            right[sym - 1] = r - 1
            byte[sym - 1] = -1
    for sym in range(count):
        if byte[sym] == -2:
            raise SlpFormatError(f"id {sym + 1} never defined",
                                 ref_line[sym] or line_of[sym] or 1)
    try:
        return Slp(left, right, byte, start_id - 1)
    except _SymbolError as exc:
        raise SlpFormatError(str(exc), line_of[exc.symbol]) from None


def _parse_byte_literal(rest: bytes, lineno: int) -> int:
    if len(rest) < 2 or not rest.endswith(b"'"):
        raise SlpFormatError("unterminated byte literal", lineno)
    body = rest[1:-1]
    if body == b"\\'":
        return 0x27
    if body == b"\\\\":
        return 0x5C
    if body == b"\\n":
        return 0x0A
    if len(body) != 1:
        raise SlpFormatError("byte literal must hold exactly one byte", lineno)
    return body[0]


def format_slp(g: Slp) -> bytes:
    """Serialize back to the text format (inverse of parse_slp)."""
    out = [b"SLP v1 %d %d" % (g.n_symbols, g.start + 1)]
    for sym in range(g.n_symbols):
        if g.t.left[sym] < 0:
            b = g.t.byte[sym]
            if b == 0x27:
                lit = b"\\'"
            elif b == 0x5C:
                lit = b"\\\\"
            elif b == 0x0A:
                lit = b"\\n"
            else:
                lit = bytes([b])
            out.append(b"%d = '%s'" % (sym + 1, lit))
        else:
            out.append(b"%d = %d %d" % (sym + 1, g.t.left[sym] + 1, g.t.right[sym] + 1))
    return b"\n".join(out) + b"\n"


class SlpBackend:
    """Fragment interface over the strings generated by one or more SLPs.

    Owner i is the i-th grammar.  For each owner the backend holds, per
    symbol a, the fingerprint fp[a] of gen(a) -- the string read as a number
    in base b modulo the prime 2^61 - 1, for both bases b of the grammars'
    params -- and pw[a] = b^|gen(a)|.  Fingerprints only speed up lcp and
    lcp_r; each answer is checked at its boundary character.
    """

    def __init__(self, slps: list[Slp]):
        self._slps: list[Slp] = []
        self._fp: list[list[tuple[int, int]]] = []
        self._pw: list[list[tuple[int, int]]] = []
        for g in slps:
            if g.params != slps[0].params:
                raise ContractError("all grammars in a backend must share fingerprint bases")
            fp, pw = self._fingerprint_tables(g)
            self._slps.append(g)
            self._fp.append(fp)
            self._pw.append(pw)

    def handle(self, index: int) -> Fragment:
        return Fragment(index, 0, self._slps[index].length)

    def _slp(self, f: Fragment) -> Slp:
        return self._slps[f.owner]

    def bytes_of(self, f: Fragment) -> bytes:
        return self._slp(f).extract(f.start, f.end)

    def access(self, f: Fragment, i: int) -> int:
        return self._slp(f).access(f.start + i)

    def lcp(self, a: Fragment, b: Fragment) -> int:
        cap = min(len(a), len(b))
        if cap == 0 or (a.owner == b.owner and a.start == b.start):
            return cap
        ga, gb = self._slp(a), self._slp(b)
        if ga.access(a.start) != gb.access(b.start):
            return 0
        ha = self._prefix_fingerprint(a.owner, a.start)
        hb = self._prefix_fingerprint(b.owner, b.start)
        lo = _gallop(lambda l: self._same_span(
            ha, self._prefix_fingerprint(a.owner, a.start + l),
            hb, self._prefix_fingerprint(b.owner, b.start + l), l), cap)
        if lo < cap and ga.access(a.start + lo) == gb.access(b.start + lo):
            raise RuntimeError(_COLLISION)
        return lo

    def lcp_r(self, a: Fragment, b: Fragment) -> int:
        cap = min(len(a), len(b))
        if cap == 0 or (a.owner == b.owner and a.end == b.end):
            return cap
        ga, gb = self._slp(a), self._slp(b)
        if ga.access(a.end - 1) != gb.access(b.end - 1):
            return 0
        ha = self._prefix_fingerprint(a.owner, a.end)
        hb = self._prefix_fingerprint(b.owner, b.end)
        lo = _gallop(lambda l: self._same_span(
            self._prefix_fingerprint(a.owner, a.end - l), ha,
            self._prefix_fingerprint(b.owner, b.end - l), hb, l), cap)
        if lo < cap and ga.access(a.end - 1 - lo) == gb.access(b.end - 1 - lo):
            raise RuntimeError(_COLLISION)
        return lo

    def ipm(self, p: Fragment, t: Fragment) -> ArithmeticProgression:
        if len(p) < 1:
            raise ContractError("ipm pattern must be nonempty")
        if len(t) > 2 * len(p):
            raise ContractError("ipm window longer than twice the pattern")
        return _ipm_bytes(self.bytes_of(p), self.bytes_of(t))

    # -- fingerprints ----------------------------------------------------------

    @staticmethod
    def _fingerprint_tables(g: Slp) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
        """Per-symbol (fp, pw) of g, computed children before parents."""
        t = g.t
        b1, b2 = g.params
        fp = [(0, 0)] * g.n_symbols
        pw = [(0, 0)] * g.n_symbols
        for a in g.order:
            l, r = t.left[a], t.right[a]
            if l < 0:
                fp[a] = (t.byte[a], t.byte[a])
                pw[a] = (b1, b2)
            else:
                fp[a] = ((fp[l][0] * pw[r][0] + fp[r][0]) % _FIELD,
                         (fp[l][1] * pw[r][1] + fp[r][1]) % _FIELD)
                pw[a] = (pw[l][0] * pw[r][0] % _FIELD, pw[l][1] * pw[r][1] % _FIELD)
        return fp, pw

    def _prefix_fingerprint(self, owner: int, x: int) -> tuple[int, int]:
        """Fingerprint of gen(owner)[0:x), one descent combining left siblings."""
        g = self._slps[owner]
        t, fp, pw = g.t, self._fp[owner], self._pw[owner]
        b1, b2 = g.params
        h1 = h2 = 0
        a = g.start
        while x > 0 and t.left[a] >= 0:
            l = t.left[a]
            if x >= t.length[l]:
                h1 = (h1 * pw[l][0] + fp[l][0]) % _FIELD
                h2 = (h2 * pw[l][1] + fp[l][1]) % _FIELD
                x -= t.length[l]
                a = t.right[a]
            else:
                a = l
        if x > 0:  # terminal, x == 1
            h1 = (h1 * b1 + t.byte[a]) % _FIELD
            h2 = (h2 * b2 + t.byte[a]) % _FIELD
        return h1, h2

    def _same_span(self, a0, a1, b0, b1, ln: int) -> bool:
        """Whether two length-ln spans fingerprint equal, each given by the
        prefix fingerprints h0, h1 at its ends: the span's is h1 - h0 * b^ln."""
        for j, base in enumerate(self._slps[0].params):
            bl = pow(base, ln, _FIELD)
            if (a1[j] - a0[j] * bl - b1[j] + b0[j] * bl) % _FIELD:
                return False
        return True
