"""Seeded inputs for the three benchmark workloads.

Everything here runs before timing starts.  A workload is a list of
queries built from ``random.Random(f"{workload}:{seed}")`` only, so the
same seed always yields the same inputs, in the same order.  Sizes come
from fixed grids cycled over the round and the seed only changes contents,
planted positions and error placement: that keeps the cost of a round
nearly the same from seed to seed, which the benchmark's bounds rely on.

Queries are interleaved class by class (round-robin over metric and input
family), so any prefix of the round, in particular the partial last pass
of a timed loop, has about the composition of the whole round.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

HAMMING, EDIT = "hamming", "edit"
DNA = b"ACGT"


@dataclass
class Query:
    """One call into the library.

    api is "plain" (find_*_occurrences), "count" or "report" (the
    compressed entry points) or "cli" (``pm search`` in-process).  For
    compressed queries ``text`` names a grammar in ``Workload.grammars``.
    """
    qid: int
    api: str
    metric: str
    k: int
    pattern: bytes
    text: bytes | str
    family: str
    route: str = ""
    cli_count: bool = False


@dataclass
class Grammar:
    """A generated SLP text: its file bytes and, for power grammars, the
    closed form of the generated string (a run of one byte)."""
    source: bytes
    length: int
    power_of: int | None = None


@dataclass
class Workload:
    name: str
    queries: list[Query]
    grammars: dict[str, Grammar] = field(default_factory=dict)
    # (qid -> planted occurrence starts); the checker always looks there
    planted: dict[int, list[int]] = field(default_factory=dict)


# -- byte-string helpers --------------------------------------------------------

def _random_bytes(rng: random.Random, n: int, alphabet: bytes) -> bytes:
    return bytes(rng.choices(alphabet, k=n))


def _substitute(rng: random.Random, s: bytes, count: int, alphabet: bytes) -> bytes:
    out = bytearray(s)
    for i in rng.sample(range(len(s)), count):
        out[i] = rng.choice([c for c in alphabet if c != out[i]])
    return bytes(out)


def _indels(rng: random.Random, s: bytes, count: int, alphabet: bytes) -> bytes:
    """count edits at random places: substitution, insertion and deletion in
    turn, so that the kinds of edit do not depend on the seed."""
    out = bytearray(s)
    for j in range(count):
        i = rng.randrange(len(out))
        if j % 3 == 0:
            out[i] = rng.choice([c for c in alphabet if c != out[i]])
        elif j % 3 == 1:
            out.insert(i, rng.choice(alphabet))
        else:
            del out[i]
    return bytes(out)


def _primitive_word(rng: random.Random, length: int, alphabet: bytes) -> bytes:
    while True:
        w = _random_bytes(rng, length, alphabet)
        if all(w != w[:d] * (length // d) for d in range(1, length) if length % d == 0):
            return w


def _power_text(rng: random.Random, q: bytes, n: int, gap: int, metric: str,
                alphabet: bytes) -> bytes:
    """q^inf[0:n) with one error every gap bytes from a random phase:
    substitutions for Hamming; substitution, deletion and insertion in turn
    for edit distance."""
    start = rng.randrange(len(q))
    # deletions shorten the text, so start from a longer power and cut at n
    out = bytearray((q * (2 * n // len(q) + 2))[start:start + 2 * n])
    for i, pos in enumerate(range(rng.randrange(gap), n, gap)):
        op = 0 if metric == HAMMING else i % 3
        if op == 0:
            out[pos] = rng.choice([c for c in alphabet if c != out[pos]])
        elif op == 1:
            del out[pos]
        else:
            out.insert(pos, rng.choice(alphabet))
    return bytes(out[:n])


def _interleave(classes: list[list[Query]]) -> list[Query]:
    out: list[Query] = []
    depth = max(len(c) for c in classes)
    for i in range(depth):
        for c in classes:
            if i < len(c):
                out.append(c[i])
    for qid, q in enumerate(out):
        q.qid = qid
    return out


# -- plain-aperiodic --------------------------------------------------------------

# (n, m, k) per metric and family.  Every entry has anchors of m/(8k) = 32
# bytes: random DNA then never repeats an anchor by chance, so a no-hit
# query stays on the scan path, while a planted copy always reaches
# verification.  It also makes the marking work, (2n/m blocks) x (2k
# anchors), depend on n alone, so one text length per family gives one cost
# class.  Planted Hamming queries, whose cost is the index build over
# 2(n + m) symbols, keep n + m fixed.  Edit patterns stay at m <= 1024
# because the edit oracle costs m^2 per checked window.
_APERIODIC_GRID = {
    (HAMMING, "planted"): [(36864 - m, m, m // 256) for m in (256, 512, 1024, 2048, 4096)]
    + [(36864 - m, m, m // 256) for m in (512, 1024, 2048, 4096)],
    (HAMMING, "nohit"): [(1 << 16, m, m // 256) for m in (256, 512, 1024, 2048, 4096)]
    + [(1 << 16, m, m // 256) for m in (512, 1024, 2048, 4096)],
    (EDIT, "planted"): [(n, m, m // 256) for n in (1 << 15, 1 << 16, 1 << 17)
                        for m in (256, 512, 1024)],
    (EDIT, "nohit"): [(1 << 16, m, m // 256) for m in (256, 512, 1024) for _ in range(3)],
}
# No-hit queries whose first anchor has a self-overlap (period 12): the
# periodicity test of pattern analysis then asks an lcp, which builds the
# lcp index over the whole text although nothing is ever verified.  One
# per metric, by position in the no-hit list.
_SELF_OVERLAP = (4,)
_OVERLAP_PERIOD = 12
# Exact matching (k = 0) and the dense scan (8k > m), twice per metric each.
_APERIODIC_SMALL = [("exact", 0), ("dense", 40), ("exact", 0), ("dense", 40)]


def plain_aperiodic(seed: int) -> Workload:
    rng = random.Random(f"plain-aperiodic:{seed}")
    classes: dict[tuple[str, str], list[Query]] = {}
    planted: dict[int, list[int]] = {}
    tags: list[tuple[Query, list[int]]] = []
    for metric in (HAMMING, EDIT):
        for family in ("planted", "nohit"):
            for j, (n, m, k) in enumerate(_APERIODIC_GRID[(metric, family)]):
                p = _random_bytes(rng, m, DNA)
                label = family
                if family == "nohit" and j in _SELF_OVERLAP:
                    anchor = m // (8 * k)
                    p = (p[:_OVERLAP_PERIOD] * anchor)[:anchor] + p[anchor:]
                    label = "overlap"
                t = bytearray(_random_bytes(rng, n, DNA))
                starts: list[int] = []
                if family == "planted":
                    for _ in range(3):
                        i = rng.randrange(n - m - k)
                        errs = rng.randrange(k // 2, k + 1)
                        copy = (_substitute(rng, p, errs, DNA) if metric == HAMMING
                                else _indels(rng, p, errs, DNA))
                        t[i:i + len(copy)] = copy
                        starts.append(i)
                    t = t[:n]
                q = Query(0, "plain", metric, k, p, bytes(t), label)
                classes.setdefault((metric, family), []).append(q)
                tags.append((q, starts))
        for family, k in _APERIODIC_SMALL:
            m, n = 256, 1 << 14
            p = _random_bytes(rng, m, DNA)
            t = bytearray(_random_bytes(rng, n, DNA))
            i = rng.randrange(n - m - k)
            t[i:i + m] = _substitute(rng, p, min(k, 20), DNA)
            q = Query(0, "plain", metric, k, p, bytes(t), family)
            classes.setdefault((metric, family), []).append(q)
            tags.append((q, [i]))
    queries = _interleave(list(classes.values()))
    for q, starts in tags:
        planted[q.qid] = starts
    return Workload("plain-aperiodic", queries, planted=planted)


def route_of(metric: str, pattern: bytes, k: int) -> str:
    """The route the matcher takes for this pattern, from the library's own
    analysis: exact, dense, breaks, regions or period."""
    from pillarmatch.edit import analyze_ed
    from pillarmatch.hamming import ApproxPeriod, Breaks, analyze_hd
    from pillarmatch.standard import StandardBackend

    m = len(pattern)
    if k == 0:
        return "exact"
    if 8 * k > m:
        return "dense"
    backend = StandardBackend([pattern])
    analyze = analyze_hd if metric == HAMMING else analyze_ed
    shape = analyze(backend, backend.handle(0), k)
    if isinstance(shape, Breaks):
        return "breaks"
    if isinstance(shape, ApproxPeriod):
        return "period"
    return "regions"


# -- plain-periodic ------------------------------------------------------------------

# (family, n, m, k, |q|).  "period": |q| <= m/(128k), the approximate-period
# route.  "regions": a q-periodic first half and a random second half.
# "pbreaks": |q| just above m/(128k), so every anchor is itself periodic
# text and matches once per period.
_PERIODIC_GRID = [
    ("period", 1 << 13, 1024, 2, 4), ("period", 1 << 12, 2048, 4, 3),
    ("period", 1 << 13, 512, 1, 3), ("period", 1 << 12, 1024, 1, 7),
    ("regions", 1 << 11, 512, 1, 4), ("regions", 1 << 11, 1024, 2, 3),
    ("regions", 1 << 11, 768, 1, 5),
    ("pbreaks", 1 << 13, 1024, 2, 5), ("pbreaks", 1 << 12, 2048, 4, 5),
    ("pbreaks", 1 << 12, 512, 1, 5), ("pbreaks", 1 << 12, 1024, 1, 9),
]


def plain_periodic(seed: int) -> Workload:
    rng = random.Random(f"plain-periodic:{seed}")
    classes: dict[tuple[str, str], list[Query]] = {}
    tags: list[tuple[Query, list[int]]] = []
    for metric in (HAMMING, EDIT):
        for family, n, m, k, nq in _PERIODIC_GRID * 2:
            q = _primitive_word(rng, nq, DNA)
            text = bytearray(_power_text(rng, q, n, 2 * m, metric, DNA))
            off = rng.randrange(nq)
            p = (q * (m // nq + 2))[off:off + m]
            if family == "regions":
                p = p[:m // 2] + _random_bytes(rng, m - m // 2, DNA)
            errs = (k + 1) // 2
            p = _substitute(rng, p, errs, DNA) if metric == HAMMING else \
                _indels(rng, p, errs, DNA)[:m]
            starts = []
            if family == "regions":
                for _ in range(2):
                    i = rng.randrange(n - m - k)
                    text[i:i + len(p)] = p
                    starts.append(i)
            query = Query(0, "plain", metric, k, p, bytes(text[:n]), family)
            classes.setdefault((metric, family), []).append(query)
            tags.append((query, starts))
    queries = _interleave(list(classes.values()))
    return Workload("plain-periodic", queries, planted={q.qid: s for q, s in tags})


# -- slp-compressed --------------------------------------------------------------------

class _GrammarWriter:
    """Builds a grammar in the ``SLP v1`` text format, one rule per symbol."""

    def __init__(self):
        self.rules: list[bytes] = []
        self._terminal: dict[int, int] = {}

    def terminal(self, byte: int) -> int:
        if byte not in self._terminal:
            self.rules.append(b"'%c'" % byte)
            self._terminal[byte] = len(self.rules)
        return self._terminal[byte]

    def pair(self, left: int, right: int) -> int:
        self.rules.append(b"%d %d" % (left, right))
        return len(self.rules)

    def balanced(self, symbols: list[int]) -> int:
        while len(symbols) > 1:
            nxt = [self.pair(a, b) for a, b in zip(symbols[::2], symbols[1::2])]
            if len(symbols) % 2:
                nxt.append(symbols[-1])
            symbols = nxt
        return symbols[0]

    def string(self, data: bytes) -> int:
        return self.balanced([self.terminal(c) for c in data])

    def source(self, start: int) -> bytes:
        lines = [b"SLP v1 %d %d" % (len(self.rules), start)]
        lines += [b"%d = %s" % (i + 1, r) for i, r in enumerate(self.rules)]
        return b"\n".join(lines) + b"\n"


def _power_grammar(e: int) -> Grammar:
    """a^(2^e) in e + 1 rules."""
    w = _GrammarWriter()
    sym = w.terminal(ord("a"))
    for _ in range(e):
        sym = w.pair(sym, sym)
    return Grammar(w.source(sym), 1 << e, power_of=ord("a"))


def _fibonacci_grammar(e: int) -> tuple[Grammar, bytes]:
    """The e-th Fibonacci word (f1 = b, f2 = a, f_i = f_{i-1} f_{i-2})."""
    w = _GrammarWriter()
    prev, cur = w.terminal(ord("b")), w.terminal(ord("a"))
    sb, sa = b"b", b"a"
    for _ in range(e - 2):
        prev, cur = cur, w.pair(cur, prev)
        if len(sa) < 1 << 12:
            sa, sb = sa + sb, sa
    length = _fib_length(e)
    return Grammar(w.source(cur), length), sa


def _fib_length(e: int) -> int:
    a, b = 1, 1
    for _ in range(e - 2):
        a, b = b, a + b
    return b


def _blocks_grammar(rng: random.Random, bases: int, block: int, repeats: int,
                    mutated: float) -> tuple[Grammar, list[bytes]]:
    """repeats blocks, each a copy of one of ``bases`` random DNA blocks;
    a fixed share of them carries one substitution and so gets its own
    rules, which keeps the rule count the same for every seed."""
    w = _GrammarWriter()
    base_data = [_random_bytes(rng, block, DNA) for _ in range(bases)]
    base_sym = [w.string(b) for b in base_data]
    changed = set(rng.sample(range(repeats), round(mutated * repeats)))
    seq = []
    for i in range(repeats):
        j = rng.randrange(bases)
        if i in changed:
            seq.append(w.string(_substitute(rng, base_data[j], 1, DNA)))
        else:
            seq.append(base_sym[j])
    start = w.balanced(seq)
    return Grammar(w.source(start), block * repeats), base_data


def _slp_pattern(rng: random.Random, source: bytes, m: int, errs: int, metric: str,
                 alphabet: bytes) -> bytes:
    i = rng.randrange(len(source) - m + 1)
    p = source[i:i + m]
    if errs:
        p = _substitute(rng, p, errs, alphabet) if metric == HAMMING else \
            _indels(rng, p, errs, alphabet)
    return p


# Grammar families, each swept over eight sizes so that query costs spread
# evenly instead of falling into a few classes: a^(2^e), whose output is
# one huge progression; Fibonacci words; and block-repeat grammars of
# about 0.8k to 1.5k rules.  Runs of 2^30 and more are counted, never
# reported.  Patterns take (m, k) in turn from _SLP_PATTERNS.
_SLP_SIZES = {"power": range(9, 17), "fib": range(16, 24), "blocks": range(16, 64, 6)}
_SLP_HUGE_POWERS = {30: (16, 1), 46: (32, 1), 62: (16, 2)}
_SLP_PATTERNS = [(16, 1), (32, 2), (64, 4), (32, 1), (64, 2), (16, 2), (48, 2), (24, 0)]


def slp_compressed(seed: int) -> Workload:
    rng = random.Random(f"slp-compressed:{seed}")
    classes: dict[tuple[str, str], list[Query]] = {}
    grammars: dict[str, Grammar] = {}
    entries = [(family, size) + _SLP_PATTERNS[i % len(_SLP_PATTERNS)]
               for i, (family, size) in enumerate(
                   (f, s) for f, sizes in _SLP_SIZES.items() for s in sizes)]
    entries += [("power", e, m, k) for e, (m, k) in _SLP_HUGE_POWERS.items()]
    for gi, (family, size, m, k) in enumerate(entries):
        name = f"{family}-{size}"
        if family == "power":
            g = _power_grammar(size)
            source, alphabet = b"a" * m, b"ab"
        elif family == "fib":
            g, source = _fibonacci_grammar(size)
            alphabet = b"ab"
        else:
            g, blocks = _blocks_grammar(rng, 8, 64, size, 0.25)
            source, alphabet = b"".join(blocks), DNA
        grammars[name] = g
        huge = g.length > 1 << 20
        for mi, metric in enumerate((HAMMING, EDIT)):
            errs = (k + 1) // 2
            if family == "power":
                if gi % 4 == 3:
                    errs = k + 1  # no occurrence at all
                p = _substitute(rng, source, errs, alphabet)
            else:
                p = _slp_pattern(rng, source, m, errs, metric, alphabet)
            # count and report of the same instance, one of them through pm search
            for api in ("count",) if huge else ("count", "report"):
                via_cli = not huge and (gi + mi + (api == "report")) % 2 == 1
                q = Query(0, "cli" if via_cli else api, metric, k, p, name, family,
                          cli_count=via_cli and api == "count")
                classes.setdefault((metric, q.api), []).append(q)
    queries = _interleave(list(classes.values()))
    return Workload("slp-compressed", queries, grammars=grammars)
