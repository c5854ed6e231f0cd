import random

import pytest

from pillarmatch import Fragment, extract
from pillarmatch.pillar import ContractError
from pillarmatch.slp import (Slp, SlpBackend, SlpFormatError, format_slp,
                             left_comb_slp, parse_slp, slp_concat)

FIG_GRAMMAR = b"""SLP v1 5 5
1 = 'a'
2 = 'b'
3 = 1 2
4 = 1 3
5 = 4 4
"""


def random_slp(rng: random.Random, max_rules: int, alpha: int = 3, cap: int = 100_000) -> Slp:
    nt = rng.randrange(1, alpha + 1)
    left = [-1] * nt
    right = [-1] * nt
    byte = [97 + i for i in range(nt)]
    while len(left) < max_rules:
        a = rng.randrange(len(left))
        b = rng.randrange(len(left))
        left.append(a)
        right.append(b)
        byte.append(-1)
        if Slp(list(left), list(right), list(byte), len(left) - 1).length > cap:
            left.pop(), right.pop(), byte.pop()
            break
    return Slp(left, right, byte, len(left) - 1)


def balanced_slp(data: bytes) -> Slp:
    """Grammar that pairs neighbours level by level, equal pairs sharing one
    symbol, so a^n or (ab)^n with one byte changed takes O(log n) rules per
    level and every descent is O(log n) deep."""
    left: list[int] = []
    right: list[int] = []
    byte: list[int] = []
    ids: dict[tuple[int, int, int], int] = {}

    def sym(key: tuple[int, int, int]) -> int:
        if key not in ids:
            ids[key] = len(left)
            left.append(key[0])
            right.append(key[1])
            byte.append(key[2])
        return ids[key]

    level = [sym((-1, -1, c)) for c in data]
    while len(level) > 1:
        pairs = [sym((a, b, -1)) for a, b in zip(level[::2], level[1::2])]
        level = pairs + level[2 * len(pairs):]
    return Slp(left, right, byte, level[0])


def suffix_lcp(be: SlpBackend, i: int, j: int) -> int:
    """lcp of the suffixes at i and j of the first grammar's string."""
    h = be.handle(0)
    return be.lcp(extract(h, i, len(h)), extract(h, j, len(h)))


def naive_lcp(a: bytes, b: bytes) -> int:
    n = 0
    while n < min(len(a), len(b)) and a[n] == b[n]:
        n += 1
    return n


@pytest.mark.parametrize("unit", [b"a", b"ab"])
def test_long_lcp_with_planted_mismatch(unit):
    """lcp_r (and lcp, mirrored) over extensions thousands of bytes long, cut
    by one mismatch 2^e - 1, 2^e or 2^e + 1 bytes from the end (the start):
    the galloping probes and the boundary check land on both sides of a
    power of two."""
    u = len(unit)
    for n in (2 ** 12 - 1, 2 ** 12 + 1):
        clean = (unit * n)[:n]
        for e in range(12):
            for d in (2 ** e - 1, 2 ** e, 2 ** e + 1):
                tail, head = bytearray(clean), bytearray(clean)
                tail[n - 1 - d] = head[d] = ord("x")
                tail, head = bytes(tail), bytes(head)
                be = SlpBackend([balanced_slp(clean), balanced_slp(tail), balanced_slp(head)])
                c, t, h = be.handle(0), be.handle(1), be.handle(2)
                assert be.lcp_r(c, t) == d and be.lcp(c, h) == d
                pairs = [(c, t, clean, tail),
                         (extract(c, 0, n - u), extract(t, u, n), clean[:n - u], tail[u:]),
                         (extract(t, 0, n - u), extract(t, u, n), tail[:n - u], tail[u:])]
                for fa, fb, sa, sb in pairs:
                    assert be.lcp_r(fa, fb) == naive_lcp(sa[::-1], sb[::-1]), (n, d)
                    assert be.lcp_r(fb, fa) == naive_lcp(sb[::-1], sa[::-1]), (n, d)


class TestParse:
    def test_figure_grammar(self):
        g = parse_slp(FIG_GRAMMAR)
        assert g.length == 6
        assert g.extract(0, 6) == b"aabaab"

    def test_single_rule(self):
        g = parse_slp(b"SLP v1 1 1\n1 = 'x'\n")
        assert g.length == 1 and g.extract(0, 1) == b"x"

    def test_cycle_error(self):
        with pytest.raises(SlpFormatError) as err:
            parse_slp(b"SLP v1 2 2\n1 = 2 1\n2 = 1 1\n")
        assert "cycle" in str(err.value)
        assert err.value.line == 2

    def test_undefined_symbol(self):
        with pytest.raises(SlpFormatError) as err:
            parse_slp(b"SLP v1 3 3\n1 = 'a'\n3 = 1 2\n")
        assert "never defined" in str(err.value)
        assert err.value.line == 3  # the line referencing id 2

    def test_forward_references_allowed(self):
        g = parse_slp(b"SLP v1 3 1\n1 = 2 3\n2 = 'a'\n3 = 'b'\n")
        assert g.extract(0, 2) == b"ab"

    def test_duplicate_definition(self):
        with pytest.raises(SlpFormatError):
            parse_slp(b"SLP v1 2 1\n1 = 'a'\n1 = 'b'\n")

    def test_reference_out_of_range(self):
        with pytest.raises(SlpFormatError):
            parse_slp(b"SLP v1 2 2\n1 = 'a'\n2 = 1 7\n")

    def test_bad_header(self):
        for text in (b"", b"SLP v2 1 1\n1 = 'a'\n", b"SLP v1 0 1\n", b"SLP v1 2\n"):
            with pytest.raises(SlpFormatError) as err:
                parse_slp(text)
            assert err.value.line == 1

    def test_escapes_roundtrip(self):
        g = parse_slp(b"SLP v1 5 5\n1 = '\\''\n2 = '\\\\'\n3 = '\\n'\n4 = 1 2\n5 = 4 3\n")
        assert g.extract(0, 3) == b"'\\\n"
        assert parse_slp(format_slp(g)).extract(0, 3) == b"'\\\n"

    def test_length_overflow(self):
        lines = [b"SLP v1 66 66", b"1 = 'a'", b"2 = 1 1"]
        for i in range(3, 67):
            lines.append(b"%d = %d %d" % (i, i - 1, i - 1))
        with pytest.raises(SlpFormatError) as err:
            parse_slp(b"\n".join(lines) + b"\n")
        assert "overflow" in str(err.value)

    def test_roundtrip_random(self):
        rng = random.Random(31)
        for _ in range(30):
            g = random_slp(rng, rng.randrange(2, 30))
            g2 = parse_slp(format_slp(g))
            assert g2.extract(0, g2.length) == g.extract(0, g.length)


class TestQueries:
    def test_access_examples(self):
        g = parse_slp(FIG_GRAMMAR)
        assert g.access(0) == ord("a")
        assert g.access(2) == ord("b")
        g1 = parse_slp(b"SLP v1 1 1\n1 = 'x'\n")
        assert g1.access(0) == ord("x")
        with pytest.raises(ContractError):
            g.access(6)

    def test_lcp_examples(self):
        be = SlpBackend([parse_slp(FIG_GRAMMAR)])
        assert suffix_lcp(be, 0, 3) == 3
        assert suffix_lcp(be, 1, 1) == 5
        assert suffix_lcp(be, 1, 2) == 0

    def test_extract_examples(self):
        g = parse_slp(FIG_GRAMMAR)
        assert g.extract(0, 6) == b"aabaab"
        assert g.extract(3, 6) == b"aab"
        assert g.extract(2, 2) == b""

    def test_concat(self):
        a = left_comb_slp(b"ab")
        b = left_comb_slp(b"c", a.params)
        g = slp_concat(a, b)
        assert g.extract(0, 3) == b"abc"
        assert g.n_symbols == a.n_symbols + b.n_symbols + 1
        gg = slp_concat(a, a)
        assert gg.extract(0, 4) == b"abab"
        fig = parse_slp(FIG_GRAMMAR)
        both = slp_concat(fig, fig)
        assert both.extract(0, 12) == b"aabaabaabaab"

    def test_random_grammars_against_decompression(self):
        rng = random.Random(32)
        checked = 0
        for _ in range(120):
            g = random_slp(rng, rng.randrange(3, 80))
            be = SlpBackend([g])
            full = g.extract(0, g.length)
            n = g.length
            checked += 1
            for _ in range(40):
                i = rng.randrange(n)
                assert g.access(i) == full[i]
            for _ in range(20):
                i = rng.randrange(n + 1)
                j = rng.randrange(i, n + 1)
                assert g.extract(i, j) == full[i:j]
            for _ in range(40):
                i, j = rng.randrange(n), rng.randrange(n)
                assert suffix_lcp(be, i, j) == naive_lcp(full[i:], full[j:])
        assert checked == 120

    def test_length_dp_consistency(self):
        rng = random.Random(33)
        for _ in range(50):
            g = random_slp(rng, rng.randrange(2, 40))
            assert g.length == len(g.extract(0, g.length))

    def test_backend_interface(self):
        g = parse_slp(FIG_GRAMMAR)
        be = SlpBackend([g])
        h = be.handle(0)
        assert be.bytes_of(h) == b"aabaab"
        assert be.access(extract(h, 3, 6), 1) == ord("a")
        assert be.lcp(extract(h, 0, 6), extract(h, 3, 6)) == 3
        assert be.lcp_r(Fragment(0, 0, 3), Fragment(0, 3, 6)) == 3  # "aab" vs "aab"
        prog = be.ipm(extract(h, 0, 3), extract(h, 0, 6))
        assert list(prog) == [0, 3]

    def test_cross_grammar_lcp_against_naive(self):
        # the second grammar ends with the first one's string, so aligned
        # fragment pairs share long extensions across the two grammars
        rng = random.Random(34)
        for _ in range(60):
            g = random_slp(rng, rng.randrange(2, 40), alpha=2, cap=5000)
            head = random_slp(rng, rng.randrange(2, 40), alpha=2, cap=5000)
            be = SlpBackend([g, slp_concat(head, g)])
            fulls = [be.bytes_of(be.handle(0)), be.bytes_of(be.handle(1))]
            for _ in range(30):
                lo0 = rng.randrange(g.length + 1)
                hi0 = rng.randrange(lo0, g.length + 1)
                n1 = len(fulls[1])
                lo1 = head.length + lo0 if rng.random() < 0.5 else rng.randrange(n1 + 1)
                hi1 = rng.randrange(lo1, n1 + 1)
                a = extract(be.handle(0), lo0, hi0)
                b = extract(be.handle(1), lo1, hi1)
                sa, sb = fulls[0][lo0:hi0], fulls[1][lo1:hi1]
                assert be.lcp(a, b) == naive_lcp(sa, sb)
                assert be.lcp_r(a, b) == naive_lcp(sa[::-1], sb[::-1])

    def test_backend_grammars_share_bases(self):
        a = left_comb_slp(b"ab")
        SlpBackend([a, left_comb_slp(b"ba", a.params)])
        with pytest.raises(ContractError):
            SlpBackend([a, left_comb_slp(b"ab", (3, 5))])
