import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pillarmatch.edit import EditGenerator, EditGeneratorR
from pillarmatch.hamming import MismatchGenerator, MismatchGeneratorR
from pillarmatch.pillar import (ArithmeticProgression, ContractError, OccurrenceSet, _lcp_bytes,
                                access, equal, exact_matches, extract, lcp_power, period,
                                rotations)
from pillarmatch.slp import SlpBackend, left_comb_slp
from pillarmatch.standard import StandardBackend


def be(*strings: bytes) -> StandardBackend:
    return StandardBackend(list(strings))


def handles(backend, count):
    return [backend.handle(i) for i in range(count)]


def naive_lcp(a: bytes, b: bytes) -> int:
    i = 0
    while i < len(a) and i < len(b) and a[i] == b[i]:
        i += 1
    return i


def naive_occurrences(p: bytes, t: bytes) -> list[int]:
    return [i for i in range(len(t) - len(p) + 1) if t[i:i + len(p)] == p]


def naive_period(s: bytes) -> int:
    for per in range(1, len(s) + 1):
        if all(s[i] == s[i + per] for i in range(len(s) - per)):
            return per
    raise AssertionError


class TestExtractAccessLength:
    def test_extract_subrange(self):
        b = be(b"abcdef")
        h = b.handle(0)
        sub = extract(h, 1, 4)
        assert b.bytes_of(sub) == b"bcd"

    def test_extract_identity(self):
        b = be(b"abcdef")
        h = b.handle(0)
        assert extract(h, 0, len(h)) == h

    def test_extract_empty(self):
        b = be(b"abc")
        sub = extract(b.handle(0), 2, 2)
        assert len(sub) == 0

    def test_extract_out_of_range(self):
        b = be(b"abc")
        with pytest.raises(ContractError):
            extract(b.handle(0), 1, 9)

    def test_access(self):
        b = be(b"abc", b"abcdef")
        assert access(b, b.handle(0), 1) == ord("b")
        assert access(b, extract(b.handle(1), 2, 5), 0) == ord("c")
        with pytest.raises(ContractError):
            access(b, b.handle(0), 3)

    def test_length(self):
        b = be(b"abc")
        assert len(b.handle(0)) == 3
        assert len(extract(b.handle(0), 1, 1)) == 0


class TestLcp:
    def test_examples(self):
        b = be(b"abca", b"abde", b"ab", b"")
        h = handles(b, 4)
        assert b.lcp(h[0], h[1]) == 2
        assert b.lcp(h[0], h[0]) == 4
        assert b.lcp(h[2], h[3]) == 0

    def test_lcp_r_examples(self):
        b = be(b"xabc", b"yzbc", b"a", b"b")
        h = handles(b, 4)
        assert b.lcp_r(h[0], h[1]) == 2
        assert b.lcp_r(h[0], h[0]) == 4
        assert b.lcp_r(h[2], h[3]) == 0

    @settings(max_examples=120, deadline=None)
    @given(st.binary(min_size=0, max_size=30), st.binary(min_size=0, max_size=30))
    def test_lcp_properties(self, s, t):
        b = be(s + b"#", t + b"#")  # pad so the backend accepts empty inputs
        hs = extract(b.handle(0), 0, len(s))
        ht = extract(b.handle(1), 0, len(t))
        l = b.lcp(hs, ht)
        assert l == b.lcp(ht, hs)
        assert l <= min(len(s), len(t))
        assert s[:l] == t[:l]
        if l < min(len(s), len(t)):
            assert s[l] != t[l]

    def test_lcp_bytes_against_naive(self):
        """Every (i, j) and every cap around a power of two that fits both
        suffixes, so each galloping step and the binary search meet their
        boundaries."""
        rng = random.Random(25)
        words = [b"a" * 19, b"ab" * 10, b"abaababaabaab", b"aaaaaaaaaaaaaaab"]
        words += [bytes(rng.randrange(2) + 97 for _ in range(rng.randrange(1, 20)))
                  for _ in range(6)]
        for a in words:
            for b in words:
                for i in range(len(a)):
                    for j in range(len(b)):
                        room = min(len(a) - i, len(b) - j)
                        full = naive_lcp(a[i:], b[j:])
                        caps = {room} | {c for e in range(5)
                                         for c in (2 ** e - 1, 2 ** e, 2 ** e + 1) if c <= room}
                        for cap in caps:
                            assert _lcp_bytes(a, b, i, j, cap) == min(full, cap), (a, b, i, j, cap)


class TestEqual:
    def test_cases(self):
        b = be(b"ab", b"ab", b"ba")
        h = handles(b, 3)
        assert equal(b, h[0], h[1])
        assert not equal(b, h[0], h[2])
        assert equal(b, h[0], extract(h[0], 0, 2))


class TestIpm:
    def test_examples(self):
        b = be(b"aba", b"ababa", b"ab", b"ba", b"aa", b"aaaa")
        h = handles(b, 6)
        prog = b.ipm(h[0], h[1])
        assert (prog.first, prog.diff, prog.count) == (0, 2, 2)
        assert b.ipm(h[2], h[3]).count == 0
        prog = b.ipm(h[4], h[5])
        assert (prog.first, prog.diff, prog.count) == (0, 1, 3)

    def test_precondition(self):
        b = be(b"ab", b"ababab")
        with pytest.raises(ContractError):
            b.ipm(b.handle(0), b.handle(1))

    def test_exhaustive_small_binary(self):
        for lt in range(1, 9):
            for t_bits in range(1 << lt):
                t = bytes(97 + ((t_bits >> i) & 1) for i in range(lt))
                for lp in range((lt + 1) // 2, lt + 1):
                    for p_bits in range(1 << lp):
                        p = bytes(97 + ((p_bits >> i) & 1) for i in range(lp))
                        b = be(p, t)
                        got = list(b.ipm(b.handle(0), b.handle(1)))
                        assert got == naive_occurrences(p, t)

    def test_random_up_to_12(self):
        rng = random.Random(5)
        for _ in range(400):
            lt = rng.randrange(1, 13)
            lp = rng.randrange((lt + 1) // 2, lt + 1)
            t = bytes(rng.randrange(2) + 97 for _ in range(lt))
            p = bytes(rng.randrange(2) + 97 for _ in range(lp))
            b = be(p, t)
            assert list(b.ipm(b.handle(0), b.handle(1))) == naive_occurrences(p, t)

    def test_diff_is_period_when_two_hits(self):
        # the period guarantee needs overlapping occurrences, i.e. |t| < 2|p|;
        # at |t| == 2|p| two touching hits may sit a full |p| apart
        rng = random.Random(6)
        seen = 0
        for _ in range(400):
            lp = rng.randrange(1, 10)
            p = bytes(rng.randrange(2) + 97 for _ in range(lp))
            t = (p * 3)[: rng.randrange(lp, 2 * lp)]
            b = be(p, t)
            prog = b.ipm(b.handle(0), b.handle(1))
            if prog.count >= 2:
                seen += 1
                assert prog.diff == naive_period(p)
        assert seen > 30


class TestPeriod:
    def test_examples(self):
        b = be(b"abab", b"abaab", b"aaaa")
        h = handles(b, 3)
        assert period(b, h[0]) == 2
        assert period(b, h[1]) is None
        assert period(b, h[2]) == 1

    def test_matches_naive(self):
        rng = random.Random(7)
        for _ in range(500):
            n = rng.randrange(1, 24)
            s = bytes(rng.randrange(2) + 97 for _ in range(n))
            b = be(s)
            got = period(b, b.handle(0))
            want = naive_period(s)
            if want * 2 <= n:
                assert got == want
            else:
                assert got is None

    def test_minimality_property(self):
        rng = random.Random(8)
        for _ in range(300):
            n = rng.randrange(2, 30)
            s = bytes(rng.randrange(2) + 97 for _ in range(n))
            b = be(s)
            got = period(b, b.handle(0))
            if got is None:
                continue
            assert all(s[i] == s[i + got] for i in range(n - got))
            for smaller in range(1, got):
                assert not all(s[i] == s[i + smaller] for i in range(n - smaller))


class TestRotations:
    def test_examples(self):
        b = be(b"abab", b"baba", b"abc", b"bca")
        h = handles(b, 4)
        assert set(rotations(b, h[0], h[1])) == {1, 3}
        assert set(rotations(b, h[2], h[2])) == {0}
        assert set(rotations(b, h[2], h[3])) == {2}

    def test_iff_cyclic(self):
        rng = random.Random(9)
        for _ in range(400):
            n = rng.randrange(1, 9)
            s = bytes(rng.randrange(2) + 97 for _ in range(n))
            if rng.random() < 0.6:
                j = rng.randrange(n)
                t = s[n - j:] + s[:n - j]
            else:
                t = bytes(rng.randrange(2) + 97 for _ in range(n))
            b = be(s, t)
            got = set(rotations(b, b.handle(0), b.handle(1)))
            want = {j for j in range(n) if s[n - j:] + s[:n - j] == t}
            assert got == want

    def test_primitive_self_rotation(self):
        rng = random.Random(10)
        found = 0
        for _ in range(300):
            n = rng.randrange(1, 10)
            s = bytes(rng.randrange(2) + 97 for _ in range(n))
            if naive_period(s * 2) != n:
                continue
            found += 1
            b = be(s, s)
            assert len(rotations(b, b.handle(0), b.handle(1))) == 1
        assert found > 50


class TestLcpPower:
    def test_examples(self):
        b = be(b"abaabx", b"aba", b"aaaa", b"a", b"ba", b"ab")
        h = handles(b, 6)
        assert lcp_power(b, h[0], h[1], 0, 10 ** 9) == 5
        assert lcp_power(b, h[2], h[3], 0, 4) == 4
        assert lcp_power(b, h[4], h[5], 1, 3) == 2

    def test_against_expansion(self):
        rng = random.Random(11)
        for _ in range(500):
            ns = rng.randrange(0, 20)
            nq = rng.randrange(1, 5)
            s = bytes(rng.randrange(2) + 97 for _ in range(ns))
            q = bytes(rng.randrange(2) + 97 for _ in range(nq))
            l = rng.randrange(0, 3 * nq)
            r = l + rng.randrange(0, 30)
            b = be(s + b"#", q)
            hs = extract(b.handle(0), 0, ns)
            window = (q * ((r // nq) + 2))[l:r]
            want = 0
            while want < min(len(s), len(window)) and s[want] == window[want]:
                want += 1
            assert lcp_power(b, hs, b.handle(1), l, r) == want


class TestRightToLeftGenerators:
    """The right-to-left generators read through lcp_r; each step must equal
    the forward generator's step over the reversed strings."""

    @staticmethod
    def _backend(kind: str, strings: list[bytes]):
        if kind == "standard":
            return StandardBackend(strings)
        return SlpBackend([left_comb_slp(s) for s in strings])

    @staticmethod
    def _case(rng: random.Random) -> tuple[bytes, bytes, int]:
        """s near a power of q (long lcp_r runs), or random; the end offset."""
        q = bytes(rng.randrange(2) + 97 for _ in range(rng.randrange(1, 5)))
        ns = rng.randrange(0, 120)
        s = bytearray((q * (ns // len(q) + 2))[rng.randrange(len(q)):][:ns])
        for _ in range(rng.randrange(4)):
            if s:
                s[rng.randrange(len(s))] = rng.choice(b"abc")
        if rng.random() < 0.3:
            s = bytearray(rng.choice(b"ab") for _ in range(ns))
        return bytes(s), q, rng.randrange(len(q))

    @pytest.mark.parametrize("kind", ["standard", "slp"])
    def test_mismatch_generator(self, kind):
        rng = random.Random(61)
        for _ in range(150):
            s, q, end_off = self._case(rng)
            ns = len(s)
            b = self._backend(kind, [b"#" + s + b"#", q])
            got = MismatchGeneratorR(b, extract(b.handle(0), 1, ns + 1), b.handle(1), end_off)
            f = self._backend(kind, [s[::-1] + b"#", q[::-1]])
            want = MismatchGenerator(f, extract(f.handle(0), 0, ns), f.handle(1),
                                     (-end_off) % len(q))
            while True:
                pos = want.next()
                assert got.next() == (None if pos is None else ns - 1 - pos)
                if pos is None:
                    break

    @pytest.mark.parametrize("kind", ["standard", "slp"])
    def test_edit_generator(self, kind):
        rng = random.Random(62)
        for _ in range(100):
            s, q, end_off = self._case(rng)
            ns = len(s)
            b = self._backend(kind, [b"#" + s + b"#", q])
            got = EditGeneratorR(b, extract(b.handle(0), 1, ns + 1), b.handle(1), end_off)
            f = self._backend(kind, [s[::-1] + b"#", q[::-1]])
            want = EditGenerator(f, extract(f.handle(0), 0, ns), f.handle(1), (-end_off) % len(q))
            for _ in range(6):
                assert got.next() == want.next()


class TestExactMatches:
    def test_examples(self):
        b = be(b"ab", b"ababab", b"aa", b"bbb", b"aba", b"ababa")
        h = handles(b, 6)
        assert set(exact_matches(b, h[0], h[1])) == {0, 2, 4}
        assert set(exact_matches(b, h[2], h[3])) == set()
        assert set(exact_matches(b, h[4], h[5])) == {0, 2}

    def test_exhaustive_tiny(self):
        for n in range(1, 11):
            for tb in range(1 << n):
                t = bytes(97 + ((tb >> i) & 1) for i in range(n))
                for m in range(1, n + 1):
                    for pb in range(1 << m):
                        p = bytes(97 + ((pb >> i) & 1) for i in range(m))
                        b = be(p, t)
                        got = sorted(exact_matches(b, b.handle(0), b.handle(1)))
                        assert got == naive_occurrences(p, t)
                    if n > 6:
                        break  # keep the exhaustive part small; random covers the rest

    def test_random_to_64(self):
        rng = random.Random(13)
        for _ in range(600):
            n = rng.randrange(1, 65)
            m = rng.randrange(1, n + 1)
            t = bytes(rng.randrange(2) + 97 for _ in range(n))
            p = bytes(rng.randrange(2) + 97 for _ in range(m))
            b = be(p, t)
            assert sorted(exact_matches(b, b.handle(0), b.handle(1))) == naive_occurrences(p, t)

    def test_windowed_route_matches_scan(self):
        # the generic ipm-window route (SlpBackend has no scan_exact) must
        # agree with the backend fast path, as the same ascending list
        rng = random.Random(14)
        for _ in range(300):
            n = rng.randrange(1, 50)
            m = rng.randrange(1, n + 1)
            t = bytes(rng.randrange(2) + 97 for _ in range(n))
            p = bytes(rng.randrange(2) + 97 for _ in range(m))
            b = be(p, t)
            hp, ht = b.handle(0), b.handle(1)
            hits: set[int] = set()
            for i in range(n // m):
                lo, hi = i * m, min(n, (i + 2) * m - 1)
                if hi - lo < m:
                    continue
                for h in b.ipm(hp, extract(ht, lo, hi)):
                    hits.add(lo + h)
            assert exact_matches(b, hp, ht) == sorted(hits)
            sb = SlpBackend([left_comb_slp(p), left_comb_slp(t)])
            assert exact_matches(sb, sb.handle(0), sb.handle(1)) == sorted(hits)


def greedy_encoding(positions) -> list[tuple[int, int, int]]:
    """Reference canonical form: from the first uncovered position take the
    longest constant-gap run, trying every run length."""
    xs = sorted(set(positions))
    out = []
    while xs:
        if len(xs) == 1:
            out.append((xs[0], 1, 1))
            break
        d = xs[1] - xs[0]
        run = max(c for c in range(2, len(xs) + 1)
                  if xs[:c] == [xs[0] + i * d for i in range(c)])
        out.append((xs[0], d, run))
        xs = xs[run:]
    return out


def triples(occ: OccurrenceSet) -> list[tuple[int, int, int]]:
    out = [(p.first, p.diff, p.count) for p in occ.progressions]
    assert all(type(v) is int for t in out for v in t)
    return out


class TestOccurrenceSet:
    def test_progression_encoding(self):
        s = OccurrenceSet.from_positions([0, 2, 4, 5, 6, 20])
        assert [(p.first, p.diff, p.count) for p in s.progressions] == \
            [(0, 2, 3), (5, 1, 2), (20, 1, 1)]
        assert s.positions() == [0, 2, 4, 5, 6, 20]

    def test_dedup_and_union(self):
        a = OccurrenceSet.from_positions([1, 3, 5])
        c = OccurrenceSet.from_progressions(
            a.progressions + OccurrenceSet.from_positions([3, 5, 7]).progressions)
        assert c.positions() == [1, 3, 5, 7]
        assert len(c.progressions) == 1

    def test_canonical_invariants(self):
        rng = random.Random(15)
        for _ in range(300):
            pos = sorted({rng.randrange(100) for _ in range(rng.randrange(0, 30))})
            s = OccurrenceSet.from_positions(pos)
            assert s.positions() == pos
            for a, b in itertools.pairwise(s.progressions):
                assert a.last < b.first
                # adjacent same-difference progressions must not be mergeable
                if a.diff == b.diff and a.count >= 2:
                    assert b.first - a.last != a.diff

    def test_greedy_canonical_form(self):
        rng = random.Random(23)
        for _ in range(300):
            pos: list[int] = []
            x = rng.randrange(5)
            for _ in range(rng.randrange(1, 6)):
                if rng.random() < 0.3:  # a lone point between runs
                    pos.append(x)
                    x += rng.randrange(1, 10)
                else:  # a constant-gap run, possibly touching or overlapping the next
                    d, c = rng.randrange(1, 5), rng.randrange(2, 60)
                    pos.extend(range(x, x + c * d, d))
                    x += c * d + rng.randrange(-3, 5)
            pos += rng.sample(pos, min(len(pos), rng.randrange(6)))
            rng.shuffle(pos)
            assert triples(OccurrenceSet.from_positions(pos)) == greedy_encoding(pos)
            progs = [ArithmeticProgression(rng.randrange(60), rng.randrange(1, 6),
                                           rng.randrange(12))
                     for _ in range(rng.randrange(1, 5))]
            union = {y for p in progs for y in p}
            assert triples(OccurrenceSet.from_progressions(progs)) == \
                triples(OccurrenceSet.from_positions(union)) == greedy_encoding(union)

    @settings(max_examples=150, deadline=None)
    @given(st.sets(st.integers(min_value=0, max_value=200), max_size=40))
    def test_roundtrip(self, values):
        s = OccurrenceSet.from_positions(values)
        assert set(s.positions()) == values
        assert len(s) == len(values)

    def test_progression_membership(self):
        p = ArithmeticProgression(3, 4, 5)
        assert list(p) == [3, 7, 11, 15, 19]
        assert 11 in p and 12 not in p and 23 not in p
