import random

import pytest

from pillarmatch import ContractError, extract
from pillarmatch.hamming import (ApproxPeriod, Breaks, MismatchGenerator, RepetitiveRegions,
                                 _pattern_mismatches, _verified_hd, analyze_hd, break_matches_hd,
                                 distances_rle, find_relevant_fragment_hd, find_rotation,
                                 mismatch_occurrences, mismatches, periodic_matches_hd,
                                 repetitive_matches_hd, verify_hd)
from pillarmatch.oracle import brute_hd_occurrences
from pillarmatch.pillar import period
from pillarmatch.slp import SlpBackend, left_comb_slp
from pillarmatch.standard import StandardBackend


def be(*strings: bytes) -> StandardBackend:
    return StandardBackend(list(strings))


def hd_vs_power(s: bytes, q: bytes, offset: int = 0) -> int:
    return sum(1 for i, c in enumerate(s) if c != q[(offset + i) % len(q)])


def rle(b: StandardBackend) -> list[tuple[int, int]]:
    """distances_rle of handles 0, 1, 2 as pattern, text and period."""
    p, t, q = b.handle(0), b.handle(1), b.handle(2)
    return distances_rle(b, p, t, q, _pattern_mismatches(b, p, q))


def naive_per(s: bytes) -> int:
    for per in range(1, len(s) + 1):
        if all(s[i] == s[i + per] for i in range(len(s) - per)):
            return per
    raise AssertionError


class TestMismatchGenerator:
    def test_zero_mismatches(self):
        b = be(b"abcabc", b"abc")
        g = MismatchGenerator(b, b.handle(0), b.handle(1))
        assert g.next() is None
        assert g.next() is None  # stays exhausted

    def test_single(self):
        b = be(b"abxabc", b"abc")
        g = MismatchGenerator(b, b.handle(0), b.handle(1))
        assert g.next() == 2
        assert g.next() is None

    def test_periodic(self):
        b = be(b"bbbb", b"ab")
        assert mismatches(b, b.handle(0), b.handle(1)) == [0, 2]

    def test_rotation_argument(self):
        b = be(b"bbbb", b"ab")
        # rot^1("ab") = "ba": mismatches of "bbbb" vs (ba)^inf are at 1, 3
        assert mismatches(b, b.handle(0), b.handle(1), rotation=1) == [1, 3]

    def test_against_naive(self):
        rng = random.Random(41)
        for _ in range(400):
            ns = rng.randrange(0, 30)
            nq = rng.randrange(1, 5)
            s = bytes(rng.randrange(2) + 97 for _ in range(ns))
            q = bytes(rng.randrange(2) + 97 for _ in range(nq))
            rot = rng.randrange(nq)
            b = be(s + b"#", q)
            hs = extract(b.handle(0), 0, ns)
            got = mismatches(b, hs, b.handle(1), rot)
            rotated = q[nq - rot:] + q[:nq - rot]
            want = [i for i in range(ns) if s[i] != rotated[i % nq]]
            assert got == want


class TestVerify:
    def test_examples(self):
        b = be(b"abcd", b"abed", b"axyd")
        h = [b.handle(i) for i in range(3)]
        assert verify_hd(b, h[0], h[1], 1)
        assert not verify_hd(b, h[0], h[2], 1)
        assert verify_hd(b, h[0], h[0], 0)

    def test_length_mismatch(self):
        b = be(b"ab", b"abc")
        with pytest.raises(ContractError):
            verify_hd(b, b.handle(0), b.handle(1), 1)

    @pytest.mark.parametrize("kind", ["standard", "slp"])
    def test_against_naive_all_bytes(self, kind):
        # Every byte value, NUL and 0xff included; fragments start inside
        # their strings, so bytes_of reads a slice on both backends.
        rng = random.Random(78)
        cases = []
        for n in range(301):
            s = bytes(rng.randrange(256) for _ in range(n))
            t = bytearray(s)
            for i in rng.sample(range(n), rng.randrange(n + 1)):
                t[i] = (t[i] + rng.randrange(1, 256)) % 256
            cases.append((s, bytes(t)))
            if n:
                for i in (0, n - 1):
                    u = bytearray(s)
                    u[i] ^= rng.choice([0x01, 0x80, 0xff])
                    cases.append((s, bytes(u)))
                cases.append((s, s))
                cases.append((bytes(n), b"\xff" * n))
        for s, t in cases:
            n = len(s)
            strings = [b"\x00" + s + b"\xff", b"\xff" + t + b"\x00"]
            b = be(*strings) if kind == "standard" else SlpBackend(
                [left_comb_slp(x) for x in strings])
            fs, ft = extract(b.handle(0), 1, n + 1), extract(b.handle(1), 1, n + 1)
            hd = sum(x != y for x, y in zip(s, t))
            for k in {0, hd - 1, hd, hd + 1, n, rng.randrange(n + 1)}:
                if 0 <= k <= n:
                    assert verify_hd(b, fs, ft, k) == (hd <= k), (s, t, k)

    def test_verification_builds_no_index(self):
        rng = random.Random(79)
        p = bytes(rng.choice(b"acgt") for _ in range(64))
        t = bytes(rng.choice(b"acgt") for _ in range(512))
        b = be(p, t)
        want = sorted(brute_hd_occurrences(p, t, 48))
        assert 0 < len(want) < len(t) - len(p)
        assert _verified_hd(b, b.handle(0), b.handle(1), 48, 0, len(t) - len(p)) == want
        assert b._rank is None

    def test_interval_against_oracle(self):
        # marking hands _verified_hd whole runs of voted starts, not only lo == hi
        rng = random.Random(77)
        for _ in range(200):
            n = rng.randrange(1, 40)
            m = rng.randrange(1, n + 1)
            k = rng.randrange(0, m + 1)
            t = bytes(rng.randrange(2) + 97 for _ in range(n))
            p = bytes(rng.randrange(2) + 97 for _ in range(m))
            lo = rng.randrange(0, n - m + 1)
            hi = rng.randrange(lo, n - m + 1)
            b = be(p, t)
            want = sorted(s for s in brute_hd_occurrences(p, t, k) if lo <= s <= hi)
            assert _verified_hd(b, b.handle(0), b.handle(1), k, lo, hi) == want


class TestAnalyze:
    def test_breaks_example(self):
        b = be(b"abcdefghijklmnop")
        res = analyze_hd(b, b.handle(0), 1)
        assert isinstance(res, Breaks)
        assert res.items == ((0, 2, None), (2, 2, None))

    def test_approx_period_example(self):
        b = be(b"a" * 256)
        res = analyze_hd(b, b.handle(0), 2)
        assert isinstance(res, ApproxPeriod)
        assert b.bytes_of(extract(b.handle(0), res.q_offset, res.q_offset + res.q_length)) == b"a"

    def test_regions_example(self):
        p = ((b"a" * 16 + b"bb") * 20)[:256]
        b = be(p)
        res = analyze_hd(b, b.handle(0), 2)
        assert isinstance(res, RepetitiveRegions)
        assert [(off, ln) for off, ln, _, _ in res.items] == [(18 * i, 18) for i in range(6)]
        for off, ln, qo, ql in res.items:
            q = p[qo:qo + ql]
            assert q == b"a"
            assert hd_vs_power(p[off:off + ln], q) == 2 == -(-8 * 2 * ln // 256)

    def test_invariants_random(self):
        rng = random.Random(42)
        for _ in range(200):
            m = rng.randrange(8, 200)
            k = rng.randrange(1, m // 8 + 1)
            style = rng.randrange(3)
            if style == 0:
                p = bytes(rng.randrange(2) + 97 for _ in range(m))
            else:
                unit = b"a" * rng.randrange(1, 12) + b"b" * rng.randrange(0, 2)
                pa = bytearray((unit * (m // len(unit) + 1))[:m])
                for _ in range(rng.randrange(0, 6)):
                    pa[rng.randrange(m)] = rng.randrange(3) + 97
                p = bytes(pa)
            b = be(p)
            res = analyze_hd(b, b.handle(0), k)
            if isinstance(res, Breaks):
                assert len(res.items) == 2 * k
                end = 0
                for off, ln, per in res.items:
                    assert off >= end and ln == m // (8 * k)
                    end = off + ln
                    assert naive_per(p[off:off + ln]) * 128 * k > m
                    assert per == period(b, extract(b.handle(0), off, off + ln))
            elif isinstance(res, RepetitiveRegions):
                assert 8 * sum(ln for _, ln, _, _ in res.items) >= 3 * m
                end = 0
                lone = len(res.items) == 1
                for off, ln, qo, ql in res.items:
                    if not lone:
                        assert off >= end
                    end = off + ln
                    assert ln * 8 * k >= m
                    assert ql * 128 * k <= m
                    assert hd_vs_power(p[off:off + ln], p[qo:qo + ql]) == -(-8 * k * ln // m)
            else:
                assert res.q_length * 128 * k <= m
                assert hd_vs_power(p, p[res.q_offset:res.q_offset + res.q_length]) < 8 * k


class TestFindRotation:
    def test_examples(self):
        b = be(b"ab", b"abababab", b"bababa", b"aaabbb")
        assert find_rotation(b, 1, b.handle(0), b.handle(1)) == 0
        assert find_rotation(b, 1, b.handle(0), b.handle(2)) == 1
        assert find_rotation(b, 1, b.handle(0), b.handle(3)) is None

    def test_unique_rotation_property(self):
        rng = random.Random(43)
        for _ in range(200):
            nq = rng.randrange(1, 4)
            q = bytes(rng.randrange(2) + 97 for _ in range(nq))
            if naive_per(q + q) != nq:
                continue  # q must be primitive
            k = rng.randrange(0, 4)
            reps = 2 * k + 1 + rng.randrange(0, 3)
            rot = rng.randrange(nq)
            rq = q[nq - rot:] + q[:nq - rot]
            s = bytearray((rq * (reps + 1))[:reps * nq])
            flips = rng.randrange(0, k + 1)
            for _ in range(flips):
                s[rng.randrange(len(s))] = rng.randrange(3) + 97
            s = bytes(s)
            b = be(q, s)
            got = find_rotation(b, k, b.handle(0), b.handle(1))
            want = None
            for j in range(nq):
                cand = q[nq - j:] + q[:nq - j]
                if hd_vs_power(s, cand) <= k:
                    want = j
                    break
            assert got == want


class TestRelevantFragment:
    def test_all_periodic(self):
        b = be(b"a" * 32, b"a" * 40, b"a")
        frag = find_relevant_fragment_hd(b, b.handle(0), b.handle(1), 2, b.handle(2))
        assert (frag.start, frag.end) == (0, 40)

    def test_no_rotation(self):
        b = be(b"a" * 32, b"b" * 40, b"a")
        frag = find_relevant_fragment_hd(b, b.handle(0), b.handle(1), 2, b.handle(2))
        assert len(frag) == 0

    def test_one_error(self):
        t = b"a" * 8 + b"b" + b"a" * 31
        b = be(b"a" * 32, t, b"a")
        frag = find_relevant_fragment_hd(b, b.handle(0), b.handle(1), 2, b.handle(2))
        assert (frag.start, frag.end) == (0, 40)
        assert hd_vs_power(t, b"a") == 1 <= 6


class TestDistancesRLE:
    def test_examples(self):
        b = be(b"aaaa", b"aaaaaa", b"a")
        assert rle(b) == [(0, 3)]
        b = be(b"aaaa", b"aaabaa", b"a")
        assert rle(b) == [(1, 3)]
        b = be(b"abab", b"ababab", b"ab")
        assert rle(b) == [(0, 2)]

    def test_against_direct(self):
        rng = random.Random(44)
        for _ in range(300):
            nq = rng.randrange(1, 4)
            q = bytes(rng.randrange(2) + 97 for _ in range(nq))
            m = rng.randrange(nq, 50)
            n = rng.randrange(m, 3 * m // 2 + 1)
            p = bytearray((q * (m // nq + 2))[:m])
            t = bytearray((q * (n // nq + 2))[:n])
            for _ in range(rng.randrange(0, 5)):
                p[rng.randrange(m)] = rng.randrange(3) + 97
            for _ in range(rng.randrange(0, 5)):
                t[rng.randrange(n)] = rng.randrange(3) + 97
            p, t = bytes(p), bytes(t)
            b = be(p, t, q)
            runs = rle(b)
            for value, count in runs:
                assert count >= 1
            for (v1, _), (v2, _) in zip(runs, runs[1:]):
                assert v1 != v2
            expanded = [v for v, c in runs for _ in range(c)]
            direct = [sum(1 for x in range(m) if t[j * nq + x] != p[x])
                      for j in range((n - m) // nq + 1)]
            assert expanded == direct
            d, dp = hd_vs_power(p, q), hd_vs_power(t, q)
            changes = sum(1 for a2, b2 in zip(direct, direct[1:]) if a2 != b2)
            assert changes <= dp * (2 * d + 1)


class TestPeriodicMatches:
    def test_all_a(self):
        b = be(b"a" * 32, b"a" * 48, b"a")
        occ = periodic_matches_hd(b, b.handle(0), b.handle(1), 1, 2, b.handle(2))
        assert [(p.first, p.diff, p.count) for p in occ.progressions] == [(0, 1, 17)]

    def test_one_error_in_text(self):
        p, t = b"a" * 32, b"a" * 20 + b"b" + b"a" * 27
        b = be(p, t, b"a")
        occ = periodic_matches_hd(b, b.handle(0), b.handle(1), 1, 2, b.handle(2))
        assert set(occ.positions()) == brute_hd_occurrences(p, t, 1) == set(range(17))

    def test_error_in_pattern_k0(self):
        p = b"a" * 16 + b"b" + b"a" * 15
        t = b"a" * 48
        b = be(p, t, b"a")
        occ = periodic_matches_hd(b, b.handle(0), b.handle(1), 0, 2, b.handle(2))
        assert occ.positions() == []

    def test_precondition(self):
        b = be(b"ab" * 4, b"ab" * 6, b"ab")
        with pytest.raises(ContractError):
            periodic_matches_hd(b, b.handle(0), b.handle(1), 1, 1, b.handle(2))


class TestBreakMatches:
    def test_example(self):
        p, t = b"abcdef", b"abcdefab"
        b = be(p, t)
        occ = break_matches_hd(b, b.handle(0), extract(b.handle(1), 0, 8),
                               Breaks(((0, 2, None), (2, 2, None))), 1)
        assert set(occ.positions()) == brute_hd_occurrences(p, t, 1)
        assert 0 in occ

    def test_identity(self):
        p = bytes(random.Random(45).randrange(26) + 97 for _ in range(64))
        b = be(p, p)
        res = analyze_hd(b, b.handle(0), 2)
        assert isinstance(res, Breaks)
        occ = break_matches_hd(b, b.handle(0), b.handle(1), res, 2)
        assert 0 in occ

    def test_no_break_occurs(self):
        p, t = b"abcdefgh", b"zzzzzzzzzzzz"
        b = be(p, t)
        occ = break_matches_hd(b, b.handle(0), b.handle(1),
                               Breaks(((0, 1, None), (1, 1, None))), 1)
        assert occ.positions() == []


class TestRepetitiveMatches:
    def _pattern(self):
        return ((b"a" * 16 + b"bb") * 20)[:256]

    def test_identity(self):
        p = self._pattern()
        b = be(p, p)
        res = analyze_hd(b, b.handle(0), 2)
        assert isinstance(res, RepetitiveRegions)
        occ = repetitive_matches_hd(b, b.handle(0), b.handle(1), res, 2)
        assert 0 in occ

    def test_vs_oracle(self):
        p = self._pattern()
        t = (b"a" * 16 + p)[:272]
        b = be(p, t)
        res = analyze_hd(b, b.handle(0), 2)
        occ = repetitive_matches_hd(b, b.handle(0), b.handle(1), res, 2)
        assert set(occ.positions()) == brute_hd_occurrences(p, t, 2)

    def test_empty(self):
        p = self._pattern()
        t = b"c" * 384
        b = be(p, t)
        res = analyze_hd(b, b.handle(0), 2)
        occ = repetitive_matches_hd(b, b.handle(0), b.handle(1), res, 2)
        assert occ.positions() == []


class TestMismatchOccurrences:
    def test_examples(self):
        b = be(b"abab", b"ababab")
        occ = mismatch_occurrences(b, b.handle(0), b.handle(1), 1)
        assert set(occ.positions()) == {0, 2}
        b = be(b"aacc", b"aaaccc")
        occ = mismatch_occurrences(b, b.handle(0), b.handle(1), 1)
        assert occ.positions() == [0, 1, 2]

    def test_identity_any_k(self):
        rng = random.Random(46)
        for _ in range(40):
            m = rng.randrange(1, 60)
            p = bytes(rng.randrange(3) + 97 for _ in range(m))
            k = rng.randrange(0, m + 1)
            b = be(p, p)
            assert 0 in mismatch_occurrences(b, b.handle(0), b.handle(1), k)

    def test_k0_routes_to_exact(self):
        b = be(b"ab", b"abab")
        assert mismatch_occurrences(b, b.handle(0), b.handle(1), 0).positions() == [0, 2]

    def test_short_text(self):
        b = be(b"abcd", b"ab")
        assert mismatch_occurrences(b, b.handle(0), b.handle(1), 2).positions() == []

    def test_triangle_inequality(self):
        rng = random.Random(47)
        for _ in range(200):
            n = rng.randrange(1, 40)
            a, bb, c = (bytes(rng.randrange(2) + 97 for _ in range(n)) for _ in range(3))
            dab = sum(x != y for x, y in zip(a, bb))
            dbc = sum(x != y for x, y in zip(bb, c))
            dac = sum(x != y for x, y in zip(a, c))
            assert dac + dbc >= dab >= abs(dac - dbc)

    def test_random_vs_oracle(self):
        rng = random.Random(48)
        for _ in range(300):
            sigma = rng.choice([2, 4, 26])
            n = rng.randrange(1, 400)
            m = rng.randrange(1, n + 1)
            k = rng.randrange(1, m + 1)
            t = bytes(rng.randrange(sigma) + 97 for _ in range(n))
            p = bytes(rng.randrange(sigma) + 97 for _ in range(m))
            b = be(p, t)
            got = set(mismatch_occurrences(b, b.handle(0), b.handle(1), k).positions())
            assert got == brute_hd_occurrences(p, t, k)

    def test_periodic_vs_oracle(self):
        rng = random.Random(49)
        for _ in range(120):
            k = rng.choice([1, 2])
            nq = rng.randrange(1, 3)
            q = bytes(rng.randrange(2) + 97 for _ in range(nq))
            m = 128 * k * nq + rng.randrange(0, 40)
            p = bytearray((q * (m // nq + 1))[:m])
            for _ in range(rng.randrange(0, 8 * k)):
                p[rng.randrange(m)] = rng.randrange(3) + 97
            p = bytes(p)
            n = rng.randrange(m, 2 * m)
            t = bytearray((q * (n // nq + 2))[:n])
            for _ in range(rng.randrange(0, 4 * k)):
                t[rng.randrange(n)] = rng.randrange(3) + 97
            t = bytes(t)
            b = be(p, t)
            got = set(mismatch_occurrences(b, b.handle(0), b.handle(1), k).positions())
            assert got == brute_hd_occurrences(p, t, k)

    def test_planted_breaks_query_builds_no_index(self):
        # The breaks route on random DNA: the anchors' exact scans and the
        # verification of the voted starts read bytes only.
        rng = random.Random(51)
        m, n, k = 512, 1 << 14, 2
        p = bytes(rng.choice(b"acgt") for _ in range(m))
        t = bytearray(rng.choice(b"acgt") for _ in range(n))
        for s in rng.sample(range(0, n - m, m), 3):
            copy = bytearray(p)
            for i in rng.sample(range(m), rng.randrange(k + 1)):
                copy[i] = rng.choice(b"acgt")
            t[s:s + m] = copy
        t = bytes(t)
        b = be(p, t)
        assert isinstance(analyze_hd(b, b.handle(0), k), Breaks)
        got = mismatch_occurrences(b, b.handle(0), b.handle(1), k).positions()
        assert len(got) >= 3 and set(got) == brute_hd_occurrences(p, t, k)
        assert b._rank is None

    def test_periodic_route_many_blocks_vs_oracle(self):
        # Texts of 3m..4m bytes span at least 6 overlapping blocks.  Errors sit
        # next to block starts (where ownership of starts passes to the next
        # block), block ends, and the ends of the windows starting there.
        rng = random.Random(50)
        periodic = found = 0
        for _ in range(60):
            k = rng.choice([1, 2])
            nq = rng.randrange(1, 3)
            q = bytes(rng.randrange(2) + 97 for _ in range(nq))
            m = 128 * k * nq + rng.randrange(0, 40)
            p = bytearray((q * (m // nq + 1))[:m])
            for _ in range(rng.randrange(0, 2 * k + 1)):
                p[rng.randrange(m)] = 99
            p = bytes(p)
            n = rng.randrange(3 * m, 4 * m)
            t = bytearray((q * (n // nq + 2))[:n])
            edges = [x for i in range(2 * n // m + 1)
                     for x in ((i * m) // 2, ((i + 3) * m) // 2 - 1, (i * m) // 2 + m - 1)]
            for x in rng.sample(edges, rng.randrange(1, 4 * k + 1)):
                pos = x + rng.randrange(-2, 3)
                if 0 <= pos < n:
                    t[pos] = 99
            t = bytes(t)
            b = be(p, t)
            if isinstance(analyze_hd(b, b.handle(0), k), ApproxPeriod):
                periodic += 1
            got = mismatch_occurrences(b, b.handle(0), b.handle(1), k).positions()
            want = brute_hd_occurrences(p, t, k)
            assert set(got) == want
            found += len(want)
        assert periodic >= 40 and found > 0
