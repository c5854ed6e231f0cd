import random

import pytest

from pillarmatch import ContractError, extract
from pillarmatch.edit import (EditGenerator, EditGeneratorR, _dense_edit_scan, _min_cost_window,
                              analyze_ed,
                              break_matches_ed, edit_occurrences, find_a_witness,
                              find_relevant_fragment_ed, locked, periodic_matches_ed,
                              repetitive_matches_ed, synched_matches, verify_ed)
from pillarmatch.hamming import ApproxPeriod, Breaks, RepetitiveRegions
from pillarmatch.oracle import brute_ed_occurrences, brute_edl, edit_distance
from pillarmatch.standard import StandardBackend


def be(*strings: bytes) -> StandardBackend:
    return StandardBackend(list(strings))


def expand(q: bytes, upto: int) -> bytes:
    return (q * (upto // len(q) + 2))[:upto]


def longest_prefix_within(s: bytes, q: bytes, budget: int) -> tuple[int, int]:
    """Reference for the generator: longest s-prefix within budget edits of a
    q^inf prefix, and the longest matching q^inf prefix for it."""
    best = (-1, -1)
    limit = len(s) + budget + 1
    w = expand(q, limit)
    # dp[i][j] = edit distance of s[:i] and w[:j]
    prev = list(range(limit + 1))
    rows = [prev]
    for i in range(1, len(s) + 1):
        cur = [i] + [0] * limit
        for j in range(1, limit + 1):
            cur[j] = min(prev[j - 1] + (s[i - 1] != w[j - 1]), prev[j] + 1, cur[j - 1] + 1)
        rows.append(cur)
        prev = cur
    for i in range(len(s), -1, -1):
        js = [j for j in range(limit + 1) if rows[i][j] <= budget]
        if js:
            return i, max(js)
    raise AssertionError


def primitive(s: bytes) -> bool:
    n = len(s)
    return all(s != s[:d] * (n // d) for d in range(1, n) if n % d == 0)


class TestEditGenerator:
    def test_exact(self):
        b = be(b"abc", b"abc")
        g = EditGenerator(b, b.handle(0), b.handle(1))
        assert g.next() == (3, 3)
        assert g.next() == (3, 3)  # frozen

    def test_one_deletion(self):
        b = be(b"axbc", b"abc")
        g = EditGenerator(b, b.handle(0), b.handle(1))
        assert g.next() == (1, 1)
        assert g.next() == (4, 3)
        assert g.alignment() == [(1, None)]

    def test_empty_string(self):
        b = be(b"#", b"a")
        g = EditGenerator(b, extract(b.handle(0), 0, 0), b.handle(1))
        assert g.next() == (0, 0)
        assert g.next() == (0, 0)

    def test_alignment_before_next(self):
        b = be(b"abc", b"abc")
        g = EditGenerator(b, b.handle(0), b.handle(1))
        with pytest.raises(ContractError):
            g.alignment()

    def test_against_dp_and_monotone(self):
        rng = random.Random(51)
        for _ in range(150):
            ns = rng.randrange(0, 18)
            nq = rng.randrange(1, 4)
            s = bytes(rng.randrange(2) + 97 for _ in range(ns))
            q = bytes(rng.randrange(2) + 97 for _ in range(nq))
            b = be(s + b"#", q)
            hs = extract(b.handle(0), 0, ns)
            g = EditGenerator(b, hs, b.handle(1))
            prev_len = -1
            for budget in range(0, 6):
                got = g.next()
                want_len, _ = longest_prefix_within(s, q, budget)
                assert got[0] == want_len, (s, q, budget, got, want_len)
                # the reported q-prefix must actually be within budget
                w = expand(q, got[1])
                assert edit_distance(s[:got[0]], w) <= budget
                assert got[0] >= prev_len
                prev_len = got[0]

    def test_alignment_replay(self):
        rng = random.Random(52)
        for _ in range(150):
            ns = rng.randrange(1, 16)
            nq = rng.randrange(1, 4)
            s = bytes(rng.randrange(2) + 97 for _ in range(ns))
            q = bytes(rng.randrange(2) + 97 for _ in range(nq))
            b = be(s, q)
            g = EditGenerator(b, b.handle(0), b.handle(1))
            cost = 0
            res = g.next()
            while res[0] < ns:
                res = g.next()
                cost += 1
            ops = g.alignment()
            assert len(ops) == cost
            # replay: unedited stretches must match between s and q^inf
            qs = expand(q, res[1] + 1)
            si = qi = 0
            for sp, qp in ops:
                if sp is None:
                    gap = qp - qi
                    assert gap >= 0 and s[si:si + gap] == qs[qi:qp]
                    si += gap
                    qi = qp + 1
                elif qp is None:
                    gap = sp - si
                    assert gap >= 0 and s[si:sp] == qs[qi:qi + gap]
                    qi += gap
                    si = sp + 1
                else:
                    assert sp - si == qp - qi >= 0
                    assert s[si:sp] == qs[qi:qp]
                    assert s[sp] != qs[qp]
                    si, qi = sp + 1, qp + 1
            assert res[0] - si == res[1] - qi
            assert s[si:res[0]] == qs[qi:res[1]]

    def test_reverse_generator(self):
        rng = random.Random(53)
        for _ in range(120):
            ns = rng.randrange(0, 14)
            nq = rng.randrange(1, 4)
            s = bytes(rng.randrange(2) + 97 for _ in range(ns))
            q = bytes(rng.randrange(2) + 97 for _ in range(nq))
            end_off = rng.randrange(nq)
            b = be(s + b"#", q)
            hs = extract(b.handle(0), 0, ns)
            g = EditGeneratorR(b, hs, b.handle(1), end_off)
            rot = q[end_off:] + q[:end_off]  # powers of rot end at q^inf pos end_off mod nq
            for budget in range(0, 5):
                got = g.next()
                want_len, want_q = longest_prefix_within(s[::-1], rot[::-1], budget)
                assert got[0] == want_len, (s, q, end_off, budget, got, want_len)


class TestVerifyEd:
    def test_examples(self):
        b = be(b"abc", b"xabc")
        assert verify_ed(b, b.handle(0), b.handle(1), 1, (0, 1)) == [0, 1]
        assert [_min_cost_window(b"abc", b"xabc", pos, 4, 1)[0] for pos in (0, 1)] == [1, 0]
        b = be(b"abc", b"abc")
        assert verify_ed(b, b.handle(0), b.handle(1), 0, (0, 0)) == [0]
        b = be(b"abc", b"xyz")
        assert verify_ed(b, b.handle(0), b.handle(1), 1, (0, 0)) == []

    def test_against_oracle(self):
        # Random closed intervals, some reaching past either end of t; the
        # starts come back ascending in t's coordinates.  Besides random
        # binary strings: texts a^n; starts within k of t's end whose
        # occurrences delete p's tail (p is t's suffix plus a few bytes); k up
        # to m; intervals wider than m; and the alphabet acgt with planted
        # near-copies of p.
        rng = random.Random(54)
        cases = []
        for _ in range(200):
            n = rng.randrange(0, 30)
            m = rng.randrange(1, 12)
            k = rng.randrange(0, 5)
            t = bytes(rng.randrange(2) + 97 for _ in range(n))
            p = bytes(rng.randrange(2) + 97 for _ in range(m))
            lo = rng.randrange(-2, n + 2)
            cases.append((p, t, k, lo, rng.randrange(lo - 1, n + 3)))
        for n in range(0, 26):
            m = rng.randrange(1, 12)
            p = bytearray(b"a" * m)
            if rng.randrange(2):
                p[rng.randrange(m)] = ord("b")
            cases.append((bytes(p), b"a" * n, rng.randrange(0, m + 1), -1, n + 1))
        for _ in range(60):
            n = rng.randrange(4, 30)
            t = bytes(rng.randrange(2) + 97 for _ in range(n))
            tail = bytes(rng.randrange(2) + 97 for _ in range(rng.randrange(1, 5)))
            p = t[n - rng.randrange(0, 4):] + tail
            k = min(len(p), len(tail) + rng.randrange(-1, 2))
            cases.append((p, t, k, n - len(p) - k - 2, n + 2))
        for _ in range(60):
            n = rng.randrange(0, 30)
            m = rng.randrange(1, 10)
            t = bytes(rng.randrange(2) + 97 for _ in range(n))
            p = bytes(rng.randrange(2) + 97 for _ in range(m))
            cases.append((p, t, rng.randrange(m // 2, m + 1), -2, n + 2))
        for _ in range(60):
            n = rng.randrange(10, 60)
            m = rng.randrange(1, 7)
            t = bytes(rng.randrange(3) + 97 for _ in range(n))
            p = bytes(rng.randrange(3) + 97 for _ in range(m))
            lo = rng.randrange(-2, 4)
            cases.append((p, t, rng.randrange(0, 3), lo, lo + m + rng.randrange(1, n)))
        for _ in range(100):
            n = rng.randrange(0, 40)
            m = rng.randrange(1, 14)
            t = bytearray(rng.choice(b"acgt") for _ in range(n))
            p = bytes(rng.choice(b"acgt") for _ in range(m))
            k = rng.randrange(0, min(m, 6) + 1)
            if n > m:
                s = rng.randrange(n - m + 1)
                t[s:s + m] = p
                for _ in range(rng.randrange(0, k + 2)):
                    t[rng.randrange(n)] = rng.choice(b"acgt")
            lo = rng.randrange(-3, n + 3)
            cases.append((p, bytes(t), k, lo, rng.randrange(lo - 1, n + 4)))
        for p, t, k, lo, hi in cases:
            n, m = len(t), len(p)
            b = be(p, t + b"#")
            ht = extract(b.handle(1), 0, n)
            got = verify_ed(b, b.handle(0), ht, k, (lo, hi))
            want = {pos for pos in brute_ed_occurrences(p, t, k) if lo <= pos <= hi}
            assert got == sorted(want), (p, t, k, lo, hi)
            for pos in got:
                best = min(edit_distance(p, t[pos:r]) for r in range(pos, n + 1))
                assert _min_cost_window(p, t, pos, min(n, pos + m + k), k)[0] == best

    def test_materializes_only_reachable_text(self):
        t = b"ab" * 500
        b = be(b"abab", t)
        seen: list[int] = []
        bytes_of = b.bytes_of
        b.bytes_of = lambda f: seen.append(len(f)) or bytes_of(f)
        assert verify_ed(b, b.handle(0), b.handle(1), 1, (100, 103)) == [100, 101, 102, 103]
        assert sorted(seen) == [4, 103 + 4 + 1 - 100]


class TestAnalyzeEd:
    def test_breaks_example(self):
        b = be(b"abcdefghijklmnop")
        res = analyze_ed(b, b.handle(0), 1)
        assert isinstance(res, Breaks) and res.items == ((0, 2, None), (2, 2, None))

    def test_approx_period_example(self):
        b = be(b"a" * 256)
        res = analyze_ed(b, b.handle(0), 2)
        assert isinstance(res, ApproxPeriod)
        assert res.q_length == 1

    def test_regions_example(self):
        p = ((b"a" * 16 + b"bb") * 20)[:256]
        b = be(p)
        res = analyze_ed(b, b.handle(0), 2)
        assert isinstance(res, RepetitiveRegions)
        for off, ln, qo, ql in res.items:
            assert p[qo:qo + ql] == b"a"
            assert brute_edl(p[off:off + ln], b"a") == -(-16 * ln // 256)

    def test_invariants_random(self):
        rng = random.Random(55)
        for _ in range(120):
            m = rng.randrange(8, 160)
            k = rng.randrange(1, m // 8 + 1)
            style = rng.randrange(3)
            if style == 0:
                p = bytes(rng.randrange(2) + 97 for _ in range(m))
            else:
                unit = b"a" * rng.randrange(1, 10) + b"b" * rng.randrange(0, 2)
                pa = bytearray((unit * (m // len(unit) + 1))[:m])
                for _ in range(rng.randrange(0, 5)):
                    pa[rng.randrange(len(pa))] = rng.randrange(3) + 97
                p = bytes(pa)
            b = be(p)
            res = analyze_ed(b, b.handle(0), k)
            if isinstance(res, RepetitiveRegions):
                for off, ln, qo, ql in res.items:
                    q = p[qo:qo + ql]
                    assert primitive(q) and ql * 128 * k <= m
                    assert brute_edl(p[off:off + ln], q) == -(-8 * k * ln // m)
            elif isinstance(res, ApproxPeriod):
                q = p[res.q_offset:res.q_offset + res.q_length]
                assert primitive(q) and res.q_length * 128 * k <= m
                assert brute_edl(p, q) < 8 * k


class TestFindAWitness:
    def test_examples(self):
        b = be(b"ab", b"ababab", b"bababa", b"cccccc")
        assert find_a_witness(b, 1, b.handle(0), b.handle(1)) == (0, 6, 0)
        x, y, cost = find_a_witness(b, 1, b.handle(0), b.handle(2))
        assert cost == 0 and (x % 2, y - x) == (1, 6)
        assert find_a_witness(b, 1, b.handle(0), b.handle(3)) is None

    def test_cost_is_exact_edl(self):
        # The first 200 instances have short periods; the rest have periods
        # up to 12, k in 1..2 and at least 2k+2 copies of the period, so that
        # rotations are voted for and only the voted arcs are probed
        # (nq > 3k+1).  Either way the window starts in [0, nq).
        rng = random.Random(56)
        voted = 0
        for trial in range(500):
            wide = trial >= 200
            nq = rng.randrange(5, 13) if wide else rng.randrange(1, 5)
            q = bytes(rng.randrange(2) + 97 for _ in range(nq))
            if not primitive(q):
                continue
            kw = rng.randrange(1, 3) if wide else 0
            reps = rng.randrange(2 * kw + 2, 2 * kw + 6) if wide else rng.randrange(1, 10)
            s = bytearray(expand(q, reps * nq + rng.randrange(nq + 1)))
            for _ in range(rng.randrange(0, 4)):
                if not s:
                    break
                op = rng.randrange(3)
                pos = rng.randrange(len(s))
                if op == 0:
                    s[pos] = rng.randrange(3) + 97
                elif op == 1 and len(s) > 1:
                    del s[pos]
                else:
                    s.insert(pos, rng.randrange(3) + 97)
            s = bytes(s)
            if not s:
                continue
            k = kw if wide else rng.randrange(0, 6)
            voted += nq > 3 * k + 1 and len(s) >= (2 * k + 1) * nq and k > 0
            b = be(s, q)
            w = find_a_witness(b, k, b.handle(1), b.handle(0))
            true = brute_edl(s, q)
            if true <= k:
                x, y, cost = w
                assert cost == true
                assert edit_distance(s, expand(q, y)[x:y]) == cost
                assert 0 <= x < len(q)
            else:
                assert w is None
        assert voted >= 50


def piece_costs(b, s, q, d: int, lf) -> list[int]:
    """Each locked piece's distance to q^inf (d + 1 when beyond d)."""
    ws = [find_a_witness(b, d, q, extract(s, off, off + ln)) for off, ln in lf]
    return [d + 1 if w is None else w[2] for w in ws]


class TestLocked:
    def test_error_free(self):
        b = be(b"aaaa", b"a")
        lf = locked(b, b.handle(0), b.handle(1), 1, 0)
        assert sum(piece_costs(b, b.handle(0), b.handle(1), 1, lf)) == 0
        assert lf[0][0] == 0
        off, ln = lf[-1]
        assert off + ln == 4

    def test_one_error(self):
        b = be(b"aabaa", b"a")
        lf = locked(b, b.handle(0), b.handle(1), 1, 0)
        assert sum(piece_costs(b, b.handle(0), b.handle(1), 1, lf)) == 1
        assert sum(ln for _, ln in lf) <= 8

    def test_periodic_two(self):
        b = be(b"ababab", b"ab")
        lf = locked(b, b.handle(0), b.handle(1), 1, 0)
        assert sum(piece_costs(b, b.handle(0), b.handle(1), 1, lf)) == 0

    def test_invariants(self):
        rng = random.Random(57)
        for _ in range(120):
            nq = rng.randrange(1, 4)
            q = bytes(rng.randrange(2) + 97 for _ in range(nq))
            if not primitive(q):
                continue
            reps = rng.randrange(8, 18)
            s = bytearray(expand(q, reps * nq))
            for _ in range(rng.randrange(0, 4)):
                op = rng.randrange(3)
                pos = rng.randrange(len(s))
                if op == 0:
                    s[pos] = rng.randrange(3) + 97
                elif op == 1:
                    del s[pos]
                else:
                    s.insert(pos, rng.randrange(3) + 97)
            s = bytes(s)
            true = brute_edl(s, q)
            d = max(true, 1)
            if len(s) < (2 * d + 1) * nq:
                continue
            k = rng.randrange(0, 3)
            b = be(s, q)
            lf = locked(b, b.handle(0), b.handle(1), d, k)
            costs = piece_costs(b, b.handle(0), b.handle(1), d, lf)
            end = 0
            for off, ln in lf:
                assert off >= end
                end = off + ln
            assert lf[0][0] == 0
            assert lf[-1][0] + lf[-1][1] == len(s)
            assert sum(costs) == true
            for c in costs[1:-1]:
                assert c > 0
            assert sum(ln for _, ln in lf) <= (5 * nq + 1) * true + 2 * (k + 1) * nq


class TestSynchedMatches:
    def test_small_periodic(self):
        b = be(b"a" * 8, b"a" * 12, b"a")
        occ = synched_matches(b, b.handle(0), b.handle(1), (0, 0), 0, 1, b.handle(2),
                              locked(b, b.handle(0), b.handle(2), 1, 0))
        assert occ.positions() == [0, 1, 2, 3, 4]

    def test_identity(self):
        b = be(b"abaabaaba", b"abaabaaba", b"aba")
        occ = synched_matches(b, b.handle(0), b.handle(1), (0, 0), 0, 1, b.handle(2),
                              locked(b, b.handle(0), b.handle(2), 1, 0))
        assert 0 in occ

    def test_empty_interval(self):
        b = be(b"a" * 8, b"a" * 12, b"a")
        occ = synched_matches(b, b.handle(0), b.handle(1), None, 0, 1, b.handle(2),
                              locked(b, b.handle(0), b.handle(2), 1, 0))
        assert occ.positions() == []


def relevant(b: StandardBackend):
    """find_relevant_fragment_ed with k=1, d=2: handles 0, 1, 2 are p, t, q."""
    p, q = b.handle(0), b.handle(2)
    return find_relevant_fragment_ed(b, p, b.handle(1), 1, 2, q, find_a_witness(b, 2, q, p))


class TestRelevantFragmentEd:
    def test_periodic(self):
        b = be(b"a" * 32, b"a" * 40, b"a")
        frag, interval = relevant(b)
        assert (frag.start, frag.end) == (0, 40)
        assert interval is not None and interval[1] - interval[0] == 12  # 6d

    def test_no_witness(self):
        b = be(b"a" * 32, b"b" * 40, b"a")
        frag, interval = relevant(b)
        assert frag is None and interval is None

    def test_unit_period_escape(self):
        p = b"a" * 30 + b"ba"
        t = b"a" * 44
        b = be(p, t, b"a")
        frag, interval = relevant(b)
        assert frag is not None
        occ = synched_matches(b, b.handle(0), frag, interval, 1, 6, b.handle(2),
                              locked(b, b.handle(0), b.handle(2), 2, 1))
        shifted = {frag.start - b.handle(1).start + pos for pos in occ.positions()}
        assert shifted == brute_ed_occurrences(p, t, 1)


class TestPeriodicMatchesEd:
    def test_examples(self):
        b = be(b"a" * 32, b"a" * 40, b"a")
        occ = periodic_matches_ed(b, b.handle(0), b.handle(1), 1, 2, b.handle(2))
        assert set(occ.positions()) == set(range(10))
        occ = periodic_matches_ed(b, b.handle(0), b.handle(1), 0, 2, b.handle(2))
        assert set(occ.positions()) == set(range(9))

    def test_far_text(self):
        p = b"a" * 31 + b"b"
        b = be(p, b"c" * 40, b"a")
        occ = periodic_matches_ed(b, b.handle(0), b.handle(1), 1, 2, b.handle(2))
        assert occ.positions() == []


class TestBreakMatchesEd:
    def test_example(self):
        p, t = b"abcdef", b"abcdefab"
        b = be(p, t)
        occ = break_matches_ed(b, b.handle(0), b.handle(1), Breaks(((0, 2, None), (2, 2, None))), 1)
        assert set(occ.positions()) == {0, 1}

    def test_identity(self):
        p = bytes(random.Random(58).randrange(26) + 97 for _ in range(64))
        b = be(p, p)
        res = analyze_ed(b, b.handle(0), 2)
        assert isinstance(res, Breaks)
        occ = break_matches_ed(b, b.handle(0), b.handle(1), res, 2)
        assert 0 in occ

    def test_no_breaks_in_text(self):
        p, t = b"abcdefgh", b"zzzzzzzzzzzz"
        b = be(p, t)
        occ = break_matches_ed(b, b.handle(0), b.handle(1), Breaks(((0, 1, None), (1, 1, None))), 1)
        assert occ.positions() == []


class TestRepetitiveMatchesEd:
    def test_identity_and_oracle(self):
        p = ((b"a" * 16 + b"bb") * 20)[:256]
        b = be(p, p)
        res = analyze_ed(b, b.handle(0), 2)
        assert isinstance(res, RepetitiveRegions)
        occ = repetitive_matches_ed(b, b.handle(0), b.handle(1), res, 2)
        assert 0 in occ
        assert set(occ.positions()) == brute_ed_occurrences(p, p, 2)

    def test_empty(self):
        p = ((b"a" * 16 + b"bb") * 20)[:256]
        t = b"c" * 384
        b = be(p, t)
        res = analyze_ed(b, b.handle(0), 2)
        occ = repetitive_matches_ed(b, b.handle(0), b.handle(1), res, 2)
        assert occ.positions() == []


class TestEditOccurrences:
    def test_examples(self):
        assert set(_run(b"abc", b"xxabcxx", 1)) == {1, 2, 3}
        assert set(_run(b"abc", b"abc", 1)) == {0, 1}
        assert _run(b"abc", b"abc", 0) == [0]

    def test_empty_text_boundary(self):
        assert _run(b"a", b"", 1) == [0]

    def test_position_n(self):
        # start == len(text) is legal: the empty suffix is within m <= k edits
        assert set(_run(b"ab", b"xyz", 2)) == {0, 1, 2, 3}

    def test_random_vs_oracle(self):
        rng = random.Random(59)
        for _ in range(200):
            sigma = rng.choice([2, 4, 26])
            n = rng.randrange(1, 260)
            m = rng.randrange(1, 128)
            k = rng.randrange(1, min(m, 24) + 1)
            t = bytes(rng.randrange(sigma) + 97 for _ in range(n))
            p = bytes(rng.randrange(sigma) + 97 for _ in range(m))
            assert set(_run(p, t, k)) == brute_ed_occurrences(p, t, k)

    def test_periodic_vs_oracle(self):
        rng = random.Random(60)
        for _ in range(60):
            k = rng.choice([1, 2])
            nq = rng.randrange(1, 3)
            q = bytes((97 + i % 2) for i in range(nq))
            m = 128 * k * nq + rng.randrange(0, 32)
            p = bytearray(expand(q, m))
            for _ in range(rng.randrange(0, 6 * k)):
                op = rng.randrange(3)
                pos = rng.randrange(len(p))
                if op == 0:
                    p[pos] = rng.randrange(3) + 97
                elif op == 1 and len(p) > 4:
                    del p[pos]
                else:
                    p.insert(pos, rng.randrange(3) + 97)
            p = bytes(p)
            n = rng.randrange(max(1, len(p) - k), 2 * len(p))
            t = bytearray(expand(q, n))
            for _ in range(rng.randrange(0, 3 * k + 2)):
                op = rng.randrange(3)
                pos = rng.randrange(len(t))
                if op == 0:
                    t[pos] = rng.randrange(3) + 97
                elif op == 1 and len(t) > 4:
                    del t[pos]
                else:
                    t.insert(pos, rng.randrange(3) + 97)
            t = bytes(t)
            assert set(_run(p, t, k)) == brute_ed_occurrences(p, t, k)

    def test_triangle_inequality(self):
        rng = random.Random(61)
        for _ in range(60):
            n = rng.randrange(0, 14)
            a, b2, c = (bytes(rng.randrange(2) + 97 for _ in range(n)) for _ in range(3))
            dab = edit_distance(a, b2)
            dbc = edit_distance(b2, c)
            dac = edit_distance(a, c)
            assert dac + dbc >= dab >= abs(dac - dbc)



class TestDenseEditScan:
    """The bit-parallel dense scan against the oracle, called directly."""

    @staticmethod
    def scan(p: bytes, t: bytes, k: int) -> list[int]:
        b = StandardBackend([p, t + b"#"])
        return _dense_edit_scan(b, b.handle(0), extract(b.handle(1), 0, len(t)), k).positions()

    @pytest.mark.parametrize("alphabet", [b"ab", b"acgt", bytes(range(256))],
                             ids=["ab", "dna", "bytes"])
    def test_random_vs_oracle(self, alphabet):
        # n = 0, n = 0 and != 0 (mod 8), n > 64; for each, a random (m, k),
        # k = m (so m <= k: the empty suffix at n qualifies) and m > n + k.
        rng = random.Random(len(alphabet))
        for n in (0, 1, 7, 8, 9, 15, 16, 63, 64, 65, 72, 131, 256, 517):
            for _ in range(4):
                m = rng.randrange(1, 48)
                k = rng.randrange(0, m + 1)
                cases = [(m, k), (m, m)]
                kk = rng.randrange(0, 4)
                cases.append((n + kk + 1 + rng.randrange(4), kk))
                for m, k in cases:
                    t = bytes(rng.choice(alphabet) for _ in range(n))
                    p = bytes(rng.choice(alphabet) for _ in range(m))
                    got = self.scan(p, t, k)
                    assert got == sorted(brute_ed_occurrences(p, t, k)), (p, t, k)
                    assert (n in got) == (m <= k)

    def test_planted_copies(self):
        # Near copies in a long DNA text: hits sit among many non-hit bytes.
        rng = random.Random(62)
        for m, k in ((32, 4), (64, 9), (100, 20)):
            p = bytes(rng.choice(b"acgt") for _ in range(m))
            t = bytearray(rng.choice(b"acgt") for _ in range(2000))
            for s in rng.sample(range(0, 2000 - m, m + 1), 5):
                copy = bytearray(p)
                for _ in range(rng.randrange(k + 1)):
                    copy[rng.randrange(m)] = rng.choice(b"acgt")
                t[s:s + m] = copy
            t = bytes(t)
            got = self.scan(p, t, k)
            assert got == sorted(brute_ed_occurrences(p, t, k))
            assert got


def _run(p: bytes, t: bytes, k: int) -> list[int]:
    b = StandardBackend([p, t + b"#"])
    ht = extract(b.handle(1), 0, len(t))
    return edit_occurrences(b, b.handle(0), ht, k).positions()
