import random

import pytest

from pillarmatch.compressed import (EDIT, HAMMING, count_occurrences_compressed,
                                    report_occurrences_compressed)
from pillarmatch.oracle import brute_ed_occurrences, brute_hd_occurrences
from pillarmatch.pillar import ContractError
from pillarmatch.slp import Slp, left_comb_slp, parse_slp, slp_concat

FIG_GRAMMAR = b"""SLP v1 5 5
1 = 'a'
2 = 'b'
3 = 1 2
4 = 1 3
5 = 4 4
"""


def fig() -> Slp:
    return parse_slp(FIG_GRAMMAR)


def random_slp(rng: random.Random, max_rules: int, alpha: int = 2, cap: int = 3000) -> Slp:
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


def _assert_matches_oracle(g_t: Slp, g_p: Slp, text: bytes, pattern: bytes) -> None:
    for k in range(len(pattern) + 1):
        for metric, oracle in ((HAMMING, brute_hd_occurrences), (EDIT, brute_ed_occurrences)):
            want = oracle(pattern, text, k)
            assert count_occurrences_compressed(g_t, g_p, k, metric) == len(want)
            assert set(report_occurrences_compressed(g_t, g_p, k, metric).positions()) == want


class TestFigureCases:
    def test_count_exact(self):
        g_t = fig()
        g_p = left_comb_slp(b"aab", g_t.params)
        assert count_occurrences_compressed(g_t, g_p, 0, HAMMING) == 2

    def test_count_hamming_k1(self):
        g_t = fig()
        g_p = left_comb_slp(b"aab", g_t.params)
        assert count_occurrences_compressed(g_t, g_p, 1, HAMMING) == 2

    def test_count_edit_k1(self):
        g_t = fig()
        g_p = left_comb_slp(b"aab", g_t.params)
        want = brute_ed_occurrences(b"aab", b"aabaab", 1)
        assert count_occurrences_compressed(g_t, g_p, 1, EDIT) == len(want)
        got = set(report_occurrences_compressed(g_t, g_p, 1, EDIT).positions())
        assert got == want == {0, 1, 2, 3, 4}

    def test_report_positions(self):
        g_t = fig()
        g_p = left_comb_slp(b"aab", g_t.params)
        assert set(report_occurrences_compressed(g_t, g_p, 0, HAMMING).positions()) == {0, 3}
        assert set(report_occurrences_compressed(g_t, g_p, 1, HAMMING).positions()) == {0, 3}

    def test_empty_result(self):
        g_t = left_comb_slp(b"b")
        g_p = left_comb_slp(b"aa", g_t.params)
        assert count_occurrences_compressed(g_t, g_p, 0, HAMMING) == 0
        assert report_occurrences_compressed(g_t, g_p, 0, HAMMING).positions() == []


class TestPatternBundle:
    """count and report decompress the pattern grammar once per query."""

    def test_decompression(self):
        g_t = left_comb_slp(b"xaabyaab")
        _assert_matches_oracle(g_t, left_comb_slp(b"aab", g_t.params), b"xaabyaab", b"aab")

    def test_single_rule(self):
        g_t = fig()
        _assert_matches_oracle(g_t, left_comb_slp(b"b", g_t.params), b"aabaab", b"b")

    def test_concat_roundtrip(self):
        a = left_comb_slp(b"abc")
        b = left_comb_slp(b"dabc", a.params)
        g_p = slp_concat(a, b)
        g_t = left_comb_slp(b"xxabcdabcxabcdabd")
        _assert_matches_oracle(g_t, g_p, b"xxabcdabcxabcdabd", b"abcdabc")

    def test_bad_threshold(self):
        g = fig()
        g_p = left_comb_slp(b"aab", g.params)
        with pytest.raises(ContractError):
            count_occurrences_compressed(g, g_p, 99, HAMMING)

    @pytest.mark.parametrize("entry", [count_occurrences_compressed,
                                       report_occurrences_compressed])
    @pytest.mark.parametrize("text", [b"a", b"abab"])
    def test_unknown_metric(self, entry, text):
        # a one-byte text matches no rule window, so the metric must be
        # checked before the terminal counts
        with pytest.raises(ContractError, match="unknown metric"):
            entry(left_comb_slp(text), left_comb_slp(b"ab"), 1, "hamm")


class TestPipelineEquivalence:
    def test_random_pairs(self):
        rng = random.Random(81)
        for _ in range(30):
            g_t = random_slp(rng, rng.randrange(4, 40))
            g_p = random_slp(rng, rng.randrange(2, 12), cap=64)
            text = g_t.extract(0, g_t.length)
            pat = g_p.extract(0, g_p.length)
            for k in (0, 1, 2):
                if k > len(pat):
                    continue
                for metric, oracle in ((HAMMING, brute_hd_occurrences),
                                       (EDIT, brute_ed_occurrences)):
                    want = oracle(pat, text, k)
                    cnt = count_occurrences_compressed(g_t, g_p, k, metric)
                    rep = report_occurrences_compressed(g_t, g_p, k, metric)
                    assert cnt == len(want)
                    assert set(rep.positions()) == want
                    assert cnt == len(rep)  # count DP consistent with reporting

    def test_no_double_counting(self):
        # text with the same nonterminal appearing many times
        base = left_comb_slp(b"aabaab")
        g_t = slp_concat(slp_concat(base, base), slp_concat(base, base))
        g_p = left_comb_slp(b"aab", base.params)
        text = g_t.extract(0, g_t.length)
        for metric, oracle in ((HAMMING, brute_hd_occurrences), (EDIT, brute_ed_occurrences)):
            for k in (0, 1, 2):
                want = oracle(b"aab", text, k)
                assert count_occurrences_compressed(g_t, g_p, k, metric) == len(want)
                got = report_occurrences_compressed(g_t, g_p, k, metric)
                assert set(got.positions()) == want


class TestMetaAlgorithmsOverSlpBackend:
    """The matchers consume only the fragment interface, so they run
    unchanged over grammar-compressed inputs."""

    def test_mismatch_occurrences_on_grammars(self):
        from pillarmatch.hamming import mismatch_occurrences
        from pillarmatch.slp import SlpBackend

        rng = random.Random(83)
        for _ in range(12):
            g_t = random_slp(rng, rng.randrange(6, 24), cap=800)
            text = g_t.extract(0, g_t.length)
            plen = rng.randrange(1, min(24, len(text)) + 1)
            off = rng.randrange(0, len(text) - plen + 1)
            pat = text[off:off + plen]
            g_p = left_comb_slp(pat, g_t.params)
            backend = SlpBackend([g_t, g_p])
            k = rng.randrange(0, plen + 1)
            occ = mismatch_occurrences(backend, backend.handle(1), backend.handle(0), k)
            assert set(occ.positions()) == brute_hd_occurrences(pat, text, k)

    def test_edit_occurrences_on_grammars(self):
        from pillarmatch.edit import edit_occurrences
        from pillarmatch.slp import SlpBackend

        rng = random.Random(84)
        for _ in range(8):
            g_t = random_slp(rng, rng.randrange(6, 20), cap=400)
            text = g_t.extract(0, g_t.length)
            plen = rng.randrange(1, min(16, len(text)) + 1)
            pat = bytes(rng.randrange(2) + 97 for _ in range(plen))
            g_p = left_comb_slp(pat, g_t.params)
            backend = SlpBackend([g_t, g_p])
            k = rng.randrange(0, min(plen, 4) + 1)
            occ = edit_occurrences(backend, backend.handle(1), backend.handle(0), k)
            assert set(occ.positions()) == brute_ed_occurrences(pat, text, k)


class _Builder:
    """Appends symbols to one grammar; each call returns the new symbol."""

    def __init__(self):
        self.left: list[int] = []
        self.right: list[int] = []
        self.byte: list[int] = []

    def term(self, c: int) -> int:
        self.left.append(-1)
        self.right.append(-1)
        self.byte.append(c)
        return len(self.left) - 1

    def pair(self, a: int, b: int) -> int:
        self.left.append(a)
        self.right.append(b)
        self.byte.append(-1)
        return len(self.left) - 1

    def word(self, data: bytes) -> int:
        """A fresh left comb for data, so equal words get distinct symbols."""
        sym = self.term(data[0])
        for c in data[1:]:
            sym = self.pair(sym, self.term(c))
        return sym

    def balanced(self, syms: list[int]) -> int:
        while len(syms) > 1:
            nxt = [self.pair(a, b) for a, b in zip(syms[::2], syms[1::2])]
            syms = nxt + syms[len(nxt) * 2:]
        return syms[0]

    def slp(self, start: int) -> Slp:
        return Slp(self.left, self.right, self.byte, start)


def power_slp(base: bytes, e: int) -> Slp:
    """base^(2^e) by repeated squaring: every rule's window is one of a few."""
    b = _Builder()
    sym = b.word(base)
    for _ in range(e):
        sym = b.pair(sym, sym)
    return b.slp(sym)


def fibonacci_slp(n: int) -> Slp:
    """F_1 = b, F_2 = a, F_i = F_{i-1} F_{i-2}."""
    b = _Builder()
    prev, cur = b.term(98), b.term(97)
    for _ in range(n - 2):
        prev, cur = cur, b.pair(cur, prev)
    return b.slp(cur)


def block_slp(rng: random.Random, right_comb: bool) -> Slp:
    """A run of blocks picked from three short bases.  One base is also built
    a second time with fresh symbols, so different symbols generate equal
    windows.  A right comb puts one short block as the left child of every
    rule on its spine, shorter than reach for all but the shortest patterns."""
    b = _Builder()
    bases = [bytes(rng.choice(b"abc") for _ in range(rng.randrange(3, 13))) for _ in range(3)]
    blocks = [b.word(w) for w in bases] + [b.word(bases[0])]
    seq = [rng.choice(blocks) for _ in range(rng.randrange(20, 50))]
    if not right_comb:
        return b.slp(b.balanced(seq))
    sym = seq[-1]
    for blk in reversed(seq[:-1]):
        sym = b.pair(blk, sym)
    return b.slp(sym)


def _near_copy(rng: random.Random, text: bytes, m: int, k: int) -> bytes:
    """A length-m substring of text with up to k random substitutions."""
    off = rng.randrange(len(text) - m + 1)
    pat = bytearray(text[off:off + m])
    for _ in range(rng.randrange(k + 1)):
        pat[rng.randrange(m)] = rng.choice(b"abc")
    return bytes(pat)


class TestRepeatedWindows:
    """Rules that share a window reuse its match; results must not change."""

    @staticmethod
    def _check(g_t: Slp, rng: random.Random, ms) -> None:
        text = g_t.extract(0, g_t.length)
        for m in ms:
            for k in range(min(m, 3) + 1):  # m <= 3 includes edit with m == k
                pat = _near_copy(rng, text, m, k)
                g_p = left_comb_slp(pat, g_t.params)
                for metric, oracle in ((HAMMING, brute_hd_occurrences),
                                       (EDIT, brute_ed_occurrences)):
                    want = oracle(pat, text, k)
                    assert count_occurrences_compressed(g_t, g_p, k, metric) == len(want), \
                        (metric, pat, k)
                    rep = report_occurrences_compressed(g_t, g_p, k, metric)
                    assert set(rep.positions()) == want, (metric, pat, k)

    def test_powers(self):
        rng = random.Random(91)
        self._check(power_slp(b"a", 9), rng, range(1, 41))
        self._check(power_slp(b"aab", 7), rng, range(1, 41, 3))

    def test_fibonacci_words(self):
        self._check(fibonacci_slp(14), random.Random(92), range(1, 41))

    def test_block_repeats(self):
        rng = random.Random(93)
        for right_comb in (False, True):
            self._check(block_slp(rng, right_comb), rng, range(1, 41, 2))


class TestWindowMemo:
    """Each distinct rule window is matched once per query, so the matcher
    calls do not grow with the text's length when windows repeat."""

    @pytest.mark.parametrize("metric", [HAMMING, EDIT])
    def test_calls_independent_of_exponent(self, monkeypatch, metric):
        import pillarmatch.compressed as compressed

        real = compressed._matcher
        calls: list[int] = []

        def counting(name):
            fn = real(name)

            def wrapped(*args):
                calls[-1] += 1
                return fn(*args)
            return wrapped

        monkeypatch.setattr(compressed, "_matcher", counting)
        totals = []
        for e in (20, 60):
            calls.append(0)
            g_t = power_slp(b"a", e)
            g_p = left_comb_slp(b"a" * 16, g_t.params)
            totals.append(count_occurrences_compressed(g_t, g_p, 1, metric))
        # a^16 at k=1: Hamming needs 16 text bytes, edit 15 or more
        spare = 15 if metric == HAMMING else 14
        assert totals == [2 ** 20 - spare, 2 ** 60 - spare]
        assert 0 < calls[0] == calls[1]


class TestInsideCheckRuns:
    """The edit check "does this occurrence also fit inside gen(B)?" runs
    once per run of consecutive crossing starts of a window."""

    @pytest.mark.parametrize("k", [1, 2])
    def test_power_totals(self, k):
        # every start up to n - m + k of a^n holds an edit occurrence of a^m
        g_t = power_slp(b"a", 13)
        g_p = power_slp(b"a", 12)
        n, m = 2 ** 13, 2 ** 12
        assert count_occurrences_compressed(g_t, g_p, k, EDIT) == n - m + k + 1
        assert report_occurrences_compressed(g_t, g_p, k, EDIT).positions() == \
            list(range(n - m + k + 1))

    def test_one_call_per_run(self, monkeypatch):
        import pillarmatch.compressed as compressed

        real_matcher, real_verify = compressed._matcher, compressed.verify_ed
        windows: list[tuple[list[int], list[tuple[tuple[int, int], int]]]] = []

        def matcher(name):
            fn = real_matcher(name)

            def wrapped(*args):
                out = fn(*args)
                windows.append((out.positions(), []))
                return out
            return wrapped

        def verify(backend, p, t, k, interval):
            windows[-1][1].append((interval, len(t)))
            return real_verify(backend, p, t, k, interval)

        monkeypatch.setattr(compressed, "_matcher", matcher)
        monkeypatch.setattr(compressed, "verify_ed", verify)
        g_t = power_slp(b"a", 10)
        count_occurrences_compressed(g_t, left_comb_slp(b"a" * 40, g_t.params), 1, EDIT)
        g_t = fibonacci_slp(14)
        count_occurrences_compressed(g_t, left_comb_slp(b"abaab", g_t.params), 1, EDIT)
        calls = starts = 0
        for positions, checks in windows:
            if not checks:
                continue
            bl = checks[0][1]  # the inside check reads the window's first bl bytes
            crossing = [pos for pos in positions if pos < bl]
            assert [interval for interval, _ in checks] == list(compressed.runs(crossing))
            calls += len(checks)
            starts += len(crossing)
        assert 0 < calls < starts
