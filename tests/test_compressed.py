import random

import pytest

from pillarmatch.compressed import (EDIT, HAMMING, build_pattern_once,
                                    count_occurrences_compressed,
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
    def test_decompression(self):
        bundle = build_pattern_once(left_comb_slp(b"aab"))
        assert bundle.data == b"aab"

    def test_single_rule(self):
        bundle = build_pattern_once(left_comb_slp(b"x"))
        assert bundle.data == b"x"

    def test_concat_roundtrip(self):
        a = left_comb_slp(b"abc")
        b = left_comb_slp(b"dabc", a.params)
        assert build_pattern_once(slp_concat(a, b)).data == b"abcdabc"

    def test_analysis_cached(self):
        bundle = build_pattern_once(left_comb_slp(bytes(range(97, 113)) * 8))
        first = bundle.analysis(HAMMING, 2)
        assert bundle.analysis(HAMMING, 2) is first

    def test_bad_threshold(self):
        g = fig()
        g_p = left_comb_slp(b"aab", g.params)
        with pytest.raises(ContractError):
            count_occurrences_compressed(g, g_p, 99, HAMMING)


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
