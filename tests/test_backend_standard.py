import random

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pillarmatch import ContractError, extract, find_edit_occurrences, find_mismatch_occurrences
from pillarmatch.pillar import _find_all, period
from pillarmatch.standard import StandardBackend, _rank_levels


def naive_lcp(a: bytes, b: bytes) -> int:
    i = 0
    while i < len(a) and i < len(b) and a[i] == b[i]:
        i += 1
    return i


def test_build_lcp_example():
    b = StandardBackend([b"abcabc"])
    h = b.handle(0)
    assert b.lcp(extract(h, 0, 6), extract(h, 3, 6)) == 3


def test_lcp_r_example():
    b = StandardBackend([b"banana"])
    h = b.handle(0)
    # longest common suffix of "bana" and "na"
    assert b.lcp_r(extract(h, 0, 4), extract(h, 4, 6)) == 2


def test_cross_string_equal():
    b = StandardBackend([b"ab", b"ab"])
    assert b.lcp(b.handle(0), b.handle(1)) == 2


def test_rejects_empty_collection():
    with pytest.raises(ContractError):
        StandardBackend([b""])


def test_separators_never_match():
    # identical bytes across strings but different strings: lcp must stop at ends
    b = StandardBackend([b"aaa", b"aaaa"])
    assert b.lcp(b.handle(0), b.handle(1)) == 3


def test_full_byte_alphabet():
    data = bytes(range(256)) * 2
    b = StandardBackend([data, data[1:]])
    assert b.lcp(b.handle(0), b.handle(1)) == 0
    assert b.lcp(extract(b.handle(0), 1, 512), b.handle(1)) == 511


def test_random_fragment_pairs_match_naive():
    rng = random.Random(21)
    for round_ in range(6):
        strings = [bytes(rng.randrange(rng.choice([2, 4, 256])) for _ in range(rng.randrange(1, 400)))
                   for _ in range(rng.randrange(1, 5))]
        b = StandardBackend(strings)
        for _ in range(400):
            i = rng.randrange(len(strings))
            j = rng.randrange(len(strings))
            si, sj = strings[i], strings[j]
            a1 = rng.randrange(0, len(si) + 1)
            a2 = rng.randrange(a1, len(si) + 1)
            b1 = rng.randrange(0, len(sj) + 1)
            b2 = rng.randrange(b1, len(sj) + 1)
            fa = extract(b.handle(i), a1, a2)
            fb = extract(b.handle(j), b1, b2)
            assert b.lcp(fa, fb) == naive_lcp(si[a1:a2], sj[b1:b2])
            ra, rb = si[a1:a2][::-1], sj[b1:b2][::-1]
            assert b.lcp_r(fa, fb) == naive_lcp(ra, rb)


def test_ipm_windows_match_naive():
    rng = random.Random(22)
    for _ in range(500):
        lp = rng.randrange(1, 12)
        lt = rng.randrange(1, 2 * lp + 1)
        p = bytes(rng.randrange(2) + 97 for _ in range(lp))
        t = bytes(rng.randrange(2) + 97 for _ in range(lt))
        b = StandardBackend([p, t])
        got = list(b.ipm(b.handle(0), b.handle(1)))
        want = [i for i in range(lt - lp + 1) if t[i:i + lp] == p]
        assert got == want


@st.composite
def _ipm_pair(draw):
    """(p, t) with |t| <= 2|p|: random strings, or stretches of one periodic
    string u^inf, each with at most one byte changed."""
    lp = draw(st.integers(1, 40))
    lt = draw(st.integers(1, 2 * lp))
    if draw(st.booleans()):
        u = draw(st.binary(min_size=1, max_size=6))
        power = u * (3 * lp // len(u) + 3)
        i, j = draw(st.integers(0, len(u))), draw(st.integers(0, len(u)))
        p, t = bytearray(power[i:i + lp]), bytearray(power[j:j + lt])
    else:
        p = bytearray(draw(st.binary(min_size=lp, max_size=lp)))
        t = bytearray(draw(st.binary(min_size=lt, max_size=lt)))
    for s in (p, t):
        if draw(st.booleans()):
            s[draw(st.integers(0, len(s) - 1))] = draw(st.integers(0, 255))
    return bytes(p), bytes(t)


@settings(max_examples=400, deadline=None)
@given(_ipm_pair())
def test_ipm_equals_naive_scan(pair):
    p, t = pair
    b = StandardBackend([p, t])
    want = [i for i in range(len(t) - len(p) + 1) if t[i:i + len(p)] == p]
    assert list(b.ipm(b.handle(0), b.handle(1))) == want


@pytest.mark.parametrize("unit", [b"a", b"ab"])
def test_period_of_long_power_is_fast(unit):
    """period's ipm costs a few linear scans, not one scan per hit:
    a^(2^17) and (ab)^(2^16) each take well under a second."""
    s = unit * ((1 << 17) // len(unit))
    b = StandardBackend([s])
    t0 = time.perf_counter()
    assert period(b, b.handle(0)) == len(unit)
    assert time.perf_counter() - t0 < 1.0


def test_ipm_past_the_last_hit_is_linear():
    # Every window past the last hit matches a^h up to the b, from the right:
    # an rfind for the last hit would take quadratic time here.
    h = 1 << 17
    b = StandardBackend([b"a" * h, b"a" * (h + 1) + b"b" + b"a" * (h - 2)])
    t0 = time.perf_counter()
    prog = b.ipm(b.handle(0), b.handle(1))
    assert (prog.first, prog.diff, prog.count) == (0, 1, 2)
    assert time.perf_counter() - t0 < 1.0


def test_index_is_lazy():
    b = StandardBackend([b"abcabc"])
    assert b._rank is None
    b.scan_exact(b.handle(0), b.handle(0))
    assert b._rank is None  # scanning never builds the index
    b.lcp(extract(b.handle(0), 0, 3), extract(b.handle(0), 3, 6))
    assert b._rank is not None


@pytest.mark.parametrize("sigma", [1, 2, 4, 256])
def test_rank_levels_match_naive(sigma):
    """Two positions share a rank at level t exactly when their windows of
    width*2^t symbols are equal, a window past the end being distinct, and
    the first level not kept would name every position apart."""
    rng = random.Random(23 + sigma)
    for _ in range(40):
        corpus: list[int] = []
        for sep in range(rng.randrange(1, 4)):
            if rng.random() < 0.3:  # a^n: the most doubling rounds
                piece = [rng.randrange(sigma)] * rng.randrange(0, 300)
            else:
                piece = [rng.randrange(sigma) for _ in range(rng.randrange(0, 300))]
            corpus += piece + [-1 - sep]
        n = len(corpus)
        width, levels = _rank_levels(np.array(corpus, dtype=np.int64))
        for t in range(len(levels) + 1):
            h = width << t
            windows = [tuple(corpus[i:i + h]) if i + h <= n else i for i in range(n)]
            if t == len(levels):
                assert len(set(windows)) == n
            else:
                assert len(levels[t]) == n
                ranks = levels[t].tolist()
                assert len(set(ranks)) == len(set(windows)) == len(set(zip(ranks, windows)))


@pytest.mark.parametrize("sigma, across, width", [(2, False, 31), (2, True, 20),
                                                   (256, False, 6), (256, True, 6)])
def test_lcp_at_lifting_boundaries(sigma, across, width):
    """Planted LCEs of width*2^t - 1, width*2^t and width*2^t + 1, where
    the rank-level walk changes levels, within one string or across two,
    under fragment caps of the same lengths: lcp equals a naive scan."""
    rng = random.Random(25 + sigma + across)
    lengths = sorted({(width << t) + e for t in range(8) for e in (-1, 0, 1)})
    for lce in lengths:
        x = bytes(rng.randrange(sigma) for _ in range(lce))
        junk = [bytes(rng.randrange(sigma) for _ in range(rng.randrange(1, 40))) for _ in range(3)]
        junk[2] += bytes(range(sigma))  # every letter occurs, which fixes the width
        c, d = rng.sample(range(sigma), 2)
        first, second = x + bytes([c]) + junk[0], junk[1] + x + bytes([d]) + junk[2]
        if across:
            b = StandardBackend([first, second])
            sa, pa, sb, pb = first, 0, second, len(junk[1])
            ha, hb = b.handle(0), b.handle(1)
        else:
            sa = sb = first + second
            b = StandardBackend([sa])
            pa, pb = 0, len(first) + len(junk[1])
            ha = hb = b.handle(0)
        assert naive_lcp(sa[pa:], sb[pb:]) == lce
        assert b.lcp(extract(ha, pa, len(sa)), extract(hb, pb, len(sb))) == lce
        assert b._rank[0] == width
        for cap in lengths:
            fa = extract(ha, pa, min(len(sa), pa + cap))
            fb = extract(hb, pb, min(len(sb), pb + cap))
            assert b.lcp(fa, extract(hb, pb, len(sb))) == min(lce, len(fa)), (lce, cap)
            assert b.lcp(extract(ha, pa, len(sa)), fb) == min(lce, len(fb)), (lce, cap)
            assert b.lcp(fb, fa) == min(lce, len(fa), len(fb)), (lce, cap)


@st.composite
def _scan_pair(draw):
    """(pat, txt): a stretch of a power u^inf as needle and a longer one as
    text, each with a few bytes changed, or two random strings."""
    if draw(st.booleans()):
        u = draw(st.binary(min_size=1, max_size=5))
        m = draw(st.integers(1, 60))
        power = u * ((m + 400) // len(u) + 2)
        i = draw(st.integers(0, len(u)))
        pat, txt = bytearray(power[i:i + m]), bytearray(power[:draw(st.integers(0, 400))])
        for s, breaks in ((pat, draw(st.integers(0, 1))), (txt, draw(st.integers(0, 4)))):
            for _ in range(breaks if s else 0):
                s[draw(st.integers(0, len(s) - 1))] = draw(st.integers(0, 255))
    else:
        pat = draw(st.binary(min_size=1, max_size=6))
        txt = draw(st.binary(max_size=200))
    return bytes(pat), bytes(txt)


@settings(max_examples=500, deadline=None)
@given(_scan_pair())
def test_exact_scan_equals_naive_scan(pair):
    pat, txt = pair
    want = [i for i in range(len(txt) - len(pat) + 1) if txt[i:i + len(pat)] == pat]
    assert _find_all(pat, txt) == want


@pytest.mark.parametrize("find", [find_mismatch_occurrences, find_edit_occurrences])
def test_exact_search_of_long_power_is_fast(find):
    """k = 0 of a^(2^16) in a^(2^17): the exact scan extends each run of
    hits in one pass, instead of one needle scan per each of 65537 hits."""
    t0 = time.perf_counter()
    occ = find(b"a" * (1 << 16), b"a" * (1 << 17), 0)
    assert occ.positions() == list(range((1 << 16) + 1))
    assert time.perf_counter() - t0 < 1.0


def test_only_forward_lcp_builds_the_index():
    """Scans, ipm and lcp_r, even lcp_r runs thousands of bytes long, leave
    the index unbuilt; the first lcp builds it.  Each string is held once."""
    text = b"abracadabra" * 3
    run = b"ab" * 3000
    b = StandardBackend([b"abra", text, b"y" + run, b"x" + run])
    assert len(b._strings) == 4
    h, yr, xr = b.handle(1), b.handle(2), b.handle(3)
    b.scan_exact(b.handle(0), h)
    b.ipm(b.handle(0), extract(h, 0, 8))
    assert b.lcp_r(extract(h, 0, 11), extract(h, 11, 22)) == 11
    assert b.lcp_r(h, b.handle(0)) == 4
    assert b.lcp_r(yr, xr) == 6000
    assert b.lcp_r(extract(yr, 0, 4001), extract(xr, 0, 5001)) == 4000
    assert b._rank is None
    assert b.lcp(extract(h, 0, 11), extract(h, 11, 22)) == 11
    assert b._rank is not None


def test_cross_side_lcp_matches_naive():
    """lcp_r between fragments of three strings, same or different, equals
    the lcp of the reversed strings, without building the index."""
    rng = random.Random(24)
    strings = [bytes(rng.randrange(2) + 97 for _ in range(rng.randrange(1, 60)))
               for _ in range(3)]
    b = StandardBackend(strings)
    assert len(b._strings) == 3
    for _ in range(500):
        i, j = rng.randrange(3), rng.randrange(3)
        si, sj = strings[i], strings[j]
        a1 = rng.randrange(len(si) + 1)
        a2 = rng.randrange(a1, len(si) + 1)
        b1 = rng.randrange(len(sj) + 1)
        b2 = rng.randrange(b1, len(sj) + 1)
        fa = extract(b.handle(i), a1, a2)
        fb = extract(b.handle(j), b1, b2)
        assert b.lcp_r(fa, fb) == naive_lcp(si[a1:a2][::-1], sj[b1:b2][::-1])
        assert b.lcp_r(fb, fa) == naive_lcp(sj[b1:b2][::-1], si[a1:a2][::-1])
    assert b._rank is None


@pytest.mark.parametrize("unit", [b"a", b"ab"])
def test_long_lcp_r_with_planted_mismatch(unit):
    """Common suffixes thousands of bytes long, cut by one mismatch at an
    offset around a power of two, the lengths random strings rarely reach."""
    for n in (2 ** 12 - 1, 2 ** 12 + 1):
        clean = (unit * n)[:n]
        for e in range(12):
            for d in (2 ** e - 1, 2 ** e, 2 ** e + 1):
                dirty = bytearray(clean)
                dirty[n - 1 - d] = ord("x")
                dirty = bytes(dirty)
                b = StandardBackend([clean, dirty])
                c, h = b.handle(0), b.handle(1)
                pairs = [(c, h, clean, dirty),
                         (extract(c, 0, n - len(unit)), extract(h, len(unit), n),
                          clean[:n - len(unit)], dirty[len(unit):]),
                         (extract(h, 0, n - len(unit)), extract(h, len(unit), n),
                          dirty[:n - len(unit)], dirty[len(unit):])]
                for fa, fb, sa, sb in pairs:
                    assert b.lcp_r(fa, fb) == naive_lcp(sa[::-1], sb[::-1]), (n, d)
                assert b.lcp_r(c, h) == d
                assert b._rank is None
