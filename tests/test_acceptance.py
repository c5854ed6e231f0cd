"""Acceptance gate: every criterion at its stated size and tolerance.

Each test prints one `criterion N: PASS ...` line on success; pytest -s (or
the summary at the end of a verbose run) shows them.  Criteria with a wall
budget assert elapsed time as well.
"""

import random
import time

import numpy as np

from pillarmatch import find_edit_occurrences, find_mismatch_occurrences
from pillarmatch.compressed import (EDIT, HAMMING, count_occurrences_compressed,
                                    report_occurrences_compressed)
from pillarmatch.edit import analyze_ed, edit_occurrences
from pillarmatch.hamming import (ApproxPeriod, analyze_hd, mismatch_occurrences,
                                 periodic_matches_hd)
from pillarmatch.oracle import brute_ed_occurrences, brute_hd_occurrences, brute_edl
from pillarmatch.pillar import Fragment
from pillarmatch.slp import Slp, SlpBackend, left_comb_slp, parse_slp
from pillarmatch.standard import StandardBackend

FIG_GRAMMAR = b"""SLP v1 5 5
1 = 'a'
2 = 'b'
3 = 1 2
4 = 1 3
5 = 4 4
"""


def report(criterion: int, message: str) -> None:
    print(f"\ncriterion {criterion}: PASS {message}")


def rand_bytes(rng: random.Random, n: int, sigma: int) -> bytes:
    return bytes(rng.randrange(sigma) + 97 for _ in range(n))


def primitive(s: bytes) -> bool:
    n = len(s)
    return all(s != s[:d] * (n // d) for d in range(1, n) if n % d == 0)


def test_criterion_1_hamming_oracle_equivalence():
    rng = random.Random(0xACCE01)
    start = time.time()
    for _ in range(10_000):
        sigma = rng.choice([2, 4, 26])
        n = rng.randrange(1, 1025)
        m = rng.randrange(1, n + 1)
        k = rng.randrange(1, m + 1)
        t = rand_bytes(rng, n, sigma)
        p = rand_bytes(rng, m, sigma)
        got = set(find_mismatch_occurrences(p, t, k).positions())
        assert got == brute_hd_occurrences(p, t, k), (sigma, n, m, k)
    elapsed = time.time() - start
    assert elapsed < 120.0, f"wall time {elapsed:.1f}s over 120s budget"
    report(1, f"10000 instances equal the oracle in {elapsed:.1f}s (< 120s)")


def test_criterion_2_edit_oracle_equivalence():
    rng = random.Random(0xACCE02)
    start = time.time()
    for _ in range(3_000):
        sigma = rng.choice([2, 4, 26])
        n = rng.randrange(1, 513)
        m = rng.randrange(1, 257)
        k = rng.randrange(1, min(m, 32) + 1)
        t = rand_bytes(rng, n, sigma)
        p = rand_bytes(rng, m, sigma)
        got = set(find_edit_occurrences(p, t, k).positions())
        assert got == brute_ed_occurrences(p, t, k), (sigma, n, m, k)
    elapsed = time.time() - start
    assert elapsed < 300.0, f"wall time {elapsed:.1f}s over 300s budget"
    report(2, f"3000 instances equal the oracle in {elapsed:.1f}s (< 300s)")


def _periodic_hd_instance(rng: random.Random):
    """Pattern = power-of-q prefix with <= d substitutions along one residue,
    text = pattern extended periodically, so that the prefix and suffix
    windows are k-mismatch occurrences and d >= 2k."""
    while True:
        k = rng.randrange(0, 5)
        d = 2 * k + rng.randrange(1, 5)
        nq = rng.randrange(1, 5)
        q = rand_bytes(rng, nq, 2)
        if not primitive(q):
            continue
        m = 8 * d * nq * rng.randrange(1, 4) + rng.randrange(0, 2 * nq)
        if m < 8 * d * nq or m > 900:
            continue
        p = bytearray((q * (m // nq + 2))[:m])
        residue = rng.randrange(nq)
        subs = rng.randrange(0, d + 1)
        placed = 0
        for chain in range(subs):
            pos = residue + chain * nq
            if pos < m - (k + 1) * nq:
                p[pos] = 122 - (p[pos] - 97)
                placed += 1
        p = bytes(p)
        if placed > d:
            continue
        j = rng.randrange(1, k + 1) if k else rng.randrange(1, 3)
        n = m + j * nq
        if 2 * n > 3 * m:
            continue
        t = p + (q * (j + 2))[(m % nq):][:n - m]
        suffix_mm = sum(1 for x in range(m) if p[x] != t[n - m + x])
        if suffix_mm > k:
            continue
        return p, t, q, k, d


def test_criterion_3_hamming_periodic_structure():
    rng = random.Random(0xACCE03)
    for _ in range(500):
        p, t, q, k, d = _periodic_hd_instance(rng)
        nq = len(q)
        occ = find_mismatch_occurrences(p, t, k)
        for pos in occ.positions():
            assert pos % nq == 0, (p, t, q, k, d, pos)
        dist_t = sum(1 for i, c in enumerate(t) if c != q[i % nq])
        assert dist_t <= 3 * d
        backend = StandardBackend([p, t, q])
        sub = periodic_matches_hd(backend, backend.handle(0), backend.handle(1),
                                  k, d, backend.handle(2))
        assert set(sub.positions()) == brute_hd_occurrences(p, t, k)
        assert len(sub.progressions) <= 3 * d * (d + 1)
    report(3, "500 periodic instances: grid starts, text distance <= 3d, "
              "<= 3d(d+1) progressions")


def test_criterion_4_edit_periodic_property():
    rng = random.Random(0xACCE04)
    done = 0
    while done < 300:
        p, t, q, k, d = _periodic_hd_instance(rng)
        nq = len(q)
        if 2 * len(t) >= 3 * len(p) + 2 * k:
            continue
        if brute_edl(p, q) > d:
            continue
        want = brute_ed_occurrences(p, t, k)
        if 0 not in want or (len(t) - len(p)) not in want:
            continue
        occ = set(find_edit_occurrences(p, t, k).positions())
        assert occ == want
        for pos in occ:
            r = pos % nq
            assert r <= 3 * d or r >= nq - 3 * d, (p, t, q, k, d, pos)
        done += 1
    report(4, "300 periodic instances: every start within 3d of the period grid")


def test_criterion_5_nonperiodic_occurrence_bounds():
    rng = random.Random(0xACCE05)
    done = 0
    while done < 500:
        sigma = rng.choice([2, 4])
        m = rng.randrange(16, 400)
        k = rng.randrange(1, m // 8 + 1)
        n = rng.randrange(m, 3 * m // 2 + 1)
        p = rand_bytes(rng, m, sigma)
        t = rand_bytes(rng, n, sigma)
        backend = StandardBackend([p, t])
        analysis = analyze_hd(backend, backend.handle(0), k)
        if isinstance(analysis, ApproxPeriod):
            continue
        occ_h = mismatch_occurrences(backend, backend.handle(0), backend.handle(1), k,
                                     analysis)
        assert len(occ_h) <= 1024 * (n / m) * k, (m, n, k, len(occ_h))
        analysis_e = analyze_ed(backend, backend.handle(0), k)
        if isinstance(analysis_e, ApproxPeriod):
            continue
        occ_e = edit_occurrences(backend, backend.handle(0), backend.handle(1), k,
                                 analysis_e)
        blocks = {pos // k for pos in occ_e.positions()}
        assert len(blocks) <= 4096 * (n / m) * k, (m, n, k, len(blocks))
        done += 1
    report(5, "500 non-periodic instances within the conservative occurrence bounds")


def test_criterion_6_shifted_exact_family():
    m = 64
    p = b"a" * (m // 2) + b"c" * (m // 2)
    t = b"a" * (3 * m // 4) + b"c" * (3 * m // 4)
    for k in range(1, 9):
        occ = find_mismatch_occurrences(p, t, k)
        assert set(occ.positions()) == brute_hd_occurrences(p, t, k)
        assert len(occ) == 2 * k + 1, (k, len(occ))
    report(6, "m=64, k=1..8: exactly 2k+1 mismatch occurrences each")


def test_criterion_7_quadratic_edit_family():
    sizes = []
    for k in range(2, 7):
        m = 4 * k * k
        n = m + 2 * k * k
        p = b"a" * (m // 2) + (b"c" + b"a" * (k - 1)) * (m // (2 * k))
        t = b"a" * (n // 2) + (b"c" + b"a" * (k - 1)) * (n // (2 * k))
        assert len(p) == m and len(t) == n
        occ = set(find_edit_occurrences(p, t, k).positions())
        assert occ == brute_ed_occurrences(p, t, k)
        assert len(occ) >= k * k, (k, len(occ))
        sizes.append(len(occ))
    report(7, f"k=2..6: edit occurrence counts {sizes} all >= k^2 and oracle-exact")


def _random_slp(rng: random.Random, max_rules: int, alpha: int, cap: int) -> Slp:
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


def test_criterion_8_compressed_equivalence():
    rng = random.Random(0xACCE08)
    pairs = [(parse_slp(FIG_GRAMMAR), left_comb_slp(b"aab"))]
    while len(pairs) < 201:
        g_t = _random_slp(rng, rng.randrange(4, 101), alpha=2, cap=100_000)
        pat_cap = rng.choice([16, 96, 2048, 30_000])
        g_p = _random_slp(rng, rng.randrange(2, 101), alpha=2, cap=pat_cap)
        pairs.append((g_t, g_p))
    for g_t, g_p in pairs:
        text = g_t.extract(0, g_t.length)
        pat = g_p.extract(0, g_p.length)
        backend = StandardBackend([pat, text])
        hp, ht = backend.handle(0), backend.handle(1)
        for k in (1, 2):
            if k > len(pat):
                continue
            for metric, plain in ((HAMMING, mismatch_occurrences),
                                  (EDIT, edit_occurrences)):
                want = plain(backend, hp, ht, k).positions()
                cnt = count_occurrences_compressed(g_t, g_p, k, metric)
                rep = report_occurrences_compressed(g_t, g_p, k, metric)
                assert cnt == len(want), (metric, k, g_t.length)
                assert rep.positions() == want, (metric, k, g_t.length)
    report(8, "201 grammar pairs equal the plain pipeline for both metrics, k in {1,2}")


def test_criterion_9_scaling_sanity():
    rng = random.Random(0xACCE09)
    m, k = 4096, 16
    p = rand_bytes(rng, m, 4)
    find_mismatch_occurrences(p, rand_bytes(rng, 1 << 16, 4), k)  # warm-up
    times = []
    for expo in (18, 19, 20):
        n = 1 << expo
        t = rand_bytes(rng, n, 4)
        best = min(_timed(p, t, k) for _ in range(2))
        times.append(best)
    for earlier, later in zip(times, times[1:]):
        assert later / earlier <= 2.5, f"ratio {later / earlier:.2f} over 2.5"
    assert times[-1] < 5.0, f"{times[-1]:.2f}s at n=2^20 over 5s budget"
    report(9, "times " + ", ".join(f"{x:.2f}s" for x in times) +
           " | ratios <= 2.5, final < 5s")


def _timed(p: bytes, t: bytes, k: int) -> float:
    t0 = time.time()
    find_mismatch_occurrences(p, t, k)
    return time.time() - t0


def test_criterion_10a_standard_index_lcp():
    rng = random.Random(0xACC10A)
    strings = []
    for _ in range(4):
        n = rng.randrange(1, 30_000)
        sigma = rng.choice([2, 4, 256])
        strings.append(rng.randbytes(n) if sigma == 256 else rand_bytes(rng, n, sigma))
    total = sum(map(len, strings))
    assert total <= 100_000
    backend = StandardBackend(strings)
    from pillarmatch.pillar import extract
    for _ in range(10_000):
        i = rng.randrange(len(strings))
        j = rng.randrange(len(strings))
        si, sj = strings[i], strings[j]
        a1 = rng.randrange(0, len(si) + 1)
        a2 = rng.randrange(a1, len(si) + 1)
        b1 = rng.randrange(0, len(sj) + 1)
        b2 = rng.randrange(b1, len(sj) + 1)
        fa = extract(backend.handle(i), a1, a2)
        fb = extract(backend.handle(j), b1, b2)
        ra, rb = si[a1:a2], sj[b1:b2]
        want = 0
        while want < min(len(ra), len(rb)) and ra[want] == rb[want]:
            want += 1
        assert backend.lcp(fa, fb) == want
        xa, xb = ra[::-1], rb[::-1]
        want_r = 0
        while want_r < min(len(xa), len(xb)) and xa[want_r] == xb[want_r]:
            want_r += 1
        assert backend.lcp_r(fa, fb) == want_r
    report("10a", "indexed lcp/lcp_r equals naive on 10^4 fragment pairs")


def test_criterion_10b_slp_vs_decompression():
    rng = random.Random(0xACC10B)
    mismatches = 0
    for _ in range(500):
        g = _random_slp(rng, rng.randrange(3, 101), alpha=3, cap=100_000)
        backend = SlpBackend([g])
        full = g.extract(0, g.length)
        n = g.length
        assert len(full) == n
        probes = 1000 if n > 1 else 10
        for _ in range(probes):
            i = rng.randrange(n)
            if g.access(i) != full[i]:
                mismatches += 1
        lo = rng.randrange(n + 1)
        hi = rng.randrange(lo, n + 1)
        if g.extract(lo, hi) != full[lo:hi]:
            mismatches += 1
        for _ in range(probes):
            i, j = rng.randrange(n), rng.randrange(n)
            want = 0
            while i + want < n and j + want < n and full[i + want] == full[j + want]:
                want += 1
            if backend.lcp(Fragment(0, i, n), Fragment(0, j, n)) != want:
                mismatches += 1
    assert mismatches == 0
    report("10b", "500 grammars: access/extract/lcp match decompression, "
                  "zero mismatches")
