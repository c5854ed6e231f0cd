import random

from pillarmatch.oracle import (brute_ed_occurrences, brute_edl, brute_hd_occurrences,
                                edit_distance)


def test_hd_examples():
    assert brute_hd_occurrences(b"ab", b"abab", 0) == {0, 2}
    assert brute_hd_occurrences(b"aacc", b"aaaccc", 1) == {0, 1, 2}
    p = b"abcd"
    t = b"zzzzzzzz"
    assert brute_hd_occurrences(p, t, len(p)) == set(range(len(t) - len(p) + 1))


def test_ed_examples():
    assert brute_ed_occurrences(b"abc", b"xxabcxx", 1) == {1, 2, 3}
    assert brute_ed_occurrences(b"abab", b"abab", 0) == {0}
    assert brute_ed_occurrences(b"a", b"", 1) == {0}


def test_nothing_fits_gives_empty_set():
    # m - pad > n (pad = k for edit, 0 for Hamming) leaves no occurrence; at
    # m - pad == n one can still occur.  `pm search --oracle` relies on this
    # to skip extracting a pattern that cannot fit.
    rng = random.Random(73)
    for _ in range(300):
        n = rng.randrange(0, 12)
        k = rng.randrange(0, 4)
        p = bytes(rng.randrange(2) + 97 for _ in range(n + k + 1 + rng.randrange(3)))
        t = bytes(rng.randrange(2) + 97 for _ in range(n))
        assert brute_ed_occurrences(p, t, k) == set()
        assert brute_hd_occurrences(p[:n + 1 + rng.randrange(3)], t, k) == set()
    assert brute_ed_occurrences(b"abc", b"a", 2) == {0}
    assert brute_hd_occurrences(b"abc", b"abd", 1) == {0}


def test_ed_k0_equals_exact():
    rng = random.Random(71)
    for _ in range(300):
        n = rng.randrange(0, 40)
        m = rng.randrange(1, 10)
        t = bytes(rng.randrange(2) + 97 for _ in range(n))
        p = bytes(rng.randrange(2) + 97 for _ in range(m))
        exact = {i for i in range(n - m + 1) if t[i:i + m] == p}
        assert brute_ed_occurrences(p, t, 0) == exact


def test_ed_matches_slow_reference():
    rng = random.Random(72)
    for _ in range(200):
        n = rng.randrange(0, 22)
        m = rng.randrange(1, 10)
        k = rng.randrange(0, m + 1)
        t = bytes(rng.randrange(2) + 97 for _ in range(n))
        p = bytes(rng.randrange(2) + 97 for _ in range(m))
        want = set()
        for s in range(n + 1):
            best = min(edit_distance(p, t[s:r]) for r in range(s, n + 1))
            if best <= k:
                want.add(s)
        assert brute_ed_occurrences(p, t, k) == want


def test_edl_examples():
    assert brute_edl(b"ababab", b"ab") == 0
    assert brute_edl(b"aabaa", b"a") == 1
    assert brute_edl(b"ccc", b"ab") == 3


def test_edl_matches_slow_reference():
    rng = random.Random(73)
    for _ in range(150):
        ns = rng.randrange(1, 12)
        nq = rng.randrange(1, 4)
        s = bytes(rng.randrange(2) + 97 for _ in range(ns))
        q = bytes(rng.randrange(2) + 97 for _ in range(nq))
        window = q * (2 * ns // nq + 3)
        want = ns
        for i in range(nq):
            for j in range(i, len(window) + 1):
                want = min(want, edit_distance(s, window[i:j]))
        assert brute_edl(s, q) == want


def test_edit_distance_symmetry():
    rng = random.Random(74)
    for _ in range(100):
        a = bytes(rng.randrange(2) + 97 for _ in range(rng.randrange(0, 14)))
        b = bytes(rng.randrange(2) + 97 for _ in range(rng.randrange(0, 14)))
        assert edit_distance(a, b) == edit_distance(b, a)
        assert edit_distance(a, a) == 0
