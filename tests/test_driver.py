import random

import pytest

from pillarmatch import driver, edit, hamming
from pillarmatch.driver import ApproxPeriod, Breaks, RepetitiveRegions, blocks
from pillarmatch.edit import analyze_ed, edit_occurrences
from pillarmatch.hamming import analyze_hd, mismatch_occurrences
from pillarmatch.oracle import brute_ed_occurrences, brute_hd_occurrences
from pillarmatch.standard import StandardBackend

METRICS = {
    "hamming": (mismatch_occurrences, analyze_hd, brute_hd_occurrences, 0),
    "edit": (edit_occurrences, analyze_ed, brute_ed_occurrences, 1),
}


@pytest.mark.parametrize("m,pad", [(m, pad) for m in (1, 2, 3, 4, 7, 8, 9, 16, 33, 64, 129)
                                   for pad in sorted({0, 1, m // 8, m // 2, m - 1})])
def test_blocks_own_every_start_once(m, pad):
    for n in range(0, 5 * m + 9):
        last = n - m + pad
        owners: dict[int, int] = {}
        for lo, hi, cut in blocks(n, m, pad):
            assert 0 <= lo <= cut and lo <= hi <= n
            for s in range(lo, min(cut, last + 1)):
                owners[s] = owners.get(s, 0) + 1
                assert s + m + pad <= hi or hi == n, (n, m, pad, lo, hi, s)
        assert owners == {s: 1 for s in range(last + 1)}, (n, m, pad)


def _noisy_copy(rng, p: bytes, k: int, edits: bool) -> bytes:
    """p with up to k substitutions, or up to k edits of any kind."""
    c = bytearray(p)
    for _ in range(rng.randrange(k + 1)):
        op = rng.randrange(3) if edits else 0
        i = rng.randrange(len(c))
        if op == 0:
            c[i] = rng.choice(b"xyz")
        elif op == 1:
            c.insert(i, rng.choice(b"xyz"))
        else:
            del c[i]
    return bytes(c)


def _dna(rng, n: int) -> bytes:
    return bytes(rng.choice(b"acgt") for _ in range(n))


def _case(rng, route: str) -> tuple[bytes, bytearray, int]:
    """Pattern, text of 3m..5m bytes, and k.  Region patterns open with a
    run of a or ab over about half their length; their texts carry more
    such runs, so the region matches also away from the planted copies."""
    if route == "breaks":
        m = rng.randrange(64, 160)
        p, k = _dna(rng, m), rng.randrange(1, m // 32 + 2)
        return p, bytearray(_dna(rng, rng.randrange(3 * m, 5 * m))), k
    m, k = rng.randrange(256, 320), rng.randrange(1, 3)
    unit = b"a" if k == 2 else rng.choice([b"a", b"ab"])
    head = int(m * rng.uniform(0.45, 0.7))
    p = (unit * m)[:head] + _dna(rng, m - head)
    n = rng.randrange(3 * m, 5 * m)
    t = bytearray(_dna(rng, n))
    for _ in range(n // m):
        s = rng.randrange(n - head)
        t[s:s + head] = (unit * m)[:head]
    return p, t, k


@pytest.mark.parametrize("metric", sorted(METRICS))
@pytest.mark.parametrize("route", ["breaks", "regions"])
def test_whole_text_marking_across_block_edges(metric, route):
    # Occurrences are planted at the starts where the text's former block
    # edges i*m/2 (+-k) fall, and at the last start, in texts of 3m..5m bytes.
    match, analyze, brute, edits = METRICS[metric]
    rng = random.Random(f"{metric}-{route}")
    taken = found = 0
    for _ in range(14):
        p, t, k = _case(rng, route)
        m, n = len(p), len(t)
        edges = [(i * m) // 2 + d for i in range(1, (2 * n) // m) for d in (-k, 0, k)]
        for s in rng.sample(edges, min(len(edges), 4)):
            copy = _noisy_copy(rng, p, k, bool(edits))
            t[s:s + len(copy)] = copy[:n - s]
        last = p[:m - k] if edits else _noisy_copy(rng, p, k, False)
        t[n - len(last):] = last
        t = bytes(t)
        b = StandardBackend([p, t])
        analysis = analyze(b, b.handle(0), k)
        if isinstance(analysis, Breaks if route == "breaks" else RepetitiveRegions):
            taken += 1
        want = brute(p, t, k)
        assert n - m + edits * k in want
        got = match(b, b.handle(0), b.handle(1), k, analysis)
        assert set(got.positions()) == want, (m, n, k)
        found += len(want)
    assert taken >= 10 and found > 0


@pytest.mark.parametrize("metric", sorted(METRICS))
@pytest.mark.parametrize("ratio", [1, 3, 16, 64])
def test_breaks_scan_once_per_anchor(metric, ratio, monkeypatch):
    match, analyze, _, _ = METRICS[metric]
    rng = random.Random(ratio)
    m, k = 256, 4
    p, t = _dna(rng, m), _dna(rng, ratio * m)
    b = StandardBackend([p, t])
    analysis = analyze(b, b.handle(0), k)
    assert isinstance(analysis, Breaks)
    calls = []
    original = driver.exact_matches

    def counting(backend, pat, txt):
        calls.append(len(txt))
        return original(backend, pat, txt)

    monkeypatch.setattr(driver, "exact_matches", counting)
    match(b, b.handle(0), b.handle(1), k, analysis)
    assert calls == [len(t)] * (2 * k)


@pytest.mark.parametrize("metric", sorted(METRICS))
def test_long_period_route_against_oracle(metric, monkeypatch):
    # |q| = 50 > 6d + 1 with d = 8k: the pattern's and the text's witnesses
    # come from the rotation vote, and the synchronized matcher walks a
    # residue interval narrower than the period.
    match, analyze, brute, _ = METRICS[metric]
    rng = random.Random(1)
    nq, k = 50, 1
    while True:
        q = bytes(rng.choice(b"ab") for _ in range(nq))
        if (q + q).find(q, 1) == nq:
            break
    m = 128 * k * nq
    p = bytearray(q * (m // nq))
    p[rng.randrange(m)] ^= 3
    t = bytearray(q * (2 * m // nq))
    at = nq * rng.randrange(m // nq)
    t[at:at + m] = p
    t[rng.randrange(2 * m)] ^= 3
    p, t = bytes(p), bytes(t)
    b = StandardBackend([p, t])
    assert isinstance(analyze(b, b.handle(0), k), ApproxPeriod)
    module = hamming if metric == "hamming" else edit
    votes, widths = [], []
    rotations, arc_runs = module.rotations, edit._arc_runs

    def counting_rotations(backend, s, u):
        votes.append(len(s))
        return rotations(backend, s, u)

    def counting_arc_runs(a, b, ilo, ihi, period):
        widths.append(ihi - ilo)
        return arc_runs(a, b, ilo, ihi, period)

    monkeypatch.setattr(module, "rotations", counting_rotations)
    monkeypatch.setattr(edit, "_arc_runs", counting_arc_runs)
    got = match(b, b.handle(0), b.handle(1), k).positions()
    assert set(got) == brute(p, t, k)
    assert got == ([at] if metric == "hamming" else [at - 1, at, at + 1])
    assert votes and set(votes) == {nq}
    if metric == "edit":
        assert widths and max(widths) < nq - 1
