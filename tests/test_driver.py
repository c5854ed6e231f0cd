import random

import pytest

from pillarmatch import driver, edit, hamming
from pillarmatch.driver import ApproxPeriod, Breaks, RepetitiveRegions, blocks
from pillarmatch.edit import analyze_ed, edit_occurrences
from pillarmatch.hamming import analyze_hd, mismatch_occurrences
from pillarmatch.oracle import brute_ed_occurrences, brute_edl, brute_hd_occurrences
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


# -- breaks whose period lies in the gap (m/(128k), m/(64k)] -------------------------------

PERIODIC = {"hamming": (hamming, "periodic_matches_hd"), "edit": (edit, "periodic_matches_ed")}


def _primitive_unit(rng, nq: int) -> bytes:
    while True:
        q = _dna(rng, nq)
        if all(q != q[i:] + q[:i] for i in range(1, nq)):
            return q


def _damage(rng, s: bytearray, where: list[int], edits: bool) -> None:
    """One error at each position of `where`, right to left: a substitution,
    or for edits also an insertion or a deletion."""
    for i in sorted(where, reverse=True):
        op = rng.randrange(3) if edits else 0
        if op == 0:
            s[i] = ord("x")
        elif op == 1:
            s.insert(i, ord("y"))
        else:
            del s[i]


def _gap_case(rng, metric, m, k, nq, p_errors, first_break_error=False):
    """A pattern within p_errors (one more with first_break_error, inside the
    first break) of a power of a primitive unit of length nq, and a text of
    3m..4m bytes from the same power.  Copies of the pattern start at every
    third of the periodic matcher's block edges i*m/2 (+-k), far enough
    apart not to overlap, each with one error near that edge; the edge two
    further on gets an error just past the copy."""
    edits = metric == "edit"
    unit = _primitive_unit(rng, nq)
    power = unit * (6 * m // nq)
    p = bytearray(power[:2 * m])
    where = rng.sample(range(m // (8 * k), m - 1), p_errors)
    if first_break_error:
        where.append(rng.randrange(m // (8 * k)))
    _damage(rng, p, where, edits)
    p = p[:m]
    n = rng.randrange(3 * m, 4 * m)
    shift = rng.randrange(nq)
    t = bytearray(power[shift:shift + n])
    edges = [(i * m) // 2 for i in range(1, (2 * n) // m)]
    for edge in edges[::3]:
        s = edge + rng.choice((-k, 0, k))
        t[s:s + len(p)] = p[:n - s]
    where = [edge + rng.randrange(-2, 3) for edge in edges[::3]]
    where += [edge + k + 2 + rng.randrange(2) for edge in edges[2::3]]
    _damage(rng, t, [i for i in where if i < len(t)], edits)
    return bytes(p), bytes(t)


def _counted_run(monkeypatch, metric, p, t, k):
    """The query's outputs, checked against the brute-force oracle, its
    analysis, and the lengths of the patterns the metric's periodic matcher
    was called with."""
    match, analyze, brute, _ = METRICS[metric]
    module, name = PERIODIC[metric]
    original = getattr(module, name)
    calls = []

    def counting(backend, pat, txt, *args):
        calls.append(len(pat))
        return original(backend, pat, txt, *args)

    monkeypatch.setattr(module, name, counting)
    b = StandardBackend([p, t])
    analysis = analyze(b, b.handle(0), k)
    got = match(b, b.handle(0), b.handle(1), k, analysis)
    assert set(got.positions()) == brute(p, t, k)
    return got, analysis, calls


@pytest.mark.parametrize("metric", sorted(METRICS))
@pytest.mark.parametrize("m,k,nq", [(512, 1, 5), (512, 1, 8), (1024, 2, 5), (1024, 2, 8)])
def test_gap_period_breaks_hand_over(metric, m, k, nq, monkeypatch):
    # 128k|q| > m makes every clean block a break; 64k|q| <= m lets the
    # periodic matcher take the whole pattern.
    assert 64 * k * nq <= m < 128 * k * nq
    rng = random.Random(m * 100 + k * 10 + nq)
    for p_errors in (0, 1, 4 * k):
        p, t = _gap_case(rng, metric, m, k, nq, p_errors)
        got, analysis, calls = _counted_run(monkeypatch, metric, p, t, k)
        assert isinstance(analysis, Breaks)
        assert calls == [len(p)]
        if p_errors <= k:
            assert len(got) > 0


@pytest.mark.parametrize("metric", sorted(METRICS))
def test_gap_period_hands_over_on_a_later_break(metric, monkeypatch):
    m, k, nq = 512, 1, 5
    rng = random.Random(7)
    for _ in range(3):
        p, t = _gap_case(rng, metric, m, k, nq, 0, first_break_error=True)
        got, analysis, calls = _counted_run(monkeypatch, metric, p, t, k)
        assert isinstance(analysis, Breaks)
        first, later = analysis.items[0][2], analysis.items[1][2]
        assert first is None or 64 * k * first > m
        assert later == nq
        assert calls == [len(p)] and len(got) > 0


@pytest.mark.parametrize("metric", sorted(METRICS))
def test_gap_period_far_from_a_power_stays_on_marking(metric, monkeypatch):
    # The breaks have period 5 in the gap, but the pattern's second half is
    # random, so it is far more than 8k from every power of the unit.  The
    # text is long enough that verifying the copies' voted starts costs less
    # than a dense scan.
    m, k, nq = 512, 1, 5
    rng = random.Random(8)
    unit = _primitive_unit(rng, nq)
    p = (unit * m)[:m // 2] + _dna(rng, m - m // 2)
    t = bytearray(_dna(rng, 12 * m))
    for s in (0, m, 2 * m):
        t[s:s + m] = p
    t[m + 300] ^= 3
    t = bytes(t)
    got, analysis, calls = _counted_run(monkeypatch, metric, p, t, k)
    assert isinstance(analysis, Breaks)
    assert all(per == nq for _, _, per in analysis.items)
    assert calls == [] and {0, m, 2 * m} <= set(got.positions())


@pytest.mark.parametrize("metric", sorted(METRICS))
def test_period_above_the_gap_stays_on_marking(metric, monkeypatch):
    # |q| = 9 > m/(64k): even an exact power of the unit is marked by breaks.
    # One copy in random text: a text that is all one power would vote for
    # every start and go to the dense scan.
    m, k, nq = 512, 1, 9
    rng = random.Random(9)
    p, _ = _gap_case(rng, metric, m, k, nq, 1)
    t = bytearray(_dna(rng, 6 * m))
    t[m:2 * m] = p
    _, analysis, calls = _counted_run(monkeypatch, metric, p, bytes(t), k)
    assert isinstance(analysis, Breaks)
    assert calls == []


@pytest.mark.parametrize("metric", sorted(METRICS))
@pytest.mark.parametrize("errors", [8, 9])
def test_near_power_bound_is_d(metric, errors, monkeypatch):
    # m = 512, k = 1, d = 8k = 8: a pattern 8 substitutions from the power
    # hands over, one 9 away stays on marking.
    m, k, nq = 512, 1, 5
    rng = random.Random(11)
    unit = _primitive_unit(rng, nq)
    p = bytearray((unit * m)[:m])
    for i in range(errors):
        p[140 + 40 * i] = ord("x")
    p = bytes(p)
    if metric == "hamming":
        assert sum(a != b for a, b in zip(p, unit * m)) == errors
    else:
        assert brute_edl(p, unit) == errors
    # the copy sits in random DNA, so marking's votes stay near it
    t = bytearray(_dna(rng, 3 * m))
    t[m:2 * m] = p
    t[2 * m + 7] = ord("y")
    _, analysis, calls = _counted_run(monkeypatch, metric, p, bytes(t), k)
    assert isinstance(analysis, Breaks)
    assert calls == ([len(p)] if errors <= 8 * k else [])


@pytest.mark.parametrize("metric", sorted(METRICS))
def test_handover_skips_a_gap_break_far_from_the_pattern(metric, monkeypatch):
    # m = 1024, k = 2: the first break is (abcdx)^*, the rest (abcde)^*.  Both
    # periods are 5, in the gap; the pattern is 13 errors (<= d = 16) from
    # the second unit's power but far from the first's.
    m, k = 1024, 2
    p = (b"abcdx" * m)[:64] + (b"abcde" * m)[64:m]
    t = bytearray((b"abcde" * m)[:3 * m])
    t[1000:1000 + m] = p
    t[1500] = ord("z")
    _, analysis, calls = _counted_run(monkeypatch, metric, p, bytes(t), k)
    assert isinstance(analysis, Breaks)
    assert [per for _, _, per in analysis.items] == [5] * 4
    assert calls == [len(p)]


# -- the post-vote choice between verification and the dense scan ---------------------------

DENSE = {"hamming": (hamming, "_dense_mismatch_scan", "_verified_hd"),
         "edit": (edit, "_dense_edit_scan", "_verified_ed")}


def _routed_run(monkeypatch, metric, p, t, k):
    """The query's outputs, checked against the oracle, with the numbers of
    dense scans and verify calls that marking made."""
    match, analyze, brute, _ = METRICS[metric]
    module, dense_name, verify_name = DENSE[metric]
    calls = {"dense": 0, "verify": 0}

    def counted(name, key):
        original = getattr(module, name)

        def wrapper(*args):
            calls[key] += 1
            return original(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(dense_name, "dense")
    counted(verify_name, "verify")
    b = StandardBackend([p, t])
    analysis = analyze(b, b.handle(0), k)
    assert isinstance(analysis, Breaks)
    got = match(b, b.handle(0), b.handle(1), k, analysis)
    assert set(got.positions()) == brute(p, t, k)
    return got, calls


def _planted(rng, p: bytes, n: int, k: int, edits: bool, copies: int) -> bytes:
    t = bytearray(_dna(rng, n))
    for s in rng.sample(range(0, n - 2 * len(p), 2 * len(p)), copies):
        copy = _noisy_copy(rng, p, k, edits)
        t[s:s + len(copy)] = copy
    return bytes(t)


@pytest.mark.parametrize("metric", sorted(METRICS))
def test_one_byte_anchors_fall_back_to_the_dense_scan(metric, monkeypatch):
    # m = 8k: every break is one byte, so nearly every start collects k votes
    # and one dense scan costs less than verifying them.
    rng = random.Random(21)
    for m, k in ((32, 4), (64, 8)):
        p = _dna(rng, m)
        t = _planted(rng, p, 20 * m, k, metric == "edit", 4)
        got, calls = _routed_run(monkeypatch, metric, p, t, k)
        assert calls == {"dense": 1, "verify": 0} and len(got) > 0


@pytest.mark.parametrize("metric", sorted(METRICS))
def test_long_anchors_keep_marking(metric, monkeypatch):
    # m = 512, k = 2: 32-byte DNA anchors vote only near the planted copies,
    # so verifying them beats a dense scan of the 2^16-byte text.
    rng = random.Random(22)
    m, k = 512, 2
    p = _dna(rng, m)
    t = _planted(rng, p, 1 << 16, k, metric == "edit", 6)
    got, calls = _routed_run(monkeypatch, metric, p, t, k)
    assert calls["dense"] == 0 and calls["verify"] > 0 and len(got) >= 6
