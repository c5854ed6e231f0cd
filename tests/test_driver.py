import pytest

from pillarmatch.driver import blocks


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
