import json
import subprocess
import sys
import time

import pytest

from pillarmatch import cli
from pillarmatch.compressed import count_occurrences_compressed, \
    report_occurrences_compressed
from pillarmatch.slp import format_slp, left_comb_slp, parse_slp

FIG_GRAMMAR = b"""SLP v1 5 5
1 = 'a'
2 = 'b'
3 = 1 2
4 = 1 3
5 = 4 4
"""


def run_pm(*args: str, env_extra: dict | None = None):
    import os
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "pillarmatch.cli", *args],
                          capture_output=True, text=True, env=env)


def test_search_hamming_golden():
    res = run_pm("search", "--metric", "hamming", "-k", "1",
                 "--pattern-lit", "aacc", "--text-lit", "aaaccc")
    assert res.returncode == 0
    assert res.stdout == "0:1:3\ntotal=3\n"


def test_search_edit_golden():
    res = run_pm("search", "--metric", "edit", "-k", "1",
                 "--pattern-lit", "abc", "--text-lit", "xxabcxx")
    assert res.returncode == 0
    assert res.stdout == "1:1:3\ntotal=3\n"


def test_count_mode_slp(tmp_path):
    fig = tmp_path / "fig.slp"
    fig.write_bytes(FIG_GRAMMAR)
    g = parse_slp(FIG_GRAMMAR)
    aab = tmp_path / "aab.slp"
    aab.write_bytes(format_slp(left_comb_slp(b"aab", g.params)))
    res = run_pm("search", "--metric", "hamming", "-k", "0",
                 "--pattern-slp", str(aab), "--text-slp", str(fig), "--count")
    assert res.returncode == 0
    assert res.stdout == "total=2\n"


def _power_slp(path, e: int) -> str:
    """Writes a grammar for a^(2^e), rule i + 1 = rule i twice; returns its path."""
    rules = ["1 = 'a'"] + [f"{i + 1} = {i} {i}" for i in range(1, e + 1)]
    path.write_text(f"SLP v1 {e + 1} {e + 1}\n" + "\n".join(rules) + "\n")
    return str(path)


def test_count_mode_slp_huge_text(tmp_path, capsys):
    """--count on a^(2^40) is answered from the grammar, not from 2^40 outputs."""
    e = 40
    huge = _power_slp(tmp_path / "huge.slp", e)
    # every window aaaa is one mismatch from aaab; edits also reach one start more
    for metric, total in (("hamming", 2 ** e - 3), ("edit", 2 ** e - 2)):
        t0 = time.perf_counter()
        rc = cli.main(["search", "--metric", metric, "-k", "1", "--pattern-lit", "aaab",
                       "--text-slp", huge, "--count"])
        elapsed = time.perf_counter() - t0
        assert rc == 0
        assert capsys.readouterr().out == f"total={total}\n"
        assert elapsed < 1.0


@pytest.mark.parametrize("metric", ["hamming", "edit"])
@pytest.mark.parametrize("k", [0, 1])
def test_huge_pattern_short_text(tmp_path, capsys, metric, k):
    """A pattern a^(2^40) that cannot fit in the text is answered without
    extracting it, on a plain and on a grammar text."""
    pattern = _power_slp(tmp_path / "p.slp", 40)
    text = _power_slp(tmp_path / "t.slp", 10)
    for source in (["--text-lit", "aaaa"], ["--text-slp", text]):
        for mode in ([], ["--count"]):
            t0 = time.perf_counter()
            rc = cli.main(["search", "--metric", metric, "-k", str(k),
                           "--pattern-slp", pattern, *source, *mode])
            elapsed = time.perf_counter() - t0
            assert rc == 0
            assert capsys.readouterr().out == "total=0\n"
            assert elapsed < 1.0
    with open(pattern, "rb") as fp, open(text, "rb") as ft:
        g_p, g_t = parse_slp(fp.read()), parse_slp(ft.read())
    t0 = time.perf_counter()
    assert count_occurrences_compressed(g_t, g_p, k, metric) == 0
    assert report_occurrences_compressed(g_t, g_p, k, metric).progressions == []
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("metric", ["hamming", "edit"])
@pytest.mark.parametrize("k", [0, 1])
def test_oracle_huge_pattern_short_text(tmp_path, capsys, metric, k):
    """--oracle takes the expected set as empty when the pattern cannot fit,
    without extracting it.  The pattern is a^(2^22), not a^(2^40) as above,
    so that extracting it fails the time bound (2.7 s to over a minute)
    instead of running for days."""
    pattern = _power_slp(tmp_path / "p.slp", 22)
    text = _power_slp(tmp_path / "t.slp", 10)
    for source in (["--text-lit", "aaaa"], ["--text-slp", text]):
        t0 = time.perf_counter()
        rc = cli.main(["search", "--metric", metric, "-k", str(k),
                       "--pattern-slp", pattern, *source, "--oracle"])
        elapsed = time.perf_counter() - t0
        assert rc == 0
        assert capsys.readouterr().out == "total=0\n"
        assert elapsed < 1.0


def test_json_mode():
    res = run_pm("search", "--metric", "hamming", "-k", "1",
                 "--pattern-lit", "aacc", "--text-lit", "aaaccc", "--json")
    payload = json.loads(res.stdout)
    assert payload == {"metric": "hamming", "k": 1,
                       "progressions": [{"start": 0, "diff": 1, "count": 3}],
                       "total": 3}


def test_oracle_flag():
    res = run_pm("search", "--metric", "edit", "-k", "2",
                 "--pattern-lit", "abcab", "--text-lit", "zabzcabzz", "--oracle")
    assert res.returncode == 0


def test_exit_code_unreadable_file():
    res = run_pm("search", "--metric", "hamming", "-k", "0",
                 "--pattern-lit", "a", "--text-file", "/definitely/not/here")
    assert res.returncode == 2


def test_exit_code_malformed_slp(tmp_path):
    bad = tmp_path / "bad.slp"
    bad.write_bytes(b"SLP v1 2 2\n1 = 2 1\n2 = 1 1\n")
    res = run_pm("search", "--metric", "hamming", "-k", "0",
                 "--pattern-lit", "a", "--text-slp", str(bad))
    assert res.returncode == 3
    assert "line 2" in res.stderr


def test_exit_code_bad_threshold():
    res = run_pm("search", "--metric", "hamming", "-k", "9",
                 "--pattern-lit", "ab", "--text-lit", "abab")
    assert res.returncode == 4
    res = run_pm("search", "--metric", "hamming", "-k", "-1",
                 "--pattern-lit", "ab", "--text-lit", "abab")
    assert res.returncode == 4


def test_analyze_breaks():
    res = run_pm("analyze", "--metric", "hamming", "-k", "1",
                 "--pattern-lit", "abcdefghijklmnop")
    assert res.returncode == 0
    assert res.stdout == ("m=16 k=1 metric=hamming\nvariant=breaks\n"
                          "break 0:2\nbreak 2:2\n")


def test_analyze_period():
    res = run_pm("analyze", "--metric", "edit", "-k", "2", "--pattern-lit", "a" * 256)
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert lines[1] == "variant=period"
    assert lines[2].startswith("period ") and lines[2].endswith(":1")


def test_analyze_bad_k():
    res = run_pm("analyze", "--metric", "hamming", "-k", "0", "--pattern-lit", "abcd")
    assert res.returncode == 4


@pytest.mark.parametrize("e", [22, 40])
def test_analyze_bad_k_huge_pattern(tmp_path, capsys, e):
    """pm analyze rejects -k before it extracts a grammar pattern: a^(2^22)
    takes over a second to extract, a^(2^40) would never finish."""
    pattern = _power_slp(tmp_path / "p.slp", e)
    for k in (0, 2 ** 40):
        t0 = time.perf_counter()
        rc = cli.main(["analyze", "--metric", "hamming", "-k", str(k), "--pattern-slp", pattern])
        elapsed = time.perf_counter() - t0
        assert rc == 4
        assert "unusable" in capsys.readouterr().err
        assert elapsed < 1.0


@pytest.mark.parametrize("seed_args", [{"PM_SEED": "123"}, {}])
def test_deterministic_outputs(tmp_path, seed_args):
    # outputs depend on the inputs alone; a PM_SEED in the environment changes nothing
    fig = tmp_path / "fig.slp"
    fig.write_bytes(FIG_GRAMMAR)
    args = ["search", "--metric", "edit", "-k", "1",
            "--pattern-lit", "aab", "--text-slp", str(fig)]
    plain = run_pm(*args)
    first = run_pm(*args, env_extra=seed_args)
    second = run_pm(*args, env_extra=seed_args)
    assert plain.returncode == first.returncode == second.returncode == 0
    assert plain.stdout == first.stdout == second.stdout


def test_usage_error_exit_2(tmp_path):
    # argparse rejects an unknown option (--jobs, --seed) with exit code 2
    fig = tmp_path / "fig.slp"
    fig.write_bytes(FIG_GRAMMAR)
    for extra in (["--jobs", "2"], ["--seed", "7"]):
        res = run_pm("search", "--metric", "hamming", "-k", "1",
                     "--pattern-lit", "aab", "--text-slp", str(fig), *extra)
        assert res.returncode == 2
        assert "unrecognized arguments" in res.stderr
        assert res.stdout == ""


def test_literal_outside_latin1_exit_2():
    # literals are encoded one byte per character; anything else is a usage error
    for role in ("pattern", "text"):
        lits = {"pattern": "ab", "text": "abc", role: "a\u20acb"}
        res = run_pm("search", "--metric", "edit", "-k", "1",
                     "--pattern-lit", lits["pattern"], "--text-lit", lits["text"])
        assert res.returncode == 2
        assert f"pm: --{role}-lit:" in res.stderr
        assert "Traceback" not in res.stderr
        assert res.stdout == ""


def test_file_sources(tmp_path):
    pat = tmp_path / "p.bin"
    txt = tmp_path / "t.bin"
    pat.write_bytes(b"aacc")
    txt.write_bytes(b"aaaccc")
    res = run_pm("search", "--metric", "hamming", "-k", "1",
                 "--pattern-file", str(pat), "--text-file", str(txt))
    assert res.returncode == 0
    assert res.stdout == "0:1:3\ntotal=3\n"


def test_slp_pattern_plain_text(tmp_path):
    g = parse_slp(FIG_GRAMMAR)
    aab = tmp_path / "aab.slp"
    aab.write_bytes(format_slp(left_comb_slp(b"aab", g.params)))
    res = run_pm("search", "--metric", "hamming", "-k", "0",
                 "--pattern-slp", str(aab), "--text-lit", "aabaab")
    assert res.returncode == 0
    assert res.stdout.strip().endswith("total=2")


def test_oracle_flag_compressed(tmp_path):
    fig = tmp_path / "fig.slp"
    fig.write_bytes(FIG_GRAMMAR)
    res = run_pm("search", "--metric", "edit", "-k", "1",
                 "--pattern-lit", "aab", "--text-slp", str(fig), "--oracle")
    assert res.returncode == 0
