"""pillarmatch benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload plain-aperiodic --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
Each run is a closed loop, one caller in one thread: the next query starts
when the previous one has returned.

``--trace 0`` splits ``--seconds`` over WORKERS fresh processes, started one
after another.  Each repeats the seed's round of queries for its share of
the time (at least one full round); the end-to-end metrics pool their
samples and take each query's median over the passes.
``--trace 1`` runs the round once untraced and once with every layer
wrapped (see tracer.py), checks that both give the same outputs, and
reports the per-layer metrics; the spans go to ``perfbench/out/``.
Either way every output is checked against a reference after timing, and
the last line of standard output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import os
import pickle
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import workloads as wl_mod  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import EDIT, HAMMING  # noqa: E402

GENERATORS = {
    "plain-aperiodic": wl_mod.plain_aperiodic,
    "plain-periodic": wl_mod.plain_periodic,
    "slp-compressed": wl_mod.slp_compressed,
}
# Runs of the same inputs differ by up to a tenth from one process to the
# next (memory layout), against a twentieth between the halves of one
# process, and set-up times by a quarter, so both the timed loop and the
# set-ups are pooled over several processes.
WORKERS = 4
SETUP_REPS = 4  # per worker

END_TO_END = [
    ("queries_per_s", "1/s"), ("query_p50_ms", "ms"), ("query_p90_ms", "ms"),
    ("hamming_busy_s", "s"), ("edit_busy_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
]

# (metric, unit, source): "count:<key>", "calls:<name>", "incl:<name>", "self:<name>"
PER_LAYER = [
    ("ops.lcp", "count", "count:ops.lcp"),
    ("ops.lcp_r", "count", "count:ops.lcp_r"),
    ("ops.ipm", "count", "count:ops.ipm"),
    ("ops.access", "count", "count:ops.access"),
    ("ops.scan_exact", "count", "count:ops.scan_exact"),
    ("ops.bytes_of_bytes", "bytes", "count:ops.bytes_of_bytes"),
    ("standard.backends", "count", "count:standard.backends"),
    ("standard.index_builds", "count", "count:standard.index_builds"),
    ("standard.index_build_s", "s", "incl:standard.index_build"),
    ("standard.lcp_s", "s", "incl:standard.lcp"),
    ("standard.scan_exact_s", "s", "incl:standard.scan_exact"),
    ("pillar.period_calls", "count", "calls:pillar.period"),
    ("pillar.period_s", "s", "incl:pillar.period"),
    ("pillar.exact_matches_calls", "count", "calls:pillar.exact_matches"),
    ("pillar.exact_matches_s", "s", "incl:pillar.exact_matches"),
    ("pillar.occset_encode_s", "s", "incl:pillar.occset_encode"),
    ("pillar.occset_positions_in", "count", "count:pillar.occset_positions_in"),
    ("pillar.occset_progressions_out", "count", "count:pillar.occset_progressions_out"),
    ("hamming.analyze_s", "s", "incl:hamming.analyze"),
    ("hamming.verify_calls", "count", "calls:hamming.verify"),
    ("hamming.verify_accepted", "count", "count:hamming.verify_accepted"),
    ("hamming.verify_s", "s", "incl:hamming.verify"),
    ("hamming.generator_steps", "count", "calls:hamming.generator"),
    ("hamming.break_s", "s", "incl:hamming.break"),
    ("hamming.regions_s", "s", "incl:hamming.regions"),
    ("hamming.periodic_s", "s", "incl:hamming.periodic"),
    ("hamming.relevant_fragment_s", "s", "incl:hamming.relevant_fragment"),
    ("hamming.distances_rle_s", "s", "incl:hamming.distances_rle"),
    ("hamming.dense_s", "s", "incl:hamming.dense"),
    ("edit.analyze_s", "s", "incl:edit.analyze"),
    ("edit.verify_calls", "count", "calls:edit.verify"),
    ("edit.verify_starts", "count", "count:edit.verify_starts"),
    ("edit.verify_hits", "count", "count:edit.verify_hits"),
    ("edit.verify_s", "s", "incl:edit.verify"),
    ("edit.generator_steps", "count", "calls:edit.generator"),
    ("edit.break_s", "s", "incl:edit.break"),
    ("edit.regions_s", "s", "incl:edit.regions"),
    ("edit.periodic_s", "s", "incl:edit.periodic"),
    ("edit.witness_s", "s", "incl:edit.witness"),
    ("edit.locked_s", "s", "incl:edit.locked"),
    ("edit.synched_s", "s", "incl:edit.synched"),
    ("edit.dense_s", "s", "incl:edit.dense"),
    ("slp.parse_s", "s", "incl:slp.parse"),
    ("slp.extract_calls", "count", "calls:slp.extract"),
    ("slp.extract_bytes", "bytes", "count:slp.extract_bytes"),
    ("slp.extract_s", "s", "incl:slp.extract"),
    ("slp.access_calls", "count", "calls:slp.access"),
    ("slp.lcp_calls", "count", "calls:slp.lcp"),
    ("slp.lcp_s", "s", "incl:slp.lcp"),
    ("compressed.window_calls", "count", "count:compressed.window_calls"),
    ("compressed.window_match_s", "s", "incl:compressed.window_match"),
    ("compressed.window_bytes", "bytes", "count:compressed.window_bytes"),
    ("compressed.self_s", "s", "self:compressed.count+compressed.report"),
    ("cli.main_s", "s", "incl:cli.main"),
    ("cli.self_s", "s", "self:cli.main"),
]
# ratio metric -> (numerator, denominator)
RATIOS = {
    "hamming.verify_accept_ratio": ("hamming.verify_accepted", "hamming.verify_calls"),
    "edit.verify_hit_ratio": ("edit.verify_hits", "edit.verify_starts"),
}

# Layer names that must record at least one call on each workload; a
# wrapper that never fires means the trace no longer sees that layer.
MUST_FIRE = {
    "plain-aperiodic": ["standard.init", "standard.index_build", "standard.scan_exact",
                        "pillar.period", "pillar.exact_matches", "pillar.occset_encode",
                        "hamming.analyze", "hamming.break", "hamming.verify", "hamming.dense",
                        "edit.analyze", "edit.break", "edit.verify", "edit.dense"],
    "plain-periodic": ["standard.lcp", "pillar.occset_encode",
                       "hamming.periodic", "hamming.regions", "hamming.break",
                       "hamming.relevant_fragment", "hamming.distances_rle",
                       "hamming.generator", "hamming.verify",
                       "edit.periodic", "edit.regions", "edit.break", "edit.witness",
                       "edit.locked", "edit.synched", "edit.generator", "edit.verify"],
    "slp-compressed": ["slp.parse", "slp.left_comb", "slp.extract", "standard.init",
                       "compressed.count", "compressed.report", "cli.main",
                       "hamming.match", "edit.match", "pillar.occset_encode"],
}


class QueryError:
    """Stands in for the output of a query that raised."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"

    def __eq__(self, other):
        return isinstance(other, QueryError) and other.text == self.text


# -- library access -------------------------------------------------------------------

def import_library():
    """Import pillarmatch from this checkout's src/ and nowhere else."""
    if not (SRC / "pillarmatch" / "__init__.py").is_file():
        sys.exit(f"perfbench: no library sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pillarmatch
    import pillarmatch.cli
    import pillarmatch.compressed
    if Path(pillarmatch.__file__).resolve().parent != SRC / "pillarmatch":
        sys.exit(f"perfbench: imported pillarmatch from {pillarmatch.__file__}, not {SRC}")
    global checks
    import checks
    return pillarmatch


def time_import() -> float:
    """Wall time of ``import pillarmatch`` with the package's own modules
    executed afresh.  They are taken out of ``sys.modules``, imported again
    and timed, then dropped for the originals, which every other module
    keeps using.  Third-party modules (numpy) and the standard library stay
    loaded, so their import costs, not the package's, are left out."""
    def own() -> list[str]:
        return [n for n in sys.modules if n == "pillarmatch" or n.startswith("pillarmatch.")]

    saved = {n: sys.modules.pop(n) for n in own()}
    try:
        t0 = time.perf_counter()
        importlib.import_module("pillarmatch")
        return time.perf_counter() - t0
    finally:
        for n in own():
            del sys.modules[n]
        sys.modules.update(saved)


class Inputs:
    """Program objects built from a workload during set-up."""

    def __init__(self, pm, wl, workdir: Path):
        self.grammars = {}
        self.patterns = {}
        self.argv = {}
        for name in wl.grammars:
            data = (workdir / f"{name}.slp").read_bytes()
            self.grammars[name] = pm.slp.parse_slp(data)
        for q in wl.queries:
            if q.api in ("count", "report"):
                g = self.grammars[q.text]
                self.patterns[q.qid] = pm.slp.left_comb_slp(q.pattern, g.params)
            elif q.api == "cli":
                self.argv[q.qid] = [
                    "search", "--metric", q.metric, "-k", str(q.k),
                    "--pattern-lit", q.pattern.decode("latin-1"),
                    "--text-slp", str(workdir / f"{q.text}.slp"),
                    "--count" if q.cli_count else "--json"]


def progressions(occ) -> tuple:
    return tuple((p.first, p.diff, p.count) for p in occ.progressions)


def execute(pm, q, inputs: Inputs):
    """One query through a public entry point; returns a comparable output."""
    if q.api == "plain":
        fn = pm.find_mismatch_occurrences if q.metric == HAMMING else pm.find_edit_occurrences
        return progressions(fn(q.pattern, q.text, q.k))
    if q.api == "count":
        return pm.compressed.count_occurrences_compressed(
            inputs.grammars[q.text], inputs.patterns[q.qid], q.k, q.metric)
    if q.api == "report":
        return progressions(pm.compressed.report_occurrences_compressed(
            inputs.grammars[q.text], inputs.patterns[q.qid], q.k, q.metric))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = pm.cli.main(inputs.argv[q.qid])
    if code != 0:
        raise RuntimeError(f"pm search exited with {code}: {err.getvalue().strip()}")
    if q.cli_count:
        return int(out.getvalue().strip().rsplit("=", 1)[1])
    return tuple((p["start"], p["diff"], p["count"])
                 for p in json.loads(out.getvalue())["progressions"])


def run_once(pm, q, inputs):
    try:
        return execute(pm, q, inputs)
    except Exception as exc:  # a failed query counts in error_rate; the run goes on
        return QueryError(exc)


def warm_up(pm, workdir: Path) -> None:
    """Tiny calls through every entry point, so first-call costs (lazy
    imports, numpy dispatch) are paid before timing."""
    text = b"ACGTTGCA" * 64
    for k in (0, 1, 3):
        pm.find_mismatch_occurrences(text[3:19], text, k)
        pm.find_edit_occurrences(text[3:19], text, k)
    g = pm.slp.left_comb_slp(text)
    p = pm.slp.left_comb_slp(text[5:13], g.params)
    path = workdir / "warmup.slp"
    path.write_bytes(pm.slp.format_slp(g))
    for metric in (HAMMING, EDIT):
        pm.compressed.count_occurrences_compressed(g, p, 1, metric)
        pm.compressed.report_occurrences_compressed(g, p, 1, metric)
        with redirect_stdout(io.StringIO()):
            pm.cli.main(["search", "--metric", metric, "-k", "1", "--pattern-lit", "GCAACG",
                         "--text-slp", str(path), "--json"])


# -- checking ------------------------------------------------------------------------------

def check_outputs(pm, wl, outputs: dict, seed: int) -> dict[int, str]:
    """qid -> reason, for every query whose output is wrong."""
    bad: dict[int, str] = {}
    texts: dict[str, bytes] = {}
    refs: dict[tuple, object] = {}
    by_instance: dict[tuple, list] = {}
    for q in wl.queries:
        out = outputs[q.qid]
        if isinstance(out, QueryError):
            bad[q.qid] = out.text
            continue
        if q.api == "plain":
            rng = random.Random(f"check:{wl.name}:{seed}:{q.qid}")
            if not checks.plain_agrees(q.metric, q.pattern, q.text, q.k, out,
                                       wl.planted.get(q.qid, []), rng):
                bad[q.qid] = "disagrees with the oracle"
            continue
        g = wl.grammars[q.text]
        key = (q.text, q.pattern, q.k, q.metric)
        if key not in refs:
            if g.power_of is not None:
                refs[key] = checks.run_reference(q.metric, q.pattern, g.length, g.power_of, q.k)
            else:
                if q.text not in texts:
                    texts[q.text] = pm.slp.parse_slp(g.source).extract(0, g.length)
                refs[key] = checks.compressed_reference(q.metric, q.pattern, texts[q.text], q.k)
        ref = refs[key]
        if isinstance(out, int):
            ok = out == len(ref)
            by_instance.setdefault(key, []).append(out)
        else:
            got = checks.expand(out)
            ok = len(got) == len(ref) and (set(got) == set(ref) if not isinstance(ref, range)
                                          else got == list(ref))
            by_instance.setdefault(key, []).append(len(got))
        if not ok:
            bad[q.qid] = "disagrees with the reference"
    for key, sizes in by_instance.items():
        if len(set(sizes)) > 1:
            for q in wl.queries:
                if (q.text, q.pattern, q.k, q.metric) == key:
                    bad.setdefault(q.qid, "count differs from the length of report")
    return bad


# -- measurement -------------------------------------------------------------------------------

def measure_setup(pm, wl, workdir: Path) -> tuple[list[float], Inputs]:
    """SETUP_REPS times: importing the package (see time_import) plus
    building the program objects (read files, parse grammars, pattern
    grammars)."""
    totals = []
    inputs = None
    for _ in range(SETUP_REPS):
        imp = time_import()
        inputs = None  # release the previous set before building the next
        t0 = time.perf_counter()
        inputs = Inputs(pm, wl, workdir)
        totals.append(imp + time.perf_counter() - t0)
    return totals, inputs


def timed_loop(pm, queries, inputs, seconds: float):
    """Repeat the round until the deadline, at least once; per-query samples."""
    samples: list[tuple[int, float]] = []
    outputs: dict[int, object] = {}
    unstable: set[int] = set()
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while i < len(queries) or time.perf_counter() < deadline:
        q = queries[i % len(queries)]
        t0 = time.perf_counter()
        out = run_once(pm, q, inputs)
        samples.append((q.qid, time.perf_counter() - t0))
        if q.qid not in outputs:
            outputs[q.qid] = out
        elif outputs[q.qid] != out:
            unstable.add(q.qid)
        i += 1
    return samples, outputs, unstable, time.perf_counter() - start


def end_to_end(wl, samples, elapsed, setup_s, peak_rss_mb) -> dict[str, float]:
    """queries_per_s counts every query of the timed loop; the other times
    use each query's median over the passes."""
    per_query: dict[int, list[float]] = {}
    for qid, dt in samples:
        per_query.setdefault(qid, []).append(dt)
    typical = {qid: statistics.median(dts) for qid, dts in per_query.items()}
    metric_of = {q.qid: q.metric for q in wl.queries}
    busy = {HAMMING: 0.0, EDIT: 0.0}
    for qid, dt in typical.items():
        busy[metric_of[qid]] += dt
    times = list(typical.values())
    return {
        "queries_per_s": len(samples) / elapsed,
        "query_p50_ms": statistics.median(times) * 1e3,
        "query_p90_ms": statistics.quantiles(times, n=10)[8] * 1e3,
        "hamming_busy_s": busy[HAMMING],
        "edit_busy_s": busy[EDIT],
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }


def worker(args) -> int:
    """The set-ups and the timed loop of one worker process.  It rebuilds
    the inputs from the seed, reads the grammar files its parent wrote next
    to ``--worker-out`` and writes its samples and outputs there."""
    pm = import_library()
    wl = GENERATORS[args.workload](args.seed)
    workdir = Path(args.worker_out).parent
    setups, inputs = measure_setup(pm, wl, workdir)
    warm_up(pm, workdir)
    samples, outputs, unstable, elapsed = timed_loop(pm, wl.queries, inputs, args.seconds)
    part = {"samples": samples, "outputs": outputs, "unstable": unstable, "elapsed": elapsed,
            "setups": setups,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    with open(args.worker_out, "wb") as f:
        pickle.dump(part, f)
    return 0


def run_workers(wl, workdir: Path, args):
    """Run WORKERS worker processes one after another, never two at once,
    and pool what they measured."""
    samples: list[tuple[int, float]] = []
    outputs: dict[int, object] = {}
    unstable: set[int] = set()
    setups: list[float] = []
    elapsed = peak_rss_mb = 0.0
    for i in range(WORKERS):
        path = workdir / f"worker-{i}.pickle"
        subprocess.run([sys.executable, str(Path(__file__).resolve()),
                        "--workload", wl.name, "--seed", str(args.seed),
                        "--seconds", repr(args.seconds / WORKERS), "--worker-out", str(path)],
                       cwd=ROOT, check=True, timeout=120)
        with open(path, "rb") as f:
            part = pickle.load(f)
        samples += part["samples"]
        elapsed += part["elapsed"]
        setups += part["setups"]
        peak_rss_mb = max(peak_rss_mb, part["peak_rss_mb"])
        unstable |= part["unstable"]
        for qid, out in part["outputs"].items():
            if qid not in outputs:
                outputs[qid] = out
            elif outputs[qid] != out:
                unstable.add(qid)
    return samples, outputs, unstable, elapsed, statistics.median(setups), peak_rss_mb


def traced_pass(pm, wl, workdir: Path, tracer: Tracer):
    tracer.qid = -1
    inputs = tracer.span("setup", Inputs, pm, wl, workdir)
    outputs = {}
    t0 = time.perf_counter()
    for q in wl.queries:
        tracer.qid = q.qid
        outputs[q.qid] = tracer.span("query", run_once, pm, q, inputs)
    return outputs, time.perf_counter() - t0


def layer_value(tracer: Tracer, source: str) -> float:
    kind, key = source.split(":", 1)
    if kind == "count":
        return tracer.counts[key]
    if kind == "calls":
        return tracer.calls[key]
    if kind == "incl":
        return tracer.incl[key]
    return sum(tracer.self_s[k] for k in key.split("+"))


# -- reporting -----------------------------------------------------------------------------------

def composition(wl) -> dict:
    n = len(wl.queries)
    share = {}
    for attr in ("route", "metric", "family", "api"):
        counts: dict[str, int] = {}
        for q in wl.queries:
            counts[getattr(q, attr)] = counts.get(getattr(q, attr), 0) + 1
        share[attr] = {k: round(v / n, 3) for k, v in sorted(counts.items())}
    return {"queries_per_round": n, "share": share}


def layer_breakdown(wl, tracer: Tracer) -> list[str]:
    """Self time per layer, summed over the queries of each family."""
    family_of = {q.qid: (q.metric, q.family) for q in wl.queries}
    sums: dict[tuple, dict[str, float]] = {}
    for (qid, name), s in tracer.by_query.items():
        if qid in family_of and name != "query":
            sums.setdefault(family_of[qid], {}).setdefault(name, 0.0)
            sums[family_of[qid]][name] += s
    lines = []
    for fam in sorted(sums):
        top = sorted(sums[fam].items(), key=lambda kv: -kv[1])[:4]
        lines.append(f"  {fam[0]}/{fam[1]}: " +
                     ", ".join(f"{name} {s:.3f}s" for name, s in top))
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--worker-out", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker_out:
        return worker(args)

    pm = import_library()
    wl = GENERATORS[args.workload](args.seed)
    for q in wl.queries:
        q.route = wl_mod.route_of(q.metric, q.pattern, q.k)
    outdir = HERE / "out"
    workdir = outdir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name, g in wl.grammars.items():
            (workdir / f"{name}.slp").write_bytes(g.source)
        if args.trace:
            warm_up(pm, workdir)
            result, lines = run_traced(pm, wl, Inputs(pm, wl, workdir), workdir, outdir, args)
        else:
            result, lines = run_untraced(pm, wl, workdir, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    comp = composition(wl)
    print(f"workload {wl.name} seed {args.seed}: {comp['queries_per_round']} queries per round")
    for attr, share in comp["share"].items():
        print(f"  by {attr}: " + ", ".join(f"{k} {v:.0%}" for k, v in share.items()))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] and not result["failed"] else 1


def run_untraced(pm, wl, workdir, args):
    samples, outputs, unstable, elapsed, setup_s, peak_rss_mb = run_workers(wl, workdir, args)
    values = end_to_end(wl, samples, elapsed, setup_s, peak_rss_mb)
    t0 = time.perf_counter()
    bad = check_outputs(pm, wl, outputs, args.seed)
    check_s = time.perf_counter() - t0
    for qid in unstable:
        bad.setdefault(qid, "output changed between passes")
    failed = sum(1 for qid, _ in samples if qid in bad)
    units = dict(END_TO_END)
    lines = [f"{len(samples)} queries in {elapsed:.2f}s over {WORKERS} processes "
             f"({len(samples) / len(wl.queries):.2f} rounds); checking took {check_s:.2f}s"]
    lines += [f"  {name} = {values[name]:.6g} {units[name]}" for name, _ in END_TO_END]
    lines.append(f"  error_rate = {failed / len(samples):.6g} ({failed}/{len(samples)})")
    lines += [f"  FAILED query {qid}: {why}" for qid, why in sorted(bad.items())]
    result = {"correct": not bad, "attempted": len(samples), "failed": failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in END_TO_END}}
    return result, lines


def run_traced(pm, wl, inputs, workdir, outdir, args):
    untraced = {}
    t0 = time.perf_counter()
    for q in wl.queries:
        untraced[q.qid] = run_once(pm, q, inputs)
    plain_s = time.perf_counter() - t0

    tracer = Tracer()
    scan_before = [hasattr(pm.standard.StandardBackend, "scan_exact"),
                   hasattr(pm.slp.SlpBackend, "scan_exact")]
    tracer.install(pm)
    try:
        problems = [f"original still reachable as {ref}"
                    for ref in tracer.unwrapped_references(pm)]
        scan_after = [hasattr(pm.standard.StandardBackend, "scan_exact"),
                      hasattr(pm.slp.SlpBackend, "scan_exact")]
        if scan_after != scan_before:
            problems.append("wrapping changed which backends expose scan_exact")
        traced, traced_s = traced_pass(pm, wl, workdir, tracer)
    finally:
        tracer.uninstall()

    bad = check_outputs(pm, wl, traced, args.seed)
    for q in wl.queries:
        if traced[q.qid] != untraced[q.qid]:
            bad.setdefault(q.qid, "traced output differs from untraced output")
    problems += [f"{ref} is absent from the library, so it is not traced"
                 for ref in tracer.missing]
    problems += [f"wrapper {name} recorded no calls"
                 for name in MUST_FIRE[wl.name] if tracer.calls[name] == 0]
    values = {name: layer_value(tracer, src) for name, _, src in PER_LAYER}
    for name, (num, den) in RATIOS.items():
        values[name] = values[num] / values[den] if values[den] else 0.0
    values["trace.overhead_frac"] = traced_s / plain_s - 1.0
    outdir.mkdir(parents=True, exist_ok=True)
    span_file = outdir / f"spans-{wl.name}-{args.seed}.json.gz"
    tracer.write_spans(span_file)

    units = {name: unit for name, unit, _ in PER_LAYER}
    units.update({name: "ratio" for name in RATIOS}, **{"trace.overhead_frac": "ratio"})
    n = len(wl.queries)
    lines = [f"one round untraced {plain_s:.2f}s, traced {traced_s:.2f}s; "
             f"{len(tracer.spans)} spans in {span_file.relative_to(ROOT)}"]
    for name in units:
        extra = ""
        if name in RATIOS:
            num, den = RATIOS[name]
            extra = f" (= {values[num]:.0f}/{values[den]:.0f})"
        lines.append(f"  {name} = {values[name]:.6g} {units[name]}{extra}")
    lines.append(f"  ops.lcp per query = {values['ops.lcp'] / n:.1f} (= {values['ops.lcp']:.0f}/{n})")
    lines.append("largest self times by metric/family:")
    lines += layer_breakdown(wl, tracer)
    lines.append("wrapped in more than one namespace: " + ", ".join(
        f"{name} x{n}" for name, n in sorted(tracer.patched.items()) if n > 1))
    lines += [f"  PROBLEM: {p}" for p in problems]
    lines += [f"  FAILED query {qid}: {why}" for qid, why in sorted(bad.items())]
    result = {"correct": not bad and not problems, "attempted": n, "failed": len(bad),
              "metrics": {name: {"value": values[name], "unit": units[name]} for name in units}}
    return result, lines


if __name__ == "__main__":
    sys.exit(main())
