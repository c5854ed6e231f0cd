"""Per-layer tracing by wrapping the library's functions from outside.

Nothing under ``src/`` is edited: ``Tracer.install`` replaces each traced
function or method with a timing wrapper in every ``pillarmatch`` module
and class that holds it (a function imported by name, such as
``exact_matches`` into ``hamming``, is patched in each importing module),
and ``uninstall`` puts the originals back.

Each wrapped call opens a frame.  A frame's self time is its duration minus
the time its direct child frames cover.  Calls of coarse functions are also
kept as spans (name, start, end, parent span, query id); calls that happen
hundreds of thousands of times per query (backend operations, generator
steps, verifiers) only add to counters, so that the trace stays small.
Inclusive time per name counts the outermost call of that name only, so a
recursive or re-entrant call is not counted twice.
"""

from __future__ import annotations

import gzip
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute or Class.method, layer name, keep spans)
_FUNCTIONS = [
    ("pillar", "period", "pillar.period", True),
    ("pillar", "exact_matches", "pillar.exact_matches", True),
    ("hamming", "mismatch_occurrences", "hamming.match", True),
    ("hamming", "analyze_hd", "hamming.analyze", True),
    ("hamming", "verify_hd", "hamming.verify", False),
    ("hamming", "MismatchGenerator.next", "hamming.generator", False),
    ("hamming", "break_matches_hd", "hamming.break", True),
    ("hamming", "repetitive_matches_hd", "hamming.regions", True),
    ("hamming", "periodic_matches_hd", "hamming.periodic", True),
    ("hamming", "find_relevant_fragment_hd", "hamming.relevant_fragment", True),
    ("hamming", "distances_rle", "hamming.distances_rle", True),
    ("hamming", "_dense_mismatch_scan", "hamming.dense", True),
    ("edit", "edit_occurrences", "edit.match", True),
    ("edit", "analyze_ed", "edit.analyze", True),
    ("edit", "verify_ed", "edit.verify", False),
    ("edit", "EditGenerator.next", "edit.generator", False),
    ("edit", "break_matches_ed", "edit.break", True),
    ("edit", "repetitive_matches_ed", "edit.regions", True),
    ("edit", "periodic_matches_ed", "edit.periodic", True),
    ("edit", "find_relevant_fragment_ed", "edit.relevant_fragment", True),
    ("edit", "find_a_witness", "edit.witness", True),
    ("edit", "locked", "edit.locked", True),
    ("edit", "synched_matches", "edit.synched", True),
    ("edit", "_dense_edit_scan", "edit.dense", True),
    ("slp", "parse_slp", "slp.parse", True),
    ("slp", "left_comb_slp", "slp.left_comb", True),
    ("slp", "Slp.extract", "slp.extract", False),
    ("slp", "Slp.access", "slp.access", False),
    ("compressed", "count_occurrences_compressed", "compressed.count", True),
    ("compressed", "report_occurrences_compressed", "compressed.report", True),
    ("cli", "main", "cli.main", True),
]
_CLASSMETHODS = [
    ("pillar", "OccurrenceSet.from_positions", "pillar.occset_encode"),
    ("pillar", "OccurrenceSet.from_progressions", "pillar.occset_encode"),
]
# Backend operations of the paper's cost model, on both backends.
_BACKEND_OPS = ["lcp", "lcp_r", "ipm", "access", "scan_exact", "bytes_of"]
_BACKENDS = [("standard", "StandardBackend", "standard"), ("slp", "SlpBackend", "slp")]
_COMPRESSED = ("compressed.count", "compressed.report")
_MATCHERS = ("hamming.match", "edit.match")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.qid: int = -1
        self.calls: Counter[str] = Counter()
        self.incl: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.by_query: defaultdict[tuple[int, str], float] = defaultdict(float)
        self._stack: list[list] = []
        self._depth: Counter[str] = Counter()
        self._op_active = False
        self._restore: list[tuple[object, str, object]] = []
        self.patched: dict[str, int] = {}
        self.missing: list[str] = []
        self._originals: list[object] = []

    # -- frames -------------------------------------------------------------

    def _enter(self, name: str, span: bool) -> list:
        stack = self._stack
        parent = stack[-1][4] if stack else -1
        sid = -1
        if span:
            sid = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, self.qid])
        self._depth[name] += 1
        frame = [name, 0.0, 0.0, sid, sid if span else parent]
        stack.append(frame)
        frame[1] = perf_counter()
        return frame

    def _exit(self, frame: list) -> float:
        end = perf_counter()
        self._stack.pop()
        name, start, child, sid, _ = frame
        dur = end - start
        if self._stack:
            self._stack[-1][2] += dur
        self.calls[name] += 1
        self.self_s[name] += dur - child
        self.by_query[(self.qid, name)] += dur - child
        self._depth[name] -= 1
        if not self._depth[name]:
            self.incl[name] += dur
        if sid >= 0:
            span = self.spans[sid]
            span[1], span[2] = start, end
        return dur

    def span(self, name: str, fn, *args):
        """Run fn(*args) as a span of its own, e.g. one benchmark query."""
        frame = self._enter(name, True)
        try:
            return fn(*args)
        finally:
            self._exit(frame)

    def parent_name(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name: str, fn, span: bool, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            frame = tracer._enter(name, span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _wrap_matcher(self, name: str, fn):
        """Top-level matcher: a call made straight from the compressed driver
        is one rule-window match."""
        tracer = self
        inner = self._wrap(name, fn, True)

        def wrapper(*args, **kwargs):
            if tracer.parent_name() not in _COMPRESSED:
                return inner(*args, **kwargs)
            tracer.counts["compressed.window_calls"] += 1
            tracer.counts["compressed.window_bytes"] += len(args[2])
            t0 = perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                tracer.incl["compressed.window_match"] += perf_counter() - t0

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_op(self, layer: str, op: str, fn):
        """Backend operation: counted once at the outermost call (lcp_r calls
        lcp, ipm calls scan_exact on the plain backend).  The first lcp on a
        plain backend builds its index lazily; such a call is charged to
        ``standard.index_build`` instead of ``standard.lcp``."""
        tracer = self
        lcp_like = op in ("lcp", "lcp_r")
        base = f"{layer}.{'lcp' if lcp_like else op}"

        def wrapper(backend, *args):
            if tracer._op_active:
                return fn(backend, *args)
            tracer._op_active = True
            unbuilt = lcp_like and getattr(backend, "_rank", 0) is None
            frame = tracer._enter(base, False)
            try:
                result = fn(backend, *args)
            finally:
                tracer._op_active = False
                if unbuilt and getattr(backend, "_rank", None) is not None:
                    frame[0] = f"{layer}.index_build"
                    tracer._depth[base] -= 1
                    tracer._depth[frame[0]] += 1
                    tracer.counts[f"{layer}.index_builds"] += 1
                    tracer._exit(frame)
                    tracer.spans.append([frame[0], frame[1], perf_counter(), frame[4],
                                         tracer.qid])
                else:
                    tracer._exit(frame)
            tracer.counts[f"ops.{op}"] += 1
            if op == "bytes_of":
                tracer.counts["ops.bytes_of_bytes"] += len(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- hooks that read arguments and results --------------------------------

    def _after_verify_hd(self, args, accepted):
        if accepted:
            self.counts["hamming.verify_accepted"] += 1

    def _after_verify_ed(self, args, entries):
        _, _, t, _, (lo, hi) = args
        self.counts["edit.verify_starts"] += max(0, min(hi, len(t)) - max(0, lo) + 1)
        self.counts["edit.verify_hits"] += len(entries)

    def _after_extract(self, args, data):
        self.counts["slp.extract_bytes"] += len(data)

    def _after_init(self, args, _):
        self.counts["standard.backends"] += 1

    def _wrap_encode(self, name: str, fn, from_positions: bool):
        inner = self._wrap(name, fn, True)
        tracer = self

        def wrapper(cls, items):
            items = list(items)
            tracer.counts["pillar.occset_positions_in"] += (
                len(items) if from_positions else sum(p.count for p in items))
            result = inner(cls, items)
            tracer.counts["pillar.occset_progressions_out"] += len(result.progressions)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- install / uninstall ----------------------------------------------------

    def install(self, package) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == package.__name__ or n.startswith(package.__name__ + ".")]
        hooks = {"hamming.verify": self._after_verify_hd, "edit.verify": self._after_verify_ed,
                 "slp.extract": self._after_extract}
        for modname, attr, name, span in _FUNCTIONS:
            owner, key, fn = self._resolve(package, modname, attr)
            if fn is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            if name in _MATCHERS:
                wrapped = self._wrap_matcher(name, fn)
            else:
                wrapped = self._wrap(name, fn, span, hooks.get(name))
            self._replace(modules, owner, key, fn, wrapped, name)
        for modname, attr, name in _CLASSMETHODS:
            owner, key, fn = self._resolve(package, modname, attr)
            if fn is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            raw = owner.__dict__[key].__func__
            wrapped = classmethod(self._wrap_encode(name, raw, key == "from_positions"))
            self._set(owner, key, wrapped)
            self._originals.append(raw)
            self.patched[f"{name}:{key}"] = 1
        for modname, clsname, layer in _BACKENDS:
            cls = getattr(getattr(package, modname, None), clsname, None)
            if cls is None:
                self.missing.append(f"{modname}.{clsname}")
                continue
            for op in _BACKEND_OPS:
                fn = cls.__dict__.get(op)
                if fn is None:
                    continue  # keep the attribute absent: exact_matches routes on it
                self._set(cls, op, self._wrap_op(layer, op, fn))
                self._originals.append(fn)
            if layer == "standard":
                self._set(cls, "__init__",
                          self._wrap("standard.init", cls.__dict__["__init__"], True,
                                     self._after_init))

    def _resolve(self, package, modname, attr):
        module = getattr(package, modname, None)
        if module is None:
            return None, None, None
        owner = module
        parts = attr.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part, None)
            if owner is None:
                return None, None, None
        key = parts[-1]
        if isinstance(owner, type):
            fn = owner.__dict__.get(key)
        else:
            fn = getattr(owner, key, None)
        return owner, key, fn

    def _replace(self, modules, owner, key, fn, wrapped, name):
        self._originals.append(fn)
        if isinstance(owner, type):
            self._set(owner, key, wrapped)
            self.patched[name] = 1
            return
        count = 0
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapped)
                    count += 1
        self.patched[name] = self.patched.get(name, 0) + count

    def _set(self, owner, key, value) -> None:
        self._restore.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def unwrapped_references(self, package) -> list[str]:
        """Module or class attributes that still hold an original after install."""
        originals = {id(f) for f in self._originals}
        left = []
        for modname, module in sorted(sys.modules.items()):
            if not (modname == package.__name__ or modname.startswith(package.__name__ + ".")):
                continue
            for attr, value in vars(module).items():
                if id(value) in originals:
                    left.append(f"{modname}.{attr}")
                if isinstance(value, type) and value.__module__ == modname:
                    for cattr, cvalue in vars(value).items():
                        raw = getattr(cvalue, "__func__", cvalue)
                        if id(raw) in originals:
                            left.append(f"{modname}.{attr}.{cattr}")
        return left

    # -- output -------------------------------------------------------------

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "query"],
                       "spans": self.spans}, fh)

