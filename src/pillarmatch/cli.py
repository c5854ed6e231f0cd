"""Command-line interface: approximate search and pattern-structure reports.

Exit codes: 0 success, 1 oracle cross-check mismatch, 2 unreadable file or
usage error (unknown option, missing or invalid argument; argparse prints
the usage), 3 malformed grammar file, 4 bad threshold.
"""

from __future__ import annotations

import argparse
import json
import sys

from .compressed import EDIT, HAMMING, count_occurrences_compressed, \
    report_occurrences_compressed
from .driver import BREAK_DIV
from .edit import analyze_ed, edit_occurrences
from .hamming import ApproxPeriod, Breaks, RepetitiveRegions, analyze_hd, mismatch_occurrences
from .pillar import ContractError, OccurrenceSet
from .slp import SlpFormatError, left_comb_slp, parse_slp
from .standard import StandardBackend

EXIT_ORACLE = 1
EXIT_FILE = 2
EXIT_SLP = 3
EXIT_K = 4


def _read_file(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        print(f"pm: cannot read {path}: {exc.strerror}", file=sys.stderr)
        raise SystemExit(EXIT_FILE) from None


def _load_source(args, role: str):
    """Returns ("plain", bytes) or ("slp", Slp) for pattern/text."""
    lit = getattr(args, f"{role}_lit")
    fil = getattr(args, f"{role}_file")
    slp = getattr(args, f"{role}_slp")
    if lit is not None:
        try:
            return ("plain", lit.encode("latin-1"))
        except UnicodeEncodeError as exc:
            print(f"pm: --{role}-lit: {exc.object[exc.start]!r} at position {exc.start} "
                  "is not a Latin-1 character", file=sys.stderr)
            raise SystemExit(EXIT_FILE) from None
    if fil is not None:
        return ("plain", _read_file(fil))
    data = _read_file(slp)
    try:
        return ("slp", parse_slp(data))
    except SlpFormatError as exc:
        print(f"pm: malformed grammar {slp}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_SLP) from None


def _add_source_flags(sub, role: str) -> None:
    grp = sub.add_mutually_exclusive_group(required=True)
    grp.add_argument(f"--{role}-lit", help=f"{role} as Latin-1 text, one byte per character")
    grp.add_argument(f"--{role}-file", help=f"{role} from a raw-bytes file")
    grp.add_argument(f"--{role}-slp", help=f"{role} from a grammar file")


def _print_occurrences(occ: OccurrenceSet, args) -> None:
    total = len(occ)
    if args.json:
        payload = {
            "metric": args.metric,
            "k": args.k,
            "progressions": [{"start": p.first, "diff": p.diff, "count": p.count}
                             for p in occ.progressions],
            "total": total,
        }
        print(json.dumps(payload))
        return
    if not args.count:
        for p in occ.progressions:
            print(f"{p.first}:{p.diff}:{p.count}")
    print(f"total={total}")


def _run_search(args) -> int:
    pkind, pval = _load_source(args, "pattern")
    tkind, tval = _load_source(args, "text")
    plen = len(pval) if pkind == "plain" else pval.length
    if args.k < 0 or args.k > plen:
        print(f"pm: threshold {args.k} outside [0, {plen}]", file=sys.stderr)
        return EXIT_K
    if plen == 0:
        print("pm: empty pattern is not accepted", file=sys.stderr)
        return EXIT_K

    pad = args.k if args.metric == EDIT else 0
    # When no occurrence fits, the pattern is never extracted, not even for --oracle.
    fits = plen - pad <= (tval.length if tkind == "slp" else len(tval))
    pattern_bytes = None
    if tkind == "slp":
        g_t = tval
        g_p = pval if pkind == "slp" else left_comb_slp(pval, g_t.params)
        if args.count and not args.oracle:
            # the total alone costs O(grammar); reporting would cost O(occ)
            total = count_occurrences_compressed(g_t, g_p, args.k, args.metric)
            print(f"total={total}")
            return 0
        occ = report_occurrences_compressed(g_t, g_p, args.k, args.metric)
    elif not fits:
        occ = OccurrenceSet.empty()
    else:
        pattern_bytes = pval if pkind == "plain" else pval.extract(0, pval.length)
        backend = StandardBackend([pattern_bytes, tval])
        fn = mismatch_occurrences if args.metric == HAMMING else edit_occurrences
        occ = fn(backend, backend.handle(0), backend.handle(1), args.k)

    if args.oracle:
        expected: set[int] = set()  # what both brute-force references give when nothing fits
        if fits:
            from .oracle import brute_ed_occurrences, brute_hd_occurrences
            if pattern_bytes is None:
                pattern_bytes = pval if pkind == "plain" else pval.extract(0, pval.length)
            text_bytes = tval if tkind == "plain" else tval.extract(0, tval.length)
            ofn = brute_hd_occurrences if args.metric == HAMMING else brute_ed_occurrences
            expected = ofn(pattern_bytes, text_bytes, args.k)
        if set(occ.positions()) != expected:
            print("pm: oracle cross-check FAILED", file=sys.stderr)
            return EXIT_ORACLE
    _print_occurrences(occ, args)
    return 0


def _run_analyze(args) -> int:
    pkind, pval = _load_source(args, "pattern")
    m = len(pval) if pkind == "plain" else pval.length
    if args.k < 1 or BREAK_DIV * args.k > m:  # checked before a grammar is extracted
        print(f"pm: threshold {args.k} unusable for analysis of length-{m} pattern",
              file=sys.stderr)
        return EXIT_K
    backend = StandardBackend([pval if pkind == "plain" else pval.extract(0, m)])
    fn = analyze_hd if args.metric == HAMMING else analyze_ed
    result = fn(backend, backend.handle(0), args.k)
    print(f"m={m} k={args.k} metric={args.metric}")
    if isinstance(result, Breaks):
        print("variant=breaks")
        for off, ln, _ in result.items:
            print(f"break {off}:{ln}")
    elif isinstance(result, RepetitiveRegions):
        print("variant=regions")
        for off, ln, qoff, qln in result.items:
            print(f"region {off}:{ln} period {qoff}:{qln}")
    else:
        assert isinstance(result, ApproxPeriod)
        print("variant=period")
        print(f"period {result.q_offset}:{result.q_length}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="pm",
                                     description="approximate pattern matching over plain "
                                                 "and grammar-compressed strings")
    subs = parser.add_subparsers(dest="command", required=True)

    search = subs.add_parser("search", help="find k-approximate occurrences")
    search.add_argument("--metric", choices=[HAMMING, EDIT], required=True)
    search.add_argument("-k", type=int, required=True)
    _add_source_flags(search, "pattern")
    _add_source_flags(search, "text")
    mode = search.add_mutually_exclusive_group()
    mode.add_argument("--count", action="store_true", help="print only the total")
    mode.add_argument("--json", action="store_true", help="print one JSON object")
    search.add_argument("--oracle", action="store_true",
                        help="cross-check against the brute-force reference")

    analyze = subs.add_parser("analyze", help="report the pattern's structure")
    analyze.add_argument("--metric", choices=[HAMMING, EDIT], required=True)
    analyze.add_argument("-k", type=int, required=True)
    _add_source_flags(analyze, "pattern")

    args = parser.parse_args(argv)
    try:
        if args.command == "search":
            return _run_search(args)
        return _run_analyze(args)
    except SlpFormatError as exc:
        print(f"pm: malformed grammar: {exc}", file=sys.stderr)
        return EXIT_SLP
    except ContractError as exc:
        print(f"pm: {exc}", file=sys.stderr)
        return EXIT_K


if __name__ == "__main__":
    sys.exit(main())
