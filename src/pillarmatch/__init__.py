"""Approximate pattern matching with k mismatches or k edits, over plain
byte strings and grammar-compressed (SLP) inputs."""

from .compressed import (EDIT, HAMMING, build_pattern_once,
                         count_occurrences_compressed, report_occurrences_compressed)
from .edit import (EditGenerator, EditGeneratorR, LockedFragments, MatchEntry,
                   analyze_ed, break_matches_ed, edit_occurrences, find_a_witness,
                   find_relevant_fragment_ed, locked, periodic_matches_ed,
                   repetitive_matches_ed, synched_matches, verify_ed)
from .hamming import (ApproxPeriod, Breaks, MismatchGenerator, MismatchGeneratorR,
                      RepetitiveRegions, analyze_hd, break_matches_hd, distances_rle,
                      find_relevant_fragment_hd, find_rotation, mism_generator,
                      mismatch_occurrences, mismatches, periodic_matches_hd,
                      repetitive_matches_hd, verify_hd)
from .pillar import (ArithmeticProgression, ContractError, Fragment, OccurrenceSet,
                     access, equal, exact_matches, extract, ipm, lcp_power, period,
                     rotations)
from .slp import (Slp, SlpBackend, SlpFormatError, format_slp, left_comb_slp,
                  parse_slp, set_fingerprint_seed, slp_access, slp_concat,
                  slp_extract, slp_lcp)
from .standard import StandardBackend


def find_mismatch_occurrences(pattern: bytes, text: bytes, k: int) -> OccurrenceSet:
    """Convenience wrapper: k-mismatch occurrence set for plain byte strings."""
    backend = StandardBackend([pattern, text])
    return mismatch_occurrences(backend, backend.handle(0), backend.handle(1), k)


def find_edit_occurrences(pattern: bytes, text: bytes, k: int) -> OccurrenceSet:
    """Convenience wrapper: k-edit occurrence set for plain byte strings."""
    backend = StandardBackend([pattern, text])
    return edit_occurrences(backend, backend.handle(0), backend.handle(1), k)
