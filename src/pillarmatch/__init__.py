"""Approximate pattern matching with k mismatches or k edits, over plain
byte strings and grammar-compressed (SLP) inputs."""

from .compressed import count_occurrences_compressed, report_occurrences_compressed
from .edit import edit_occurrences
from .hamming import mismatch_occurrences
from .pillar import ArithmeticProgression, ContractError, Fragment, OccurrenceSet, extract
from .slp import SlpBackend, left_comb_slp, parse_slp
from .standard import StandardBackend


def find_mismatch_occurrences(pattern: bytes, text: bytes, k: int) -> OccurrenceSet:
    """Convenience wrapper: k-mismatch occurrence set for plain byte strings."""
    backend = StandardBackend([pattern, text])
    return mismatch_occurrences(backend, backend.handle(0), backend.handle(1), k)


def find_edit_occurrences(pattern: bytes, text: bytes, k: int) -> OccurrenceSet:
    """Convenience wrapper: k-edit occurrence set for plain byte strings."""
    backend = StandardBackend([pattern, text])
    return edit_occurrences(backend, backend.handle(0), backend.handle(1), k)
