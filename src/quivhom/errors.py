"""Exception types shared across the package."""

from __future__ import annotations


class QuivhomError(Exception):
    """Base class for all quivhom errors."""


class CyclicQuiverError(QuivhomError):
    """An operation that requires an acyclic quiver was given a cyclic one.

    ``cycle`` is a list of vertex indices v0, v1, ..., vk with vk == v0
    describing a directed cycle, when one was extracted.
    """

    def __init__(self, message: str, cycle: list[int] | None = None):
        super().__init__(message)
        self.cycle = cycle


class FieldModeError(QuivhomError):
    """Exact/float field modes were mixed, or an exact-only operation was
    called on a float matrix."""


class WeightError(QuivhomError):
    """A weight violated the invertibility requirement (zero weight)."""


class ParseError(QuivhomError):
    """An input file could not be parsed. Carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ChainCapExceeded(QuivhomError):
    """The oracle chain-count guard tripped."""

    def __init__(self, count: int, cap: int):
        super().__init__(
            f"nondegenerate chain count {count} exceeds cap {cap}"
        )
        self.count = count
        self.cap = cap


class MorphismError(QuivhomError):
    """A quiver/representation morphism failed a compatibility check."""


class InvariantError(QuivhomError):
    """A consistency check failed: the kept arcs of a feedback-arc-set pass
    formed a cycle, or a boundary squared to a nonzero map (as it does under
    a weight action that is not multiplicative)."""
