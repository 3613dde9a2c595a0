"""Shared verdict vocabulary.

Unknown is a first-class answer: the question was not decided, and the
report's criterion slug says why. Either the input underdetermines the
answer (principality or torsion of a class on an abstract base:
principality-undecided-on-abstract-base, properness-undecided), or no
implemented criterion covers the case (higher-rank-criteria-unavailable,
weight-cone-subdivision-unavailable, needs-isolatedness-assertion). A
verdict that follows from an undecided one is unknown as well
(rationality-undecided, properness-undecided).
"""

from __future__ import annotations

from enum import Enum


class Verdict(str, Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"
    NOT_APPLICABLE = "not_applicable"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value
