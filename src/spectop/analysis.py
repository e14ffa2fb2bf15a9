"""Attribute evaluation and theorem-backed verdicts.

Both read one pass over the leaves of the normal form.  Each leaf kind
has a table row: its attribute record and three facts that a theorem
fixes for the kind.  Dual scattered: fan and cofan are each other's
Hochster dual, and cofan has no isolated point; omega1, cantor and
towers are Stone spaces, hence self-dual; the dual of a finite space is
finite T_0, hence scattered.  Patch scattered: fan and cofan both have
the patch space omega1, a Stone space is its own patch space, and a
finite space has a discrete one.  Boolean (equal to its patch space):
the Stone spaces, not fan or cofan, and a finite space exactly when it
has no covers.  A disjoint sum has each fact exactly when every summand
does, since dual and patch push through sums.

The verdict engine applies the following rules, in order, to a space
together with curated ring metadata.  The metadata is never computed, it
is an input.

1. Gabriel dimension present        -> the residue fields generate.
2. Absolutely flat                  -> they generate iff the patch space
                                       is scattered (semiartinian case).
3. Patch space not scattered        -> they do not generate.
4. Otherwise                        -> inconclusive: a scattered patch
                                       space alone proves nothing.

The local-to-global verdict is a biconditional: it holds exactly when the
Hochster dual of the space is scattered.  When rule 3 fires, the failure
of the local-to-global principle is also forced (the patch space equals
the patch space of the dual, and scatteredness passes to finer spectral
topologies), and the verdict cites that route as well.

Rule 1 and rule 3 can never both apply to honestly curated metadata
(generation is implied by rule 1 and excluded by rule 3), so that
combination raises ConflictError instead of silently preferring one.
Likewise, a decided residue-field verdict that differs from the curated
ground truth raises ConflictError: one of the flags or the ground truth
is miscurated.  So does the absolutely-flat flag on a space that is not
Boolean: an absolutely flat ring has a Hausdorff spectrum (Hochster
1969), which therefore equals its own patch space.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .dsl import (Cantor, CoFan, Fan, Fin, OmegaPlusOne, SpaceExpr, Tower,
                  leaves, normalize)
from .errors import ConflictError
from .ordinal import Ordinal


@dataclass(frozen=True)
class Analysis:
    """Topological attribute record of a space.

    ``cb_rank`` is present exactly when the space is scattered; scattered
    spaces are T_D; a nonempty scattered space has an isolated point.
    These are enforced at construction.
    """

    nonempty: bool
    quasi_compact: bool
    is_td: bool
    has_isolated_point: bool
    scattered: bool
    cb_rank: Ordinal | None

    def __post_init__(self):
        if self.scattered != (self.cb_rank is not None):
            raise ValueError("cb_rank must be present iff scattered")
        if self.scattered and not self.is_td:
            raise ValueError("a scattered space is T_D")
        if self.nonempty and self.scattered and not self.has_isolated_point:
            raise ValueError("a nonempty scattered space has an isolated point")

    def to_dict(self) -> dict:
        return {
            "nonempty": self.nonempty,
            "quasi_compact": self.quasi_compact,
            "is_td": self.is_td,
            "has_isolated_point": self.has_isolated_point,
            "scattered": self.scattered,
            "cb_rank": str(self.cb_rank) if self.cb_rank is not None else None,
        }


class Ltg(enum.Enum):
    HOLDS = "Holds"
    FAILS = "Fails"


class FieldsGenerate(enum.Enum):
    GENERATES = "Generates"
    DOES_NOT_GENERATE = "DoesNotGenerate"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class RingMeta:
    """Curated metadata flags; inputs to the verdict engine, never computed."""

    absolutely_flat: bool = False
    has_gabriel_dimension: bool = False

    def to_dict(self) -> dict:
        return {
            "absolutely_flat": self.absolutely_flat,
            "has_gabriel_dimension": self.has_gabriel_dimension,
        }


@dataclass(frozen=True)
class Verdict:
    ltg: Ltg
    fields_generate: FieldsGenerate
    citations: tuple[str, ...] = field(default=())

    def to_dict(self) -> dict:
        return {
            "ltg": self.ltg.value,
            "fields_generate": self.fields_generate.value,
            "citations": list(self.citations),
        }


# rule identifiers with the theorem tags the reports cite
CITE_LTG = "Thm 7.8: the local-to-global principle holds iff the Hochster dual of the spectrum is scattered"
CITE_LTG_OBSTRUCTION = "Cor 5.4: a patch spectrum without Cantor-Bendixson rank forces the local-to-global principle to fail"
CITE_GABRIEL = "Thm 2.1: Gabriel dimension implies the residue fields generate"
CITE_ABS_FLAT = "Thm 4.1: over an absolutely flat ring the residue fields generate iff the spectrum is scattered"
CITE_OBSTRUCTION = "Thm 5.3: a patch spectrum without Cantor-Bendixson rank means the residue fields do not generate"
CITE_INCONCLUSIVE = "Ex 6.2: a scattered patch spectrum is not sufficient for generation; no rule applies"

_RANK_TWO = Ordinal.from_int(2)

# leaf kind -> (its Analysis, dual scattered, patch scattered, Boolean);
# the module docstring gives the reason for each fact
_ROWS = {
    Fan: (Analysis(True, True, True, True, True, _RANK_TWO), False, True, False),
    # no singleton of cofan is open: every nonempty open set is cofinite
    CoFan: (Analysis(True, True, False, False, False, None), True, True, False),
    OmegaPlusOne: (Analysis(True, True, True, True, True, _RANK_TWO), True, True, True),
    Cantor: (Analysis(True, True, True, False, False, None), False, False, True),
}


def _row(leaf: SpaceExpr) -> tuple[Analysis, bool, bool, bool]:
    match leaf:
        case Fin(p):
            occupied = len(p) > 0
            # no covers <=> an antichain <=> at most one peel layer
            return (Analysis(occupied, True, True, occupied, True, Ordinal.from_int(p.rank_int())),
                    True, True, p.rank_int() <= 1)
        case Tower(rank):
            occupied = not rank.is_zero
            return Analysis(occupied, True, True, occupied, True, rank), True, True, True
    try:
        return _ROWS[type(leaf)]
    except KeyError:
        raise ValueError(f"not a normal form: {leaf!r}") from None


def _leaf_pass(n: SpaceExpr) -> tuple[Analysis, bool, bool, bool]:
    """The row of the normal form ``n``, read off its leaves in one pass: a
    sum has each of the three facts exactly when every summand has it, and
    combines the summands' Analysis componentwise (a finite union of
    quasi-compact spaces is quasi-compact)."""
    records, dual, patch, boolean = zip(*map(_row, leaves(n)))
    scattered = all(a.scattered for a in records)
    analysis = Analysis(
        nonempty=any(a.nonempty for a in records),
        quasi_compact=True,
        is_td=all(a.is_td for a in records),
        has_isolated_point=any(a.has_isolated_point for a in records),
        scattered=scattered,
        cb_rank=max(a.cb_rank for a in records) if scattered else None,
    )
    return analysis, all(dual), all(patch), all(boolean)


def analyze(e: SpaceExpr) -> Analysis:
    """Attributes of the space denoted by ``e`` (normalizes internally)."""
    return _leaf_pass(normalize(e))[0]


def evaluate(
    e: SpaceExpr,
    meta: RingMeta = RingMeta(),
    known_fields: FieldsGenerate | None = None,
) -> Verdict:
    """Full verdict with the citations of every rule that fired; see the
    module docstring for the rule order.  Raises ConflictError on
    contradictory metadata or ground truth."""
    _, dual_scattered, con_scattered, boolean = _leaf_pass(normalize(e))

    if meta.has_gabriel_dimension and not con_scattered:
        raise ConflictError(
            "metadata claims Gabriel dimension, but the patch space is not "
            "scattered; the sufficiency rule and the obstruction cannot both apply"
        )

    citations: list[str] = []
    if meta.has_gabriel_dimension:
        fields = FieldsGenerate.GENERATES
        citations.append(CITE_GABRIEL)
    elif meta.absolutely_flat:
        fields = FieldsGenerate.GENERATES if con_scattered else FieldsGenerate.DOES_NOT_GENERATE
        citations.append(CITE_ABS_FLAT)
    elif not con_scattered:
        fields = FieldsGenerate.DOES_NOT_GENERATE
        citations.append(CITE_OBSTRUCTION)
    else:
        fields = FieldsGenerate.INCONCLUSIVE
        citations.append(CITE_INCONCLUSIVE)
    if fields is not FieldsGenerate.INCONCLUSIVE and known_fields not in (None, fields):
        raise ConflictError(
            f"the rules derive {fields.value}, but the ground truth is {known_fields.value}"
        )
    if meta.absolutely_flat and not boolean:
        raise ConflictError(
            "metadata claims an absolutely flat ring, but the spectrum is not "
            "Boolean: it differs from its patch space"
        )

    ltg = Ltg.HOLDS if dual_scattered else Ltg.FAILS
    citations.append(CITE_LTG)
    if not con_scattered:
        # patch space of the dual is the same patch space, so the dual is
        # not scattered either and the failure has a second route
        assert ltg is Ltg.FAILS
        citations.append(CITE_LTG_OBSTRUCTION)

    return Verdict(ltg=ltg, fields_generate=fields, citations=tuple(citations))
