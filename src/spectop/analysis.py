"""Attribute evaluation and theorem-backed verdicts.

``analyze`` evaluates a normalized expression to an attribute record by
structural recursion: finite posets go through the exact poset
algorithms, the infinite primitives have fixed tables, and disjoint sums
combine componentwise (a finite union of quasi-compact spaces is
quasi-compact, so that attribute stays true).

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

from .dsl import (Cantor, CoFan, Con, Dual, Fan, Fin, OmegaPlusOne,
                  SpaceExpr, Sum, Tower, normalize)
from .errors import ConflictError
from .ordinal import Ordinal, ordinal_max


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


def analyze(e: SpaceExpr) -> Analysis:
    """Attributes of the space denoted by ``e`` (normalizes internally)."""
    return _analyze_nf(normalize(e))


def _analyze_nf(n: SpaceExpr) -> Analysis:
    match n:
        case Fin(p):
            occupied = len(p) > 0
            return Analysis(
                nonempty=occupied,
                quasi_compact=True,
                is_td=True,
                has_isolated_point=occupied,
                scattered=True,
                cb_rank=p.rank(),
            )
        case Fan():
            return Analysis(True, True, True, True, True, _RANK_TWO)
        case CoFan():
            # no singleton is open: every nonempty open set is cofinite
            return Analysis(True, True, False, False, False, None)
        case OmegaPlusOne():
            return Analysis(True, True, True, True, True, _RANK_TWO)
        case Cantor():
            return Analysis(True, True, True, False, False, None)
        case Tower(rank):
            occupied = not rank.is_zero
            return Analysis(occupied, True, True, occupied, True, rank)
        case Sum(left, right):
            la, ra = _analyze_nf(left), _analyze_nf(right)
            scattered = la.scattered and ra.scattered
            rank = ordinal_max(la.cb_rank, ra.cb_rank) if scattered else None
            return Analysis(
                nonempty=la.nonempty or ra.nonempty,
                quasi_compact=True,
                is_td=la.is_td and ra.is_td,
                has_isolated_point=la.has_isolated_point or ra.has_isolated_point,
                scattered=scattered,
                cb_rank=rank,
            )
    raise ValueError(f"not a normal form: {n!r}")


def _dual_scattered(n: SpaceExpr) -> bool:
    return _analyze_nf(normalize(Dual(n))).scattered


def verdict_ltg(e: SpaceExpr) -> Ltg:
    """Local-to-global verdict for the ring whose spectrum ``e`` denotes."""
    return Ltg.HOLDS if _dual_scattered(normalize(e)) else Ltg.FAILS


def evaluate(
    e: SpaceExpr,
    meta: RingMeta = RingMeta(),
    known_fields: FieldsGenerate | None = None,
) -> Verdict:
    """Full verdict with the citations of every rule that fired; see the
    module docstring for the rule order.  Raises ConflictError on
    contradictory metadata or ground truth."""
    n = normalize(e)
    patch = normalize(Con(n))
    con_scattered = _analyze_nf(patch).scattered
    dual_scattered = _dual_scattered(n)

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
    if meta.absolutely_flat and n != patch:
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
