"""Curated ring families with their spectra and ground-truth verdicts.

Each entry pairs a ring description with the expression denoting its
spectrum, curated metadata flags, and (where known) a ground-truth record
sourced from the literature.  Ground truths are data with citation
strings; nothing here computes Gabriel dimension, semiartinianness or
absolute flatness.  The entries are one table, built at import; the rows
of the families ``fan`` and ``idempotent`` are their ``omega`` members.

Entries marked ``expect_inconclusive`` are the honesty checks: their
ground truth says the residue fields do not generate, but no implemented
rule can derive that, so the engine must answer Inconclusive and must
never answer Generates for them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import FieldsGenerate, Ltg, RingMeta, Verdict, evaluate
from .dsl import CANTOR, COFAN, FAN, Fin, SpaceExpr, print_expr
from .errors import SizeError, quote
from .poset import FinitePoset, construct_poset

OMEGA = "omega"
# the most points of a finite fan; a request's time and memory grow linearly
# with it (a 300000-point verdict through the CLI, in a fresh process: about
# 0.8 s CPU and 157 MB max RSS on a 2-core host, Python 3.11)
FAN_MAX_POINTS = 1_000_000
# the most points of a finite idempotent ring, which has 2^n points: n <= 12
IDEMPOTENT_MAX_POINTS = 4096


@dataclass(frozen=True)
class KnownTruth:
    """Ground-truth verdict record, stored as data with its source."""

    ltg: Ltg | None = None
    fields: FieldsGenerate | None = None
    citation: str = ""

    def to_dict(self) -> dict:
        return {
            "ltg": self.ltg.value if self.ltg else None,
            "fields_generate": self.fields.value if self.fields else None,
            "citation": self.citation,
        }


@dataclass(frozen=True)
class RingEntry:
    name: str
    description: str
    space: SpaceExpr
    meta: RingMeta = RingMeta()
    known_truth: KnownTruth | None = None
    expect_inconclusive: bool = False

    def verdict(self) -> Verdict:
        known = self.known_truth.fields if self.known_truth else None
        return evaluate(self.space, self.meta, known_fields=known)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "space": print_expr(self.space),
            "meta": self.meta.to_dict(),
            "known_truth": self.known_truth.to_dict() if self.known_truth else None,
            "expect_inconclusive": self.expect_inconclusive,
        }


def _fan_poset(n: int) -> FinitePoset:
    """p1, ..., pn below m, built from index pairs: the labels are known
    identifiers, so the label round trip of ``construct_poset`` is skipped."""
    return FinitePoset([f"p{i}" for i in range(1, n + 1)] + ["m"], [(i, n) for i in range(n)])


def _fan(n: int) -> RingEntry:
    """The axes ring on n axes: one isolated minimal prime per axis, all
    under the single maximal ideal."""
    if n + 1 > FAN_MAX_POINTS:
        raise SizeError(f"{quote(n)} + 1 = {quote(n + 1)} points exceeds the budget of {FAN_MAX_POINTS}")
    return RingEntry(
        name="fan",
        description=f"k[x_1,...,x_{n}]_(x_1,...,x_{n}) / (x_i x_j : i != j), {n} glued axes",
        space=Fin(_fan_poset(n)),
    )


def _idempotent(n: int) -> RingEntry:
    """k[e_1,...,e_n] with every e_i idempotent: a prime is fixed by which
    generators it contains, so the spectrum is 2^n discrete points, and the
    ring is absolutely flat (curated flag), being reduced and zero-dimensional."""
    # decided from n alone, before 2**n is built: its size and its decimal text grow with n
    if n >= IDEMPOTENT_MAX_POINTS.bit_length():
        raise SizeError(f"2^{quote(n)} points exceeds the budget of {IDEMPOTENT_MAX_POINTS}")
    points = 2 ** n
    return RingEntry(
        name="idempotent",
        description=f"k[e_1,...,e_{n}] with e_i^2 = e_i (isomorphic to k^{points})",
        space=Fin(FinitePoset([f"p{i}" for i in range(points)], ())),
        meta=RingMeta(absolutely_flat=True),
    )


# the finite members of each family, by name; each builder takes a checked natural n
_FAMILIES = {"fan": _fan, "idempotent": _idempotent}

_ENTRIES = (
    RingEntry(
        name="fan",
        description=(
            "k[x_1,x_2,...]_(x_1,x_2,...) / (x_i x_j : i != j), the local "
            "ring at the origin of infinitely many glued axes"
        ),
        space=FAN,
        meta=RingMeta(has_gabriel_dimension=True),
        known_truth=KnownTruth(
            ltg=Ltg.FAILS,
            fields=FieldsGenerate.GENERATES,
            citation=(
                "axes ring: explicit Gabriel filtration in two steps; "
                "no idempotent cuts out the closed point since the "
                "punctured spectrum is not quasi-compact"
            ),
        ),
    ),
    RingEntry(
        name="idempotent",
        description="k[e_1,e_2,...] with e_i^2 = e_i; the spectrum is the Cantor set",
        space=CANTOR,
        meta=RingMeta(absolutely_flat=True),
        known_truth=KnownTruth(
            ltg=Ltg.FAILS,
            fields=FieldsGenerate.DOES_NOT_GENERATE,
            citation="the Cantor set has no isolated points, so no Cantor-Bendixson rank",
        ),
    ),
    # the non-sufficiency witnesses, then a noetherian-domain shape
    RingEntry(
        name="valuation_rank1",
        description="a non-noetherian rank one valuation domain",
        space=Fin(construct_poset(["zero", "m"], [("zero", "m")])),
        known_truth=KnownTruth(
            fields=FieldsGenerate.DOES_NOT_GENERATE,
            citation="Bazzoni-Stovicek: cotorsion-pair results for valuation domains",
        ),
        expect_inconclusive=True,
    ),
    RingEntry(
        name="neeman_ring",
        description="k[x_2,x_3,x_4,...]/(x_2^2, x_3^3, x_4^4, ...), a ring with a unique prime",
        space=Fin(construct_poset(["m"], [])),
        known_truth=KnownTruth(
            fields=FieldsGenerate.DOES_NOT_GENERATE,
            citation="Neeman: the residue field of this local ring does not generate",
        ),
        expect_inconclusive=True,
    ),
    RingEntry(
        name="integers_like",
        description=(
            "a one-dimensional noetherian domain with infinitely many "
            "maximal ideals, e.g. the integers.  The Gabriel-dimension "
            "flag is the classical fact that noetherian module "
            "categories have Krull-Gabriel filtrations (Gabriel, "
            "Gordon-Robson); it is curated here, not computed."
        ),
        space=COFAN,
        meta=RingMeta(has_gabriel_dimension=True),
        known_truth=KnownTruth(
            ltg=Ltg.HOLDS,
            fields=FieldsGenerate.GENERATES,
            citation="noetherian rings have Gabriel dimension; the dual spectrum is scattered",
        ),
    ),
)

# every name get_entry resolves
NAMES = frozenset(entry.name for entry in _ENTRIES)


def catalog() -> list[RingEntry]:
    """Every gallery entry at its default parameter, in table order."""
    return list(_ENTRIES)


def get_entry(name: str, n=None) -> RingEntry:
    """Resolve a gallery entry by name.  ``n`` of None or ``omega`` gives
    the table entry; a natural ``n`` gives that member of a family, and is
    refused for any other name."""
    entry = next((entry for entry in _ENTRIES if entry.name == name), None)
    if entry is None:
        raise KeyError(f"no gallery entry named {quote(name)}")
    if n is None or n == OMEGA:
        return entry
    if name not in _FAMILIES:
        raise ValueError(f"{name!r} is not a family: n must be {OMEGA!r} or omitted, got {quote(n)}")
    # a bool is an int to isinstance, but True is no count of axes
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError(f"n must be a natural number or {OMEGA!r}, got {quote(n)}")
    return _FAMILIES[name](n)
