"""Brute-force topology oracle and the property-law suite.

The oracle side works on explicitly enumerated open-set families and
implements every notion straight from its definition (an isolated point
of Y is a point y with an open U such that U * Y = {y}, and so on), so it
shares no code with the poset algorithms it validates.  Subsets are
bitmasks over the topology's points.  One walk over the opens answers
every subset at once (``_subset_tables``): an open u with complement c
misses exactly the subsets of c, so the closed set c enters the closure
(the meet of the closed supersets) of each of them, and u meets a set in
a single point y of u exactly when the set is y plus a subset of c, so y
is isolated there.  Every answer is still the definition's; the subset
laws, ``oracle_rank`` and ``oracle_scattered`` look their answers up in
these tables instead of scanning every open once per subset.

``enumerate_labeled_posets`` yields every partial order on n labeled points
exactly once, by one-point extension (the construction behind the counts
of OEIS A001035; Brinkmann and McKay, *Posets on up to 16 points*, Order
2002): an order on the points 0..k is an order on 0..k-1 together with the
down-set D strictly below point k and the up-set U strictly above it, with
every point of D below every point of U, and each order arises from
exactly one such triple.

``run_property_suite`` executes the algebraic laws of the whole package
over exhaustively enumerated small posets, random larger posets, and a
random expression corpus, and reports per-law case counts with a first
counterexample serialized for replay, plus the seconds each block took.
Two finite-space laws check recipes built here from the poset's public
queries alone: ``td_witness`` and ``find_isolated``.
A law hands its own inputs to the recorder by name (``poset=``,
``subset=``, ``expr=``, ...); only the first failing case's inputs are
turned into JSON data.  The oracle blocks draw each poset's subsets as
masks over its element order, which is also the topology's point order,
and run the oracle on those masks.  A table of label sets decodes both
the drawn subset (the poset method's input) and the oracle's answer (to
compare with the method's).  A run keeps one table per label tuple and
fills it as masks first occur, so all posets of the exhaustive block with
n points share one table (their labels are the first n letters), as do
the random posets with n points, and a table never holds more than 2^n
sets.  When the four subset laws hold on every drawn mask of a poset,
their cases are counted in bulk; otherwise that poset is recorded case by
case, so failure counts and first counterexamples are exactly those of a
case-by-case run.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from typing import ClassVar, Iterator, Sequence

from .analysis import FieldsGenerate, Ltg, analyze, evaluate
from .dsl import (CANTOR, COFAN, FAN, OMEGA_PLUS_ONE, Con, Dual, Fan, CoFan,
                  Fin, OmegaPlusOne, Cantor, SpaceExpr, Sum, Tower, is_normal,
                  normalize, print_expr)
from .errors import EmptySpaceError, SizeError
from .gallery import catalog
from .ordinal import Ordinal, parse_cnf
from .poset import FinitePoset, construct_poset, disjoint_union

_PAIR_BUDGET = 4096 * 4096
# the largest n with 3 * 2^(n - 2) <= 4096: an n-element poset that is not an
# antichain (a power set needs no closure check) has at most that many
# down-sets, so every oracle poset's opens fit _PAIR_BUDGET
ORACLE_MAX_SIZE = 12
# the exhaustive block builds and checks every labeled poset up to this size:
# 130023 posets at 6 points, and 6129859 at 7 (OEIS A001035)
EXHAUSTIVE_MAX = 6
# a law poset is drawn in O(size^2); one with 1000 points at edge density
# 0.5 took 0.9 s CPU to draw and check (2000 points: 3.7 s, 4000: 14.5 s) on
# a 2-core Xeon host under Python 3.11
LAW_MAX_SIZE = 1000


@dataclass(frozen=True)
class ExplicitTopology:
    """A finite topology with every open set listed explicitly.

    ``opens`` are bitmasks over ``points`` indices, sorted ascending;
    ``members`` holds the same masks as a frozenset, built once, for
    membership tests.  Construction verifies that the family contains the empty and full
    sets and is closed under union and intersection, checking all pairs
    (a family that is literally the power set is accepted by equality
    instead of iterating the quadratic pair scan).
    """

    points: tuple[str, ...]
    opens: tuple[int, ...]
    members: frozenset[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "members", frozenset(self.opens))
        n = len(self.points)
        full = (1 << n) - 1
        if list(self.opens) != sorted(self.members):
            raise ValueError("opens must be distinct and sorted")
        if 0 not in self.opens or full not in self.opens:
            raise ValueError("a topology contains the empty and full sets")
        if any(m < 0 or m > full for m in self.opens):
            raise ValueError("open-set mask out of range")
        if len(self.opens) == 1 << n:
            return  # the power set: closed under everything by equality
        if len(self.opens) ** 2 > _PAIR_BUDGET:
            raise SizeError(f"{len(self.opens)} opens: pairwise closure check too large")
        members = self.members
        for a in self.opens:
            for b in self.opens:
                if b > a:
                    break
                if a & b == b:  # comparable pair, closures are trivial
                    continue
                if (a | b) not in members or (a & b) not in members:
                    raise ValueError("family not closed under union/intersection")


def downset_topology(poset: FinitePoset) -> ExplicitTopology:
    """Enumerate every down-set of the order as an explicit open family.

    The order is the reflexive-transitive closure of ``poset.covers``, taken
    here by Warshall's loop over bitset rows, so no reachability the poset
    computes for its own queries enters the oracle."""
    n = len(poset)
    if n > ORACLE_MAX_SIZE:
        raise SizeError(f"{n} elements exceeds the enumeration guard of {ORACLE_MAX_SIZE}")
    labels = poset.elements
    index = {x: i for i, x in enumerate(labels)}
    # bit j of below[i] is set iff labels[j] <= labels[i]
    below = [1 << i for i in range(n)]
    for a, b in poset.covers:
        below[index[b]] |= 1 << index[a]
    for k in range(n):
        for i in range(n):
            if below[i] >> k & 1:
                below[i] |= below[k]
    opens = []
    for mask in range(1 << n):
        mm = mask
        ok = True
        while mm:
            bit = mm & -mm
            mm ^= bit
            if below[bit.bit_length() - 1] & ~mask:
                ok = False
                break
        if ok:
            opens.append(mask)
    return ExplicitTopology(labels, tuple(opens))


def _subset_tables(topo: ExplicitTopology) -> tuple[list[int], list[int]]:
    """The closure mask and the isolated-point mask of every subset of the
    points, each list indexed by the subset's mask, from the definitions.

    The closure of Y is the meet of the closed supersets of Y, and the
    closed set c = full - u of an open u is a superset of exactly the
    subsets of c; a point y of Y is isolated in Y when some open u meets Y
    in y alone, and u meets in y alone exactly the sets y | t with y a
    point of u and t a subset of c.  One walk over the submasks of c per
    open u fills both tables: work proportional to the sum over the opens
    of 2^|c| * (1 + |u|), where a scan of every open for every subset
    takes |opens| * 2^n."""
    full = (1 << len(topo.points)) - 1
    closure = [full] * (full + 1)
    isolated = [0] * (full + 1)
    for u in topo.opens:
        c = full ^ u
        subsets = [c]
        t = c
        while t:
            t = (t - 1) & c
            subsets.append(t)
        for t in subsets:
            closure[t] &= c
        while u:
            y = u & -u
            u ^= y
            for t in subsets:
                isolated[t | y] |= y
    return closure, isolated


def _rank_from(isolated: list[int]) -> int:
    """Least number of derivative steps that empties the space, each step
    one lookup in the isolated-point table of :func:`_subset_tables`."""
    current = len(isolated) - 1
    steps = 0
    while current:
        if not isolated[current]:
            raise AssertionError("derivative stalled on a finite space")
        current &= ~isolated[current]
        steps += 1
    return steps


def _scattered_from(topo: ExplicitTopology, isolated: list[int]) -> bool:
    """Every nonempty closed subset has an isolated point: one lookup in the
    isolated-point table of :func:`_subset_tables` per closed set."""
    full = len(isolated) - 1
    return all(isolated[full ^ u] for u in topo.opens if u != full)


def oracle_rank(topo: ExplicitTopology) -> int:
    """Least number of derivative steps that empties the space."""
    return _rank_from(_subset_tables(topo)[1])


def oracle_scattered(topo: ExplicitTopology) -> bool:
    """Every nonempty closed subset has an isolated point, definitionally."""
    return _scattered_from(topo, _subset_tables(topo)[1])


# -- generators ----------------------------------------------------------------


def random_poset(seed: int, size: int, edge_density: float) -> FinitePoset:
    """Deterministic random poset: a random forward DAG, then its closure.

    ``edge_density`` is the probability of each forward pair (relative to
    a hidden random total order) becoming a covering edge.
    """
    if size < 0:
        raise ValueError("size must be non-negative")
    if not 0.0 <= edge_density <= 1.0:
        raise ValueError("edge_density must lie in [0, 1]")
    rng = random.Random(seed)
    labels = [f"v{i}" for i in range(size)]
    order = list(range(size))
    rng.shuffle(order)
    covers = []
    for a in range(size):
        for b in range(a + 1, size):
            if rng.random() < edge_density:
                covers.append((labels[order[a]], labels[order[b]]))
    return construct_poset(labels, covers)


_TOWER_POOL = ("0", "1", "3", "w + 1", "w*2 + 1", "w^2 + 2", "w^3*2 + 5")


def random_expr(rng: random.Random, max_depth: int) -> SpaceExpr:
    """Random expression of depth at most ``max_depth``."""
    if max_depth <= 1 or rng.random() < 0.35:
        kind = rng.randrange(6)
        if kind == 0:
            return FAN
        if kind == 1:
            return COFAN
        if kind == 2:
            return OMEGA_PLUS_ONE
        if kind == 3:
            return CANTOR
        if kind == 4:
            return Tower(parse_cnf(rng.choice(_TOWER_POOL)))
        return Fin(random_poset(rng.randrange(1 << 30), rng.randint(0, 4), 0.4))
    roll = rng.random()
    if roll < 0.30:
        return Dual(random_expr(rng, max_depth - 1))
    if roll < 0.60:
        return Con(random_expr(rng, max_depth - 1))
    return Sum(random_expr(rng, max_depth - 1), random_expr(rng, max_depth - 1))


_LETTERS = "abcdefghijklmno"


def _check_labeled_size(n: int) -> None:
    """Refuse a point count below 0 or beyond the labels there are."""
    if n < 0:
        raise ValueError(f"the number of points must be non-negative, got {n}")
    if n > len(_LETTERS):
        raise SizeError(f"{n} points exceed the {len(_LETTERS)} labels {_LETTERS[0]}..{_LETTERS[-1]}")


def _orders(n: int) -> Iterator[list[int]]:
    """Every partial order on the points 0..n-1 once, as each point's strict
    down-set: bit j of entry i is set iff point j lies strictly below point i.

    The order restricted to 0..n-2 comes from the recursion; the last point
    adds a down-set D below it and an up-set U above it, D inside the points
    below every point of U.  D and U are read back from the order, so no
    order is reached twice."""
    if n == 0:
        yield []
        return
    m = n - 1
    new = 1 << m
    for below in _orders(m):
        # a down-set holds everything below each of its points
        downs = [s for s in range(new) if all(below[i] & ~s == 0 for i in range(m) if s >> i & 1)]
        for rest in downs:
            up = (new - 1) ^ rest  # the complement of a down-set is an up-set
            common = new - 1
            for i in range(m):
                if up >> i & 1:
                    common &= below[i]
            grown = [b | new if up >> i & 1 else b for i, b in enumerate(below)]
            for d in downs:
                if not d & ~common:
                    yield grown + [d]


def enumerate_labeled_posets(n: int) -> Iterator[FinitePoset]:
    """Every partial order on n labeled points, each exactly once, built by
    one-point extension (see the module docstring).  Raises ValueError for a
    negative n and SizeError for more points than labels, before any work."""
    _check_labeled_size(n)
    labels = _LETTERS[:n]
    return (FinitePoset(labels, [(j, i) for i, b in enumerate(below) for j in range(n) if b >> j & 1])
            for below in _orders(n))


def count_posets_by_relation_filter(n: int) -> int:
    """Independent count: scan all reflexive relations on n points and
    keep the antisymmetric transitive ones.  Practical for n <= 4.  Raises
    like :func:`enumerate_labeled_posets` for n out of range."""
    _check_labeled_size(n)
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    count = 0
    for bits in range(1 << len(pairs)):
        rel = {pairs[k] for k in range(len(pairs)) if bits >> k & 1}
        if any((b, a) in rel for a, b in rel):
            continue
        if any((a, c) not in rel for a, b in rel for b2, c in rel if b2 == b and a != c):
            continue
        count += 1
    return count


# -- rewrite-system obligations -----------------------------------------------


def rewrite_measure(e: SpaceExpr) -> int:
    """Termination measure: doubles under every dual/con node, so every
    rewrite rule (including pushing through sums) strictly decreases it."""
    match e:
        case Dual(inner) | Con(inner):
            return 2 * rewrite_measure(inner)
        case Sum(left, right):
            return rewrite_measure(left) + rewrite_measure(right) + 1
        case _:
            return 1


def _root_rewrite(e: SpaceExpr) -> SpaceExpr | None:
    match e:
        case Dual(Dual(x)):
            return x
        case Con(Con(x)):
            return Con(x)
        case Con(Dual(x)):
            return Con(x)
        case Dual(Sum(a, b)):
            return Sum(Dual(a), Dual(b))
        case Con(Sum(a, b)):
            return Sum(Con(a), Con(b))
        case Dual(Fin(p)):
            return Fin(p.dual())
        case Con(Fin(p)):
            return Fin(construct_poset(p.elements, []))
        case Dual(Fan()):
            return COFAN
        case Dual(CoFan()):
            return FAN
        case Con(Fan()) | Con(CoFan()):
            return OMEGA_PLUS_ONE
        case Dual(OmegaPlusOne() | Cantor() | Tower()) | Con(OmegaPlusOne() | Cantor() | Tower()):
            return e.inner
    return None


def _redex_paths(e: SpaceExpr, path: tuple[str, ...] = ()) -> list[tuple[str, ...]]:
    out = []
    if _root_rewrite(e) is not None:
        out.append(path)
    match e:
        case Dual(inner) | Con(inner):
            out.extend(_redex_paths(inner, path + ("inner",)))
        case Sum(left, right):
            out.extend(_redex_paths(left, path + ("left",)))
            out.extend(_redex_paths(right, path + ("right",)))
    return out


def _rewrite_at(e: SpaceExpr, path: tuple[str, ...]) -> SpaceExpr:
    if not path:
        result = _root_rewrite(e)
        assert result is not None
        return result
    step, rest = path[0], path[1:]
    if step == "inner":
        inner = _rewrite_at(e.inner, rest)
        return Dual(inner) if isinstance(e, Dual) else Con(inner)
    assert isinstance(e, Sum)
    if step == "left":
        return Sum(_rewrite_at(e.left, rest), e.right)
    return Sum(e.left, _rewrite_at(e.right, rest))


# more rewrite steps than this are reported as non-termination
_REWRITE_MAX_STEPS = 10_000


def rewrite_random_order(e: SpaceExpr, rng: random.Random):
    """Apply rewrite rules at random positions until no redex remains.

    Returns (normal form, True iff the measure strictly decreased at each
    step).  Together with :func:`normalize` this is the executable
    confluence and termination obligation for the rule system.
    """
    measure_ok = True
    current = e
    for _ in range(_REWRITE_MAX_STEPS):
        paths = _redex_paths(current)
        if not paths:
            return current, measure_ok
        before = rewrite_measure(current)
        current = _rewrite_at(current, rng.choice(paths))
        if rewrite_measure(current) >= before:
            measure_ok = False
    raise AssertionError("rewriting did not terminate within the step budget")


# -- property-law suite ----------------------------------------------------------


@dataclass(frozen=True)
class SuiteConfig:
    """Knobs for :func:`run_property_suite`; zero counts skip a block.

    ``oracle_subset_samples`` and ``law_upset_budget`` are constants, not
    fields.  ``law_upset_budget`` is inert: finite scatteredness is decided
    by theorem, so no block reads it.  No field injects a fault: the laws
    call the production methods (``FinitePoset.rank_int``, ``closure``, ...),
    so a fault test patches the method under test.
    """

    oracle_subset_samples: ClassVar[int] = 32
    # benchmark hook: ROADMAP 1(a)
    law_upset_budget: ClassVar[int] = 2048

    seed: int = 0
    exhaustive_max: int = 5
    oracle_random_count: int = 1000
    oracle_random_size: int = 10
    law_random_count: int = 1000
    law_random_size: int = 40
    corpus_count: int = 1000
    corpus_depth: int = 6
    check_gallery: bool = True

    @classmethod
    def empty(cls) -> "SuiteConfig":
        return cls(exhaustive_max=-1, oracle_random_count=0, law_random_count=0,
                   corpus_count=0, check_gallery=False)


@dataclass
class LawResult:
    name: str
    cases: int
    failures: int
    counterexample: dict | None

    def to_dict(self) -> dict:
        return {"name": self.name, "cases": self.cases, "failures": self.failures,
                "counterexample": self.counterexample}


@dataclass
class SuiteReport:
    """Per-law results, plus ``block_seconds``: the seconds of each block
    (exhaustive, random_oracle, finite_laws, corpus, gallery), in run
    order, always all five (near 0 for a block the config skips)."""

    laws: list[LawResult]
    poset_counts: dict[int, int]
    cross_check_counts: dict[int, int]
    seconds: float
    block_seconds: dict[str, float]

    @property
    def passed(self) -> bool:
        return all(law.failures == 0 for law in self.laws)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "seconds": round(self.seconds, 3),
            "block_seconds": {b: round(t, 3) for b, t in self.block_seconds.items()},
            "poset_counts": {str(k): v for k, v in self.poset_counts.items()},
            "cross_check_counts": {str(k): v for k, v in self.cross_check_counts.items()},
            "laws": [law.to_dict() for law in self.laws],
        }

    def format_table(self) -> str:
        width = max([len(law.name) for law in self.laws] + list(map(len, self.block_seconds)) + [5])
        lines = [f"{'law'.ljust(width)}  {'cases':>8}  {'failures':>8}"]
        for law in self.laws:
            lines.append(f"{law.name.ljust(width)}  {law.cases:>8}  {law.failures:>8}")
            if law.counterexample is not None:
                lines.append(f"  counterexample: {law.counterexample}")
        lines.append(f"{'block'.ljust(width)}  {'seconds':>8}")
        for block, seconds in self.block_seconds.items():
            lines.append(f"{block.ljust(width)}  {seconds:>8.3f}")
        lines.append("PASS" if self.passed else "FAIL")
        return "\n".join(lines)


class _Laws:
    def __init__(self):
        self.records: dict[str, LawResult] = {}

    def _record(self, name: str) -> LawResult:
        rec = self.records.get(name)
        if rec is None:
            rec = self.records[name] = LawResult(name, 0, 0, None)
        return rec

    def check(self, name: str, ok: bool, **witness):
        """Count one case of law ``name``; the first failing case's named
        inputs become its counterexample."""
        rec = self._record(name)
        rec.cases += 1
        if not ok:
            rec.failures += 1
            if rec.counterexample is None:
                rec.counterexample = {key: _as_json(value) for key, value in witness.items()}

    def tally(self, names: Sequence[str], cases: int) -> None:
        """Count ``cases`` passing cases of each law in ``names``, in order."""
        for name in names:
            self._record(name).cases += cases

    def results(self) -> list[LawResult]:
        return list(self.records.values())


def _as_json(value):
    """A law input as JSON data: a poset as its JSON object, an expression
    as its text, a set as a sorted list, a string or number as itself."""
    if isinstance(value, FinitePoset):
        return json.loads(value.to_json())
    if isinstance(value, SpaceExpr):
        return print_expr(value)
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    return value


def _prefixed(poset: FinitePoset, prefix: str) -> FinitePoset:
    labels = [prefix + x for x in poset.elements]
    return construct_poset(labels, [(prefix + a, prefix + b) for a, b in poset.covers])


def _subset_pool(n: int, cap: int, rng: random.Random) -> Sequence[int]:
    """Masks of the subsets to check on an n-point poset: every subset when
    there are at most ``cap``, else the empty and full sets and then ``cap``
    draws, each taking one ``rng.random() < 0.5`` per point in element order."""
    if 1 << n <= cap:
        return range(1 << n)
    bits = [1 << i for i in range(n)]
    pool = [0, (1 << n) - 1]
    for _ in range(cap):
        pool.append(sum(bit for bit in bits if rng.random() < 0.5))
    return pool


class _LabelSets(dict):
    """The label set of each mask over ``labels`` (bit i is ``labels[i]``),
    decoded on first use and kept: at most 2^n sets for n labels."""

    def __init__(self, labels: Sequence[str]):
        super().__init__()
        self.labels = labels

    def __missing__(self, mask: int) -> frozenset[str]:
        out = self[mask] = frozenset(x for i, x in enumerate(self.labels) if mask >> i & 1)
        return out


# the laws checked on every drawn subset, in the order they are recorded
_SUBSET_LAWS = ("closure-matches-oracle", "open-test-matches-oracle",
                "isolated-matches-oracle", "derivative-matches-oracle")


def _check_poset_against_oracle(poset, laws, rng, decode):
    """The oracle laws on one poset.  ``decode`` is the label-set table of
    the poset's labels, which a run shares among posets with the same
    labels."""
    topo = downset_topology(poset)  # topo.points is poset.elements
    closure, isolated = _subset_tables(topo)
    pool = _subset_pool(len(poset), SuiteConfig.oracle_subset_samples, rng)

    def outcomes(s: int) -> tuple[bool, bool, bool, bool]:
        """Each subset law on mask ``s``, in ``_SUBSET_LAWS`` order."""
        subset = decode[s]
        return (poset.closure(subset) == decode[closure[s]],
                poset.is_open(subset) == (s in topo.members),
                poset.isolated_in(subset) == decode[isolated[s]],
                poset.derivative_in(subset) == decode[s & ~isolated[s]])

    if all(map(all, map(outcomes, pool))):
        laws.tally(_SUBSET_LAWS, len(pool))
    else:  # record case by case, so failures and counterexamples are exact
        for s in pool:
            for name, ok in zip(_SUBSET_LAWS, outcomes(s)):
                laws.check(name, ok, poset=poset, subset=decode[s])
    laws.check("rank-matches-oracle", poset.rank_int() == _rank_from(isolated), poset=poset)
    laws.check("closed-subset-scattered-matches-oracle",
               poset.scattered_via_closed_subsets() == _scattered_from(topo, isolated), poset=poset)


def td_witness(poset: FinitePoset, x: str) -> tuple[frozenset[str], bool]:
    """W = (X minus cl{x}) union {x}, the T_D witness of ``x``, and whether W
    is open: always on a finite poset, but returned for the law to check."""
    w = frozenset(poset.elements) - poset.closure([x]) | {x}
    return w, poset.is_open(w)


def find_isolated(poset: FinitePoset) -> tuple[str, frozenset[str], frozenset[str]]:
    """Constructive isolated point (x, U, W), returned unchecked for the law
    to check: x is the first minimal point in element order, isolated as the
    minimal points form a discrete subspace; U = {x} is the smallest open set
    holding x, and W is the T_D witness of x, so U * W = {x}."""
    if not len(poset):
        raise EmptySpaceError("the empty space has no isolated point")
    minimal = poset.isolated_in(poset.elements)
    x = next(y for y in poset.elements if y in minimal)
    return x, frozenset([x]), td_witness(poset, x)[0]


def _check_finite_space_laws(poset, previous, laws):
    dual = poset.dual()
    laws.check("dual-involution", dual.dual() == poset, poset=poset)
    r = poset.rank_int()
    if len(poset):
        laws.check("rank-is-height-plus-one", r == poset.height() + 1, poset=poset, rank=r)
    else:
        laws.check("rank-of-empty-is-zero", r == 0, poset=poset, rank=r)
    laws.check("rank-invariant-under-dual", dual.rank_int() == r, poset=poset)
    laws.check("scattered-via-closed-subsets", poset.scattered_via_closed_subsets(), poset=poset)
    laws.check("dual-scattered-via-closed-subsets", dual.scattered_via_closed_subsets(),
               poset=poset)
    for x in poset.elements:
        _, open_flag = td_witness(poset, x)
        laws.check("td-witness-is-open", open_flag, poset=poset, point=x)
    if len(poset):
        x, u, w = find_isolated(poset)
        ok = poset.is_open(u) and poset.is_open(w) and (u & w) == {x} and poset.is_open({x})
        laws.check("constructive-isolated-point", ok, poset=poset, point=x, u=u, w=w)
    laws.check("json-roundtrip", FinitePoset.from_json(poset.to_json()) == poset, poset=poset)
    if previous is not None:
        left = _prefixed(previous, "l_")
        right = _prefixed(poset, "r_")
        union = disjoint_union([left, right])
        laws.check("sum-rank-is-max", union.rank_int() == max(left.rank_int(), right.rank_int()),
                   poset=poset)
        der = union.derivative_in(union.elements)
        expected = left.derivative_in(left.elements) | right.derivative_in(right.elements)
        laws.check("derivative-distributes-over-sum", der == expected, poset=poset)


def _check_corpus_laws(e, laws, rng, sample_confluence):
    nf = normalize(e)
    laws.check("normal-form-has-no-dual-con", is_normal(nf), expr=e)
    laws.check("normalize-idempotent", normalize(nf) == nf, expr=e)
    laws.check("self-duality", normalize(Con(Dual(e))) == normalize(Con(e)), expr=e)
    laws.check("dual-involution-on-expressions", normalize(Dual(Dual(e))) == nf, expr=e)
    if sample_confluence:
        other, measure_ok = rewrite_random_order(e, rng)
        laws.check("rewrite-measure-decreases", measure_ok, expr=e)
        laws.check("random-order-rewriting-confluent", other == nf, expr=e)

    a = analyze(e)  # Analysis.__post_init__ enforces the record invariants
    laws.check("scattered-implies-td", (not a.scattered) or a.is_td, expr=e)
    con_a = analyze(Con(e))
    laws.check("scattered-passes-to-patch", (not a.scattered) or con_a.scattered, expr=e)
    if a.is_td:
        laws.check("td-patch-scattered-equivalence", a.scattered == con_a.scattered, expr=e)
    if not con_a.scattered:
        laws.check("patch-obstruction-forces-ltg-failure", evaluate(e).ltg is Ltg.FAILS, expr=e)
    if isinstance(nf, Fin):
        p = nf.poset
        agree = (a.cb_rank == Ordinal.from_int(p.rank_int())
                 and a.is_td and a.scattered
                 and a.nonempty == (len(p) > 0)
                 and a.has_isolated_point == (len(p) > 0))
        laws.check("finite-space-analysis-agrees-with-poset", agree, expr=e)


def _check_gallery(laws):
    for entry in catalog():
        try:
            verdict = entry.verdict()
        except Exception:
            laws.check("gallery-verdict-computes", False, entry=entry.name)
            continue
        laws.check("gallery-verdict-computes", True, entry=entry.name)
        if entry.expect_inconclusive:
            laws.check("non-sufficiency-stays-inconclusive",
                       verdict.fields_generate is FieldsGenerate.INCONCLUSIVE, entry=entry.name)
            laws.check("non-sufficiency-never-generates",
                       verdict.fields_generate is not FieldsGenerate.GENERATES, entry=entry.name)
        elif entry.known_truth is not None:
            truth = entry.known_truth
            ok = ((truth.ltg is None or truth.ltg is verdict.ltg)
                  and (truth.fields is None or truth.fields is verdict.fields_generate))
            laws.check("gallery-known-truth-matches", ok, entry=entry.name)


def run_property_suite(config: SuiteConfig = SuiteConfig()) -> SuiteReport:
    """Run every block that ``config`` asks for; raises SizeError before any
    work when a block's sizes are beyond what its enumeration can finish,
    and ValueError before any work for a negative size or count, an
    ``exhaustive_max`` below -1 (-1 skips the block), or a corpus depth
    below 1."""
    if config.exhaustive_max < -1:
        raise ValueError(f"exhaustive_max must be at least -1, got {config.exhaustive_max}")
    smallest = min(config.oracle_random_size, config.law_random_size)
    if smallest < 0:
        raise ValueError(f"random poset sizes must be non-negative, got {smallest}")
    fewest = min(config.oracle_random_count, config.law_random_count, config.corpus_count)
    if fewest < 0:
        raise ValueError(f"counts must be non-negative, got {fewest}")
    if config.corpus_count > 0 and config.corpus_depth < 1:
        raise ValueError(f"corpus depth must be at least 1, got {config.corpus_depth}")
    if config.oracle_random_count > 0 and config.oracle_random_size > ORACLE_MAX_SIZE:
        raise SizeError(f"random oracle posets of up to {config.oracle_random_size} elements "
                        f"exceed the enumeration guard of {ORACLE_MAX_SIZE}")
    if config.exhaustive_max > EXHAUSTIVE_MAX:
        raise SizeError(f"exhaustive enumeration up to {config.exhaustive_max} elements "
                        f"exceeds the bound of {EXHAUSTIVE_MAX}")
    if config.law_random_count > 0 and config.law_random_size > LAW_MAX_SIZE:
        raise SizeError(f"law posets of up to {config.law_random_size} elements "
                        f"exceed the bound of {LAW_MAX_SIZE}")
    started = time.perf_counter()
    laws = _Laws()
    rng = random.Random(config.seed)
    poset_counts: dict[int, int] = {}
    cross_counts: dict[int, int] = {}
    block_seconds: dict[str, float] = {}
    clock = started
    # one label-set table per label tuple, for this run only: every poset of
    # the exhaustive block with n points shares one, as do random posets of n
    tables: dict[tuple[str, ...], _LabelSets] = {}

    def check_against_oracle(poset: FinitePoset) -> None:
        labels = poset.elements
        decode = tables.get(labels)
        if decode is None:
            decode = tables[labels] = _LabelSets(labels)
        _check_poset_against_oracle(poset, laws, rng, decode)

    def lap(block: str) -> None:
        nonlocal clock
        now = time.perf_counter()
        block_seconds[block] = now - clock
        clock = now

    for n in range(0, config.exhaustive_max + 1):
        count = 0
        for poset in enumerate_labeled_posets(n):
            count += 1
            check_against_oracle(poset)
        poset_counts[n] = count
        if n <= 4:
            cross_counts[n] = count_posets_by_relation_filter(n)
            laws.check("poset-enumeration-cross-check", count == cross_counts[n],
                       size=n, enumerated=count, filtered=cross_counts[n])
    lap("exhaustive")

    for _ in range(config.oracle_random_count):
        poset = random_poset(rng.randrange(1 << 30),
                             rng.randint(0, config.oracle_random_size),
                             rng.uniform(0.05, 0.6))
        check_against_oracle(poset)
    lap("random_oracle")

    previous = None
    for _ in range(config.law_random_count):
        poset = random_poset(rng.randrange(1 << 30),
                             rng.randint(0, config.law_random_size),
                             rng.uniform(0.02, 0.5))
        _check_finite_space_laws(poset, previous, laws)
        previous = poset
    lap("finite_laws")

    for i in range(config.corpus_count):
        e = random_expr(rng, config.corpus_depth)
        _check_corpus_laws(e, laws, rng, sample_confluence=(i % 10 == 0))
    lap("corpus")

    if config.check_gallery:
        _check_gallery(laws)
    lap("gallery")

    return SuiteReport(
        laws=laws.results(),
        poset_counts=poset_counts,
        cross_check_counts=cross_counts,
        seconds=clock - started,
        block_seconds=block_seconds,
    )
