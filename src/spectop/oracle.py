"""Brute-force topology oracle and the property-law suite.

The oracle side works on explicitly enumerated open-set families and
implements every notion straight from its definition (an isolated point
of Y is a point y with an open U such that U * Y = {y}, and so on), so it
shares no code with the poset algorithms it validates.  Subsets are
bitmasks internally; the public functions speak label sets.

``run_property_suite`` executes the algebraic laws of the whole package
over exhaustively enumerated small posets, random larger posets, and a
random expression corpus, and reports per-law case counts with a first
counterexample serialized for replay.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from itertools import permutations
from typing import Callable, Iterator

from .analysis import FieldsGenerate, Ltg, analyze, verdict_ltg
from .dsl import (CANTOR, COFAN, FAN, OMEGA_PLUS_ONE, Con, Dual, Fan, CoFan,
                  Fin, OmegaPlusOne, Cantor, SpaceExpr, Sum, Tower, is_normal,
                  normalize, print_expr)
from .errors import SizeError
from .gallery import catalog
from .ordinal import parse_cnf
from .poset import FinitePoset, construct_poset

_PAIR_BUDGET = 4096 * 4096


@dataclass(frozen=True)
class ExplicitTopology:
    """A finite topology with every open set listed explicitly.

    ``opens`` are bitmasks over ``points`` indices, sorted ascending.
    Construction verifies that the family contains the empty and full
    sets and is closed under union and intersection, checking all pairs
    (a family that is literally the power set is accepted by equality
    instead of iterating the quadratic pair scan).
    """

    points: tuple[str, ...]
    opens: tuple[int, ...]

    def __post_init__(self):
        n = len(self.points)
        full = (1 << n) - 1
        if list(self.opens) != sorted(set(self.opens)):
            raise ValueError("opens must be distinct and sorted")
        if 0 not in self.opens or full not in self.opens:
            raise ValueError("a topology contains the empty and full sets")
        if any(m < 0 or m > full for m in self.opens):
            raise ValueError("open-set mask out of range")
        if len(self.opens) == 1 << n:
            return  # the power set: closed under everything by equality
        if len(self.opens) ** 2 > _PAIR_BUDGET:
            raise SizeError(f"{len(self.opens)} opens: pairwise closure check too large")
        members = set(self.opens)
        for a in self.opens:
            for b in self.opens:
                if b > a:
                    break
                if a & b == b:  # comparable pair, closures are trivial
                    continue
                if (a | b) not in members or (a & b) not in members:
                    raise ValueError("family not closed under union/intersection")

    def index(self, label: str) -> int:
        return self.points.index(label)

    def mask_of(self, subset) -> int:
        m = 0
        for x in subset:
            try:
                m |= 1 << self.points.index(x)
            except ValueError:
                raise ValueError(f"unknown point {x!r}") from None
        return m

    def labels_of(self, mask: int) -> frozenset[str]:
        return frozenset(x for i, x in enumerate(self.points) if mask >> i & 1)


def downset_topology(poset: FinitePoset, max_size: int = 15) -> ExplicitTopology:
    """Enumerate every down-set of the order as an explicit open family."""
    n = len(poset)
    if n > max_size:
        raise SizeError(f"{n} elements exceeds the enumeration guard of {max_size}")
    labels = poset.elements
    below = [0] * n
    for i, x in enumerate(labels):
        m = 0
        for j, y in enumerate(labels):
            if poset.leq(y, x):
                m |= 1 << j
        below[i] = m
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


def oracle_is_open(topo: ExplicitTopology, subset) -> bool:
    return topo.mask_of(subset) in set(topo.opens)


def oracle_closure(topo: ExplicitTopology, subset) -> frozenset[str]:
    """Smallest closed superset, intersecting all closed supersets."""
    s = topo.mask_of(subset)
    full = (1 << len(topo.points)) - 1
    meet = full
    for u in topo.opens:
        closed = full & ~u
        if s & ~closed == 0:
            meet &= closed
    return topo.labels_of(meet)


def oracle_isolated(topo: ExplicitTopology, subset) -> frozenset[str]:
    """Points y of the subset with an open U such that U * subset = {y}."""
    y_mask = topo.mask_of(subset)
    out = 0
    mm = y_mask
    while mm:
        bit = mm & -mm
        mm ^= bit
        for u in topo.opens:
            if u & y_mask == bit:
                out |= bit
                break
    return topo.labels_of(out)


def oracle_derivative(topo: ExplicitTopology, subset) -> frozenset[str]:
    s = frozenset(subset)
    return s - oracle_isolated(topo, s)


def oracle_rank(topo: ExplicitTopology) -> int:
    """Least number of derivative steps that empties the space."""
    current = frozenset(topo.points)
    steps = 0
    while current:
        nxt = oracle_derivative(topo, current)
        if nxt == current:
            raise AssertionError("derivative stalled on a finite space")
        current = nxt
        steps += 1
    return steps


def oracle_scattered(topo: ExplicitTopology) -> bool:
    """Every nonempty closed subset has an isolated point, definitionally."""
    full = (1 << len(topo.points)) - 1
    for u in topo.opens:
        closed = full & ~u
        if closed and not oracle_isolated(topo, topo.labels_of(closed)):
            return False
    return True


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


def enumerate_labeled_posets(n: int) -> Iterator[FinitePoset]:
    """Every partial order on n labeled points, each exactly once.

    A poset always admits a linear extension, so relabeling the
    upper-triangular transitive relations through all permutations and
    deduplicating reaches all of them.
    """
    labels = tuple(_LETTERS[:n])
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    seen: set[frozenset[tuple[int, int]]] = set()
    for bits in range(1 << len(pairs)):
        rel = [pairs[k] for k in range(len(pairs)) if bits >> k & 1]
        succ: dict[int, set[int]] = {}
        for a, b in rel:
            succ.setdefault(a, set()).add(b)
        if any(c not in succ[a] for a in succ for b in succ[a] for c in succ.get(b, ())):
            continue
        for perm in permutations(range(n)):
            mapped = frozenset((perm[a], perm[b]) for a, b in rel)
            if mapped not in seen:
                seen.add(mapped)
                yield construct_poset(labels, [(labels[a], labels[b]) for a, b in mapped])


def count_posets_by_relation_filter(n: int) -> int:
    """Independent count: scan all reflexive relations on n points and
    keep the antisymmetric transitive ones.  Practical for n <= 4."""
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


def rewrite_random_order(e: SpaceExpr, rng: random.Random, max_steps: int = 10_000):
    """Apply rewrite rules at random positions until no redex remains.

    Returns (normal form, True iff the measure strictly decreased at each
    step).  Together with :func:`normalize` this is the executable
    confluence and termination obligation for the rule system.
    """
    measure_ok = True
    current = e
    for _ in range(max_steps):
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

    ``law_upset_budget`` is inert: finite scatteredness is decided by
    theorem, so no block reads it.
    """

    seed: int = 0
    exhaustive_max: int = 5
    oracle_random_count: int = 1000
    oracle_random_size: int = 10
    oracle_subset_samples: int = 32
    law_random_count: int = 1000
    law_random_size: int = 40
    law_upset_budget: int = 2048  # read only by the benchmark's suite workload
    corpus_count: int = 1000
    corpus_depth: int = 6
    check_gallery: bool = True
    mutate: str | None = None

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
    laws: list[LawResult]
    poset_counts: dict[int, int]
    cross_check_counts: dict[int, int]
    seconds: float

    @property
    def passed(self) -> bool:
        return all(law.failures == 0 for law in self.laws)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "seconds": round(self.seconds, 3),
            "poset_counts": {str(k): v for k, v in self.poset_counts.items()},
            "cross_check_counts": {str(k): v for k, v in self.cross_check_counts.items()},
            "laws": [law.to_dict() for law in self.laws],
        }

    def format_table(self) -> str:
        width = max([len(law.name) for law in self.laws] + [4])
        lines = [f"{'law'.ljust(width)}  {'cases':>8}  {'failures':>8}"]
        for law in self.laws:
            lines.append(f"{law.name.ljust(width)}  {law.cases:>8}  {law.failures:>8}")
            if law.counterexample is not None:
                lines.append(f"  counterexample: {law.counterexample}")
        lines.append("PASS" if self.passed else "FAIL")
        return "\n".join(lines)


class _Laws:
    def __init__(self):
        self.order: list[str] = []
        self.records: dict[str, LawResult] = {}

    def check(self, name: str, ok: bool, counterexample: Callable[[], dict]):
        rec = self.records.get(name)
        if rec is None:
            rec = LawResult(name, 0, 0, None)
            self.records[name] = rec
            self.order.append(name)
        rec.cases += 1
        if not ok:
            rec.failures += 1
            if rec.counterexample is None:
                rec.counterexample = counterexample()

    def results(self) -> list[LawResult]:
        return [self.records[name] for name in self.order]


def _rank_fn(config: SuiteConfig) -> Callable[[FinitePoset], int]:
    if config.mutate is None:
        return lambda p: p.rank_int()
    if config.mutate == "rank-off-by-one":
        return lambda p: p.rank_int() + 1
    raise ValueError(f"unknown mutation {config.mutate!r}")


def _prefixed(poset: FinitePoset, prefix: str) -> FinitePoset:
    labels = [prefix + x for x in poset.elements]
    return construct_poset(labels, [(prefix + a, prefix + b) for a, b in poset.covers])


def _subset_pool(poset: FinitePoset, cap: int, rng: random.Random) -> list[frozenset[str]]:
    labels = poset.elements
    n = len(labels)
    if 1 << n <= cap:
        return [frozenset(x for i, x in enumerate(labels) if mask >> i & 1)
                for mask in range(1 << n)]
    pool = [frozenset(), frozenset(labels)]
    for _ in range(cap):
        pool.append(frozenset(x for x in labels if rng.random() < 0.5))
    return pool


def _check_poset_against_oracle(poset, laws, rank, config, rng):
    ce_base = {"poset": poset.to_json_dict()}

    def ce(**extra):
        data = dict(ce_base)
        data.update(extra)
        return lambda: data

    topo = downset_topology(poset, max_size=max(15, config.oracle_random_size))
    for subset in _subset_pool(poset, config.oracle_subset_samples, rng):
        sub = sorted(subset)
        laws.check("closure-matches-oracle",
                   poset.closure(subset) == oracle_closure(topo, subset),
                   ce(subset=sub))
        laws.check("open-test-matches-oracle",
                   poset.is_open(subset) == oracle_is_open(topo, subset),
                   ce(subset=sub))
        laws.check("isolated-matches-oracle",
                   poset.isolated_in(subset) == oracle_isolated(topo, subset),
                   ce(subset=sub))
        laws.check("derivative-matches-oracle",
                   poset.derivative_in(subset) == oracle_derivative(topo, subset),
                   ce(subset=sub))
    laws.check("rank-matches-oracle", rank(poset) == oracle_rank(topo), ce())
    laws.check("closed-subset-scattered-matches-oracle",
               poset.scattered_via_closed_subsets() == oracle_scattered(topo), ce())


def _check_finite_space_laws(poset, previous, laws, rank):
    ce_base = {"poset": poset.to_json_dict()}

    def ce(**extra):
        data = dict(ce_base)
        data.update(extra)
        return lambda: data

    laws.check("dual-involution", poset.dual().dual() == poset, ce())
    r = rank(poset)
    if len(poset):
        laws.check("rank-is-height-plus-one", r == poset.height() + 1, ce(rank=r))
    else:
        laws.check("rank-of-empty-is-zero", r == 0, ce(rank=r))
    laws.check("rank-invariant-under-dual", rank(poset.dual()) == r, ce())
    laws.check("scattered-via-closed-subsets", poset.scattered_via_closed_subsets(), ce())
    laws.check("dual-scattered-via-closed-subsets",
               poset.dual().scattered_via_closed_subsets(), ce())
    for x in poset.elements:
        _, open_flag = poset.td_witness(x)
        laws.check("td-witness-is-open", open_flag, ce(point=x))
    if len(poset):
        x, u, w = poset.find_isolated()
        ok = poset.is_open(u) and poset.is_open(w) and (u & w) == {x} and poset.is_open({x})
        laws.check("constructive-isolated-point", ok,
                   ce(point=x, u=sorted(u), w=sorted(w)))
    laws.check("json-roundtrip", FinitePoset.from_json(poset.to_json()) == poset, ce())
    if previous is not None:
        left = _prefixed(previous, "l_")
        right = _prefixed(poset, "r_")
        union = left.disjoint_union(right)
        laws.check("sum-rank-is-max",
                   rank(union) == max(rank(left), rank(right)), ce())
        der = union.derivative_in(union.elements)
        expected = left.derivative_in(left.elements) | right.derivative_in(right.elements)
        laws.check("derivative-distributes-over-sum", der == expected, ce())


def _check_corpus_laws(e, laws, rng, config, sample_confluence):
    ce = lambda: {"expr": print_expr(e)}
    nf = normalize(e)
    laws.check("normal-form-has-no-dual-con", is_normal(nf), ce)
    laws.check("normalize-idempotent", normalize(nf) == nf, ce)
    laws.check("self-duality", normalize(Con(Dual(e))) == normalize(Con(e)), ce)
    laws.check("dual-involution-on-expressions", normalize(Dual(Dual(e))) == nf, ce)
    if sample_confluence:
        other, measure_ok = rewrite_random_order(e, rng)
        laws.check("rewrite-measure-decreases", measure_ok, ce)
        laws.check("random-order-rewriting-confluent", other == nf, ce)

    a = analyze(e)  # Analysis.__post_init__ enforces the record invariants
    laws.check("scattered-implies-td", (not a.scattered) or a.is_td, ce)
    con_a = analyze(Con(e))
    laws.check("scattered-passes-to-patch", (not a.scattered) or con_a.scattered, ce)
    if a.is_td:
        laws.check("td-patch-scattered-equivalence", a.scattered == con_a.scattered, ce)
    if not con_a.scattered:
        laws.check("patch-obstruction-forces-ltg-failure",
                   verdict_ltg(e) is Ltg.FAILS, ce)
    if isinstance(nf, Fin):
        p = nf.poset
        agree = (a.cb_rank == p.rank()
                 and a.is_td and a.scattered
                 and a.nonempty == (len(p) > 0)
                 and a.has_isolated_point == (len(p) > 0))
        laws.check("finite-space-analysis-agrees-with-poset", agree, ce)


def _check_gallery(laws):
    for entry in catalog():
        ce = lambda entry=entry: {"entry": entry.name}
        try:
            verdict = entry.verdict()
        except Exception:
            laws.check("gallery-verdict-computes", False, ce)
            continue
        laws.check("gallery-verdict-computes", True, ce)
        if entry.expect_inconclusive:
            laws.check("non-sufficiency-stays-inconclusive",
                       verdict.fields_generate is FieldsGenerate.INCONCLUSIVE, ce)
            laws.check("non-sufficiency-never-generates",
                       verdict.fields_generate is not FieldsGenerate.GENERATES, ce)
        elif entry.known_truth is not None:
            truth = entry.known_truth
            ok = ((truth.ltg is None or truth.ltg is verdict.ltg)
                  and (truth.fields is None or truth.fields is verdict.fields_generate))
            laws.check("gallery-known-truth-matches", ok, ce)


def run_property_suite(config: SuiteConfig = SuiteConfig()) -> SuiteReport:
    started = time.perf_counter()
    laws = _Laws()
    rank = _rank_fn(config)
    rng = random.Random(config.seed)
    poset_counts: dict[int, int] = {}
    cross_counts: dict[int, int] = {}

    for n in range(0, config.exhaustive_max + 1):
        count = 0
        for poset in enumerate_labeled_posets(n):
            count += 1
            _check_poset_against_oracle(poset, laws, rank, config, rng)
        poset_counts[n] = count
        if n <= 4:
            cross_counts[n] = count_posets_by_relation_filter(n)
            laws.check("poset-enumeration-cross-check",
                       poset_counts[n] == cross_counts[n],
                       lambda n=n: {"size": n, "enumerated": poset_counts[n],
                                    "filtered": cross_counts[n]})

    for _ in range(config.oracle_random_count):
        poset = random_poset(rng.randrange(1 << 30),
                             rng.randint(0, config.oracle_random_size),
                             rng.uniform(0.05, 0.6))
        _check_poset_against_oracle(poset, laws, rank, config, rng)

    previous = None
    for _ in range(config.law_random_count):
        poset = random_poset(rng.randrange(1 << 30),
                             rng.randint(0, config.law_random_size),
                             rng.uniform(0.02, 0.5))
        _check_finite_space_laws(poset, previous, laws, rank)
        previous = poset

    for i in range(config.corpus_count):
        e = random_expr(rng, config.corpus_depth)
        _check_corpus_laws(e, laws, rng, config, sample_confluence=(i % 10 == 0))

    if config.check_gallery:
        _check_gallery(laws)

    return SuiteReport(
        laws=laws.results(),
        poset_counts=poset_counts,
        cross_check_counts=cross_counts,
        seconds=time.perf_counter() - started,
    )
