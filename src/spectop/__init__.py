"""Topological analysis of spectral spaces.

Finite spectral spaces are finite posets under the specialization order;
symbolic spaces cover the standard infinite examples.  The package
computes Cantor-Bendixson ranks, Hochster duals and patch topologies,
decides scatteredness and the T_D property, and issues cited verdicts on
the local-to-global principle and residue-field generation.
"""

from .analysis import (Analysis, FieldsGenerate, Ltg, RingMeta, Verdict,
                       analyze, evaluate)
from .bench import BenchResult, cb_layering, run_bench
from .dsl import (CANTOR, COFAN, FAN, OMEGA_PLUS_ONE, Cantor, CoFan, Con,
                  Dual, Fan, Fin, OmegaPlusOne, SpaceExpr, Sum, Tower,
                  is_normal, leaves, normalize, parse_expr, print_expr)
from .errors import (ArityError, ConflictError, CycleError, EmptySpaceError,
                     ParseError, SizeError, SpectopError, UnknownLabelError)
from .gallery import OMEGA, KnownTruth, RingEntry, catalog, get_entry
from .oracle import (ExplicitTopology, SuiteConfig, SuiteReport,
                     count_posets_by_relation_filter, downset_topology,
                     enumerate_labeled_posets, oracle_rank, oracle_scattered,
                     random_expr, random_poset, run_property_suite)
from .ordinal import ZERO, Ordinal, parse_cnf
from .poset import FinitePoset, construct_poset, disjoint_union, export

__version__ = "0.1.0"
