"""The paper's contribution: Best Approximation Refinement.

This subpackage implements Sections 2–4 of the paper:

* :mod:`repro.core.constraints` — groups, cardinality constraints over top-k
  prefixes, and the deviation measure (Definition 2.6);
* :mod:`repro.core.refinement` — refinements of selection predicates and how
  they are applied to queries;
* :mod:`repro.core.distances` — the three refinement distance measures
  (predicate distance, Jaccard over the top-k, Kendall's tau for top-k lists)
  and their MILP linearizations;
* :mod:`repro.core.milp_builder` — the MILP of Figure 1 (expressions (1)–(8));
* :mod:`repro.core.optimizations` — the three Section 4 optimizations;
* :mod:`repro.core.solver` — the :class:`RefinementSolver` facade
  (methods ``"milp"`` and ``"milp+opt"``);
* :mod:`repro.core.naive` — the exhaustive baselines (``Naive`` and
  ``Naive+prov``);
* :mod:`repro.core.erica` — the Erica-style baseline used in Section 5.3.
"""

from repro.core.constraints import (
    BoundType,
    CardinalityConstraint,
    ConstraintSet,
    Group,
    at_least,
    at_most,
)
from repro.core.distances import (
    DistanceMeasure,
    JaccardDistance,
    KendallDistance,
    PredicateDistance,
    get_distance,
)
from repro.core.erica import EricaBaseline, EricaResult
from repro.core.naive import MaskIndexData, NaiveProvenanceSearch, NaiveSearch
from repro.core.portfolio import (
    EngineReport,
    EngineSpec,
    PortfolioResult,
    PortfolioSolver,
)
from repro.core.problem import RefinementProblem
from repro.core.refinement import Refinement, RefinementSpace
from repro.core.reporting import (
    DistanceComparison,
    compare_distances,
    refinement_report,
)
from repro.core.solver import PreparedProblem, RefinementResult, RefinementSolver

__all__ = [
    "BoundType",
    "CardinalityConstraint",
    "ConstraintSet",
    "DistanceComparison",
    "DistanceMeasure",
    "EngineReport",
    "EngineSpec",
    "EricaBaseline",
    "EricaResult",
    "Group",
    "JaccardDistance",
    "KendallDistance",
    "MaskIndexData",
    "NaiveProvenanceSearch",
    "NaiveSearch",
    "PortfolioResult",
    "PortfolioSolver",
    "PredicateDistance",
    "PreparedProblem",
    "Refinement",
    "RefinementProblem",
    "RefinementResult",
    "RefinementSolver",
    "RefinementSpace",
    "at_least",
    "at_most",
    "compare_distances",
    "get_distance",
    "refinement_report",
]
