"""The three workloads: which wire requests each sends, drawn from a seed.

A workload is a fixed *block* of slots.  Each slot draws a fixed number of
problems from its pool and fixes how many of them are re-sent later in the
block or sent by two clients at once; the seed picks the problems and the
order.  The draw is stratified by cost, the latency through ``repro serve``
stored in ``reference.json`` (written by ``measure_latency.py``): a slot
drawing ``n`` problems splits its pool, sorted by cost, into ``n`` strata
and takes one problem from each, and its repeats and twins come from fixed
strata.  So every seed sends a block with nearly the same cost profile, and
the latency percentiles measure the program rather than the luck of the
draw.  A run
sends ``blocks_for(seconds)`` blocks, so the amount of work (and the number of
latency samples) depends only on ``--seconds``, never on how fast the
program happens to be: both sides of a comparison answer the same requests.

Every problem any seed can draw has a stored reference answer
(``reference.json``, written by ``make_reference.py``), so every answer of
every run is checked, whatever the seed.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

#: The reduced-scale dataset configurations (the ``benchmarks/`` suite's
#: defaults), as ``repro serve --warm`` specs and as request parameters.
DATASETS: dict[str, dict[str, float | int]] = {
    "astronauts": {"num_rows": 357},
    "law_students": {"num_rows": 1500},
    "meps": {"num_rows": 1200},
    "tpch": {"scale_factor": 0.15},
}

#: Table 6 of the paper: five lower-bound constraints per dataset, as
#: ``(attribute, value, share)`` where the bound is ``k // 2`` for share 2
#: and ``k // 5`` for share 5 (at least 1).
TABLE6: dict[str, tuple[tuple[str, str, int], ...]] = {
    "astronauts": (
        ("Gender", "F", 2), ("Gender", "M", 2), ("Status", "Active", 5),
        ("Status", "Management", 5), ("Status", "Retired", 5),
    ),
    "law_students": (
        ("Sex", "F", 2), ("Sex", "M", 2), ("Race", "Black", 5),
        ("Race", "White", 5), ("Race", "Asian", 5),
    ),
    "meps": (
        ("Sex", "F", 2), ("Sex", "M", 2), ("Race", "Asian", 5),
        ("Race", "Black", 5), ("Race", "White", 5),
    ),
    "tpch": (
        ("OrderPriority", "5-LOW", 2), ("OrderPriority", "3-MEDIUM", 5),
        ("MktSegment", "AUTOMOBILE", 5), ("MktSegment", "BUILDING", 5),
        ("MktSegment", "MACHINERY", 5),
    ),
}

#: Entries of the session's prepared-MILP cache (``DatasetSession.MILP_CACHE_SIZE``);
#: a repeat only re-sends a problem still inside it.
PREPARED_CACHE_SIZE = 32


@dataclass(frozen=True)
class Problem:
    """One refinement problem in the benchmark's terms."""

    dataset: str
    constraints: tuple[int, ...]
    k: int
    epsilon: float
    distance: str
    method: str
    deadline_s: float | None = None

    @property
    def key(self) -> str:
        """Identity of the problem's answer: method and deadline excluded."""
        indices = ",".join(str(index + 1) for index in self.constraints)
        return f"{self.dataset}|C{indices}|k{self.k}|e{self.epsilon:g}|{self.distance}"

    @property
    def name(self) -> str:
        """Identity of the request: the key, the method and the deadline."""
        deadline = "" if self.deadline_s is None else f"|d{self.deadline_s:g}"
        return f"{self.key}|{self.method}{deadline}"

    @property
    def cache_key(self) -> tuple:
        """Identity of the session's prepared MILP for this problem."""
        return (self.dataset, self.constraints, self.k, self.epsilon, self.distance,
                self.method)

    def request(self) -> dict:
        """The wire form ``POST /refine`` takes."""
        constraints = []
        for index in self.constraints:
            attribute, value, share = TABLE6[self.dataset][index]
            constraints.append({
                "kind": "at_least",
                "bound": max(self.k // share, 1),
                "k": self.k,
                "group": {attribute: value},
            })
        request: dict = {
            "dataset": self.dataset,
            "dataset_parameters": dict(DATASETS[self.dataset]),
            "constraints": constraints,
            "epsilon": self.epsilon,
            "distance": self.distance,
            "method": self.method,
        }
        if self.method in ("naive", "naive+prov"):
            request["jobs"] = 1
        if self.deadline_s is not None:
            request["deadline_s"] = self.deadline_s
        return request


@functools.cache
def _stored_latencies() -> dict[str, float]:
    if not REFERENCE_PATH.exists():
        return {}
    return json.loads(REFERENCE_PATH.read_text()).get("latency_s", {})


def cost(problem: Problem) -> float:
    """Seconds ``problem`` took through ``repro serve`` when ``measure_latency.py``
    ran (0 if not stored): what the cost strata are cut on."""
    return _stored_latencies().get(problem.name, 0.0)


def spread(picks: int, count: int) -> list[int]:
    """``picks`` strata out of ``count``, evenly spaced from cheapest to dearest."""
    return [(2 * j + 1) * count // (2 * picks) for j in range(picks)]


def grid(
    dataset: str,
    method: str,
    distances: tuple[str, ...],
    ks: tuple[int, ...] = (10, 20, 30),
    epsilons: tuple[float, ...] = (0.0, 0.5, 1.0),
    subsets: tuple[tuple[int, ...], ...] = ((0,), (1,), (2,), (0, 2), (1, 3)),
    deadline_s: float | None = None,
    exclude: frozenset[tuple] = frozenset(),
) -> tuple[Problem, ...]:
    """Every problem of a parameter grid, minus ``(subset, k, epsilon, distance)`` rows."""
    return tuple(
        Problem(dataset, subset, k, epsilon, distance, method, deadline_s)
        for distance in distances
        for k in ks
        for epsilon in epsilons
        for subset in subsets
        if (subset, k, epsilon, distance) not in exclude
    )


@dataclass(frozen=True)
class Item:
    """One entry of a run's request sequence."""

    problem: Problem
    #: Sent by both clients at once, so the second joins the first's solve.
    twin: bool = False
    #: Re-sends a problem the block already sent.
    repeat: bool = False


@dataclass(frozen=True)
class Slot:
    """``count`` problems a block draws from ``pool``, one per cost stratum.

    ``repeats`` of them are sent a second time later in the block, and
    ``twins`` of them are sent by two clients at once, each from fixed
    strata.  Fixing these per pool keeps a block's mix of costs the same for
    every seed.
    """

    pool: tuple[Problem, ...]
    count: int
    repeats: int = 0
    twins: int = 0

    def draw(self, rng: random.Random) -> tuple[list[Problem], list[Problem], set[int]]:
        """``(drawn, repeated, twin indices into drawn)``, cheapest stratum first."""
        ordered = sorted(self.pool, key=lambda problem: (cost(problem), problem.name))
        bounds = [index * len(ordered) // self.count for index in range(self.count + 1)]
        drawn = [ordered[rng.randrange(low, high)] for low, high in zip(bounds, bounds[1:])]
        repeated = [drawn[index] for index in spread(self.repeats, self.count)]
        return drawn, repeated, set(spread(self.twins, self.count))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    clients: int
    slots: tuple[Slot, ...]
    #: Nominal seconds one block takes on the reference machine.
    block_seconds: float
    #: Fixed requests sent before timing starts (not part of the timed set).
    warmup: tuple[Problem, ...] = ()
    #: Sessions the server warms before serving.
    datasets: tuple[str, ...] = field(default_factory=lambda: tuple(DATASETS))

    def blocks_for(self, seconds: float) -> int:
        return max(1, round(seconds / self.block_seconds))

    def problems(self) -> set[Problem]:
        """Every problem any seed can draw, warm-up included."""
        return {problem for slot in self.slots for problem in slot.pool} | set(self.warmup)

    def sequence(self, seed: int, seconds: float) -> list[Item]:
        """The timed request sequence for ``seed`` (deterministic)."""
        rng = random.Random(f"{self.name}:{seed}")
        items: list[Item] = []
        for _ in range(self.blocks_for(seconds)):
            items.extend(self._block(rng))
        return items

    def _block(self, rng: random.Random) -> list[Item]:
        items: list[Item] = []
        repeated: list[Problem] = []
        for slot in self.slots:
            drawn, again, twins = slot.draw(rng)
            items += [Item(problem, twin=index in twins) for index, problem in enumerate(drawn)]
            repeated += again
        rng.shuffle(items)
        rng.shuffle(repeated)
        # A repeat goes anywhere after the problem it repeats.  A block sends
        # fewer distinct problems per dataset than the prepared-MILP cache
        # holds, so every repeat is a cache hit.
        for problem in repeated:
            first = next(i for i, item in enumerate(items) if item.problem == problem)
            items.insert(rng.randrange(first + 1, len(items) + 1), Item(problem, repeat=True))
        return items


# -- the workloads ------------------------------------------------------------------------

SINGLE = ((0,), (1,), (2,), (3,), (4,))

#: The Figure 3 cells (Table 6 constraint (1), k = 10, epsilon = 0.5) that
#: ``milp_mix`` sends in every block, so its runs stay comparable with
#: ``benchmarks/results/latest.json``.  Left out for taking several seconds
#: each on the reference machine: astronauts MILP+opt Kendall, law_students
#: MILP+opt QD, and MILP QD on law_students and meps.
FIGURE3_MILP = (
    Problem("tpch", (0,), 10, 0.5, "pred", "milp+opt"),
    Problem("tpch", (0,), 10, 0.5, "jaccard", "milp+opt"),
    Problem("tpch", (0,), 10, 0.5, "kendall", "milp+opt"),
    Problem("tpch", (0,), 10, 0.5, "pred", "milp"),
    Problem("astronauts", (0,), 10, 0.5, "pred", "milp+opt"),
    Problem("astronauts", (0,), 10, 0.5, "jaccard", "milp+opt"),
    Problem("astronauts", (0,), 10, 0.5, "pred", "milp"),
    Problem("law_students", (0,), 10, 0.5, "jaccard", "milp+opt"),
    Problem("law_students", (0,), 10, 0.5, "kendall", "milp+opt"),
    Problem("meps", (0,), 10, 0.5, "pred", "milp+opt"),
    Problem("meps", (0,), 10, 0.5, "jaccard", "milp+opt"),
)


def _besides(pool: tuple[Problem, ...], fixed: tuple[Problem, ...]) -> tuple[Problem, ...]:
    return tuple(problem for problem in pool if problem not in fixed)


#: The seeded ``milp_mix`` pools.  Each keeps problems of similar cost: on
#: the reference machine every one solves in 0.1 s to 1.5 s, except the fixed
#: astronauts Kendall problem (about 2 s), so no single request dominates a
#: run and the seed changes the inputs, not the amount of work.
_TPCH_MILP = _besides(
    grid("tpch", "milp+opt", ("pred", "jaccard"))
    + grid("tpch", "milp+opt", ("kendall",), ks=(10, 20)),
    FIGURE3_MILP,
)
_TPCH_PLAIN = _besides(grid("tpch", "milp", ("pred",), subsets=SINGLE[:3]), FIGURE3_MILP)
_ASTRONAUTS_MILP = _besides(
    grid("astronauts", "milp+opt", ("pred", "jaccard"), ks=(10, 20), epsilons=(1.0,),
         subsets=SINGLE)
    + grid("astronauts", "milp+opt", ("jaccard",), ks=(10, 20), epsilons=(0.5,),
           subsets=SINGLE),
    FIGURE3_MILP,
)
#: Status=Management only: the Status=Active pair costs a quarter more, a step
#: right below the ten slowest requests of a block.
_ASTRONAUTS_PLAIN = grid("astronauts", "milp", ("pred",), ks=(10,), epsilons=(0.5, 1.0),
                         subsets=((3,),))
#: Kendall solves swing from one second to over a minute between neighbouring
#: constraints, so the astronauts Kendall slot is one fixed problem.
_ASTRONAUTS_KENDALL = (Problem("astronauts", (2,), 10, 0.5, "kendall", "milp+opt"),)
#: Without Race=Black Jaccard, which takes twice as long as the other three.
_LAW_MILP = grid("law_students", "milp+opt", ("pred", "jaccard"), ks=(10,), epsilons=(0.5,),
                 subsets=((2,), (4,)), exclude=frozenset({((2,), 10, 0.5, "jaccard")}))
#: Sent whole in every block: with the Figure 3 cells and the Kendall problem
#: these make the slowest requests of a block the same fixed problems for
#: every seed, so the tail percentile does not hinge on the draw.  Left out:
#: Sex=M at epsilon 0.5, twice as slow as the rest; and on meps Sex=M, k=10,
#: epsilon 0, Jaccard the MILP returns a refinement whose deviation is 0.2,
#: above epsilon, which the benchmark would count as a failed answer.
_MEPS_MILP = grid("meps", "milp+opt", ("pred", "jaccard"), ks=(10,), epsilons=(0.0, 0.5),
                  subsets=((1,), (2,)),
                  exclude=frozenset({((1,), 10, 0.0, "jaccard"), ((1,), 10, 0.5, "pred"),
                                     ((1,), 10, 0.5, "jaccard")}))
_MEPS_EASY = grid("meps", "milp+opt", ("pred",), epsilons=(1.0,), subsets=SINGLE)

MILP_MIX = Workload(
    name="milp_mix",
    why=("MILP requests on all four datasets, a third of them repeats served from the "
         "prepared-MILP cache: builder, lowering, cut loop and HiGHS do the work"),
    clients=1,
    slots=(
        Slot(FIGURE3_MILP, len(FIGURE3_MILP)),
        Slot(_TPCH_MILP, 18, repeats=10),
        Slot(_TPCH_PLAIN, 5, repeats=3),
        Slot(_ASTRONAUTS_MILP, 14, repeats=8),
        Slot(_ASTRONAUTS_PLAIN, 1, repeats=1),
        Slot(_ASTRONAUTS_KENDALL, 1),
        Slot(_LAW_MILP, 2, repeats=1),
        Slot(_MEPS_MILP, len(_MEPS_MILP), repeats=2),
        Slot(_MEPS_EASY, 4, repeats=2),
    ),
    block_seconds=25.0,
    warmup=(
        Problem("tpch", (0,), 15, 1.0, "pred", "milp+opt"),
        Problem("tpch", (0,), 15, 1.0, "jaccard", "milp+opt"),
        Problem("tpch", (0,), 15, 1.0, "kendall", "milp+opt"),
        Problem("astronauts", (0,), 15, 1.0, "pred", "milp+opt"),
        Problem("law_students", (0,), 15, 1.0, "pred", "milp+opt"),
        Problem("meps", (0,), 15, 1.0, "pred", "milp+opt"),
    ),
)

_EXHAUSTIVE = {
    (dataset, method): grid(dataset, method, ("pred",))
    for dataset in ("meps", "tpch")
    for method in ("naive+prov", "naive")
}

EXHAUSTIVE_WARM = Workload(
    name="exhaustive_warm",
    why=("short exhaustive searches from two clients, some sent twice at once: server, "
         "admission, coalescer, session, executor and mask sweep do the work"),
    clients=2,
    slots=(
        Slot(_EXHAUSTIVE["meps", "naive+prov"], 3, twins=1),
        Slot(_EXHAUSTIVE["meps", "naive"], 2, twins=1),
        Slot(_EXHAUSTIVE["tpch", "naive+prov"], 3),
        Slot(_EXHAUSTIVE["tpch", "naive"], 2),
    ),
    block_seconds=0.95,
    warmup=(
        Problem("meps", (0,), 15, 1.0, "pred", "naive+prov"),
        Problem("meps", (0,), 15, 1.0, "pred", "naive"),
        Problem("tpch", (0,), 15, 1.0, "pred", "naive+prov"),
        Problem("tpch", (0,), 15, 1.0, "pred", "naive"),
    ),
    datasets=("meps", "tpch"),
)

#: Races whose MILP proves well inside the deadline, and races whose MILP
#: needs several times the deadline, so the share of proofs does not hinge
#: on a few milliseconds.
_RACE_ABOVE = tuple(
    Problem(p.dataset, p.constraints, p.k, p.epsilon, p.distance, "portfolio", 3.0)
    for p in _ASTRONAUTS_MILP
)
_RACE_BELOW_LAW = grid("law_students", "portfolio", ("pred", "jaccard"), ks=(10, 20),
                       epsilons=(0.0, 0.5), subsets=((0,), (1,)), deadline_s=0.5)
_RACE_BELOW_ASTRONAUTS = grid("astronauts", "portfolio", ("pred",), ks=(30,),
                              epsilons=(0.0,), subsets=SINGLE, deadline_s=0.25)

PORTFOLIO_DEADLINE = Workload(
    name="portfolio_deadline",
    why=("portfolio races (milp+opt against naive+prov) at deadlines below and above the "
         "MILP solve time: interrupted time-sliced solves racing a second engine"),
    clients=1,
    slots=(
        Slot(_RACE_ABOVE, 2),
        Slot(_RACE_BELOW_LAW, 2),
        Slot(_RACE_BELOW_ASTRONAUTS, 1),
    ),
    block_seconds=3.6,
    warmup=(
        Problem("astronauts", (0,), 15, 1.0, "pred", "portfolio", deadline_s=0.2),
        Problem("law_students", (0,), 15, 1.0, "pred", "portfolio", deadline_s=0.2),
    ),
    datasets=("astronauts", "law_students"),
)

WORKLOADS = {
    workload.name: workload for workload in (MILP_MIX, EXHAUSTIVE_WARM, PORTFOLIO_DEADLINE)
}
