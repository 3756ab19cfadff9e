"""The inductive selection-improvement engine.

Starting from any selection ``f_0`` of a convex-valued correspondence, each
round ``n`` adjusts the previous selection near the new members of a nested
maximal separation hierarchy so that the result is anchored-Lipschitz at
those members, while moving nowhere by more than ``2^-n * epsilon``:

1. ``B_n`` is the greedy maximal ``2^-(n-1)``-separation containing
   ``B_{n-1}``.
2. For each new anchor ``b``, an anchored selection ``g_b`` is built by
   projecting ``f_{n-1}(b)`` onto every value of the open
   ``2^-(n+1)``-ball around ``b``, strongly pointwise ``alpha``-Lipschitz
   at ``b`` there.  That ball is the locality radius ``r_b`` of the lower
   pointwise Lipschitz hypothesis: steps 3 and 4 read ``g_b`` nowhere
   else.  The balls of one round are pairwise disjoint, so the round
   projects at most one query per point, in one call per stack.
3. A radius ``delta_b <= 2^-(n+2)`` is found by halving, for all new
   anchors at once, so that ``f_{n-1}`` and ``g_b`` differ by less than
   ``2^-n * epsilon`` on the open ``2 delta_b``-ball.
4. ``f_n`` blends ``f_{n-1}`` with ``g_b`` through a trapezoid bump that is
   identically 1 on the closed ``delta_b``-ball and 0 outside the open
   ``2 delta_b``-ball.  The separation spacing makes the supports pairwise
   disjoint, so each point mixes with at most one anchor and the blend is a
   convex combination of two members of the same value.

The per-round displacement bound makes the sequence uniformly Cauchy with
geometric tail ``2^-N * epsilon``; equality of consecutive tables on
``2^-n``-balls around earlier anchors is exact by construction and is
checked bitwise, round against round (:func:`changed_rows`).  The audit
measures each row once per change: the body distances of ``f_0`` and of
the rows each round changed, in one kernel call per run; an unchanged row
keeps the distance of its bits.

Every table is one ``(N, d)`` float array whose row ``i`` is the value at
point ``i``; a run holds ``f_0 .. f_N`` stacked in one array, of shape
``(N + 1, len(space), d)``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from .correspondence import AnchoredPairs, Correspondence, anchored_selection
from .errors import (
    LipselectError,
    PreconditionError,
    RateError,
    SchemaError,
    as_finite_array,
)
from .metric import SampledMetricSpace, as_table, build_separation_hierarchy, round_members

# strict "< 2^-n eps" acceptance, kept provable under roundoff
STRICTNESS_MARGIN = 1e-12
# the audit's slack on body membership, and on the displacement and
# anchored bounds
MEMBERSHIP_TOL = 1e-8
BOUND_SLACK = 1e-9


def changed_rows(tables: np.ndarray) -> np.ndarray:
    """The ``(T, N)`` mask of the rows of each table of the ``(T, N, d)``
    stack ``tables`` whose bits differ from the same row of the table
    before (``0.0`` to ``-0.0`` counts); every row of table 0 counts."""
    changed = np.ones(tables.shape[:2], dtype=bool)
    changed[1:] = (tables[1:].view(np.uint64) != tables[:-1].view(np.uint64)).any(axis=2)
    return changed


class RoundRecord:
    """Evidence retained for one adjustment round: the radius of each new
    anchor, in row order (its keys are the round's new anchors), and the
    realized displacement."""

    def __init__(self, n: int, deltas: Dict[int, float], sup_change: float):
        self.n = n
        self.deltas = deltas
        self.sup_change = sup_change


class IterationConfig:
    """Numeric parameters of the engine.

    ``epsilon`` defaults to ``(beta - alpha) / 3``, the largest value for
    which the final pointwise rate stays below ``beta``; callers may pass a
    smaller one but never a larger one.
    """

    # the parameters in order, the keys of a config document
    _FIELDS = ("alpha", "beta", "epsilon", "rounds", "delta_min", "tol")

    def __init__(self, alpha: float, beta: float, epsilon: Optional[float] = None, rounds: int = 4,
                 delta_min: float = 1e-9, tol: float = 1e-9):
        # alpha and beta first: an integer beyond the doubles has no cap
        as_finite_array([alpha, beta], "iteration parameters")
        cap = (beta - alpha) / 3
        self.alpha = alpha
        self.beta = beta
        self.epsilon = cap if epsilon is None else epsilon
        self.rounds = rounds
        self.delta_min = delta_min
        self.tol = tol
        as_finite_array(
            [self.alpha, self.beta, self.epsilon, self.delta_min, self.tol],
            "iteration parameters",
        )
        if self.alpha < 0:
            raise PreconditionError("alpha must be nonnegative")
        if not self.beta > self.alpha:
            raise PreconditionError("beta must exceed alpha")
        if not 0.0 < self.epsilon <= cap:
            raise PreconditionError(
                f"epsilon must lie in (0, (beta - alpha)/3 = {cap}]"
            )
        if self.rounds < 1:
            raise PreconditionError("rounds must be at least 1")
        if not self.delta_min > 0:
            raise PreconditionError("delta_min must be positive")
        if self.tol < 0:
            raise PreconditionError("tol must be nonnegative")

    @classmethod
    def from_json_dict(cls, doc, complete: bool = False) -> "IterationConfig":
        """Parse an iteration document.  Input documents need ``alpha`` and
        ``beta``; a stored config (``complete``) must carry every field."""
        if not isinstance(doc, dict):
            raise SchemaError("iteration config must be a JSON object")
        unknown = sorted(set(doc) - set(cls._FIELDS))
        missing = [k for k in (cls._FIELDS if complete else ("alpha", "beta")) if k not in doc]
        if unknown or missing:
            raise SchemaError(
                f"iteration config has unknown keys {unknown} or lacks {missing}"
            )
        for key, value in doc.items():
            number = isinstance(value, (int, float)) and not isinstance(value, bool)
            if key == "rounds":
                number = number and isinstance(value, int)
            if not (number or (key == "epsilon" and value is None)):
                raise SchemaError(f"iteration config field {key!r} has value {value!r}")
        return cls(**doc)

    def to_json_dict(self) -> dict:
        return {name: getattr(self, name) for name in self._FIELDS}


class SelectionSequence:
    """The full output of a run: ``f_0 .. f_N`` as one array, ``tables[n]``
    being ``f_n``, the hierarchy as its ``entry`` column
    (:func:`~lipselect.metric.build_separation_hierarchy`), plus per-round
    evidence.  ``metadata_problems`` lists what a stored document holds
    that a run of the engine on its space could not have
    (:func:`~lipselect.formats.sequence_from_dict`); a run's is empty."""

    def __init__(self, correspondence: Correspondence, config: IterationConfig, entry: np.ndarray,
                 tables: np.ndarray, rounds: List[RoundRecord], metadata_problems: Tuple[str, ...] = ()):
        self.correspondence = correspondence
        self.config = config
        self.entry = entry
        self.tables = tables
        self.rounds = rounds
        self.metadata_problems = metadata_problems

    @property
    def space(self) -> SampledMetricSpace:
        return self.correspondence.space

    @property
    def tail_bound(self) -> float:
        """Continuing the construction past ``f_N`` could move it by at most
        ``sum_{j>N} 2^-j eps = 2^-N eps``."""
        return 2.0 ** (-self.rounds[-1].n) * self.config.epsilon


def _trapezoid(delta: float, dist):
    return np.clip((2.0 * delta - dist) / delta, 0.0, 1.0)


def compute_delta(
    f_prev: np.ndarray,
    anchored: AnchoredPairs,
    n: int,
    epsilon: float,
    delta_min: float = 1e-9,
) -> np.ndarray:
    """First radius in the halving schedule that confines each anchor's
    adjustment, one per anchor of ``anchored``.

    Starting at ``2^-(n+2)`` and halving, anchor ``b`` accepts the first
    ``delta`` with ``||f_prev - g_b|| < 2^-n * epsilon`` on the open
    ``2 delta``-ball around ``b`` (strictness realized by a fixed margin),
    that is with ``2 delta`` at most the distance of the nearest pair over
    the threshold; the pairs must cover the open ``2^-(n+1)``-balls.  Radii
    below ``delta_min`` abort: the sample is too coarse or ``g_b`` strayed
    too far from ``f_prev``.  Two inputs leave no radius to search, so a
    round with anchors raises a :class:`PreconditionError` for them: a
    ``2^-n * epsilon`` below the margin, whose threshold below 0 each
    anchor's own pair exceeds, and a first radius ``2^-(n+2)`` below
    ``delta_min``.
    """
    bound = 2.0 ** (-n) * epsilon
    if bound < STRICTNESS_MARGIN and len(anchored.anchors):
        raise PreconditionError(
            f"round {n}: 2^-{n} epsilon = {bound!r} is below the strictness margin "
            f"{STRICTNESS_MARGIN!r}, so no radius is admissible"
        )
    delta = 2.0 ** (-(n + 2))
    if delta < delta_min and len(anchored.anchors):
        raise PreconditionError(
            f"round {n}: the first radius 2^-{n + 2} is below delta_min = {delta_min!r}, so no radius is admissible"
        )
    threshold = bound - STRICTNESS_MARGIN
    diffs = np.linalg.norm(f_prev[anchored.rows] - anchored.values, axis=1)
    far = diffs > threshold
    reach = np.full(len(anchored.anchors), math.inf)
    np.minimum.at(reach, anchored.owner[far], anchored.dist[far])
    # 0 marks an anchor that has not accepted a radius yet
    deltas = np.zeros(len(reach))
    while delta >= delta_min and not deltas.all():
        deltas[(deltas == 0.0) & (2.0 * delta <= reach)] = delta
        delta /= 2.0
    if not deltas.all():
        b = int(anchored.anchors[np.argmin(deltas)])
        raise LipselectError(f"round {n}, anchor {b!r}: no admissible radius above {delta_min}")
    return deltas


def blend_round(f_prev: np.ndarray, anchored: AnchoredPairs, deltas: np.ndarray) -> np.ndarray:
    """One blending step: mix ``f_prev`` with the anchored tables of the
    round's new anchors, ``deltas`` their radii.

    Rows inside the closed ``delta_b``-ball of a new anchor take the
    anchored value exactly; rows outside every open ``2 delta_b``-ball are
    copied bit for bit, so later equality checks are bitwise; in between, a
    convex combination.  A point covered by two supports violates the
    disjointness invariant and raises.
    """
    delta = deltas[anchored.owner]
    support = anchored.dist < 2.0 * delta
    rows = anchored.rows[support]
    covered = np.bincount(rows, minlength=len(f_prev))
    if covered.max() > 1:
        i = int(np.argmax(covered > 1))
        owners = anchored.anchors[anchored.owner[support][rows == i]].tolist()
        raise LipselectError(f"adjustment supports overlap at {i!r}: anchors {owners!r}")
    w = _trapezoid(delta[support], anchored.dist[support])[:, None]
    f, g = f_prev[rows], anchored.values[support]
    # mixing equal endpoints is the identity; keep the previous row
    same = np.all(f == g, axis=1)[:, None]
    table = f_prev.copy()
    table[rows] = np.where(same, f, np.where(w >= 1.0, g, (1.0 - w) * f + w * g))
    return table


def run_iteration(
    phi: Correspondence,
    f0: np.ndarray,
    config: IterationConfig,
) -> SelectionSequence:
    """Execute all rounds and retain the evidence.

    ``f0`` must be a selection of ``phi`` at the configured tolerance.  Per
    round, the new separation members get their anchored selections at
    rate ``alpha`` on the open ``2^-(n+1)``-balls, the only rows the radius
    search and the blend read (failures name the round and the anchor),
    then their confinement radii and the blend, each in one pass over the
    round; the recorded ``sup_change`` is the realized displacement.
    """
    space = phi.space
    f0 = as_table(f0, space, phi.ambient_dim)
    outside = np.flatnonzero(~(phi.distances(np.arange(len(space)), f0) <= max(config.tol, 1e-9)))
    if outside.size:
        raise PreconditionError(
            f"f0 is not a selection of the correspondence at {int(outside[0])!r}"
        )

    entry = build_separation_hierarchy(space, config.rounds)
    tables = [f0]
    rounds: List[RoundRecord] = []
    for n in range(1, config.rounds + 1):
        new, f_prev = np.flatnonzero(entry == n), tables[-1]
        try:
            anchored = anchored_selection(
                phi,
                new,
                f_prev[new],
                rate=config.alpha,
                radius=2.0 ** (-(n + 1)),
                tol=config.tol,
            )
        except RateError as exc:
            raise RateError(f"round {n}, {exc}", witness=exc.witness, excess=exc.excess) from exc
        deltas = compute_delta(f_prev, anchored, n, config.epsilon, config.delta_min)
        tables.append(blend_round(f_prev, anchored, deltas))
        displaced = float(np.linalg.norm(tables[-1] - f_prev, axis=1).max())
        rounds.append(RoundRecord(n, dict(zip(new.tolist(), deltas.tolist())), displaced))
    return SelectionSequence(phi, config, entry, np.stack(tables), rounds)


def verify_round_properties(seq: SelectionSequence, n: int) -> Dict[str, dict]:
    """Re-check the guarantees of round ``n`` against the stored tables,
    each as a record ``{"passed", "worst", "detail"}`` keyed by its name:

    * selection membership of ``f_n`` at every point,
    * the ``2^-n eps`` sup-displacement bound,
    * the anchored ``alpha`` bound on each new anchor's closed delta-ball,
    * no row that round ``n`` changed lies in the open ``2^-n``-ball of a
      member of ``B_(n-1)``: over all rounds, ``f_k .. f_n`` coincide
      bitwise on the open ``2^-n``-ball of each anchor of round ``k``.

    Round ``n`` is read off the whole-run pass of :func:`_round_checks`,
    which measures only ``f_n`` against its bodies.  Failures are
    reported, never thrown.
    """
    if not 1 <= n <= len(seq.rounds):
        raise PreconditionError(f"round {n} was never executed")
    member = np.zeros(seq.tables.shape[:2])
    member[n] = seq.correspondence.distances(np.arange(len(seq.space)), seq.tables[n])
    return _round_checks(seq, member, changed_rows(seq.tables))[0][n - 1]


def _round_checks(seq: SelectionSequence, member: np.ndarray, changed: np.ndarray) -> tuple:
    """The checks of :func:`verify_round_properties` on every round, and the
    least separation margin between the supports of one round, given the
    ``(T, N)`` body distance of each row of each table, ``member``, and the
    mask of the rows each round changed, ``changed`` (:func:`changed_rows`).
    Each check is one pass over the run, read round by round."""
    space, tables, n_rounds = seq.space, seq.tables, len(seq.rounds)
    worst_point = member[1:].argmax(axis=1)
    worst_member = member[1:][np.arange(n_rounds), worst_point]

    # an unchanged row is displaced by 0.0 exactly; t is the round less 1
    t, moved = np.divmod(np.flatnonzero(changed[1:]), len(space))
    sup_change = np.zeros(n_rounds)
    np.maximum.at(sup_change, t, np.linalg.norm(tables[t + 1, moved] - tables[t, moved], axis=1))

    # every round's new anchors in one block of rows, each with its radius
    # and round; the (anchor, point) pairs of the closed delta-balls are cut
    # by round, and the first anchor that attains a round's worst excess is
    # reported
    anchors = np.array([b for record in seq.rounds for b in record.deltas], dtype=np.intp)
    radii = np.array([d for record in seq.rounds for d in record.deltas.values()])
    of_round = np.repeat(np.arange(1, n_rounds + 1), [len(record.deltas) for record in seq.rounds])
    block = space.rows(anchors)
    owner, rows = np.divmod(np.flatnonzero(block <= radii[:, None]), len(space))
    at = of_round[owner]
    excess = np.linalg.norm(tables[at, rows] - tables[at, anchors[owner]], axis=1) - seq.config.alpha * block[owner, rows]
    cuts = np.searchsorted(at, np.arange(1, n_rounds + 2)).tolist()
    i, j = np.nonzero(np.triu(of_round[:, None] == of_round, 1))
    margin = float((block[i, anchors[j]] - 2.0 * (radii[i] + radii[j])).min(initial=math.inf))

    # round n moves a row only outside the open 2^-n-ball of every member of
    # B_(n-1): the first sizes[n - 1] rows of B_(R-1) in order of entry
    members = round_members(seq.entry, n_rounds - 1)
    members = members[np.argsort(seq.entry[members], kind="stable")]
    protecting = space.rows(members)
    sizes = np.searchsorted(seq.entry[members], np.arange(n_rounds), side="right").tolist()

    checks = []
    for n in range(1, n_rounds + 1):
        bound, worst = 2.0 ** (-n) * seq.config.epsilon, float(worst_member[n - 1])
        displaced, point = float(sup_change[n - 1]), (int(worst_point[n - 1]) if worst > 0.0 else None)
        pairs, worst_excess, worst_anchor = excess[cuts[n - 1] : cuts[n]], 0.0, None
        if pairs.size and pairs.max() > 0.0:
            p = cuts[n - 1] + int(np.argmax(pairs))
            worst_excess, worst_anchor = float(excess[p]), int(anchors[owner[p]])
        mismatches = int(np.count_nonzero(protecting[: sizes[n - 1], changed[n]] < 2.0 ** (-n)))
        checks.append({
            "selection_membership": dict(
                passed=worst <= MEMBERSHIP_TOL, worst=worst, detail=f"max body distance {worst:.3e} at {point!r}"),
            "sup_change_bound": dict(
                passed=displaced <= bound + BOUND_SLACK, worst=displaced,
                detail=f"sup displacement {displaced:.3e} vs bound {bound:.3e}"),
            "anchored_strong_bound": dict(
                passed=worst_excess <= BOUND_SLACK, worst=worst_excess,
                detail=f"worst excess {worst_excess:.3e} (anchor {worst_anchor!r})"),
            "earlier_anchor_coincidence": dict(
                passed=mismatches == 0, worst=float(mismatches),
                detail=f"{mismatches} table entries differ on protected balls"),
        })
    return checks, margin


def _membership(phi: Correspondence, tables: np.ndarray, changed: np.ndarray) -> np.ndarray:
    """The ``(T, N)`` body distance of every row of the ``(T, N, d)``
    ``tables``, measured in one kernel call over the rows ``changed`` marks
    (:func:`changed_rows`); an unchanged row has the bits, and so the
    distance, of the row last measured."""
    t, i = np.nonzero(changed)
    measured = np.empty(changed.shape)
    measured[t, i] = phi.distances(i, tables[t, i])
    last = np.maximum.accumulate(np.where(changed, np.arange(len(changed))[:, None], 0), axis=0)
    return measured[last, np.arange(changed.shape[1])]


def verify_sequence(seq: SelectionSequence) -> dict:
    """Whole-run audit: per-round properties plus the cross-round invariants
    (selection closure including ``f_0``, telescoped Cauchy bounds over
    every pair of tables, anchors frozen after entry, stored metadata
    consistent with the space and the tables, disjoint supports).  Rounds
    are audited by position; ``stored_metadata`` reports the sequence's
    ``metadata_problems`` and each round whose stored ``sup_change`` is not
    bitwise the displacement its round check recomputed.

    The rows of ``f_0`` and the rows each round changed
    (:func:`changed_rows`) are measured against their bodies in one
    :meth:`~lipselect.correspondence.Correspondence.distances` call, and
    each table's membership carries a row's last measured distance; a
    round's displacement is taken over the rows it changed.  The mask also
    serves the coincidence and frozen-anchor checks.

    Returns the body of the ``verify`` report: ``{"rounds": [{"n",
    "checks", "passed"}], "sequence_checks", "passed"}``, every check a
    record as :func:`verify_round_properties` gives it, bit for bit."""
    changed = changed_rows(seq.tables)
    member = _membership(seq.correspondence, seq.tables, changed)
    rounds, problems = [], list(seq.metadata_problems)
    per_round, min_margin = _round_checks(seq, member, changed)
    for n, (record, round_checks) in enumerate(zip(seq.rounds, per_round), 1):
        rounds.append({"n": n, "checks": round_checks, "passed": all(c["passed"] for c in round_checks.values())})
        recomputed = round_checks["sup_change_bound"]["worst"]
        if record.sup_change.hex() != recomputed.hex():
            problems.append(f"round {n}: sup_change differs from the recomputed {recomputed!r} by {record.sup_change - recomputed:.3e}")
    checks: Dict[str, dict] = {}

    worst = float(member.max())
    checks["selection_closure"] = dict(
        passed=worst <= MEMBERSHIP_TOL,
        worst=worst,
        detail=f"max body distance over all rounds {worst:.3e}",
    )

    # each pair of tables: one pass per start table f_n against the running
    # sums of sup_change, left to right (forged values may overflow them)
    sup_changes = np.array([record.sup_change for record in seq.rounds])
    worst_gap = 0.0
    with np.errstate(over="ignore"):
        for n in range(len(seq.rounds)):
            direct = np.linalg.norm(seq.tables[n + 1 :] - seq.tables[n], axis=2).max(axis=1)
            worst_gap = max(worst_gap, float((direct - np.cumsum(sup_changes[n:])).max()))
    checks["telescoping"] = dict(
        passed=worst_gap <= 1e-12,
        worst=worst_gap,
        detail=f"max excess of direct sup over telescoped sum {worst_gap:.3e}",
    )

    # the row of an anchor changes in no round after the one it entered
    after_entry = np.arange(len(seq.tables))[:, None] > seq.entry
    frozen_violations = int(np.count_nonzero(changed & after_entry & (seq.entry > 0)))
    checks["eventually_constant_anchors"] = dict(
        passed=frozen_violations == 0,
        worst=float(frozen_violations),
        detail=f"{frozen_violations} anchor values moved after entry",
    )

    checks["stored_metadata"] = dict(
        passed=not problems,
        worst=float(len(problems)),
        detail="; ".join(problems[:3]) or "hierarchy, rounds and radii match the space",
    )

    checks["support_disjointness"] = dict(
        passed=min_margin >= 0.0,
        worst=0.0 if min_margin == math.inf else min_margin,
        detail="min separation margin between adjustment supports",
    )
    passed = all(r["passed"] for r in rounds) and all(c["passed"] for c in checks.values())
    return {"rounds": rounds, "sequence_checks": checks, "passed": passed}
