"""Independent checks of the verbs' outputs, in the benchmark's own code.

The program's exit code is not enough: ``verify`` passes a forged sequence
whose hierarchy is emptied, so a change that skipped anchors would still
exit 0.  These checks recompute what the reports claim from the generated
inputs alone.  Each returns a list of problems; an empty list passes.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from workloads import Instance, read_tau_csv

MEMBERSHIP_TOL = 1e-8
DISPLACEMENT_SLACK = 1e-9
IDENTITY_TOL = 1e-8
GAMMA_TOL = 1e-10
ESTIMATE_RTOL = 1e-9
INFORMATIVE_COUNT = 3


def greedy_hierarchy(points: np.ndarray, rounds: int) -> List[List[int]]:
    """Nested greedy maximal separations at radii ``2^-(n-1)``, by a plain
    scan in index order: a point joins when it is at least ``r`` away from
    every member so far."""
    hierarchy: List[List[int]] = []
    members: List[int] = []
    for n in range(1, rounds + 1):
        r = 2.0 ** (-(n - 1))
        members = list(members)
        for i in range(len(points)):
            if i in members:
                continue
            if not members or np.linalg.norm(points[members] - points[i], axis=1).min() >= r:
                members.append(i)
        members.sort()
        hierarchy.append(members)
    return hierarchy


def _selection_array(doc: dict, n_points: int) -> np.ndarray:
    values = doc["values"]
    return np.array([values[str(a)] for a in range(n_points)], dtype=float)


def _member_excess(inst: Instance, x: np.ndarray) -> float:
    """Largest violation of ``x[a]`` lying in the body at ``a``."""
    e = inst.expect
    if inst.name == "balls":
        return float((np.linalg.norm(x - e["centers"], axis=1) - e["radii"]).max())
    # polytope normals are unit vectors, so the slack is a distance bound
    return float((np.einsum("ij,aj->ai", e["normals"], x) - e["offsets"]).max())


def check_select(inst: Instance, report: dict) -> List[str]:
    """The ``select`` report of a ball or polytope workload."""
    e = inst.expect
    rounds = e["rounds"]
    problems: List[str] = []
    if report.get("passed") is not True:
        problems.append("select report does not pass")
    seq = report["sequence"]
    if len(seq["rounds"]) != rounds or len(seq["hierarchy"]["rounds"]) != rounds:
        return problems + [f"expected {rounds} rounds"]
    if len(seq["selections"]) != rounds + 1:
        return problems + ["expected one selection per round plus f0"]
    expected = greedy_hierarchy(e["points"], rounds)
    prev: List[int] = []
    for n, (rd, hrd, members) in enumerate(zip(seq["rounds"], seq["hierarchy"]["rounds"], expected), 1):
        if rd["B"] != members or hrd["B"] != members:
            problems.append(f"round {n}: B differs from the recomputed hierarchy")
        new = [b for b in rd["B"] if b not in set(prev)]
        if rd["new"] != new:
            problems.append(f"round {n}: new is not B_n minus B_(n-1)")
        if sorted(rd["deltas"]) != sorted(str(b) for b in rd["new"]):
            problems.append(f"round {n}: deltas do not match the new anchors")
        # no locality radius is set through the CLI, so r_b is unbounded
        upper = 2.0 ** (-(n + 1)) / 2.0
        for b, delta in rd["deltas"].items():
            if not e["delta_min"] <= delta <= upper:
                problems.append(f"round {n}: delta {delta} at {b} outside [{e['delta_min']}, {upper}]")
        prev = rd["B"]
    n_points = len(e["points"])
    tables = [_selection_array(s, n_points) for s in seq["selections"]]
    for n in range(1, rounds + 1):
        moved = float(np.linalg.norm(tables[n] - tables[n - 1], axis=1).max())
        if moved > 2.0 ** (-n) * e["epsilon"] + DISPLACEMENT_SLACK:
            problems.append(f"round {n}: displacement {moved} over 2^-n epsilon")
    excess = _member_excess(inst, tables[-1])
    if excess > MEMBERSHIP_TOL:
        problems.append(f"final selection leaves its values by {excess}")
    return problems


def check_verify(inst: Instance, report: dict) -> List[str]:
    problems = [] if report.get("passed") is True else ["verify report does not pass"]
    if len(report.get("rounds", [])) != inst.expect["rounds"]:
        problems.append("verify report does not cover every round")
    return problems


def check_bartle_graves(inst: Instance, report: dict) -> List[str]:
    e = inst.expect
    problems = [] if report.get("passed") is True else ["bartle-graves report does not pass"]
    sigma_min = float(np.linalg.svd(e["matrix"], compute_uv=False)[-1])
    if not abs(report["gamma"] - sigma_min) <= GAMMA_TOL:
        problems.append(f"gamma {report['gamma']} differs from sigma_min {sigma_min}")
    if report["dense_set"] != greedy_hierarchy(e["points"], e["rounds"])[-1]:
        problems.append("dense set differs from the recomputed last round")
    tau = read_tau_csv(inst.workdir / "tau.csv")
    if tau.shape != (len(e["points"]), e["matrix"].shape[1]):
        return problems + [f"tau table has shape {tau.shape}"]
    residual = float(np.linalg.norm(tau @ e["matrix"].T - e["points"], axis=1).max())
    if residual > IDENTITY_TOL:
        problems.append(f"T tau(y) misses y by {residual} on the sampled directions")
    return problems


def plip_estimates(directions: np.ndarray, tau: np.ndarray, points, radii) -> Dict[str, float]:
    """Closed-ball ratio estimates, the largest over the smallest
    ``INFORMATIVE_COUNT`` radii whose ball holds another point."""
    out = {}
    for k in points:
        dist = np.linalg.norm(directions - directions[k], axis=1)
        dev = np.linalg.norm(tau - tau[k], axis=1)
        ratios = []
        for r in radii:
            inside = dist <= r
            if np.count_nonzero(inside) > 1:
                ratios.append(float(dev[inside].max()) / r)
        out[str(k)] = max(ratios[-INFORMATIVE_COUNT:])
    return out


def check_plip(inst: Instance, report: dict, dense_set) -> List[str]:
    tau = read_tau_csv(inst.workdir / "tau.csv")
    expected = plip_estimates(inst.expect["points"], tau, dense_set, report["radii"])
    got = report.get("estimates", {})
    if sorted(got) != sorted(expected):
        return ["plip estimates do not cover the dense set"]
    worst = max(
        abs(got[k] - v) / max(1.0, abs(v)) for k, v in expected.items()
    ) if expected else 0.0
    if not worst <= ESTIMATE_RTOL:
        return [f"plip estimates differ from the recomputed ones by {worst}"]
    return []


def check_solve(inst: Instance, report: dict) -> List[str]:
    if inst.name == "bartle-graves":
        return check_bartle_graves(inst, report)
    return check_select(inst, report)


def check_read(inst: Instance, report: dict, solve_report: dict) -> List[str]:
    if inst.name == "bartle-graves":
        return check_plip(inst, report, solve_report["dense_set"])
    return check_verify(inst, report)


class Determinism:
    """Output bytes of each (verb, file) must repeat exactly for one seed."""

    def __init__(self):
        self._first: Dict[str, bytes] = {}

    def check(self, key: str, data: bytes) -> List[str]:
        first = self._first.setdefault(key, data)
        if first == data:
            return []
        at = next(
            (i for i, (a, b) in enumerate(zip(first, data)) if a != b),
            min(len(first), len(data)),
        )
        return [f"{key}: bytes differ from the first repeat at offset {at}"]

