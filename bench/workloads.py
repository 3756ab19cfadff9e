"""Seeded input documents for the benchmark workloads.

Every workload is a pure function of its seed: the same seed writes the
same bytes.  The program only ever sees the documents written here.

* ``balls``: the moving-ball family of ``tests/conftest.py`` regenerated
  here, on a fine grid.  Ball projection is closed form, so the per-point
  Python loops of the anchored selection and the delta search dominate.
* ``polytopes``: one fixed H-polytope translated along a line, started
  next to its boundary so that most anchored projections run Dykstra's
  method.  It bypasses the per-point overhead that ``balls`` stresses.
* ``bartle-graves``: the right-inverse pipeline of a Gaussian 3x6 matrix.
  It covers inverse-image flats and the ray probing of the homogeneous
  extension; neither balls nor Dykstra's method appear in it.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

import numpy as np

WORKLOADS = ("balls", "polytopes", "bartle-graves")
POLYTOPE_SHAPE_SEED = 5
START_INSET = 1e-6  # distance scale, far above roundoff, far below delta

# full sizes are the measured ones; tiny sizes serve the warm-up and the
# self-test, and must run the same code paths.  A full solve takes one to
# two seconds, so that a run holds enough repeats for a steady median on a
# machine whose speed wanders by 15% from one second to the next.
SIZES = {
    "balls": {"full": dict(n_points=1025, rounds=7), "tiny": dict(n_points=65, rounds=4)},
    "polytopes": {"full": dict(n_points=257, rounds=6), "tiny": dict(n_points=33, rounds=3)},
    "bartle-graves": {
        "full": dict(sphere_count=256, rounds=4),
        "tiny": dict(sphere_count=48, rounds=2),
    },
}


@dataclass
class Instance:
    """Documents of one workload at one seed, plus what the checks need.

    ``solve_argv`` runs the constructing verb; ``read_argv(report)`` writes
    what the read path needs from the solve report and returns the argv of
    the verb that re-checks the stored output.
    """

    name: str
    seed: int
    workdir: Path
    solve_argv: List[str]
    expect: Dict = field(default_factory=dict)

    def read_argv(self, report: dict) -> List[str]:
        if self.name == "bartle-graves":
            return _plip_read_path(self.workdir, report)
        return _verify_read_path(self.workdir, report)


def _write(path: Path, doc) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _grid(n_points: int) -> np.ndarray:
    return np.arange(n_points, dtype=float) / (n_points - 1)


def _select_argv(workdir: Path, corr: str, it: str, f0: str = None) -> List[str]:
    argv = ["select", "--correspondence", corr, "--iteration", it]
    if f0 is not None:
        argv += ["--f0", f0]
    return argv + ["--out", str(workdir / "select.json")]


def _verify_read_path(workdir: Path, report: dict) -> List[str]:
    """``verify`` re-parses the stored sequence, which ``select`` embeds in
    its report."""
    sequence = _write(workdir / "sequence.json", report["sequence"])
    return [
        "verify",
        "--correspondence", str(workdir / "correspondence.json"),
        "--sequence", sequence,
        "--out", str(workdir / "verify.json"),
    ]


def balls(seed: int, workdir: Path, n_points: int, rounds: int, dim: int = 2) -> Instance:
    """Centers and radii move linearly in t with Lipschitz budget
    0.15 + 0.10 <= alpha = 0.25; f0 is the center selection (the CLI
    default for balls)."""
    rng = np.random.default_rng(seed)
    t = _grid(n_points)
    c0 = rng.normal(size=dim)
    v = rng.normal(size=dim)
    v *= 0.15 / np.linalg.norm(v)
    rho0 = float(rng.uniform(0.3, 0.5))
    w = float(rng.uniform(-0.1, 0.1))
    centers = [c0 + v * ti for ti in t]
    radii = [rho0 + w * ti for ti in t]
    corr = _write(
        workdir / "correspondence.json",
        {
            "space": {"metric": "l2", "points": [[float(ti)] for ti in t]},
            "bodies": {
                str(i): {"kind": "ball", "center": centers[i].tolist(), "radius": radii[i]}
                for i in range(n_points)
            },
        },
    )
    it = _write(workdir / "iteration.json", {"alpha": 0.25, "beta": 1.25, "rounds": rounds})
    return Instance(
        name="balls",
        seed=seed,
        workdir=workdir,
        solve_argv=_select_argv(workdir, corr, it),
        expect={
            "points": t[:, None],
            "rounds": rounds,
            "epsilon": (1.25 - 0.25) / 3.0,
            "delta_min": 1e-9,
            "centers": np.array(centers),
            "radii": np.array(radii),
        },
    )


def exact_polytope_projection(normals: np.ndarray, offsets: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Euclidean projection onto ``{x : normals @ x <= offsets}`` by
    enumerating active sets of at most ``dim`` halfspaces.

    The projection is the nearest feasible point among the projections onto
    the affine hulls of the faces, so no multiplier test is needed.  Meant
    for a handful of halfspaces in low dimension.
    """
    if np.all(normals @ y <= offsets):
        return y.copy()
    best, best_dist = None, np.inf
    dim = normals.shape[1]
    for k in range(1, dim + 1):
        for rows in itertools.combinations(range(len(offsets)), k):
            A, b = normals[list(rows)], offsets[list(rows)]
            gram = A @ A.T
            if abs(np.linalg.det(gram)) < 1e-12:
                continue
            x = y - A.T @ np.linalg.solve(gram, A @ y - b)
            if np.all(normals @ x <= offsets + 1e-12):
                dist = float(np.linalg.norm(x - y))
                if dist < best_dist:
                    best, best_dist = x, dist
    return best


def _cut_normal(rng, signs) -> np.ndarray:
    n = signs + 0.3 * rng.normal(size=3)
    return n / np.linalg.norm(n)


def random_rotation(rng) -> np.ndarray:
    """Haar-distributed 3x3 rotation (QR of a Gaussian, signs fixed)."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def polytopes(seed: int, workdir: Path, n_points: int, rounds: int) -> Instance:
    """An axis box with half-extents in [0.5, 1] cut by two oblique unit
    halfspaces with offsets in [0.3, 0.6], translated by ``t v`` with
    ``|v| = 0.15 <= alpha = 0.25``.

    The shape, ``v`` and the start point are drawn once from a fixed seed,
    and ``seed`` turns the whole configuration by a random rotation.  The
    number of Dykstra sweeps is rotation invariant but swings several-fold
    between shapes, which would make the run time depend on the seed.
    ``f0`` translates the projection of ``3 u`` for a unit ``u``, moved
    ``START_INSET`` inside; the default witness start would lie deep inside
    and make every projection trivial.  The shape is seed 5 of the family,
    one on which most anchored projections run Dykstra's method.
    """
    shape = np.random.default_rng(POLYTOPE_SHAPE_SEED)
    extents = shape.uniform(0.5, 1.0, size=3)
    patterns = np.array(list(itertools.product((-1.0, 1.0), repeat=3)))
    first = int(shape.integers(8))
    # a second diagonal that is neither the first nor its opposite, so the
    # two cuts do not meet at a narrow angle
    others = [j for j in range(8) if j != first and j != 7 - first]
    second = others[int(shape.integers(len(others)))]
    cuts = np.stack([_cut_normal(shape, patterns[first]), _cut_normal(shape, patterns[second])])
    cut_offsets = shape.uniform(0.3, 0.6, size=2)
    v = shape.normal(size=3)
    v *= 0.15 / np.linalg.norm(v)
    u = shape.normal(size=3)
    u /= np.linalg.norm(u)

    Q = random_rotation(np.random.default_rng(seed))
    normals = np.vstack([np.eye(3), -np.eye(3), cuts]) @ Q.T
    offsets = np.concatenate([extents, extents, cut_offsets])
    v = Q @ v
    p = exact_polytope_projection(normals, offsets, 3.0 * (Q @ u))
    # a hair toward the interior point 0: from a start exactly on the
    # boundary, roundoff decides each membership test, which swings the
    # number of Dykstra runs several-fold between rotations
    p *= 1.0 - START_INSET / np.linalg.norm(p)

    t = _grid(n_points)
    bodies, f0 = {}, {}
    shifted_offsets = []
    for i, ti in enumerate(t):
        shift = ti * v
        off_i = offsets + normals @ shift
        shifted_offsets.append(off_i)
        bodies[str(i)] = {
            "kind": "polytope",
            "halfspaces": [
                {"normal": normals[j].tolist(), "offset": float(off_i[j])}
                for j in range(len(offsets))
            ],
            "witness": shift.tolist(),
        }
        f0[str(i)] = (p + shift).tolist()
    corr = _write(
        workdir / "correspondence.json",
        {"space": {"metric": "l2", "points": [[float(ti)] for ti in t]}, "bodies": bodies},
    )
    it = _write(workdir / "iteration.json", {"alpha": 0.25, "beta": 1.25, "rounds": rounds})
    f0_path = _write(workdir / "f0.json", {"values": f0})
    return Instance(
        name="polytopes",
        seed=seed,
        workdir=workdir,
        solve_argv=_select_argv(workdir, corr, it, f0_path),
        expect={
            "points": t[:, None],
            "rounds": rounds,
            "epsilon": (1.25 - 0.25) / 3.0,
            "delta_min": 1e-9,
            "normals": normals,
            "offsets": np.array(shifted_offsets),
        },
    )


def sphere_directions(m: int, count: int, seed: int, dedup_tol: float = 1e-6) -> np.ndarray:
    """Seeded normalized Gaussian draws on the unit sphere of ``R^m``
    (``m >= 3``), skipping draws within ``dedup_tol`` of an earlier one;
    the documented sampling rule of the ``bartle-graves`` verb."""
    rng = np.random.default_rng(seed)
    rows: List[np.ndarray] = []
    while len(rows) < count:
        v = rng.normal(size=m)
        nrm = np.linalg.norm(v)
        if nrm == 0.0:
            continue
        v = v / nrm
        if rows and np.min(np.linalg.norm(np.array(rows) - v, axis=1)) < dedup_tol:
            continue
        rows.append(v)
    return np.stack(rows)


def bartle_graves(seed: int, workdir: Path, sphere_count: int, rounds: int) -> Instance:
    """A Gaussian 3x6 matrix with ``beta = 1 / sigma_min + 0.5``.

    The read path is ``plip`` on the stored sphere table at the dense-set
    directions: the verb emits no selection sequence for ``verify``.
    """
    rng = np.random.default_rng(seed)
    T = rng.normal(size=(3, 6))
    sigma_min = float(np.linalg.svd(T, compute_uv=False)[-1])
    beta = 1.0 / sigma_min + 0.5
    directions = sphere_directions(3, sphere_count, seed)
    matrix = _write(workdir / "matrix.json", {"matrix": T.tolist()})
    _write(workdir / "sphere.json", {"metric": "l2", "points": directions.tolist()})
    solve = [
        "bartle-graves", "--matrix", matrix, "--beta", repr(beta),
        "--rounds", str(rounds), "--sphere-count", str(sphere_count),
        "--seed", str(seed), "--tau-csv", str(workdir / "tau.csv"),
        "--out", str(workdir / "bartle_graves.json"),
    ]
    return Instance(
        name="bartle-graves",
        seed=seed,
        workdir=workdir,
        solve_argv=solve,
        expect={"matrix": T, "beta": beta, "rounds": rounds, "points": directions},
    )


def read_tau_csv(path: Path) -> np.ndarray:
    """Rows of the ``--tau-csv`` table in point-id order."""
    lines = path.read_text(encoding="ascii").splitlines()[1:]
    return np.array([[float(x) for x in line.split(",")[1:]] for line in lines])


def _plip_read_path(workdir: Path, report: dict) -> List[str]:
    """``plip`` on the stored sphere table, at the certified dense set."""
    tau = read_tau_csv(workdir / "tau.csv")
    table = _write(
        workdir / "tau.json", {"values": {str(k): row.tolist() for k, row in enumerate(tau)}}
    )
    return [
        "plip", "--space", str(workdir / "sphere.json"), "--table", table,
        "--points", ",".join(str(k) for k in report["dense_set"]),
        "--out", str(workdir / "plip.json"),
    ]


BUILDERS = {"balls": balls, "polytopes": polytopes, "bartle-graves": bartle_graves}


def build(name: str, seed: int, workdir: Path, size: str = "full") -> Instance:
    workdir.mkdir(parents=True, exist_ok=True)
    return BUILDERS[name](seed, workdir, **SIZES[name][size])
