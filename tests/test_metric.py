import itertools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import lipselect as ls
from lipselect.errors import PreconditionError, SchemaError

from conftest import distance, line_space, seeded_separation, segment_instance
from lipselect import metric
from lipselect.formats import hierarchy_to_dict
from lipselect.metric import BLOCK_ROWS


def brute_force_is_maximal_separation(space, members, r):
    """Oracle: pairwise >= r, and no point of the space can be added."""
    members = set(members)
    for a, b in itertools.combinations(members, 2):
        if distance(space, a, b) < r:
            return False
    for a in range(len(space)):
        if a in members:
            continue
        if all(distance(space, a, b) >= r for b in members):
            return False
    return True


class TestDistance:
    def test_l2_pythagorean(self):
        space = ls.SampledMetricSpace("l2", coords=[[0, 0], [3, 4]])
        assert space.rows([0])[0, 1] == 5.0

    def test_identity(self, four_point_line):
        assert four_point_line.rows([2])[0, 2] == 0.0

    def test_l1(self):
        space = ls.SampledMetricSpace("l1", coords=[[0, 0], [3, 4]])
        assert space.rows([0])[0, 1] == 7.0

    def test_linf(self):
        space = ls.SampledMetricSpace("linf", coords=[[0, 0], [3, 4]])
        assert space.rows([0])[0, 1] == 4.0

    def test_unknown_id(self, four_point_line):
        # a negative row must not wrap around to the end
        for bad in ("nope", -1, 4):
            with pytest.raises(SchemaError, match=rf"unknown point id {re.escape(repr(bad))}$"):
                four_point_line.rows([bad])

    def test_explicit_requires_matrix(self):
        with pytest.raises(SchemaError, match="metric kind 'explicit' requires a distance matrix$"):
            ls.SampledMetricSpace("explicit")

    def test_explicit_lookup(self):
        mat = [[0.0, 2.0], [2.0, 0.0]]
        space = ls.SampledMetricSpace("explicit", explicit_distances=mat)
        assert space.rows([0])[0, 1] == 2.0

    def test_explicit_asymmetric_rejected(self):
        with pytest.raises(PreconditionError):
            ls.SampledMetricSpace("explicit", explicit_distances=[[0.0, 2.0], [1.0, 0.0]])

    def test_triangle_validation(self):
        mat = [[0, 1, 5], [1, 0, 1], [5, 1, 0]]  # 5 > 1 + 1
        space = ls.SampledMetricSpace("explicit", explicit_distances=mat)
        with pytest.raises(PreconditionError, match=r"triple \(0, 1, 2\)"):
            space.validate_triangle_inequality()

    def test_parsed_explicit_space_must_be_a_metric(self):
        doc = {"metric": "explicit", "distances": [[0.0, 0.1, 1.0], [0.1, 0.0, 0.1], [1.0, 0.1, 0.0]]}
        with pytest.raises(PreconditionError, match="triangle inequality"):
            ls.SampledMetricSpace.from_json_dict(doc)


def triangle_failures(mat):
    """The pairs ``i <= j`` of the per-``k`` loop over all triples that
    break the triangle inequality, in row order."""
    bad = np.zeros(mat.shape, dtype=bool)
    for k in range(len(mat)):
        bad |= mat > mat[:, k, None] + mat[None, k, :]
    return np.argwhere(np.triu(bad)).tolist()


@seed(17)
@settings(max_examples=25, deadline=None)
@given(st.integers(3, 2 * BLOCK_ROWS + 5), st.integers(0, 2**32 - 1), st.booleans())
def test_blocked_triangle_check_equals_the_per_k_loop(n, matrix_seed, bend):
    """Distances drawn from [1, 1.5] make a metric.  Bending a triple to
    ``d(i, k) = d(k, j) = 0.5`` and ``d(i, j) = 1.25`` breaks the inequality
    through ``k`` alone, for the pair ``(i, j)`` alone: over several blocks
    of rows the check fails exactly when the per-``k`` loop does, and
    names that triple."""
    rng = np.random.default_rng(matrix_seed)
    mat = np.triu(rng.uniform(1.0, 1.5, size=(n, n)), 1)
    mat += mat.T
    if bend:
        i, k, j = rng.choice(n, size=3, replace=False)
        mat[i, k] = mat[k, i] = mat[k, j] = mat[j, k] = 0.5
        mat[i, j] = mat[j, i] = 1.25
    space = ls.SampledMetricSpace("explicit", explicit_distances=mat)
    if bend:
        assert triangle_failures(mat) == [sorted([int(i), int(j)])]
        with pytest.raises(PreconditionError, match=f"triple \\({min(i, j)}, {k}, {max(i, j)}\\)"):
            space.validate_triangle_inequality()
    else:
        assert triangle_failures(mat) == []
        space.validate_triangle_inequality()


def ball(space, b, r, closed=True):
    """The sampled ball around ``b`` as ``plip_profile`` sees it: a point
    ``a`` lies inside when its indicator table has a nonzero ratio at
    ``r`` (the schedule starts past every distance, so ``b`` resolves)."""
    inside = {b}
    for a in set(range(len(space))) - {b}:
        indicator = (np.arange(len(space)) == a).astype(float)
        profile = ls.plip_profile(indicator, space, [b], [1e9, r], closed=closed)
        if profile.ratios[0, 1] > 0.0:
            inside.add(a)
    return inside


class TestBallPoints:
    def test_closed(self, four_point_line):
        assert ball(four_point_line, 0, 0.5, closed=True) == {0, 1}

    def test_open_excludes_boundary(self, four_point_line):
        assert ball(four_point_line, 0, 0.3, closed=False) == {0}

    def test_radius_beyond_diameter(self, four_point_line):
        # by the triangle inequality no distance exceeds twice the largest from 0
        r = 2.0 * four_point_line.rows([0])[0].max() + 1.0
        assert ball(four_point_line, 2, r, closed=True) == {0, 1, 2, 3}


class TestGreedySeparation:
    def test_unseeded(self, four_point_line):
        members = ls.greedy_maximal_separation(four_point_line, 0.5)
        assert set(members) == {0, 2}
        assert brute_force_is_maximal_separation(four_point_line, members, 0.5)

    def test_seeded(self, four_point_line):
        members = seeded_separation(four_point_line, 0.5, seed=[3])
        assert set(members) == {3, 0}
        assert brute_force_is_maximal_separation(four_point_line, members, 0.5)

    def test_radius_beyond_diameter(self, four_point_line):
        members = ls.greedy_maximal_separation(four_point_line, 2.0)
        assert members == (0,)

    def test_brute_force_all_radii(self, four_point_line):
        for r in (0.2, 0.25, 0.3, 0.35, 0.5, 0.7, 1.0):
            members = ls.greedy_maximal_separation(four_point_line, r)
            assert brute_force_is_maximal_separation(four_point_line, members, r)

    def test_determinism(self, four_point_line):
        a = ls.greedy_maximal_separation(four_point_line, 0.5)
        b = ls.greedy_maximal_separation(four_point_line, 0.5)
        assert a == b


class TestHierarchy:
    def test_four_point_round_one(self, four_point_line):
        entry = ls.build_separation_hierarchy(four_point_line, 1)
        assert entry.tolist() == [1, 0, 0, 1]
        assert ls.round_members(entry, 1).tolist() == [0, 3]

    def test_singleton(self):
        space = ls.SampledMetricSpace("l2", coords=[[0.0]])
        entry = ls.build_separation_hierarchy(space, 3)
        assert all(ls.round_members(entry, n).tolist() == [0] for n in (1, 2, 3))

    def test_four_point_three_rounds(self, four_point_line):
        entry = ls.build_separation_hierarchy(four_point_line, 3)
        assert entry.tolist() == [1, 3, 3, 1]
        assert ls.round_members(entry, 3).tolist() == [0, 1, 2, 3]

    def test_invariants(self, four_point_line):
        entry = ls.build_separation_hierarchy(four_point_line, 4)
        prev = set()
        prev_cover = float("inf")
        for n in range(1, 5):
            r, members = 2.0 ** (-(n - 1)), ls.round_members(entry, n).tolist()
            assert prev <= set(members)
            for a, b in itertools.combinations(members, 2):
                assert distance(four_point_line, a, b) >= r
            cover = ls.covering_radius(four_point_line, members)
            assert cover < r
            assert cover <= prev_cover
            prev, prev_cover = set(members), cover

    def test_rounds_must_be_positive(self, four_point_line):
        with pytest.raises(PreconditionError):
            ls.build_separation_hierarchy(four_point_line, 0)

    def test_a_radius_that_underflows_is_a_precondition_error(self, four_point_line):
        # 2^-1074 is the least subnormal double; 2^-1075 rounds to 0, at which
        # every point would be 0 >= r from itself and join again
        entry = ls.build_separation_hierarchy(four_point_line, 1075)
        assert entry.tolist() == [1, 3, 3, 1]
        with pytest.raises(PreconditionError, match="underflows"):
            ls.build_separation_hierarchy(four_point_line, 1076)
        # a round count beyond the doubles underflows too, without overflowing
        with pytest.raises(PreconditionError, match="underflows"):
            ls.build_separation_hierarchy(four_point_line, 10**400)


class TestCoveringRadius:
    def test_example(self, four_point_line):
        assert ls.covering_radius(four_point_line, [0, 2]) == pytest.approx(0.4, abs=1e-15)

    def test_all_points(self, four_point_line):
        assert ls.covering_radius(four_point_line, range(len(four_point_line))) == 0.0

    def test_two_point(self):
        space = line_space([0, 1.0])
        assert ls.covering_radius(space, [0]) == 1.0

    def test_empty_rejected(self, four_point_line):
        with pytest.raises(PreconditionError):
            ls.covering_radius(four_point_line, [])

    def test_brute_force(self, four_point_line):
        members = [1, 3]
        expected = max(
            min(distance(four_point_line, a, b) for b in members)
            for a in range(len(four_point_line))
        )
        assert ls.covering_radius(four_point_line, members) == expected


@seed(7)
@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
            st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
        ),
        min_size=1,
        max_size=24,
        unique=True,
    ),
    st.floats(min_value=0.05, max_value=3.0, allow_nan=False),
)
def test_greedy_separation_properties(points, r):
    space = ls.SampledMetricSpace("l2", coords=[list(p) for p in points])
    members = ls.greedy_maximal_separation(space, r)
    for a, b in itertools.combinations(members, 2):
        assert distance(space, a, b) >= r
    assert ls.covering_radius(space, members) < r


class TestJsonRoundTrip:
    def test_coordinate_space(self):
        doc = {"metric": "l2", "points": [[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]]}
        space = ls.SampledMetricSpace.from_json_dict(doc)
        assert len(space) == 3
        assert space.metric_kind == "l2" and space.coords.tolist() == doc["points"]

    def test_explicit_space(self):
        doc = {"metric": "explicit", "distances": [[0.0, 1.5], [1.5, 0.0]]}
        space = ls.SampledMetricSpace.from_json_dict(doc)
        assert space.metric_kind == "explicit" and space.distance_matrix().tolist() == doc["distances"]

    def test_bad_documents(self):
        with pytest.raises(SchemaError):
            ls.SampledMetricSpace.from_json_dict({"points": [[0.0]]})
        with pytest.raises(SchemaError):
            ls.SampledMetricSpace.from_json_dict({"metric": "l2"})
        with pytest.raises(SchemaError):
            ls.SampledMetricSpace.from_json_dict({"metric": "weird", "points": [[0.0]]})

    def test_hierarchy_export(self, four_point_line):
        doc = hierarchy_to_dict(ls.build_separation_hierarchy(four_point_line, 2), 2)
        assert [rd["n"] for rd in doc["rounds"]] == [1, 2]
        assert doc["rounds"][0]["n"] == 1
        assert doc["rounds"][0]["r"] == 1.0
        assert doc["rounds"][0]["B"] == [0, 3]


class TestSpaceValidation:
    def test_duplicate_coordinates_rejected(self):
        with pytest.raises(PreconditionError):
            ls.SampledMetricSpace("l2", coords=[[1.0], [1.0]])

    def test_empty_rejected(self):
        with pytest.raises(PreconditionError):
            ls.SampledMetricSpace("l2", coords=[])


def matrix_row_by_row(coords, metric):
    """The full matrix as coordinate spaces once built it, row by row."""
    ord_ = {"l1": 1, "l2": 2, "linf": np.inf}[metric]
    mat = np.empty((len(coords), len(coords)))
    for i in range(len(coords)):
        mat[i] = np.linalg.norm(coords - coords[i], ord=ord_, axis=1)
        mat[i, i] = 0.0
    return mat


def greedy_over_matrix(mat, r, seed=()):
    """Row-order greedy scan reading the full matrix, pair by pair."""
    members = sorted(set(seed))
    for i in range(len(mat)):
        if i not in members and all(mat[i, b] >= r for b in members):
            members.append(i)
    return tuple(sorted(members))


@pytest.mark.parametrize("metric", ["l1", "l2", "linf", "explicit"])
def test_entry_column_equals_the_chain_of_seeded_separations(metric):
    """The hierarchy column reproduces the chain it stands for: ``B_n`` is
    the greedy maximal ``2^-(n-1)``-separation seeded with ``B_(n-1)``, each
    point's entry the first round whose ``B_n`` holds it, 0 for none."""
    for space_seed in range(6):
        rng = np.random.default_rng(3000 + space_seed)
        coords = rng.uniform(0.0, 1.0, size=(int(rng.integers(20, 140)), int(rng.integers(1, 5))))
        if metric == "explicit":
            # the square root of a metric is a metric
            space = ls.SampledMetricSpace("explicit", explicit_distances=np.sqrt(matrix_row_by_row(coords, "l2")))
        else:
            space = ls.SampledMetricSpace(metric, coords=coords)
        entry = ls.build_separation_hierarchy(space, 6)
        assert entry.shape == (len(space),) and entry.dtype.kind == "i"
        chain, prev = np.zeros(len(space), dtype=int), ()
        for n in range(1, 7):
            members = seeded_separation(space, 2.0 ** (-(n - 1)), seed=prev)
            assert ls.round_members(entry, n).tolist() == list(members)
            chain[[b for b in members if b not in prev]] = n
            prev = members
        np.testing.assert_array_equal(entry, chain)


def scan_samples():
    """150-400-point samples on which the scan spans several blocks, each
    with the full matrix its oracle reads."""
    rng = np.random.default_rng(21)
    # dyadic: every distance is an exact multiple of 2^-7, so each radius
    # 2^-(n-1) of five rounds meets exact ties, which >= keeps
    grid = np.arange(385)[:, None] / 128.0
    clusters = rng.uniform(-1.0, 1.0, size=(6, 2))[rng.integers(6, size=300)] + rng.normal(scale=0.05, size=(300, 2))
    explicit = np.sqrt(matrix_row_by_row(rng.uniform(size=(160, 3)), "l2"))
    sphere = ls.sphere_sample(3, 256)
    return {
        "dyadic grid": (lambda: ls.SampledMetricSpace("l2", coords=grid), matrix_row_by_row(grid, "l2")),
        "sphere": (lambda: ls.SampledMetricSpace("l2", coords=sphere.coords), matrix_row_by_row(sphere.coords, "l2")),
        "l1 clusters": (lambda: ls.SampledMetricSpace("l1", coords=clusters), matrix_row_by_row(clusters, "l1")),
        "linf clusters": (lambda: ls.SampledMetricSpace("linf", coords=clusters), matrix_row_by_row(clusters, "linf")),
        "explicit": (lambda: ls.SampledMetricSpace("explicit", explicit_distances=explicit), explicit),
    }


SCAN_SAMPLES = scan_samples()


@pytest.mark.parametrize("name", list(SCAN_SAMPLES))
def test_blocked_scan_equals_the_oracle_across_blocks(name):
    """The hierarchy and the greedy separations, with and without seeds,
    equal the pair-by-pair scan over the full matrix; after the hierarchy
    a coordinate space keeps exactly the members' rows."""
    make, mat = SCAN_SAMPLES[name]
    space = make()
    among, blocks = space._among, []
    space._among = lambda rows: blocks.append(len(rows)) or among(rows)
    entry = ls.build_separation_hierarchy(space, 5)
    # more blocks than rounds, full ones among them
    assert len(blocks) > 5 and max(blocks) == BLOCK_ROWS
    if name != "explicit":
        assert sorted(space._rows) == np.flatnonzero(entry).tolist()
    prev = ()
    for n in range(1, 6):
        r = 2.0 ** (-(n - 1))
        members = greedy_over_matrix(mat, r, prev)
        assert ls.round_members(entry, n).tolist() == list(members)
        assert seeded_separation(make(), r, seed=prev) == members
        assert ls.greedy_maximal_separation(make(), r) == seeded_separation(make(), r) == greedy_over_matrix(mat, r)
        prev = members


def test_the_sphere_hierarchy_makes_at_most_two_kernel_calls_per_block(monkeypatch):
    """A block is one kernel call on at most ``BLOCK_ROWS`` candidates' own
    columns, then at most one for its joiners' rows: 16 blocks or fewer
    over 4 rounds of 256 points, where one call per member made 179."""
    space = ls.sphere_sample(3, 256)
    fold, calls = metric._fold, []

    def counting(columns, points, kind="l2", out=None):
        calls.append((columns.shape[1], len(points)))
        return fold(columns, points, kind, out)

    monkeypatch.setattr(metric, "_fold", counting)
    entry = ls.build_separation_hierarchy(space, 4)
    blocks = [i for i, (width, k) in enumerate(calls) if width == k <= BLOCK_ROWS]
    rows = [i for i, (width, _) in enumerate(calls) if width == len(space)]
    assert sorted(blocks + rows) == list(range(len(calls)))
    assert all(i - 1 in blocks for i in rows)
    assert sum(calls[i][1] for i in rows) == np.count_nonzero(entry) == 179
    assert len(calls) <= 2 * len(blocks) <= 2 * 4 * (256 // BLOCK_ROWS)


point_sets = st.integers(min_value=1, max_value=7).flatmap(
    lambda m: st.lists(
        st.tuples(*[st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)] * m),
        min_size=1,
        max_size=24,
        unique=True,
    )
)


class TestDistanceRows:
    @seed(11)
    @settings(max_examples=60, deadline=None)
    @given(point_sets, st.sampled_from(["l1", "l2", "linf"]), st.randoms(use_true_random=False))
    def test_rows_are_the_matrix_rows_bitwise(self, points, metric, rnd):
        coords = np.array(points)
        space = ls.SampledMetricSpace(metric, coords=coords)
        ref = matrix_row_by_row(coords, metric)
        n = len(space)
        order = list(range(n))
        rnd.shuffle(order)
        # first touch in random order, then again from the cache
        for a in order + order:
            assert space.rows([a])[0].tobytes() == ref[a].tobytes()
        assert space.rows(order).tobytes() == ref[order].tobytes()
        assert space.distance_matrix().tobytes() == ref.tobytes()
        for a, b in itertools.combinations(range(n), 2):
            assert distance(space, a, b) == distance(space, b, a)
        off = np.min(ref, axis=1, where=~np.eye(n, dtype=bool), initial=np.inf)
        assert space.nearest_distances().tobytes() == off.tobytes()

    @pytest.mark.parametrize("metric", ["l1", "l2", "linf"])
    def test_kernel_is_a_left_fold_from_eight_coordinates(self, metric):
        rng = np.random.default_rng(12)
        for m in range(8, 13):
            coords = rng.normal(size=(30, m)) * 10.0 ** rng.uniform(-3, 3, size=(30, 1))
            points = np.vstack([coords[::3], rng.normal(size=(5, m))])
            got = ls.SampledMetricSpace(metric, coords=coords).distances_from(points)
            terms = coords - points[:, None]
            terms = terms * terms if metric == "l2" else np.abs(terms)
            fold = terms[..., 0]
            for j in range(1, m):
                fold = np.maximum(fold, terms[..., j]) if metric == "linf" else fold + terms[..., j]
            fold = np.sqrt(fold) if metric == "l2" else fold
            assert got.tobytes() == fold.tobytes()
            ord_ = {"l1": 1, "l2": 2, "linf": np.inf}[metric]
            np.testing.assert_array_max_ulp(got, np.linalg.norm(coords - points[:, None], ord=ord_, axis=-1), maxulp=4)

    def test_nearest_distances_span_several_blocks(self):
        rng = np.random.default_rng(3)
        coords = rng.normal(size=(150, 2))
        ref = matrix_row_by_row(coords, "l2")
        off = np.min(ref, axis=1, where=~np.eye(150, dtype=bool), initial=np.inf)
        space = ls.SampledMetricSpace("l2", coords=coords)
        explicit = ls.SampledMetricSpace("explicit", explicit_distances=ref)
        assert space.nearest_distances().tobytes() == explicit.nearest_distances().tobytes() == off.tobytes()
        assert not space._rows
        # an explicit space's blocks are copies: its matrix keeps a zero diagonal
        assert not np.diag(ref).any()

    def test_explicit_rows_are_the_matrix(self):
        mat = np.array([[0.0, 2.0, 3.0], [2.0, 0.0, 1.5], [3.0, 1.5, 0.0]])
        space = ls.SampledMetricSpace("explicit", explicit_distances=mat)
        np.testing.assert_array_equal(space.rows([2, 0]), mat[[2, 0]])
        np.testing.assert_array_equal(space.nearest_distances(), [2.0, 1.5, 1.5])
        with pytest.raises(SchemaError, match="explicit-metric spaces carry no coordinates$"):
            space.distances_from([[0.0]])
        # the space's rows are read-only; the caller's matrix is not frozen
        mat[0, 1] = 9.0
        assert mat.flags.writeable

    def test_cached_rows_cannot_be_written(self, four_point_line):
        (row,) = four_point_line._kept([1])
        with pytest.raises(ValueError):
            row[0] = 5.0
        assert four_point_line._kept([1])[0] is row
        # a block of rows is a new array
        assert four_point_line.rows([1]).flags.writeable
        explicit = ls.SampledMetricSpace("explicit", explicit_distances=[[0.0, 2.0], [2.0, 0.0]])
        with pytest.raises(ValueError):
            explicit._kept([0])[0][1] = 5.0

    @pytest.mark.parametrize(
        "members, first",
        [
            ([0, -1, 5], "-1"),
            ([1, 4], "4"),
            (np.array([0, 2, 7]), "np.int64(7)"),
            ([2, True, 1], "True"),
            ([np.True_], "np.True_"),
            ([0, 1.0], "1.0"),
            (np.array([1.0, 0.0]), "np.float64(1.0)"),
            ([0, "1"], "'1'"),
            ([2**70], str(2**70)),
        ],
    )
    def test_a_bad_member_is_named_first(self, four_point_line, members, first):
        # negative, out of range, bool or float: one array test finds it,
        # and the error names the first such member
        with pytest.raises(SchemaError, match=rf"unknown point id {re.escape(first)}$"):
            four_point_line.rows(members)

    def test_rows_take_lists_ranges_and_integer_arrays(self, four_point_line):
        ref = four_point_line.rows([3, 1])
        for members in ((3, 1), np.array([3, 1], dtype=np.uint8), range(3, 0, -2)):
            assert four_point_line.rows(members).tobytes() == ref.tobytes()
        assert four_point_line.rows([]).shape == four_point_line.rows(np.array([], dtype=np.intp)).shape == (0, 4)

    def test_a_lone_point_has_no_nearest_other(self):
        space = ls.SampledMetricSpace("l2", coords=[[0.5]])
        assert space.nearest_distances().tolist() == [np.inf]


@seed(13)
@settings(max_examples=60, deadline=None)
@given(
    point_sets,
    st.sampled_from(["l1", "l2", "linf"]),
    st.floats(min_value=0.05, max_value=3.0, allow_nan=False),
    st.lists(st.integers(min_value=0, max_value=23), max_size=6),
)
def test_greedy_net_equals_the_scan_over_the_full_matrix(points, metric, r, picks):
    coords = np.array(points)
    space = ls.SampledMetricSpace(metric, coords=coords)
    mat = matrix_row_by_row(coords, metric)
    assert ls.greedy_maximal_separation(space, r) == seeded_separation(space, r) == greedy_over_matrix(mat, r)
    seed_rows = sorted({p % len(space) for p in picks})
    if all(mat[a, b] >= r for a, b in itertools.combinations(seed_rows, 2)):
        assert seeded_separation(space, r, seed=seed_rows) == greedy_over_matrix(mat, r, seed_rows)


def test_twenty_thousand_points_need_no_distance_matrix():
    n = 20_001
    _, phi, f0, config = segment_instance(n_points=n, rounds=6)
    tracemalloc.start()
    try:
        seq = ls.run_iteration(phi, f0, config)
        report = ls.verify_sequence(seq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["passed"]
    # the matrix alone would take n^2 * 8 bytes, 3.2 GB
    assert peak < 64 * 2**20
