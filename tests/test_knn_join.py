"""kNN self-join, self pairs included, against numpy brute force and invariants."""
import itertools

import numpy as np
import pandas as pd
import pytest

from repro.spatial import grid
from repro.spatial.join import DIST, compute_extent, knn_pairs
from tests._utils import (
    BBOX_ACROSS_180,
    BBOX_POLAR_CAP,
    CONTRACT_BREAKS,
    broken_frame,
    count_knn_rounds,
    equirect_np,
    haversine_np,
    rand_points,
)


def brute_knn(pdf: pd.DataFrame, k: int, ref_lat: float | None = None) -> set:
    """Each record's self pair and its k nearest others, equirectangular
    around ``ref_lat`` or haversine."""
    dist = haversine_np(pdf) if ref_lat is None else equirect_np(pdf, ref_lat)
    np.fill_diagonal(dist, -1.0)  # the self pair ranks first
    out = set()
    rids = pdf["rid"].values
    for i in range(len(pdf)):
        order = np.argsort(dist[i], kind="stable")[: min(k, len(pdf) - 1) + 1]
        out |= {(int(rids[i]), int(rids[j])) for j in order}
    return out


def far_outlier_frame() -> pd.DataFrame:
    """200 records in a 0.02° (about 2 km) square plus one record 5° north of
    it: with k = 3 the cluster resolves in the first round and the outlier,
    some 550 km from its nearest, in the sixth."""
    cluster = rand_points(200, seed=42, bbox=(41.80, 41.82, -87.70, -87.68))
    outlier = pd.DataFrame({"rid": [999], "lat": [46.81], "lon": [-87.69], "v": ["A"]})
    return pd.concat([cluster, outlier], ignore_index=True)


def plan_nodes(df) -> int:
    """Nodes in ``df``'s analyzed logical plan, one line each in its tree string."""
    return len(df._jdf.queryExecution().analyzed().treeString().splitlines())


class TestAgainstBruteForce:
    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_uniform_points(self, spark, k):
        pdf = rand_points(150, seed=30)
        sdf = spark.createDataFrame(pdf)
        ext = compute_extent(sdf)
        got = knn_pairs(sdf, k=k, value_col="v").toPandas()
        expected = brute_knn(pdf, k, ext.ref_lat)
        assert set(zip(got["r1"], got["r2"])) == expected

    def test_two_far_clusters_forces_radius_doubling(self, spark):
        """Initial density-derived radius misses cross-cluster neighbors;
        the doubling rounds must still find the true kNN."""
        a = rand_points(40, seed=31, bbox=(41.80, 41.805, -87.70, -87.695))
        b = rand_points(40, seed=32, bbox=(41.90, 41.905, -87.60, -87.595))
        b["rid"] += 1000
        pdf = pd.concat([a, b], ignore_index=True)
        sdf = spark.createDataFrame(pdf)
        ext = compute_extent(sdf)
        k = 45  # forces every record to reach into the other cluster
        got = knn_pairs(sdf, k=k, value_col="v").toPandas()
        assert set(zip(got["r1"], got["r2"])) == brute_knn(pdf, k, ext.ref_lat)

    def test_lone_outlier_point(self, spark):
        pdf = rand_points(30, seed=33)
        outlier = pd.DataFrame({"rid": [999], "lat": [41.99], "lon": [-87.40], "v": ["A"]})
        pdf = pd.concat([pdf, outlier], ignore_index=True)
        sdf = spark.createDataFrame(pdf)
        ext = compute_extent(sdf)
        got = knn_pairs(sdf, k=3, value_col="v").toPandas()
        assert set(zip(got["r1"], got["r2"])) == brute_knn(pdf, 3, ext.ref_lat)

    def test_far_outlier_over_six_rounds_with_a_fixed_plan_step(self, spark, monkeypatch):
        """Exact over many rounds, and each round's frontier is read from
        that round's rows, so its plan is the previous round's plus a fixed
        step. A frontier that re-reads the previous one twice doubles per
        round; the check runs before each round's ``isEmpty``, so such a
        plan fails at the third round instead of running for a minute."""
        pdf = far_outlier_frame()
        sdf = spark.createDataFrame(pdf)
        rounds = count_knn_rounds(monkeypatch, sdf, limit=12)
        counted = type(sdf).isEmpty
        sizes = []

        def checked(self):
            sizes.append(plan_nodes(self))
            steps = [b - a for a, b in zip(sizes, sizes[1:])]
            assert all(step <= steps[0] for step in steps), sizes
            return counted(self)

        monkeypatch.setattr(type(sdf), "isEmpty", checked)
        got = knn_pairs(sdf, k=3, value_col="v").toPandas()
        assert len(rounds) >= 5
        assert set(zip(got["r1"], got["r2"])) == brute_knn(pdf, 3, compute_extent(sdf).ref_lat)


    def test_rounds_after_the_first_explode_only_the_frontier(self, spark, monkeypatch):
        """A round explodes its frontier over the tile neighbourhood, not
        every record: once the cluster resolves, each round explodes the
        outlier alone."""
        cluster = rand_points(20, seed=43, bbox=(41.80, 41.81, -87.70, -87.69))
        outlier = pd.DataFrame({"rid": [999], "lat": [42.30], "lon": [-87.695], "v": ["A"]})
        pdf = pd.concat([cluster, outlier], ignore_index=True)
        sdf = spark.createDataFrame(pdf)
        exploded = []
        explode = grid.explode_neighborhood

        def recorded(df, **kwargs):
            exploded.append(df)
            return explode(df, **kwargs)

        monkeypatch.setattr(grid, "explode_neighborhood", recorded)
        got = knn_pairs(sdf, k=3, value_col="v").toPandas()
        assert set(zip(got["r1"], got["r2"])) == brute_knn(pdf, 3, compute_extent(sdf).ref_lat)
        sizes = [df.count() for df in exploded]
        assert len(sizes) >= 3 and sizes[0] == len(pdf) and set(sizes[1:]) == {1}, sizes


class TestInvariants:
    def test_exactly_k_rows_per_record(self, spark):
        """k neighbour rows per record, besides its one self pair."""
        pdf = rand_points(80, seed=34)
        got = knn_pairs(spark.createDataFrame(pdf), k=5, value_col="v").toPandas()
        own = got["r1"] == got["r2"]
        assert sorted(got[own]["r1"]) == list(range(80))
        counts = got[~own].groupby("r1").size()
        assert (counts == 5).all() and len(counts) == 80

    def test_k_exceeding_population_returns_all_others(self, spark):
        pdf = rand_points(6, seed=35)
        got = knn_pairs(spark.createDataFrame(pdf), k=50, value_col="v").toPandas()
        assert set(zip(got["r1"], got["r2"])) == {(i, j) for i in range(6) for j in range(6)}
        assert len(got) == 36

    def test_distances_sorted_within_radius(self, spark):
        pdf = rand_points(60, seed=36)
        got = knn_pairs(spark.createDataFrame(pdf), k=4, value_col="v").toPandas()
        assert (got[DIST] >= 0).all()

    def test_directed_not_necessarily_symmetric(self, spark):
        # kNN is a directed relation; with k=1 asymmetry almost surely occurs.
        pdf = rand_points(50, seed=37)
        got = knn_pairs(spark.createDataFrame(pdf), k=1, value_col="v").toPandas()
        pairs = set(zip(got["r1"], got["r2"]))
        assert any((b, a) not in pairs for a, b in pairs)

    @pytest.mark.parametrize("k", [0, -2])
    def test_invalid_k_raises(self, spark, k):
        with pytest.raises(ValueError, match="positive"):
            knn_pairs(spark.createDataFrame(rand_points(5, seed=38)), k=k, value_col="v")

    def test_single_record_empty_result(self, spark):
        """A lone record has no neighbour: its self pair alone, in the pair schema."""
        out = knn_pairs(spark.createDataFrame(rand_points(1, seed=39)), k=3, value_col="v")
        assert [(r.r1, r.r2, r[DIST]) for r in out.collect()] == [(0, 0, 0.0)]
        assert dict(out.dtypes) == {
            "r1": "bigint", "r2": "bigint", "v1": "string", "v2": "string", DIST: "double"
        }

    def test_deterministic_across_runs(self, spark):
        pdf = rand_points(70, seed=40)
        sdf = spark.createDataFrame(pdf)
        a, b = (
            knn_pairs(sdf, k=3, value_col="v").toPandas()
            .sort_values(["r1", "r2"]).reset_index(drop=True)
            for _ in range(2)
        )
        pd.testing.assert_frame_equal(a, b)


class TestPolesAndAntimeridian:
    @pytest.mark.parametrize(
        "bbox", [BBOX_POLAR_CAP, BBOX_ACROSS_180], ids=["polar-cap", "across-180"]
    )
    def test_haversine_matches_brute_force(self, spark, bbox):
        pdf = rand_points(300, seed=41, bbox=bbox)
        got = knn_pairs(
            spark.createDataFrame(pdf), k=5, value_col="v", distance="haversine"
        ).toPandas()
        assert set(zip(got["r1"], got["r2"])) == brute_knn(pdf, 5)


class TestStopsOnNeighbourCountAlone:
    """A record is resolved when ``min(k, n-1)`` others lie within the radius,
    whatever the extent: a pair as long as the extent's diagonal, or longer
    under haversine, is still found."""

    @pytest.mark.parametrize(
        "far", [(41.81, -87.69), (41.80, -87.69)], ids=["diagonal", "east-west"]
    )
    def test_two_records_at_the_extent_diagonal(self, spark, far):
        pdf = pd.DataFrame(
            {"rid": [0, 1], "lat": [41.80, far[0]], "lon": [-87.70, far[1]], "v": ["A", "B"]}
        )
        ref_lat = (pdf["lat"].min() + pdf["lat"].max()) / 2
        got = knn_pairs(spark.createDataFrame(pdf), k=1, value_col="v").toPandas()
        assert set(zip(got["r1"], got["r2"])) == brute_knn(pdf, 1, ref_lat) == {
            (0, 0), (0, 1), (1, 0), (1, 1)
        }

    def test_east_west_pair_resolves_within_two_rounds(self, spark, monkeypatch):
        """Two records on one parallel span a line 830 m long. Its area takes
        a height from their spacing, not 1 m, so the first radius is some
        680 m, not 28 m, and the second round resolves both."""
        pdf = pd.DataFrame(
            {"rid": [0, 1], "lat": [41.80, 41.80], "lon": [-87.70, -87.69], "v": ["A", "B"]}
        )
        df = spark.createDataFrame(pdf)
        rounds = count_knn_rounds(monkeypatch, df)
        got = knn_pairs(df, k=1, value_col="v").toPandas()
        assert set(zip(got["r1"], got["r2"])) == {(0, 0), (0, 1), (1, 0), (1, 1)}
        assert len(rounds) <= 2

    def test_haversine_pair_longer_than_the_equirect_diagonal(self, spark):
        """(0, 0)–(0, 170) is 18,903 km apart on the sphere; the extent's
        equirect diagonal is 17,677 km."""
        pdf = pd.DataFrame(
            {"rid": [0, 1, 2], "lat": [0.0, 60.0, 0.0], "lon": [0.0, 85.0, 170.0], "v": ["A", "B", "C"]}
        )
        got = knn_pairs(
            spark.createDataFrame(pdf), k=2, value_col="v", distance="haversine"
        ).toPandas()
        assert len(got) == 9
        assert set(zip(got["r1"], got["r2"])) == brute_knn(pdf, 2)

    #: (lat_min, lon_min, side in degrees): one city block up to 170° wide.
    EXTENTS = [(41.80, -87.70, 0.001), (41.80, -87.70, 0.1), (30.0, 10.0, 10.0), (-40.0, -85.0, 170.0)]

    def test_seeded_sweep_of_small_inputs(self, spark):
        """Every n from 2 to 6 with every k from 1 to n + 1, cycling through
        both distances and the extents; collects every mismatch before failing."""
        cases = [(n, k) for n in range(2, 7) for k in range(1, n + 2)]
        settings = itertools.cycle(itertools.product(["equirect", "haversine"], self.EXTENTS))
        mismatches = []
        for seed, ((n, k), (distance, (lat0, lon0, side))) in enumerate(zip(cases, settings)):
            bbox = (lat0, lat0 + min(side, 80.0), lon0, lon0 + side)
            pdf = rand_points(n, seed=100 + seed, bbox=bbox)
            ref_lat = None if distance == "haversine" else (pdf["lat"].min() + pdf["lat"].max()) / 2
            got = knn_pairs(
                spark.createDataFrame(pdf), k=k, value_col="v", distance=distance
            ).toPandas()
            if set(zip(got["r1"], got["r2"])) != brute_knn(pdf, k, ref_lat):
                mismatches.append((n, k, distance, side))
        assert not mismatches


class TestInputContract:
    """A direct call checks its records: a record with no usable location
    would never gain a neighbour and double the radius without end."""

    @pytest.mark.parametrize("case", CONTRACT_BREAKS)
    def test_broken_record_names_the_failed_check(self, spark, monkeypatch, case):
        df, check = broken_frame(spark, case)
        count_knn_rounds(monkeypatch, df)
        with pytest.raises(ValueError, match=check):
            knn_pairs(df, k=1, value_col="v")
