"""kNN self-join against numpy brute force and invariants."""
import numpy as np
import pandas as pd
import pytest

from repro.spatial.join import DIST, compute_extent, self_knn_join
from tests._utils import (
    BBOX_ACROSS_180,
    BBOX_POLAR_CAP,
    equirect_np,
    haversine_np,
    rand_points,
)


def brute_knn(pdf: pd.DataFrame, k: int, ref_lat: float | None = None) -> set:
    """Each record's k nearest, equirectangular around ``ref_lat`` or haversine."""
    dist = haversine_np(pdf) if ref_lat is None else equirect_np(pdf, ref_lat)
    np.fill_diagonal(dist, np.inf)
    out = set()
    rids = pdf["rid"].values
    for i in range(len(pdf)):
        order = np.argsort(dist[i], kind="stable")[: min(k, len(pdf) - 1)]
        out |= {(int(rids[i]), int(rids[j])) for j in order}
    return out


class TestAgainstBruteForce:
    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_uniform_points(self, spark, k):
        pdf = rand_points(150, seed=30)
        sdf = spark.createDataFrame(pdf)
        ext = compute_extent(sdf)
        got = self_knn_join(sdf, k=k, value_col="v").toPandas()
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
        got = self_knn_join(sdf, k=k, value_col="v").toPandas()
        assert set(zip(got["r1"], got["r2"])) == brute_knn(pdf, k, ext.ref_lat)

    def test_lone_outlier_point(self, spark):
        pdf = rand_points(30, seed=33)
        outlier = pd.DataFrame({"rid": [999], "lat": [41.99], "lon": [-87.40], "v": ["A"]})
        pdf = pd.concat([pdf, outlier], ignore_index=True)
        sdf = spark.createDataFrame(pdf)
        ext = compute_extent(sdf)
        got = self_knn_join(sdf, k=3, value_col="v").toPandas()
        assert set(zip(got["r1"], got["r2"])) == brute_knn(pdf, 3, ext.ref_lat)


class TestInvariants:
    def test_exactly_k_rows_per_record(self, spark):
        pdf = rand_points(80, seed=34)
        got = self_knn_join(spark.createDataFrame(pdf), k=5, value_col="v").toPandas()
        counts = got.groupby("r1").size()
        assert (counts == 5).all() and len(counts) == 80

    def test_k_exceeding_population_returns_all_others(self, spark):
        pdf = rand_points(6, seed=35)
        got = self_knn_join(spark.createDataFrame(pdf), k=50, value_col="v").toPandas()
        counts = got.groupby("r1").size()
        assert (counts == 5).all() and len(counts) == 6

    def test_distances_sorted_within_radius(self, spark):
        pdf = rand_points(60, seed=36)
        got = self_knn_join(spark.createDataFrame(pdf), k=4, value_col="v").toPandas()
        assert (got[DIST] >= 0).all()

    def test_directed_not_necessarily_symmetric(self, spark):
        # kNN is a directed relation; with k=1 asymmetry almost surely occurs.
        pdf = rand_points(50, seed=37)
        got = self_knn_join(spark.createDataFrame(pdf), k=1, value_col="v").toPandas()
        pairs = set(zip(got["r1"], got["r2"]))
        assert any((b, a) not in pairs for a, b in pairs)

    @pytest.mark.parametrize("k", [0, -2])
    def test_invalid_k_raises(self, spark, k):
        with pytest.raises(ValueError, match="positive"):
            self_knn_join(spark.createDataFrame(rand_points(5, seed=38)), k=k, value_col="v")

    def test_single_record_empty_result(self, spark):
        out = self_knn_join(spark.createDataFrame(rand_points(1, seed=39)), k=3, value_col="v")
        assert out.count() == 0
        assert dict(out.dtypes) == {
            "r1": "bigint", "r2": "bigint", "v1": "string", "v2": "string", DIST: "double"
        }

    def test_deterministic_across_runs(self, spark):
        pdf = rand_points(70, seed=40)
        sdf = spark.createDataFrame(pdf)
        a, b = (
            self_knn_join(sdf, k=3, value_col="v").toPandas()
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
        got = self_knn_join(
            spark.createDataFrame(pdf), k=5, value_col="v", distance="haversine"
        ).toPandas()
        assert set(zip(got["r1"], got["r2"])) == brute_knn(pdf, 5)
