"""DistanceMatrix builder (§3.2): schema, own rows, weights, value attachment."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.constraints import (
    ExactLocationConstraint,
    SpatialKNNConstraint,
    SpatialRangeConstraint,
    WeightFunction,
)
from repro.core.distance_matrix import cell_rows
from repro.spatial.geo import M_PER_DEG_LAT
from tests._utils import CONTRACT_BREAKS, broken_frame, count_knn_rounds


def line_df(spark, meters_and_values, base_lat=41.85, lon=-87.65):
    """Records on a meridian at given meter offsets — exact distances."""
    rows = [
        (i, base_lat + m / M_PER_DEG_LAT, lon, v)
        for i, (m, v) in enumerate(meters_and_values)
    ]
    return spark.createDataFrame(
        pd.DataFrame(rows, columns=["rid", "lat", "lon", "ward"])
    )


class TestRangeMatrix:
    @pytest.fixture(scope="class")
    def dm(self, spark):
        df = line_df(spark, [(0.0, "A"), (200.0, "A"), (500.0, "B"), (5000.0, "C")])
        c = SpatialRangeConstraint("ward", 1000.0, WeightFunction(n=2.0))
        return cell_rows(df, c).toPandas()

    def test_schema(self, dm):
        assert list(dm.columns) == ["_cx", "_cy", "r1", "r2", "v1", "v2", "dist_m", "w"]

    def test_far_record_excluded(self, dm):
        near_3 = (dm["r1"] == 3) | (dm["r2"] == 3)
        assert list(zip(dm[near_3]["r1"], dm[near_3]["r2"])) == [(3, 3)]  # its own row

    def test_pair_count_symmetric(self, dm):
        # r0–r1 (200m), r0–r2 (500m), r1–r2 (300m) → 6 directed rows,
        # plus one own row for each of the 4 records.
        assert len(dm) == 6 + 4
        own = dm[dm["r1"] == dm["r2"]]
        assert sorted(own["r1"]) == [0, 1, 2, 3]
        assert own["w"].isna().all() and (own["dist_m"] == 0.0).all()

    def test_distances_exact(self, dm):
        d = dm.set_index(["r1", "r2"])["dist_m"]
        assert d[(0, 1)] == pytest.approx(200.0, rel=1e-6)
        assert d[(0, 2)] == pytest.approx(500.0, rel=1e-6)
        assert d[(1, 2)] == pytest.approx(300.0, rel=1e-6)

    def test_weights_match_paper_formula(self, dm):
        w = dm.set_index(["r1", "r2"])["w"]
        assert w[(0, 1)] == pytest.approx(0.64, rel=1e-5)
        assert w[(0, 2)] == pytest.approx(0.25, rel=1e-5)
        assert w[(1, 2)] == pytest.approx(0.49, rel=1e-5)

    def test_values_attached(self, dm):
        v = dm.set_index(["r1", "r2"])
        assert v.loc[(0, 2), "v1"] == "A" and v.loc[(0, 2), "v2"] == "B"
        assert v.loc[(2, 0), "v1"] == "B" and v.loc[(2, 0), "v2"] == "A"


class TestNullValues:
    def test_nulls_propagate_to_matrix(self, spark):
        df = line_df(spark, [(0.0, "A"), (100.0, None)])
        c = SpatialRangeConstraint("ward", 1000.0)
        dm = cell_rows(df, c).toPandas().set_index(["r1", "r2"])
        assert pd.isna(dm.loc[(0, 1), "v2"]) and dm.loc[(0, 1), "v1"] == "A"
        assert pd.isna(dm.loc[(1, 1), "v1"]) and pd.isna(dm.loc[(1, 1), "v2"])


class TestZeroDRange:
    def test_d_zero_equals_exact_constraint(self, spark):
        pdf = pd.DataFrame(
            {
                "rid": [0, 1, 2],
                "lat": [41.85, 41.85, 41.86],
                "lon": [-87.65, -87.65, -87.65],
                "ward": ["A", "B", "A"],
            }
        )
        df = spark.createDataFrame(pdf)
        via_zero, via_exact = (
            cell_rows(df, c).toPandas().sort_values(["r1", "r2"]).reset_index(drop=True)
            for c in (SpatialRangeConstraint("ward", 0.0), ExactLocationConstraint("ward"))
        )
        pd.testing.assert_frame_equal(via_zero, via_exact)
        assert list(zip(via_zero["r1"], via_zero["r2"])) == [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)]
        own = via_zero["r1"] == via_zero["r2"]
        assert (via_zero[~own]["w"] == 1.0).all() and via_zero[own]["w"].isna().all()


class TestKnnMatrix:
    @pytest.fixture(scope="class")
    def dm(self, spark):
        df = line_df(
            spark, [(0.0, "A"), (100.0, "A"), (300.0, "B"), (600.0, "B"), (1000.0, "C")]
        )
        c = SpatialKNNConstraint("ward", k=2, weight=WeightFunction(n=2.0, floor=0.01))
        return cell_rows(df, c).toPandas()

    def test_two_neighbors_each(self, dm):
        own = dm["r1"] == dm["r2"]
        assert sorted(dm[own]["r1"]) == [0, 1, 2, 3, 4]
        assert (dm[~own].groupby("r1").size() == 2).all()

    def test_kth_neighbor_gets_floor_weight(self, dm):
        # For r0 the 2nd-nearest is r2 at 300 m = d_max → raw weight 0 → floor.
        w = dm.set_index(["r1", "r2"])["w"]
        assert w[(0, 2)] == pytest.approx(0.01)

    def test_nearer_neighbor_weighted_higher(self, dm):
        w = dm.set_index(["r1", "r2"])["w"]
        assert w[(0, 1)] > w[(0, 2)]

    def test_per_record_dmax_is_local(self, dm):
        # r4's neighbors are r3 (400m) and r2 (700m): weight of r3 uses
        # d_max=700, so (1 - 400/700)^2 ≈ 0.1837.
        w = dm.set_index(["r1", "r2"])["w"]
        assert w[(4, 3)] == pytest.approx((1 - 400 / 700) ** 2, rel=1e-4)

    def test_directed(self, dm):
        pairs = set(zip(dm["r1"], dm["r2"]))
        # r2's 2NN are r1 (200m) and r0 (300m, tie with r3 broken by id).
        assert (4, 2) in pairs and (2, 4) not in pairs


class TestUnsupportedConstraint:
    def test_type_error(self, spark):
        df = line_df(spark, [(0.0, "A")])
        with pytest.raises(TypeError, match="unsupported constraint"):
            cell_rows(df, object())  # type: ignore[arg-type]


class TestInputContract:
    """Called directly without an extent, the builder checks the records for
    every constraint. The exact join checks nothing itself: unchecked, a
    null-latitude record would lose its own row, and a repeated id would
    get two."""

    @pytest.mark.parametrize(
        "constraint",
        [
            SpatialRangeConstraint("v", 500.0),
            SpatialKNNConstraint("v", k=1),
            ExactLocationConstraint("v"),
            SpatialRangeConstraint("v", 0.0),
        ],
        ids=["range", "knn", "exact", "range-d0"],
    )
    @pytest.mark.parametrize("case", CONTRACT_BREAKS)
    def test_broken_record_names_the_failed_check(self, spark, monkeypatch, case, constraint):
        df, check = broken_frame(spark, case)
        count_knn_rounds(monkeypatch, df)
        with pytest.raises(ValueError, match=check):
            cell_rows(df, constraint)
