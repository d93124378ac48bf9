"""Weight function and constraint validation (§3.1, §6)."""
import math

import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.constraints import (
    ExactLocationConstraint,
    SpatialKNNConstraint,
    SpatialRangeConstraint,
    WeightFunction,
)


def _weights(spark, wf: WeightFunction, rows):
    df = spark.createDataFrame(pd.DataFrame(rows, columns=["dist", "dmax"]))
    return [
        r.w
        for r in df.select(F.expr(wf.expr("dist", "dmax")).alias("w")).collect()
    ]


class TestWeightFunction:
    def test_paper_example_weights(self, spark):
        """Figure 3c: d=1000, n=2 → 200→0.64, 500→0.25, 600→0.16,
        800→0.04, 900→0.01."""
        rows = [(200.0, 1000.0), (500.0, 1000.0), (600.0, 1000.0),
                (800.0, 1000.0), (900.0, 1000.0)]
        got = _weights(spark, WeightFunction(n=2.0), rows)
        assert got == pytest.approx([0.64, 0.25, 0.16, 0.04, 0.01])

    def test_zero_distance_weighs_one(self, spark):
        assert _weights(spark, WeightFunction(n=2.0), [(0.0, 1000.0)]) == [1.0]

    def test_n_zero_cancels_weighting(self, spark):
        got = _weights(spark, WeightFunction(n=0.0), [(100.0, 1000.0), (999.0, 1000.0)])
        assert got == [1.0, 1.0]

    def test_larger_n_downweights_far_pairs(self, spark):
        (w2,) = _weights(spark, WeightFunction(n=2.0), [(800.0, 1000.0)])
        (w16,) = _weights(spark, WeightFunction(n=16.0), [(800.0, 1000.0)])
        assert w16 < w2

    def test_monotone_decreasing_in_distance(self, spark):
        got = _weights(
            spark, WeightFunction(n=4.0),
            [(d, 1000.0) for d in (0.0, 250.0, 500.0, 750.0, 999.0)],
        )
        assert got == sorted(got, reverse=True)

    def test_floor_applied(self, spark):
        (w,) = _weights(spark, WeightFunction(n=2.0, floor=0.01), [(999.9, 1000.0)])
        assert w == pytest.approx(0.01)

    def test_degenerate_dmax_zero_weighs_one(self, spark):
        # Exact duplicates (kNN where all k neighbors are co-located).
        assert _weights(spark, WeightFunction(n=2.0), [(0.0, 0.0)]) == [1.0]

    def test_beyond_dmax_clamped_to_floor(self, spark):
        (w,) = _weights(spark, WeightFunction(n=2.0), [(1500.0, 1000.0)])
        assert w == 0.0


class TestConstraintValidation:
    def test_range_accepts_zero_d(self):
        assert SpatialRangeConstraint("borough", 0.0).d_m == 0.0

    def test_range_rejects_negative_d(self):
        with pytest.raises(ValueError, match=">= 0"):
            SpatialRangeConstraint("borough", -1.0)

    @pytest.mark.parametrize("d", [math.inf, -math.inf, math.nan])
    def test_range_rejects_non_finite_d(self, d):
        with pytest.raises(ValueError, match="finite"):
            SpatialRangeConstraint("borough", d)

    @pytest.mark.parametrize("field", ["n", "floor"])
    @pytest.mark.parametrize("x", [math.inf, math.nan])
    def test_weight_rejects_non_finite_parameters(self, field, x):
        with pytest.raises(ValueError, match="finite"):
            WeightFunction(**{field: x})

    @pytest.mark.parametrize("k", [0, -3])
    def test_knn_rejects_nonpositive_k(self, k):
        with pytest.raises(ValueError, match="positive"):
            SpatialKNNConstraint("borough", k)

    def test_knn_default_weight_has_floor(self):
        c = SpatialKNNConstraint("borough", 5)
        assert c.weight.floor == pytest.approx(0.01)

    def test_exact_has_attribute(self):
        assert ExactLocationConstraint("ward").attribute == "ward"

    def test_constraints_are_hashable_and_frozen(self):
        c = SpatialRangeConstraint("a", 10.0)
        assert hash(c)
        with pytest.raises(Exception):
            c.d_m = 5.0  # type: ignore[misc]
