"""Distance expressions: known values, symmetry, approximation quality."""
import math

import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.spatial.geo import (
    EARTH_RADIUS_M,
    M_PER_DEG_LAT,
    distance_expr,
    equirect_m,
    haversine_m,
    meters_per_degree_lon,
    sql_double,
    sql_ident,
)


def _eval(spark, rows, expr):
    df = spark.createDataFrame(
        pd.DataFrame(rows, columns=["lat1", "lon1", "lat2", "lon2"])
    )
    return [
        r.d
        for r in df.select(F.expr(expr("lat1", "lon1", "lat2", "lon2")).alias("d")).collect()
    ]


class TestHaversine:
    def test_zero_distance(self, spark):
        (d,) = _eval(spark, [(40.0, -73.0, 40.0, -73.0)], haversine_m)
        assert d == pytest.approx(0.0, abs=1e-9)

    def test_one_degree_latitude(self, spark):
        (d,) = _eval(spark, [(40.0, -73.0, 41.0, -73.0)], haversine_m)
        assert d == pytest.approx(M_PER_DEG_LAT, rel=1e-9)

    def test_one_degree_longitude_at_equator(self, spark):
        (d,) = _eval(spark, [(0.0, 10.0, 0.0, 11.0)], haversine_m)
        assert d == pytest.approx(M_PER_DEG_LAT, rel=1e-9)

    def test_one_degree_longitude_at_60_north_is_halved(self, spark):
        (d,) = _eval(spark, [(60.0, 10.0, 60.0, 11.0)], haversine_m)
        # Great-circle distance, not arc-along-the-parallel: allow the
        # ~1e-5 relative difference between the two.
        assert d == pytest.approx(M_PER_DEG_LAT * 0.5, rel=1e-4)

    def test_symmetry(self, spark):
        a, b = _eval(
            spark,
            [(40.7, -74.0, 41.8, -87.6), (41.8, -87.6, 40.7, -74.0)],
            haversine_m,
        )
        assert a == pytest.approx(b, rel=1e-12)

    def test_nyc_to_chicago_magnitude(self, spark):
        # Great-circle NYC→Chicago is ~1,145 km.
        (d,) = _eval(spark, [(40.7128, -74.0060, 41.8781, -87.6298)], haversine_m)
        assert d == pytest.approx(1_145_000, rel=0.01)

    def test_antipodal_half_circumference(self, spark):
        (d,) = _eval(spark, [(0.0, 0.0, 0.0, 180.0)], haversine_m)
        assert d == pytest.approx(math.pi * EARTH_RADIUS_M, rel=1e-9)


class TestEquirect:
    def test_zero_distance(self, spark):
        (d,) = _eval(
            spark, [(41.85, -87.65, 41.85, -87.65)], lambda *c: equirect_m(*c, 41.85)
        )
        assert d == pytest.approx(0.0, abs=1e-9)

    def test_matches_haversine_at_city_scale(self, spark):
        rows = [
            (41.80, -87.70, 41.90, -87.60),
            (41.85, -87.65, 41.86, -87.64),
            (41.84, -87.62, 41.80, -87.69),
        ]
        hav = _eval(spark, rows, haversine_m)
        eq = _eval(spark, rows, lambda *c: equirect_m(*c, 41.85))
        for h, e in zip(hav, eq):
            assert e == pytest.approx(h, rel=5e-3)

    def test_symmetry(self, spark):
        a, b = _eval(
            spark,
            [(41.8, -87.7, 41.9, -87.6), (41.9, -87.6, 41.8, -87.7)],
            lambda *c: equirect_m(*c, 41.85),
        )
        assert a == pytest.approx(b, rel=1e-12)


class TestMetersPerDegree:
    def test_equator(self):
        assert meters_per_degree_lon(0.0) == pytest.approx(M_PER_DEG_LAT)

    def test_sixty_degrees(self):
        assert meters_per_degree_lon(60.0) == pytest.approx(M_PER_DEG_LAT / 2, rel=1e-9)

    def test_monotone_decreasing_toward_pole(self):
        vals = [meters_per_degree_lon(lat) for lat in (0, 30, 45, 60, 85)]
        assert vals == sorted(vals, reverse=True)


class TestDispatch:
    @pytest.mark.parametrize("kind", ["haversine", "equirect"])
    def test_known_kinds(self, spark, kind):
        df = spark.createDataFrame(pd.DataFrame({"a": [1.0]}))
        sql = distance_expr(
            kind, *map(sql_double, (41.8, -87.7, 41.9, -87.6)), 41.85
        )
        (v,) = [r.d for r in df.select(F.expr(sql).alias("d")).collect()]
        assert v > 0

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown distance function"):
            distance_expr("manhattan", "0", "0", "0", "0", 0.0)


class TestSqlText:
    @pytest.mark.parametrize("x", [0.1, 1 / 3, 1e-300, 12742017.6, 5e-324])
    def test_double_literal_round_trips_exactly(self, spark, x):
        df = spark.sql(f"SELECT {sql_double(x)} AS x")
        assert df.dtypes == [("x", "double")]
        (row,) = df.collect()
        assert row.x == x and repr(row.x) == repr(x)

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_non_finite_double_has_no_literal(self, x):
        """``infD`` and ``nanD`` would parse as column names."""
        with pytest.raises(ValueError, match="non-finite"):
            sql_double(x)

    @pytest.mark.parametrize("name", ["zip.code", "a`b", "two words"])
    def test_quoted_identifier_names_one_column(self, spark, name):
        df = spark.sql(f"SELECT 1 AS {sql_ident(name)}")
        assert df.columns == [name]
        assert df.selectExpr(sql_ident(name)).columns == [name]
