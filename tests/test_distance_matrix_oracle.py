"""The whole DistanceMatrix ``(r1, r2, v1, v2, dist_m, w)`` against DuckDB.

Each case builds the matrix with ``cell_rows`` over random points whose
value column has three labels and about 10% nulls, and compares all six
columns with the same relation written as SQL, the cells' own rows (``r2 =
r1``, null ``w``) included.
"""
import pytest

from repro.core.constraints import (
    ExactLocationConstraint,
    SpatialKNNConstraint,
    SpatialRangeConstraint,
    WeightFunction,
)
from repro.core.distance_matrix import cell_rows
from repro.oracle import assert_equivalent
from repro.spatial.join import compute_extent
from tests._utils import equirect_sql, haversine_sql, rand_points


#: The DistanceMatrix columns; a range or exact constraint's rows carry the
#: join's key first (``r1``'s tile, or the location).
COLUMNS = ("r1", "r2", "v1", "v2", "dist_m", "w")


def _weight_sql(n: float, d_max: str) -> str:
    """``(1 − dist/d)^n``, the paper's weight, in DuckDB; null on an own row."""
    return (
        "CASE WHEN r1 = r2 THEN NULL"
        f" ELSE pow(greatest(0.0, 1.0 - dist_m / {d_max}), {float(n)!r}) END"
    )


def _pairs_sql(dist: str, where: str) -> str:
    return f"""
        SELECT a.rid AS r1, b.rid AS r2, a.v AS v1, b.v AS v2, {dist} AS dist_m
        FROM pts a JOIN pts b ON {where}
    """


class TestRangeMatrix:
    @pytest.mark.parametrize("d, n", [(400.0, 2.0), (1200.0, 1.0)])
    def test_equirect_matches_duckdb(self, spark, d, n):
        pdf = rand_points(160, seed=60)
        sdf = spark.createDataFrame(pdf)
        dist = equirect_sql(compute_extent(sdf).ref_lat)
        dm = cell_rows(
            sdf, SpatialRangeConstraint("v", d, WeightFunction(n=n), distance="equirect")
        )
        assert tuple(dm.columns) == ("_cx", "_cy", *COLUMNS)
        sql = f"""
            SELECT *, {_weight_sql(n, repr(d))} AS w
            FROM ({_pairs_sql(dist, f"{dist} < {d!r}")})
        """
        assert_equivalent(dm.selectExpr(*COLUMNS), sql, pts=pdf)

    def test_haversine_matches_duckdb(self, spark):
        pdf = rand_points(120, seed=61)
        d = 900.0
        dm = cell_rows(
            spark.createDataFrame(pdf),
            SpatialRangeConstraint("v", d, WeightFunction(n=2.0), distance="haversine"),
        ).selectExpr(*COLUMNS)
        dist = haversine_sql()
        sql = f"""
            SELECT *, {_weight_sql(2.0, repr(d))} AS w
            FROM ({_pairs_sql(dist, f"{dist} < {d!r}")})
        """
        assert_equivalent(dm, sql, pts=pdf)


class TestExactMatrix:
    @pytest.mark.parametrize(
        "constraint", [ExactLocationConstraint("v"), SpatialRangeConstraint("v", 0.0)]
    )
    def test_duplicated_coordinates_match_duckdb(self, spark, constraint):
        pdf = rand_points(60, seed=62)
        pdf.loc[5:9, ["lat", "lon"]] = pdf.loc[0, ["lat", "lon"]].values
        pdf.loc[20:22, ["lat", "lon"]] = pdf.loc[30, ["lat", "lon"]].values
        dm = cell_rows(spark.createDataFrame(pdf), constraint)
        assert tuple(dm.columns) == ("_cx", "_cy", *COLUMNS)
        sql = f"""
            SELECT *, CASE WHEN r1 = r2 THEN NULL ELSE 1.0 END AS w
            FROM ({_pairs_sql("0.0", "a.lat = b.lat AND a.lon = b.lon")})
        """
        assert_equivalent(dm.selectExpr(*COLUMNS), sql, pts=pdf)


class TestKnnMatrix:
    def test_k3_matches_duckdb(self, spark):
        pdf = rand_points(140, seed=63)
        sdf = spark.createDataFrame(pdf)
        k, n, floor = 3, 2.0, 0.01
        dist = equirect_sql(compute_extent(sdf).ref_lat)
        dm = cell_rows(
            sdf, SpatialKNNConstraint("v", k=k, weight=WeightFunction(n=n, floor=floor))
        )
        assert tuple(dm.columns) == COLUMNS
        # Each r1's own row ranks first, then its k nearest others. d is the
        # k-th neighbour's distance; the floor keeps that neighbour's weight
        # at 0.01 instead of 0.
        sql = f"""
            WITH ranked AS (
                SELECT *, row_number() OVER (PARTITION BY r1 ORDER BY r1 <> r2, dist_m, r2) AS rk
                FROM ({_pairs_sql(dist, "true")})
            ), knn AS (
                SELECT *, max(dist_m) OVER (PARTITION BY r1) AS d_max
                FROM ranked WHERE rk <= {k + 1}
            )
            SELECT r1, r2, v1, v2, dist_m,
                   CASE WHEN r1 = r2 THEN NULL
                        ELSE greatest({_weight_sql(n, "d_max")}, {floor!r}) END AS w
            FROM knn
        """
        assert_equivalent(dm, sql, pts=pdf)
