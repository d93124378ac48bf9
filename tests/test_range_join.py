"""Range and exact self-joins, self pairs included, against the DuckDB oracle and invariants."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.oracle import assert_equivalent
from repro.spatial.join import DIST, PAIR_COLUMNS, compute_extent, exact_pairs, range_pairs
from tests._utils import (
    BBOX_ACROSS_180,
    BBOX_POLAR_CAP,
    CONTRACT_BREAKS,
    broken_frame,
    equirect_sql,
    haversine_np,
    haversine_sql,
    pairs_set,
    rand_points,
)


class TestAgainstOracle:
    @pytest.mark.parametrize("d", [150.0, 600.0, 2500.0])
    def test_equirect_matches_duckdb(self, spark, d):
        pdf = rand_points(180, seed=10)
        sdf = spark.createDataFrame(pdf)
        ext = compute_extent(sdf)
        got = range_pairs(sdf, d_m=d, value_col="v", distance="equirect")
        sql = f"""
            SELECT a.rid AS r1, b.rid AS r2, a.v AS v1, b.v AS v2,
                   {equirect_sql(ext.ref_lat)} AS dist_m
            FROM pts a, pts b
            WHERE {equirect_sql(ext.ref_lat)} < {d!r}
        """
        assert_equivalent(got.selectExpr(*PAIR_COLUMNS), sql, pts=pdf)

    @pytest.mark.parametrize("d", [300.0, 1500.0])
    def test_haversine_matches_duckdb(self, spark, d):
        pdf = rand_points(120, seed=11)
        got = range_pairs(
            spark.createDataFrame(pdf), d_m=d, value_col="v", distance="haversine"
        )
        sql = f"""
            SELECT a.rid AS r1, b.rid AS r2, a.v AS v1, b.v AS v2, {haversine_sql()} AS dist_m
            FROM pts a, pts b
            WHERE {haversine_sql()} < {d!r}
        """
        assert_equivalent(got.selectExpr(*PAIR_COLUMNS), sql, pts=pdf)


class TestInvariants:
    @pytest.fixture(scope="class")
    def joined(self, spark):
        pdf = rand_points(200, seed=12)
        out = range_pairs(spark.createDataFrame(pdf), d_m=800.0, value_col="v").toPandas()
        return pdf, out

    def test_symmetric(self, joined):
        _, out = joined
        pairs = set(zip(out["r1"], out["r2"]))
        assert pairs == {(b, a) for a, b in pairs}

    def test_one_self_pair_per_record(self, joined):
        pdf, out = joined
        own = out[out["r1"] == out["r2"]]
        assert sorted(own["r1"]) == sorted(pdf["rid"])
        assert (own[DIST] == 0.0).all()
        pd.testing.assert_series_equal(own["v1"], own["v2"], check_names=False)

    def test_strictly_below_d(self, joined):
        _, out = joined
        assert (out[DIST] < 800.0).all()
        assert (out[DIST] >= 0.0).all()

    def test_nonempty_at_this_density(self, joined):
        pdf, out = joined
        assert len(out) > len(pdf)

    def test_tiny_radius_yields_empty(self, spark):
        """No record has a neighbour: the join yields each record's self pair alone."""
        pdf = rand_points(60, seed=13)
        out = range_pairs(spark.createDataFrame(pdf), d_m=0.5, value_col="v").toPandas()
        assert sorted(zip(out["r1"], out["r2"])) == [(r, r) for r in sorted(pdf["rid"])]

    def test_duplicate_locations_pair_at_zero(self, spark):
        pdf = rand_points(5, seed=14)
        dup = pdf.copy()
        dup["rid"] = dup["rid"] + 100
        both = spark.createDataFrame(
            __import__("pandas").concat([pdf, dup], ignore_index=True)
        )
        out = range_pairs(both, d_m=50.0, value_col="v").toPandas()
        zero = out[out[DIST] == 0.0]
        assert pairs_set(zero) >= {(i, i + 100) for i in range(5)}

    def test_custom_column_names(self, spark):
        pdf = rand_points(40, seed=15).rename(columns={"v": "ward"})
        out = range_pairs(spark.createDataFrame(pdf), d_m=1000.0, value_col="ward")
        assert set(out.columns) == {"r1", "r2", "v1", "v2", DIST, "_cx", "_cy"}

    def test_precomputed_extent_gives_same_result(self, spark):
        pdf = rand_points(80, seed=16)
        sdf = spark.createDataFrame(pdf)
        ext = compute_extent(sdf)
        a = range_pairs(sdf, d_m=700.0, value_col="v").toPandas()
        b = range_pairs(sdf, d_m=700.0, value_col="v", extent=ext).toPandas()
        assert pairs_set(a) == pairs_set(b)


class TestExactJoin:
    def test_only_exact_duplicates(self, spark):
        pdf = rand_points(30, seed=17)
        pdf.loc[1, ["lat", "lon"]] = pdf.loc[0, ["lat", "lon"]].values
        pdf.loc[2, ["lat", "lon"]] = pdf.loc[0, ["lat", "lon"]].values
        # −0.0 equals 0.0, so these two pair, as an equality join on the
        # coordinates pairs them.
        zeros = pd.DataFrame(
            {"rid": [30, 31], "lat": [-0.0, 0.0], "lon": [-87.65, -87.65], "v": ["A", "B"]}
        )
        pdf = pd.concat([pdf, zeros], ignore_index=True)
        out = exact_pairs(spark.createDataFrame(pdf), value_col="v").toPandas()
        assert pairs_set(out) == {
            (0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1), (30, 31), (31, 30)
        } | {(r, r) for r in pdf["rid"]}
        assert len(out) == 8 + len(pdf)
        assert (out[DIST] == 0.0).all()

    def test_no_duplicates_empty(self, spark):
        """No two records share a location: no pair but the self pairs."""
        pdf = rand_points(25, seed=18)
        out = exact_pairs(spark.createDataFrame(pdf), value_col="v").toPandas()
        assert sorted(zip(out["r1"], out["r2"])) == [(r, r) for r in sorted(pdf["rid"])]

    def test_matches_duckdb(self, spark):
        pdf = rand_points(40, seed=19)
        pdf.loc[5:9, "lat"] = pdf.loc[0, "lat"]
        pdf.loc[5:9, "lon"] = pdf.loc[0, "lon"]
        got = exact_pairs(spark.createDataFrame(pdf), value_col="v")
        sql = """
            SELECT a.rid AS r1, b.rid AS r2, a.v AS v1, b.v AS v2, 0.0 AS dist_m
            FROM pts a JOIN pts b
              ON a.lat = b.lat AND a.lon = b.lon
        """
        assert_equivalent(got.selectExpr(*PAIR_COLUMNS), sql, pts=pdf)


class TestExtent:
    def test_fields(self, spark):
        pdf = rand_points(50, seed=20)
        ext = compute_extent(spark.createDataFrame(pdf))
        assert ext.n == 50
        assert ext.lat_min == pytest.approx(pdf["lat"].min())
        assert ext.lat_max == pytest.approx(pdf["lat"].max())
        assert ext.width_m > 0 and ext.height_m > 0
        assert ext.diagonal_m == pytest.approx(
            np.hypot(ext.width_m, ext.height_m)
        )

    def test_empty_input(self, spark):
        empty = spark.createDataFrame([], schema="rid long, lat double, lon double, v string")
        ext = compute_extent(empty)
        assert ext.n == 0
        assert range_pairs(empty, d_m=100.0, value_col="v", extent=ext).count() == 0


class TestPolesAndAntimeridian:
    """Where longitude wraps or its degrees shrink to nothing, against brute force."""

    @pytest.mark.parametrize("distance", ["equirect", "haversine"])
    def test_pair_across_the_antimeridian(self, spark, distance):
        pdf = pd.DataFrame(
            {"rid": [0, 1], "lat": [0.0, 0.0], "lon": [179.999, -179.999], "v": ["A", "B"]}
        )
        out = range_pairs(
            spark.createDataFrame(pdf), d_m=1000.0, value_col="v", distance=distance
        ).toPandas().sort_values(["r1", "r2"])
        assert list(zip(out["r1"], out["r2"])) == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert out[DIST].tolist() == pytest.approx([0.0, 222.4, 222.4, 0.0], abs=0.1)

    def test_pair_a_quarter_turn_apart_near_the_pole(self, spark):
        """At lat 89 a 165 km tile spans ~86° of longitude on the parallel,
        but the great circle between two records 90.2° apart is 157.5 km:
        tiles must be sized by the chord, not the parallel's arc."""
        pdf = pd.DataFrame(
            {"rid": [0, 1], "lat": [89.0, 89.0], "lon": [89.9, -179.9], "v": ["A", "B"]}
        )
        out = range_pairs(
            spark.createDataFrame(pdf), d_m=165_000.0, value_col="v", distance="haversine"
        ).toPandas().sort_values(["r1", "r2"])
        assert list(zip(out["r1"], out["r2"])) == [(0, 0), (0, 1), (1, 0), (1, 1)]
        d = haversine_np(pdf)[0, 1]
        assert out[DIST].tolist() == pytest.approx([0.0, d, d, 0.0], rel=1e-9)

    @pytest.mark.parametrize(
        "bbox,d",
        [(BBOX_POLAR_CAP, 2000.0), (BBOX_POLAR_CAP, 20_000.0), (BBOX_ACROSS_180, 1000.0)],
        ids=["polar-cap", "polar-cap-one-lon-tile", "across-180"],
    )
    def test_haversine_matches_brute_force(self, spark, bbox, d):
        pdf = rand_points(300, seed=21, bbox=bbox)
        got = range_pairs(
            spark.createDataFrame(pdf), d_m=d, value_col="v", distance="haversine"
        ).toPandas()
        dist = haversine_np(pdf)
        i, j = np.nonzero(dist < d)
        assert pairs_set(got) == set(zip(i.tolist(), j.tolist()))
        assert not got.duplicated(["r1", "r2"]).any()
        got = got.sort_values(["r1", "r2"])
        np.testing.assert_allclose(got[DIST], dist[got["r1"], got["r2"]], rtol=1e-9, atol=1e-6)

    @pytest.mark.parametrize("d", [39_000_000.0, 41_000_000.0])
    def test_radius_past_half_the_circumference_pairs_everything(self, spark, d):
        """No two records are farther apart than πR ≈ 20,015 km, so a radius
        past it pairs every record with every other, and itself."""
        pdf = pd.DataFrame(
            {"rid": [0, 1, 2], "lat": [0.0, 0.0, 0.0], "lon": [0.0, 90.0, 179.0], "v": ["A", "B", "C"]}
        )
        out = range_pairs(
            spark.createDataFrame(pdf), d_m=d, value_col="v", distance="haversine"
        ).toPandas()
        assert pairs_set(out) == {(i, j) for i in range(3) for j in range(3)}
        assert not out.duplicated(["r1", "r2"]).any()

    def test_extent_across_180_spans_the_short_way(self, spark):
        """0.1° of longitude at lat 10 is about 10.9 km, not the ~39,400 km
        from −179.95 east to 179.95, which would size the kNN radius from a
        density three thousand times too low."""
        ext = compute_extent(spark.createDataFrame(rand_points(300, seed=21, bbox=BBOX_ACROSS_180)))
        assert ext.lon_span == pytest.approx(0.1, abs=0.005)
        assert 10_000 < ext.width_m < 12_000

    def test_polar_cap_extent_keeps_every_longitude(self, spark):
        """Records all round the pole span nearly 360° either way round, so
        the extent keeps (almost) the full circle: the larger gap, here the
        one at 0°, is all it leaves out."""
        pdf = rand_points(300, seed=21, bbox=BBOX_POLAR_CAP)
        ext = compute_extent(spark.createDataFrame(pdf))
        lon360 = pdf["lon"] % 360
        assert ext.lon_span == pytest.approx(lon360.max() - lon360.min())
        assert ext.lon_span > 355.0


class TestInputContract:
    """A direct call checks its records as ``sparcle_clean`` does: a record
    the grid cannot place, or a repeated id, raises instead of losing pairs."""

    @pytest.mark.parametrize("case", CONTRACT_BREAKS)
    def test_broken_record_names_the_failed_check(self, spark, case):
        df, check = broken_frame(spark, case)
        with pytest.raises(ValueError, match=check):
            range_pairs(df, d_m=500.0, value_col="v")
