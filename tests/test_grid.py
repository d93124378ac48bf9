"""Grid tiling: sizing guarantees and neighborhood coverage."""
import numpy as np
import pytest

from repro.spatial import grid
from repro.spatial.geo import M_PER_DEG_LAT, meters_per_degree_lon
from tests._utils import BBOX_SMALL, equirect_np, rand_points


class TestTileSizes:
    def test_positive(self):
        lat_deg, lon_deg = grid.tile_sizes_deg(1000.0, 42.0)
        assert lat_deg > 0 and lon_deg > 0

    def test_at_least_d_meters(self):
        d = 750.0
        lat_deg, lon_deg = grid.tile_sizes_deg(d, 42.0)
        assert lat_deg * M_PER_DEG_LAT >= d
        assert lon_deg * meters_per_degree_lon(42.0) >= d

    def test_lon_tile_grows_with_latitude(self):
        _, lo = grid.tile_sizes_deg(1000.0, 0.0)
        _, hi = grid.tile_sizes_deg(1000.0, 60.0)
        assert hi > lo

    @pytest.mark.parametrize("d", [0.0, -5.0])
    def test_nonpositive_d_raises(self, d):
        with pytest.raises(ValueError, match="positive"):
            grid.tile_sizes_deg(d, 42.0)

    def test_polar_extent_falls_back_to_world_lon(self):
        lat_deg, lon_deg = grid.tile_sizes_deg(1000.0, 90.0)
        assert lon_deg == 360.0 and lat_deg > 0

    @pytest.mark.parametrize("d,lat", [(1000.0, 0.0), (750.0, 42.0), (165_000.0, 89.0)])
    def test_lon_tiles_divide_the_globe(self, d, lat):
        n = grid.lon_tile_count(d, lat)
        _, lon_deg = grid.tile_sizes_deg(d, lat)
        assert n >= 1 and lon_deg * n == pytest.approx(360.0)

    @pytest.mark.parametrize("d", [20_400_000.0, 39_000_000.0, 41_000_000.0, 1e12])
    def test_radius_past_half_the_circumference_is_one_tile(self, d):
        """Past πR the half-angle of the chord clamps at π/2: a sine taken
        beyond it falls again and would give more tiles, or fewer than none."""
        assert grid.lon_tile_count(d, 0.0) == 1

    def test_tile_count_never_grows_with_the_radius(self):
        counts = [grid.lon_tile_count(1000.0 * 1.5**i, 0.0) for i in range(40)]
        assert counts == sorted(counts, reverse=True) and counts[-1] == 1


class TestWithTiles:
    def test_adds_integer_tile_columns(self, spark):
        df = spark.createDataFrame(rand_points(20, seed=1))
        out = grid.with_tiles(df, d_m=500.0, max_abs_lat_deg=42.0)
        assert grid.CELL_X in out.columns and grid.CELL_Y in out.columns
        types = dict(out.dtypes)
        assert types[grid.CELL_X] == "bigint" and types[grid.CELL_Y] == "bigint"

    def test_same_point_same_tile(self, spark):
        pdf = rand_points(1, seed=2)
        df = spark.createDataFrame(pdf)
        a = grid.with_tiles(df, d_m=500.0, max_abs_lat_deg=42.0)
        b = grid.with_tiles(df, d_m=500.0, max_abs_lat_deg=42.0)
        assert a.collect() == b.collect()

    @pytest.mark.parametrize("d", [200.0, 800.0, 3000.0])
    def test_within_d_implies_adjacent_tiles(self, spark, d):
        """The coverage invariant behind the 3×3 probe: any two points
        within d land in tiles at Chebyshev distance <= 1."""
        pdf = rand_points(150, seed=3)
        tiles = (
            grid.with_tiles(
                spark.createDataFrame(pdf),
                d_m=d,
                max_abs_lat_deg=max(abs(pdf["lat"].min()), abs(pdf["lat"].max())),
            )
            .select("rid", grid.CELL_X, grid.CELL_Y)
            .toPandas()
            .set_index("rid")
        )
        dist = equirect_np(pdf, ref_lat=(pdf["lat"].min() + pdf["lat"].max()) / 2)
        close = np.argwhere((dist < d) & (dist > 0))
        assert len(close) > 0, "test data must contain in-range pairs"
        for i, j in close:
            dx = abs(tiles.loc[i, grid.CELL_X] - tiles.loc[j, grid.CELL_X])
            dy = abs(tiles.loc[i, grid.CELL_Y] - tiles.loc[j, grid.CELL_Y])
            assert max(dx, dy) <= 1


class TestExplodeNeighborhood:
    def test_nine_rows_per_input(self, spark):
        df = grid.with_tiles(
            spark.createDataFrame(rand_points(7, seed=4)),
            d_m=500.0, max_abs_lat_deg=42.0,
        )
        lon_tiles = grid.lon_tile_count(500.0, 42.0)
        assert grid.explode_neighborhood(df, lon_tiles=lon_tiles).count() == 7 * 9

    def test_offsets_cover_3x3(self, spark):
        df = grid.with_tiles(
            spark.createDataFrame(rand_points(1, seed=5)),
            d_m=500.0, max_abs_lat_deg=42.0,
        )
        base = df.select(grid.CELL_X, grid.CELL_Y).first()
        lon_tiles = grid.lon_tile_count(500.0, 42.0)
        got = {
            (r[grid.CELL_X] - base[grid.CELL_X], r[grid.CELL_Y] - base[grid.CELL_Y])
            for r in grid.explode_neighborhood(df, lon_tiles=lon_tiles).collect()
        }
        assert got == {(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)}

    @pytest.mark.parametrize("lon_tiles", [1, 2])
    def test_fewer_than_three_lon_tiles_are_each_probed_once(self, spark, lon_tiles):
        df = grid.with_tiles(
            spark.createDataFrame(rand_points(7, seed=4)),
            d_m=500.0, max_abs_lat_deg=42.0,
        )
        out = grid.explode_neighborhood(df, lon_tiles=lon_tiles).toPandas()
        assert len(out) == 7 * 3 * lon_tiles
        assert not out.duplicated(["rid", grid.CELL_X, grid.CELL_Y]).any()
        assert set(out[grid.CELL_X]) <= set(range(lon_tiles))
