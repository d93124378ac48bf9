"""Shared test helpers (not collected by pytest)."""
import numpy as np
import pandas as pd

from repro.core.constraints import SpatialRangeConstraint
from repro.spatial.geo import EARTH_RADIUS_M, M_PER_DEG_LAT, meters_per_degree_lon

BBOX_SMALL = (41.80, 41.90, -87.70, -87.60)  # ~11 km × 8 km patch of Chicago
BBOX_POLAR_CAP = (89.90, 89.95, -180.0, 180.0)  # a ring round the pole, every longitude
BBOX_ACROSS_180 = (10.00, 10.05, 179.95, 180.05)  # ~5.5 km × 11 km over the antimeridian


def rand_points(n: int, *, seed: int = 0, bbox=BBOX_SMALL) -> pd.DataFrame:
    """Uniform random (rid, lat, lon, v) points inside ``bbox``.

    ``v`` is a dependent value: one of three labels, null for about 10% of
    the records. It is drawn after the coordinates, so a seed gives the
    same points with or without it.
    """
    lat_min, lat_max, lon_min, lon_max = bbox
    g = np.random.default_rng(seed)
    lat = g.uniform(lat_min, lat_max, n)
    lon = g.uniform(lon_min, lon_max, n)
    lon = np.where(lon > 180, lon - 360, lon)  # a bbox past 180° wraps to the west
    v = g.choice(np.array(["A", "B", "C"], dtype=object), n)
    v[g.random(n) < 0.1] = None
    return pd.DataFrame(
        {"rid": np.arange(n, dtype=np.int64), "lat": lat, "lon": lon, "v": v}
    )


def equirect_np(pdf: pd.DataFrame, ref_lat: float) -> np.ndarray:
    """All-pairs equirectangular distance matrix (meters), numpy brute force."""
    m_lon = meters_per_degree_lon(ref_lat)
    dx = (pdf["lon"].values[:, None] - pdf["lon"].values[None, :]) * m_lon
    dy = (pdf["lat"].values[:, None] - pdf["lat"].values[None, :]) * M_PER_DEG_LAT
    return np.sqrt(dx * dx + dy * dy)


def haversine_np(pdf: pd.DataFrame) -> np.ndarray:
    """All-pairs great-circle distance matrix (meters), numpy brute force."""
    lat, lon = np.radians(pdf["lat"].values), np.radians(pdf["lon"].values)
    dlat = lat[None, :] - lat[:, None]
    dlon = lon[None, :] - lon[:, None]
    a = np.sin(dlat / 2) ** 2 + np.cos(lat)[:, None] * np.cos(lat)[None, :] * np.sin(dlon / 2) ** 2
    return 2 * EARTH_RADIUS_M * np.arcsin(np.sqrt(a))


def pandas_dm(pdf: pd.DataFrame, constraint) -> pd.DataFrame:
    """``cell_rows``' ``(r1, r2, v1, v2, w)`` by brute force over all pairs: the
    DistanceMatrix plus each record's own row (``r2 = r1``, null ``w``)."""
    if constraint.distance == "haversine":
        dist = haversine_np(pdf)
    else:
        dist = equirect_np(pdf, (pdf["lat"].min() + pdf["lat"].max()) / 2)
    n = len(pdf)
    np.fill_diagonal(dist, np.inf)
    if isinstance(constraint, SpatialRangeConstraint):
        i, j = np.nonzero(dist < constraint.d_m)
        d_max = np.full(len(i), constraint.d_m)
    else:  # the k nearest of each r1, ties by r2; d is the k-th distance
        order = np.lexsort((np.broadcast_to(np.arange(n), (n, n)), dist), axis=1)[:, : constraint.k]
        i, j = np.repeat(np.arange(n), constraint.k), order.ravel()
        d_max = np.repeat(dist[np.arange(n)[:, None], order].max(axis=1), constraint.k)
    d = dist[i, j]
    wf = constraint.weight
    with np.errstate(divide="ignore", invalid="ignore"):  # d_max = 0: duplicates only
        w = np.ones(len(i)) if wf.n == 0 else np.maximum(0.0, 1.0 - d / d_max) ** wf.n
    w = np.where(d_max <= 0, 1.0, w)
    w = np.maximum(w, wf.floor)
    i, j = np.concatenate([i, np.arange(n)]), np.concatenate([j, np.arange(n)])
    w = np.concatenate([w, np.full(n, np.nan)])
    ids, values = pdf["rid"].to_numpy(), pdf["ward"].to_numpy()
    return pd.DataFrame({"r1": ids[i], "r2": ids[j], "v1": values[i], "v2": values[j], "w": w})


def equirect_sql(ref_lat: float) -> str:
    """DuckDB expression template for the same equirectangular distance."""
    m_lon = meters_per_degree_lon(ref_lat)
    return (
        f"sqrt(pow((b.lon - a.lon) * {m_lon!r}, 2) + "
        f"pow((b.lat - a.lat) * {M_PER_DEG_LAT!r}, 2))"
    )


def haversine_sql() -> str:
    """DuckDB expression for the haversine distance (meters)."""
    R = 6_371_008.8
    return (
        f"2 * {R!r} * asin(sqrt("
        "pow(sin(radians(b.lat - a.lat) / 2), 2) + "
        "cos(radians(a.lat)) * cos(radians(b.lat)) * "
        "pow(sin(radians(b.lon - a.lon) / 2), 2)))"
    )


def pairs_set(df) -> set:
    """Spark or pandas pair frame → {(r1, r2)} set."""
    pdf = df.toPandas() if hasattr(df, "toPandas") else df
    return set(zip(pdf["r1"].astype(int), pdf["r2"].astype(int)))


#: Three valid records within 4 m of each other and, per case, a fourth that
#: breaks the record contract, with the name of the check that rejects it.
CONTRACT_RECORDS = [
    (0, 41.80000, -87.70000, "A"), (1, 41.80001, -87.70001, "A"), (2, 41.80002, -87.69999, "B")
]
CONTRACT_BREAKS = {
    "null-lat": ((3, None, -87.70000, "B"), "bad coordinates"),
    "nan-lon": ((3, 41.80003, float("nan"), "B"), "bad coordinates"),
    "duplicate-id": ((2, 41.80003, -87.70000, "B"), "duplicate id"),
}


def broken_frame(spark, case: str):
    """(the records of ``CONTRACT_RECORDS`` plus the break ``case``, its check's name)."""
    record, check = CONTRACT_BREAKS[case]
    df = spark.createDataFrame(
        CONTRACT_RECORDS + [record], "rid long, lat double, lon double, v string"
    )
    return df, check


#: More rounds than ``knn_pairs`` makes on valid records within 4 m of
#: each other, such as ``CONTRACT_RECORDS``: its first radius is at least
#: 1 m and doubles each round, so by the third round it passes 4 m.
KNN_ROUND_LIMIT = 4


def count_knn_rounds(monkeypatch, df, limit: int = KNN_ROUND_LIMIT) -> list:
    """Record each ``isEmpty`` call, one per ``knn_pairs`` round, in the
    returned list. The call past ``limit`` raises ``RuntimeError``, so a
    join that never resolves fails instead of running on."""
    rounds = []
    is_empty = type(df).isEmpty  # the concrete (classic) DataFrame class

    def counted(self):
        rounds.append(self)
        if len(rounds) > limit:
            raise RuntimeError(f"knn_pairs did not end within {limit} rounds")
        return is_empty(self)

    monkeypatch.setattr(type(df), "isEmpty", counted)
    return rounds
