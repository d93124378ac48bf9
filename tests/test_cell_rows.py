"""The rows the detector reads: the DistanceMatrix plus one own row per record.

``cell_rows`` takes each record's own row from the spatial join's self
pair, so no record may lose it, wherever the grid puts the record. Each
case below is a seeded frame at an edge of the grid. The own rows are
checked one by one, all the rows against brute force, and the
detector, Algorithm 2 and every host's arg-best, run on these rows, against
the driver-only reference in ``tests/_alg2_reference.py``.
"""
import numpy as np
import pandas as pd
import pytest

from repro.core.candidate_gen import generate_candidates
from repro.core.constraints import SpatialKNNConstraint, SpatialRangeConstraint
from repro.core.distance_matrix import cell_rows
from repro.core.error_detector import flag_cells
from repro.core.pipeline import _HOSTS
from repro.hostsys.corrector import REPAIR, argbest
from repro.spatial import grid
from repro.spatial.join import compute_extent
from tests import _alg2_reference as ref
from tests._utils import (
    BBOX_ACROSS_180,
    BBOX_POLAR_CAP,
    BBOX_SMALL,
    haversine_np,
    pandas_dm,
    rand_points,
)


def shared_location(n: int, shared: int, seed: int) -> pd.DataFrame:
    """``n`` random records, the first ``shared`` of them moved onto one location."""
    pdf = rand_points(n, seed=seed)
    pdf.loc[: shared - 1, ["lat", "lon"]] = pdf.loc[0, ["lat", "lon"]].to_numpy()
    return pdf


#: (records, constraint); every frame has null values.
CASES = {
    "across-180": (
        rand_points(60, seed=70, bbox=BBOX_ACROSS_180),
        SpatialRangeConstraint("ward", 1500.0, distance="haversine"),
    ),
    "two-lon-tiles": (
        rand_points(40, seed=71, bbox=(-45.0, 45.0, -180.0, 180.0)),
        SpatialRangeConstraint("ward", 9_000_000.0, distance="haversine"),
    ),
    "near-pole": (
        rand_points(60, seed=72, bbox=BBOX_POLAR_CAP),
        SpatialRangeConstraint("ward", 2000.0, distance="haversine"),
    ),
    "below-spacing": (
        rand_points(30, seed=73, bbox=BBOX_SMALL),
        SpatialRangeConstraint("ward", 5.0),
    ),
    # More than k + 1 records share one location, all at distance 0.
    "knn-shared-location": (shared_location(40, 7, seed=74), SpatialKNNConstraint("ward", k=3)),
}


def case_frame(case: str) -> tuple[pd.DataFrame, object]:
    pdf, constraint = CASES[case]
    return pdf.rename(columns={"v": "ward"}), constraint


def test_cases_cover_the_edges_of_the_grid(spark):
    """Each case is the edge its name says, and each has null values."""
    for case in CASES:
        pdf, _ = case_frame(case)
        assert pdf["ward"].isna().any(), case
    across, _ = case_frame("across-180")
    assert (across["lon"] > 179.95).any() and (across["lon"] < -179.95).any()
    wide, constraint = case_frame("two-lon-tiles")
    extent = compute_extent(spark.createDataFrame(wide))
    assert grid.lon_tile_count(constraint.d_m, extent.max_abs_lat) == 2
    polar, _ = case_frame("near-pole")
    assert polar["lat"].min() > 89.9
    sparse, constraint = case_frame("below-spacing")
    dist = haversine_np(sparse)
    np.fill_diagonal(dist, np.inf)
    assert dist.min() > constraint.d_m
    shared, constraint = case_frame("knn-shared-location")
    assert shared.duplicated(["lat", "lon"], keep=False).sum() > constraint.k + 1


@pytest.mark.parametrize("case", CASES)
def test_own_rows_stay_complete(spark, case):
    pdf, constraint = case_frame(case)
    sdf = spark.createDataFrame(pdf)
    rows = cell_rows(sdf, constraint)
    got = rows.toPandas()

    own = got[got["r1"] == got["r2"]].set_index("r1").sort_index()
    assert own.index.tolist() == sorted(pdf["rid"])  # exactly one per record
    value = pdf.set_index("rid")["ward"].loc[own.index]
    for column in ("v1", "v2"):
        assert own[column].isna().equals(value.isna()), column
        assert (own[column].dropna() == value.dropna()).all(), column
    assert own["w"].isna().all()

    dm = pandas_dm(pdf, constraint)
    assert sorted(zip(got["r1"], got["r2"])) == sorted(zip(dm["r1"], dm["r2"]))

    detected = flag_cells(rows)
    records = pdf[["rid", "ward"]]
    errors, clean = ref.detected(records, dm, attribute="ward")
    assert {r.rid for r in detected.error_ids.collect()} == errors
    assert {r.rid for r in detected.clean_ids.collect()} == clean

    kept = generate_candidates(sdf, detected, attribute="ward").kept
    want = ref.kept_candidates(records, dm, errors, attribute="ward", min_prob=0.05, max_prob=0.95)
    have = kept.toPandas().sort_values(["rid", "value"]).reset_index(drop=True)
    want = want.sort_values(["rid", "value"]).reset_index(drop=True)
    assert have[["rid", "value", "labeled"]].values.tolist() == (
        want[["rid", "value", "labeled"]].values.tolist()
    )
    for column in ref.KEPT_COLS[2:]:
        np.testing.assert_allclose(
            have[column].astype(float), want[column].astype(float), rtol=1e-9, atol=1e-12,
            err_msg=column,
        )
    for host, (formatter, lower_is_better) in _HOSTS.items():
        picked = argbest(formatter(kept), lower_is_better=lower_is_better)
        # With no neighbours anywhere (below-spacing) no cell has a candidate.
        expected = ref.repairs(want, host) if len(want) else {}
        assert {r.rid: r[REPAIR] for r in picked.collect()} == expected, host
