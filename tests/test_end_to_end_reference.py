"""Property test: ``sparcle_clean`` end to end against a pandas path.

Each seed generates a small Voronoi table with injected errors and nulls
and cleans it with every corrector under a range constraint (both
distances) and a kNN constraint. The expected repairs come from a
brute-force pandas DistanceMatrix fed through the driver-only reference of
Algorithms 1–2, the §5 formats and the arg-best (``tests/_alg2_reference.py``),
so the spatial join, the one shuffle by cell and every later stage are
checked together. The kNN DistanceMatrix is directed, so it also checks
that the detector flags a cell through a neighbour that names it.
"""
import pandas as pd
import pytest

from repro.core.constraints import SpatialKNNConstraint, SpatialRangeConstraint, WeightFunction
from repro.core.distance_matrix import cell_rows
from repro.core.error_detector import flag_cells
from repro.core.pipeline import CORRECTORS, sparcle_clean
from repro.synth_spatial import RegionAttr, spatial_dataset_pdf
from tests import _alg2_reference as ref
from tests._utils import BBOX_SMALL, pandas_dm

ATTR = RegionAttr("ward", 6, error_rate=0.15, dup_ratio=0.3, missing_frac=0.4)
D_M = 900.0
K = 6


def expected_repairs(df: pd.DataFrame, dm: pd.DataFrame, errors: set, host: str) -> dict:
    """The changed cells of the reference path: rid → new value."""
    kept = ref.kept_candidates(df, dm, errors, attribute="ward", min_prob=0.05, max_prob=0.95)
    own = df.set_index("rid")["ward"]
    return {r: v for r, v in ref.repairs(kept, host).items() if pd.isna(own[r]) or own[r] != v}


CONSTRAINTS = {
    "range-equirect": SpatialRangeConstraint("ward", D_M, WeightFunction(n=2.0)),
    "range-haversine": SpatialRangeConstraint(
        "ward", D_M, WeightFunction(n=1.0), distance="haversine"
    ),
    "knn": SpatialKNNConstraint("ward", k=K),
}


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("kind", CONSTRAINTS)
def test_sparcle_clean_matches_pandas_path(spark, kind, seed):
    pdf = spatial_dataset_pdf(n=240, attrs=[ATTR], bbox=BBOX_SMALL, seed=seed)
    sdf = spark.createDataFrame(pdf[["rid", "lat", "lon", "ward"]])
    constraint = CONSTRAINTS[kind]
    df, dm = pdf[["rid", "ward"]], pandas_dm(pdf, constraint)
    errors, _ = ref.detected(df, dm, attribute="ward")
    # A cell flagged only by a neighbour that names it keeps its value (its
    # own neighbours all agree with it), so the repairs cannot show whether
    # the detector saw the kNN DistanceMatrix from both ends; the flags can.
    det = flag_cells(cell_rows(sdf, constraint))
    assert {r.rid for r in det.error_ids.collect()} == errors
    for host in CORRECTORS:
        want = expected_repairs(df, dm, errors, host)
        out = sparcle_clean(sdf, constraint, corrector=host)
        got = {r.rid: r.new_value for r in out.repairs.collect()}
        assert got == want, host
        assert len(want) > 10, host  # the table has errors to repair
