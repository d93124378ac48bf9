"""End-to-end Sparcle pipeline vs the exact-location host baseline."""
import pandas as pd
import pytest

from repro.core.constraints import (
    ExactLocationConstraint,
    SpatialKNNConstraint,
    SpatialRangeConstraint,
    WeightFunction,
)
from repro.core.pipeline import host_baseline_clean, sparcle_clean
from repro.evalx.metrics import duplication_split, evaluate_repairs
from repro.synth_spatial import BBOX_CHICAGO, RegionAttr, spatial_dataset_pdf

ATTR = RegionAttr("ward", 8, error_rate=0.12, dup_ratio=0.4, missing_frac=0.5)
D_M = 1800.0  # ~40 expected neighbors at n=1000 over the Chicago bbox


@pytest.fixture(scope="module")
def data(spark):
    pdf = spatial_dataset_pdf(n=1000, attrs=[ATTR], bbox=BBOX_CHICAGO, seed=21)
    sdf = spark.createDataFrame(pdf[["rid", "lat", "lon", "ward"]])
    return pdf, sdf


@pytest.fixture(scope="module")
def sparcle_out(data):
    _, sdf = data
    return sparcle_clean(
        sdf, SpatialRangeConstraint("ward", D_M, WeightFunction(n=2.0)),
        corrector="aimnet",
    )


@pytest.fixture(scope="module")
def baseline_out(data):
    _, sdf = data
    return host_baseline_clean(sdf, "ward", corrector="aimnet")


def _metrics(pdf, out):
    repairs = out.repairs.select("rid", "new_value").toPandas()
    return evaluate_repairs(pdf, repairs, attribute="ward")


class TestSparcleEndToEnd:
    def test_substantially_cleans(self, data, sparcle_out):
        pdf, _ = data
        m = _metrics(pdf, sparcle_out)
        assert m.recall > 0.8 and m.f1 > 0.7

    def test_beats_host_baseline(self, data, sparcle_out, baseline_out):
        pdf, _ = data
        assert _metrics(pdf, sparcle_out).f1 > _metrics(pdf, baseline_out).f1 + 0.2

    def test_repairs_listed_are_changes_only(self, sparcle_out):
        rep = sparcle_out.repairs.toPandas()
        changed = rep["new_value"].notna() & (
            rep["old_value"].isna() | (rep["old_value"] != rep["new_value"])
        )
        assert changed.all()

    def test_repaired_df_consistent_with_repairs(self, data, sparcle_out):
        pdf, _ = data
        rep = sparcle_out.repairs.toPandas().set_index("rid")["new_value"]
        out = sparcle_out.repaired_df.toPandas().set_index("rid")["ward"]
        for rid, newv in rep.items():
            assert out[rid] == newv
        untouched = pdf[~pdf["rid"].isin(rep.index)].set_index("rid")
        got = out[untouched.index]
        assert (
            (got == untouched["ward"]) | (got.isna() & untouched["ward"].isna())
        ).all()

    def test_diagnostics_keys(self, sparcle_out):
        d = sparcle_out.diagnostics
        assert {"n_records", "elapsed_s"} <= set(d)
        assert d["n_records"] == 1000


class TestBaselineBehaviour:
    def test_baseline_fixes_duplicated_not_new(self, data, baseline_out):
        """The paper's Table 1 mechanism: exact co-occurrence repairs
        duplicated-location errors but almost none at new locations."""
        pdf, _ = data
        repairs = baseline_out.repairs.select("rid", "new_value").toPandas()
        s = duplication_split(pdf, repairs, attribute="ward")
        assert s.duplicated_recall > 0.8
        assert s.new_location_recall < 0.1
        assert s.n_duplicated > 0 and s.n_new > 0

    def test_sparcle_fixes_both(self, data, sparcle_out):
        pdf, _ = data
        repairs = sparcle_out.repairs.select("rid", "new_value").toPandas()
        s = duplication_split(pdf, repairs, attribute="ward")
        assert s.duplicated_recall > 0.8
        assert s.new_location_recall > 0.8

    def test_d_zero_range_equals_exact_baseline(self, data, baseline_out):
        _, sdf = data
        via_zero = sparcle_clean(
            sdf, SpatialRangeConstraint("ward", 0.0), corrector="aimnet"
        )
        a = via_zero.repairs.select("rid", "new_value").toPandas()
        b = baseline_out.repairs.select("rid", "new_value").toPandas()
        key = lambda p: sorted(map(tuple, p.fillna("∅").values))
        assert key(a) == key(b)


class TestVariants:
    @pytest.mark.parametrize("corrector", ["holoclean", "baran"])
    def test_other_correctors_also_clean(self, data, sparcle_out, corrector):
        pdf, sdf = data
        out = sparcle_clean(
            sdf, SpatialRangeConstraint("ward", D_M, WeightFunction(n=2.0)),
            corrector=corrector,
        )
        m = _metrics(pdf, out)
        assert m.recall > 0.7
        # With independent cells every §5 format ranks a cell's candidates
        # by spatial weight, so all three hosts pick the AimNet repairs.
        a = out.repairs.select("rid", "new_value").toPandas()
        b = sparcle_out.repairs.select("rid", "new_value").toPandas()
        key = lambda p: sorted(map(tuple, p.fillna("∅").values))
        assert key(a) == key(b)

    def test_unknown_corrector_raises(self, data):
        _, sdf = data
        with pytest.raises(ValueError, match="corrector"):
            sparcle_clean(sdf, SpatialRangeConstraint("ward", D_M), corrector="nope")

    def test_knn_constraint_end_to_end(self, data):
        pdf, sdf = data
        out = sparcle_clean(
            sdf, SpatialKNNConstraint("ward", k=20), corrector="aimnet"
        )
        m = _metrics(pdf, out)
        assert m.recall > 0.7

    def test_n0_ablation_runs_and_cleans(self, data):
        pdf, sdf = data
        out = sparcle_clean(
            sdf, SpatialRangeConstraint("ward", D_M, WeightFunction(n=0.0)),
            corrector="aimnet",
        )
        m = _metrics(pdf, out)
        assert m.recall > 0.6

    def test_exact_constraint_object_directly(self, data, baseline_out):
        _, sdf = data
        out = sparcle_clean(sdf, ExactLocationConstraint("ward"), corrector="aimnet")
        a = out.repairs.select("rid", "new_value").toPandas()
        b = baseline_out.repairs.select("rid", "new_value").toPandas()
        key = lambda p: sorted(map(tuple, p.fillna("∅").values))
        assert key(a) == key(b)


SCHEMA = "rid long, lat double, lon double, ward string"
#: Five records a few hundred meters apart; r5 holds the minority value.
FIVE = [
    (1, 41.800, -87.700, "A"),
    (2, 41.801, -87.700, "A"),
    (3, 41.800, -87.701, "A"),
    (4, 41.801, -87.701, "A"),
    (5, 41.8005, -87.7005, "B"),
]
RANGE = SpatialRangeConstraint("ward", 500.0)
KNN = SpatialKNNConstraint("ward", k=3)


class TestInputContract:
    """``sparcle_clean`` rejects input the spatial join cannot place."""

    @pytest.mark.parametrize(
        "r5,check",
        [
            ((None, 41.8005, -87.7005, "B"), "null id"),
            ((1, 41.8005, -87.7005, "B"), "duplicate id"),
            ((5, None, -87.7005, "B"), "bad coordinates"),
            ((5, 41.8005, float("nan"), "B"), "bad coordinates"),
        ],
        ids=["null-id", "duplicate-id", "null-lat", "nan-lon"],
    )
    def test_sparcle_clean_names_the_failed_check(self, spark, r5, check):
        rows = FIVE[:4] + [r5]
        with pytest.raises(ValueError, match=check):
            sparcle_clean(spark.createDataFrame(rows, SCHEMA), RANGE, corrector="aimnet")

    def test_host_baseline_rejects_latitude_out_of_range(self, spark):
        rows = FIVE[:4] + [(5, 91.0, -87.7005, "B")]
        with pytest.raises(ValueError, match="bad coordinates"):
            host_baseline_clean(spark.createDataFrame(rows, SCHEMA), "ward")

    def test_valid_five_records_repair_the_minority_value(self, spark):
        out = sparcle_clean(spark.createDataFrame(FIVE, SCHEMA), RANGE, corrector="aimnet")
        assert out.diagnostics["n_records"] == 5
        assert [(r.rid, r.new_value) for r in out.repairs.collect()] == [(5, "A")]


class TestDegenerateInputs:
    """Inputs with nothing to repair return the input unchanged."""

    @pytest.mark.parametrize("constraint", [RANGE, KNN], ids=["range", "knn"])
    @pytest.mark.parametrize(
        "rows",
        [[], FIVE[:1], FIVE[:4]],
        ids=["empty", "single-record", "one-distinct-value"],
    )
    def test_no_repairs_and_every_row_kept(self, spark, rows, constraint):
        df = spark.createDataFrame(rows, SCHEMA)
        out = sparcle_clean(df, constraint, corrector="aimnet")
        assert out.repairs.count() == 0
        assert out.repaired_df.count() == len(rows)


class TestNoStateLeftBehind:
    """A call releases its caches and hands back checkpointed frames."""

    def test_call_leaves_no_cache_and_repeats(self, spark):
        df = spark.createDataFrame(FIVE, SCHEMA)
        spark.catalog.clearCache()
        out = sparcle_clean(df, RANGE, corrector="aimnet")
        assert not out.repairs.is_cached
        assert spark._jsparkSession.sharedState().cacheManager().isEmpty()
        # repaired_df reads the checkpointed repairs, not the spatial join.
        plan = out.repaired_df._jdf.queryExecution().optimizedPlan().toString()
        assert "_cx" not in plan
        again = sparcle_clean(df, RANGE, corrector="aimnet")
        key = lambda o: sorted(map(tuple, o.repairs.collect()))
        assert key(again) == key(out) == [(5, "B", "A")]

    def test_two_actions_per_call(self, spark):
        """The contract aggregate and the checkpoint; no diagnostic count."""
        df = spark.createDataFrame(FIVE, SCHEMA)
        bus = spark.sparkContext._jsc.sc().listenerBus()
        store = spark._jsparkSession.sharedState().statusStore()

        def last_execution_id():  # ids grow by one per execution; the count is capped
            bus.waitUntilEmpty()
            n = store.executionsCount()
            return store.executionsList(n - 1, 1).head().executionId() if n else -1

        before = last_execution_id()
        sparcle_clean(df, RANGE, corrector="aimnet")
        assert last_execution_id() - before == 2
