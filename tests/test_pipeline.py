"""End-to-end Sparcle pipeline vs the exact-location host baseline."""
import itertools
import re

import pandas as pd
import py4j.clientserver
import pytest

from repro.core.constraints import (
    ExactLocationConstraint,
    SpatialKNNConstraint,
    SpatialRangeConstraint,
    WeightFunction,
)
from repro.core import pipeline
from repro.core.distance_matrix import cell_rows
from repro.core.pipeline import host_baseline_clean, sparcle_clean
from repro.evalx.metrics import duplication_split, evaluate_repairs
from repro.spatial.join import compute_extent
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


def last_execution_id(spark) -> int:
    """The id of Spark's latest SQL execution; ids grow by one per execution,
    while the count the status store keeps is capped."""
    spark.sparkContext._jsc.sc().listenerBus().waitUntilEmpty()
    store = spark._jsparkSession.sharedState().statusStore()
    n = store.executionsCount()
    return store.executionsList(n - 1, 1).head().executionId() if n else -1


def last_execution_shuffle_keys(spark) -> list[tuple[str, ...]]:
    """The key columns of every distinct hash shuffle in the latest SQL
    execution's final physical plan, read from the status store (no job)."""
    spark.sparkContext._jsc.sc().listenerBus().waitUntilEmpty()
    store = spark._jsparkSession.sharedState().statusStore()
    plan = store.executionsList(store.executionsCount() - 1, 1).head().physicalPlanDescription()
    # One Arguments line per Exchange node; the initial and the final
    # adaptive plan both list an exchange, with the same expression ids.
    shuffles = set(re.findall(r"Arguments: hashpartitioning\((.*?), \d+\), ENSURE", plan))
    return [tuple(re.sub(r"#\d+L?$", "", k) for k in keys.split(", ")) for keys in shuffles]


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

    @pytest.mark.parametrize("column", ["rid", "lat", "lon", "ward"])
    def test_missing_column_is_named_without_a_spark_job(self, spark, column):
        df = spark.createDataFrame(FIVE, SCHEMA).drop(column)
        before = last_execution_id(spark)
        with pytest.raises(ValueError, match=f"missing column: the input has no '{column}'"):
            sparcle_clean(df, RANGE, corrector="aimnet")
        assert last_execution_id(spark) == before

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

    @pytest.mark.parametrize(
        "constraint", [RANGE, ExactLocationConstraint("ward")], ids=["range", "exact"]
    )
    def test_two_actions_per_call(self, spark, constraint):
        """The contract aggregate and the checkpoint; no diagnostic count.

        A kNN constraint adds one action per radius-doubling round.
        """
        df = spark.createDataFrame(FIVE, SCHEMA)
        before = last_execution_id(spark)
        sparcle_clean(df, constraint, corrector="aimnet")
        assert last_execution_id(spark) - before == 2

    def test_knn_call_adds_one_action_per_round(self, spark, monkeypatch):
        """Each radius-doubling round, the last included, runs one ``isEmpty``
        on its frontier; the call runs nothing else besides the two actions."""
        df = spark.createDataFrame(FIVE, SCHEMA)
        rounds = []
        is_empty = type(df).isEmpty  # the concrete (classic) DataFrame class

        def counted(self):
            rounds.append(self)
            return is_empty(self)

        monkeypatch.setattr(type(df), "isEmpty", counted)
        before = last_execution_id(spark)
        sparcle_clean(df, KNN, corrector="aimnet")
        assert rounds
        assert last_execution_id(spark) - before == 2 + len(rounds)

    @pytest.mark.parametrize(
        "constraint", [RANGE, ExactLocationConstraint("ward")], ids=["range", "exact"]
    )
    def test_shuffled_by_tile_or_once_by_cell(self, spark, constraint):
        """A range call's grid join shuffles both sides by tile, and an exact
        call's window shuffles the records once by location; every later
        stage (the detector, Algorithm 2, the formatter, the arg-best and
        the changed cells) stays on that partitioning: nothing is keyed by
        the cell. Count(v, D) is counted on one partition and broadcast, so
        no shuffle is keyed by the attribute, and nothing is re-keyed by
        value."""
        df = spark.createDataFrame(FIVE, SCHEMA)
        sparcle_clean(df, constraint, corrector="aimnet")
        keys = last_execution_shuffle_keys(spark)
        if constraint is RANGE:
            assert sorted(keys) == [("_cx", "_cy"), ("_cx", "_cy")], keys
        else:
            assert keys == [("_cx", "_cy")], keys
        assert not any(k in {("r1",), ("rid",)} for k in keys), keys
        assert not any("value" in k for k in keys), keys
        assert ("ward",) not in keys, keys


_GROUPS = itertools.count()


def jobs_run(spark, call) -> tuple[object, int]:
    """(``call()``'s result, the number of Spark jobs it ran), read from the
    status tracker under a job group of its own."""
    sc = spark.sparkContext
    group = f"jobs_run.{next(_GROUPS)}"
    sc.setJobGroup(group, group)
    try:
        result = call()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setLocalProperty("spark.job.description", None)
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    return result, len(sc.statusTracker().getJobIdsForGroup(group))


class TestJobBudget:
    """The contract check is one Spark job, and a range call a fixed number,
    so a change that adds a job fails here."""

    #: Jobs of one range call on FIVE: the contract aggregate, the two sides
    #: of the grid join (one shuffle stage each), the Count(v, D) broadcast,
    #: and the checkpoint.
    RANGE_CALL_JOBS = 5
    #: Jobs of one exact call on FIVE: the same, with the one shuffle stage of
    #: the window by location in place of the grid join's two.
    EXACT_CALL_JOBS = 4

    def test_contract_check_runs_one_job(self, spark):
        df = spark.createDataFrame(FIVE, SCHEMA)
        extent, jobs = jobs_run(spark, lambda: compute_extent(df))
        assert extent.n == 5
        assert jobs == 1

    @pytest.mark.parametrize(
        "r5,message",
        [
            (
                (None, 41.8005, -87.7005, "B"),
                "null id: 1 record(s) have a null 'rid'",
            ),
            (
                (1, 41.8005, -87.7005, "B"),
                "duplicate id: 1 record(s) repeat an 'rid'",
            ),
            (
                (5, 41.8005, float("nan"), "B"),
                "bad coordinates: 1 record(s) have a null, NaN or out-of-range 'lat'/'lon'",
            ),
        ],
        ids=["null-id", "duplicate-id", "nan-lon"],
    )
    def test_each_failed_check_is_named_after_one_job(self, spark, r5, message):
        df = spark.createDataFrame(FIVE[:4] + [r5], SCHEMA)
        raised, jobs = jobs_run(spark, lambda: _raised(lambda: compute_extent(df)))
        assert str(raised) == message
        assert jobs == 1

    def test_missing_column_is_named_without_a_job(self, spark):
        df = spark.createDataFrame(FIVE, SCHEMA).drop("lat")
        raised, jobs = jobs_run(spark, lambda: _raised(lambda: compute_extent(df)))
        assert str(raised) == "missing column: the input has no 'lat'"
        assert jobs == 0

    def test_range_call_runs_a_fixed_number_of_jobs(self, spark):
        df = spark.createDataFrame(FIVE, SCHEMA)
        out, jobs = jobs_run(spark, lambda: sparcle_clean(df, RANGE, corrector="aimnet"))
        assert jobs == self.RANGE_CALL_JOBS
        assert [(r.rid, r.new_value) for r in out.repairs.collect()] == [(5, "A")]

    def test_exact_call_runs_a_fixed_number_of_jobs(self, spark):
        df = spark.createDataFrame(FIVE, SCHEMA)
        out, jobs = jobs_run(
            spark, lambda: sparcle_clean(df, ExactLocationConstraint("ward"), corrector="aimnet")
        )
        assert jobs == self.EXACT_CALL_JOBS
        assert out.repairs.count() == 0


def _raised(call) -> ValueError:
    """The ``ValueError`` ``call()`` raises."""
    with pytest.raises(ValueError) as info:
        call()
    return info.value


class TestDottedAttribute:
    """A dependent attribute with a dot in its name is one column, not a struct field."""

    ROWS = [(rid, lat, lon, v) for rid, lat, lon, v in FIVE]
    DOTTED = "rid long, lat double, lon double, `zip.code` string"

    def test_range_repairs_the_minority_value_and_keeps_the_name(self, spark):
        df = spark.createDataFrame(self.ROWS, self.DOTTED)
        out = sparcle_clean(df, SpatialRangeConstraint("zip.code", 500.0), corrector="aimnet")
        assert [(r.rid, r.new_value) for r in out.repairs.collect()] == [(5, "A")]
        assert out.repaired_df.columns == ["rid", "lat", "lon", "zip.code"]
        assert {r["zip.code"] for r in out.repaired_df.collect()} == {"A"}

    def test_host_baseline_runs_and_keeps_the_name(self, spark):
        df = spark.createDataFrame(self.ROWS, self.DOTTED)
        out = host_baseline_clean(df, "zip.code", corrector="aimnet")
        assert out.repairs.count() == 0
        assert out.repaired_df.columns == ["rid", "lat", "lon", "zip.code"]


class TestDetectorRows:
    """The detector reads each DistanceMatrix row once and one own row per
    record, the join's self pair. It copies violations to their other end
    only for rows without a join's key, as a kNN DistanceMatrix's; range and
    exact rows carry their join's key and hold both orientations."""

    @pytest.fixture
    def captured(self, monkeypatch):
        calls = []

        def flag(rows, **kwargs):
            result = flag_cells(rows, **kwargs)
            calls.append((rows, result))
            return result

        flag_cells = pipeline.flag_cells
        monkeypatch.setattr(pipeline, "flag_cells", flag)
        return calls

    @staticmethod
    def own_rows(detected) -> list[int]:
        return sorted(r.r1 for r in detected.rows.where("r1 = r2").collect())

    def ships_each_row_once(self, spark, captured, constraint, records):
        df = spark.createDataFrame(records, SCHEMA)
        sparcle_clean(df, constraint, corrector="aimnet")
        ((_, detected),) = captured
        rows = cell_rows(df, constraint)
        dm = rows.where("r1 != r2").count()
        assert dm > 0
        assert dm == rows.count() - len(records)
        assert detected.rows.count() == dm + len(records)
        assert self.own_rows(detected) == sorted(r[0] for r in records)

    def test_range_call_ships_each_row_once(self, spark, captured):
        self.ships_each_row_once(spark, captured, RANGE, FIVE)

    def test_exact_call_ships_each_row_once(self, spark, captured):
        # A sixth record at r5's location, so the exact DistanceMatrix is not empty.
        records = FIVE + [(6, 41.8005, -87.7005, "A")]
        self.ships_each_row_once(spark, captured, ExactLocationConstraint("ward"), records)

    def test_knn_call_adds_a_copy_per_violation(self, spark, captured):
        df = spark.createDataFrame(FIVE, SCHEMA)
        sparcle_clean(df, KNN, corrector="aimnet")
        ((_, detected),) = captured
        rows = cell_rows(df, KNN)
        dm = rows.where("r1 != r2")
        assert dm.count() == rows.count() - len(FIVE)
        violations = dm.where("NOT (v1 <=> v2)").count()
        assert violations > 0
        assert detected.rows.count() == dm.count() + len(FIVE) + violations
        assert self.own_rows(detected) == [1, 2, 3, 4, 5]

    def test_two_records_are_each_others_nearest(self, spark, captured):
        """The pair spans the whole extent, diagonal to diagonal: both
        directed rows reach the DistanceMatrix and both cells are flagged."""
        rows = [(1, 41.80, -87.70, "A"), (2, 41.81, -87.69, "B")]
        sparcle_clean(
            spark.createDataFrame(rows, SCHEMA), SpatialKNNConstraint("ward", k=1),
            corrector="aimnet",
        )
        ((cells, detected),) = captured
        assert sorted((r.r1, r.r2) for r in cells.where("r1 != r2").collect()) == [(1, 2), (2, 1)]
        assert sorted(r.rid for r in detected.error_ids.collect()) == [1, 2]


class TestPy4jRoundTrips:
    """The plan is built from SQL text, so a call makes a few hundred
    py4j round trips to the JVM, not one per column, literal and operator."""

    @pytest.mark.parametrize(
        "constraint", [RANGE, ExactLocationConstraint("ward")], ids=["range", "exact"]
    )
    def test_warm_call_stays_under_a_thousand(self, spark, monkeypatch, constraint):
        df = spark.createDataFrame(FIVE, SCHEMA)
        sparcle_clean(df, constraint, corrector="aimnet")  # warm-up
        send = py4j.clientserver.ClientServerConnection.send_command
        count = [0]

        def counting(self, command):
            count[0] += 1
            return send(self, command)

        monkeypatch.setattr(py4j.clientserver.ClientServerConnection, "send_command", counting)
        sparcle_clean(df, constraint, corrector="aimnet")
        monkeypatch.undo()
        assert 0 < count[0] <= 1000, count[0]
