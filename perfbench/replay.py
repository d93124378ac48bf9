"""Traced replay of one cleaning call, layer by layer.

The replay calls each layer's public function in the order
``sparcle_clean`` does and materialises each frame with
``cache().count()`` inside a span, so a span's time is the work of its
layer alone. Each span runs under its own Spark job group, whose job,
stage, task and shuffle counts are read back from Spark's status store
(an event log would be the other source, but writing one made each call
about 60% slower). Spans are kept in memory and written out at the end.

Only the AimNet (violation) corrector path is replayed, the one the
workloads use (``workloads.CORRECTOR``). If a layer function is gone or
no longer accepts the replay's arguments, or its result no longer has
the fields or columns the replay reads, its span and every later span
of that call are reported missing, and the end-to-end measurement is
unaffected.
"""
import importlib
import inspect
import time
from contextlib import contextmanager

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.errors import AnalysisException

from workloads import ID, Workload

SPANS = (
    "spatial.join",
    "core.distance_matrix",
    "core.error_detector",
    "core.candidate_gen.candidates",
    "core.candidate_gen.labels",
    "core.formulator",
    "hostsys",
    "core.pipeline.apply_fixes",
)
SPAN_FIELDS = {
    "time_s": "s",
    "rows": "count",
    "jobs": "count",
    "stages": "count",
    "tasks": "count",
    "shuffle_write_mb": "MB",
}
RATIOS = {
    "spatial.join.pairs_per_record": "ratio",
    "core.error_detector.flag_rate": "ratio",
    "core.error_detector.flag_precision": "ratio",
    "core.candidate_gen.cands_per_cell": "ratio",
    "core.candidate_gen.label_rate": "ratio",
}
MISSING = -1.0  # value reported for every field of a missing span


class LayerMissing(Exception):
    """A layer function is gone or rejects the replay's arguments."""


#: What a layer whose result changed shape raises when the replay reads it.
SHAPE_CHANGED = (LayerMissing, AttributeError, IndexError, KeyError, AnalysisException)


def _layer(module: str, name: str, *args, **kwargs):
    """Call ``module.name(*args, **kwargs)``, or raise ``LayerMissing``."""
    try:
        fn = getattr(importlib.import_module(module), name)
        inspect.signature(fn).bind(*args, **kwargs)
    except (ImportError, AttributeError, TypeError, ValueError) as e:
        raise LayerMissing(f"{module}.{name}: {e}") from e
    return fn(*args, **kwargs)


class Tracer:
    """In-memory spans, each under its own Spark job group."""

    def __init__(self, spark: SparkSession):
        self.sc = spark.sparkContext
        self.spans: list[dict] = []
        self.missing: dict[str, str] = {}

    @contextmanager
    def group(self, group: str):
        self.sc.setJobGroup(group, group)
        try:
            yield
        finally:
            self.sc.setJobGroup("perfbench.idle", "perfbench.idle")

    def span(self, name: str, make) -> DataFrame:
        """Run ``make()`` and materialise its frame inside span ``name``."""
        group = f"span.{len(self.spans)}.{name}"
        with self.group(group):
            t0 = time.perf_counter()
            frame = make().cache()
            rows = frame.count()
            t1 = time.perf_counter()
        self.spans.append({"name": name, "group": group, "start": t0, "end": t1, "rows": rows})
        return frame


def replay_call(
    tracer: Tracer, w: Workload, sdf: DataFrame, attribute: str
) -> tuple[pd.DataFrame | None, pd.DataFrame | None]:
    """Replay one dependency; return (repairs, flagged ids), None where missing."""
    dm_mod = "repro.core.distance_matrix"
    cached: list[DataFrame] = []
    flagged = None

    def span(name, make):
        frame = tracer.span(name, make)
        cached.append(frame)
        return frame

    done: list[str] = []
    try:
        pairs = span("spatial.join", lambda: _layer(dm_mod, "build_pairs", sdf, w.constraint(attribute)))
        done.append("spatial.join")
        dm = span("core.distance_matrix", lambda: _layer(dm_mod, "attach_values", pairs, sdf, attribute))
        done.append("core.distance_matrix")
        detected = _layer("repro.core.error_detector", "detect_errors", sdf, dm, attribute=attribute)
        error_ids = span("core.error_detector", lambda: detected.error_ids)
        done.append("core.error_detector")
        flagged = error_ids.select(ID).toPandas()
        cand = _layer(
            "repro.core.candidate_gen", "generate_candidates", sdf, dm, error_ids, attribute=attribute
        )
        cands = span("core.candidate_gen.candidates", lambda: cand.candidates)
        done.append("core.candidate_gen.candidates")
        labels = span("core.candidate_gen.labels", lambda: cand.labels)
        done.append("core.candidate_gen.labels")
        feats = span(
            "core.formulator", lambda: _layer("repro.core.formulator", "violation_features", dm, cands)
        )
        done.append("core.formulator")
        corrected = span(
            "hostsys", lambda: _layer("repro.hostsys.aimnet", "repair_from_violations", feats, cands)
        )
        done.append("hostsys")
        repair = importlib.import_module("repro.hostsys.aimnet").REPAIR
        fixes = labels.select(F.col(ID), F.col("label").alias(repair)).unionByName(
            corrected.select(F.col(ID), F.col(repair))
        )
        changed = span(
            "core.pipeline.apply_fixes",
            lambda: _layer("repro.core.pipeline", "_apply_fixes", sdf, fixes, attribute, ID)[1],
        )
        done.append("core.pipeline.apply_fixes")
        repairs = changed.select(ID, "new_value").toPandas()
        repairs.insert(0, "attribute", attribute)
        return repairs, flagged
    except SHAPE_CHANGED as e:
        for name in SPANS[len(done):]:
            tracer.missing.setdefault(name, f"{type(e).__name__}: {e}"[:300])
        return None, flagged
    finally:
        for frame in cached:
            frame.unpersist()


def spark_counts(spark: SparkSession, groups) -> dict[str, dict[str, float]]:
    """Per job group: jobs, stages run, tasks run and shuffle bytes written.

    Read from the live status store, so call it before the session stops.
    ``stages_planned`` also counts the stages each job lists but skips
    because their shuffle output already exists. A stage counts toward
    the first job that lists it, the one that runs it.
    """
    sc = spark.sparkContext
    tracker = sc.statusTracker()
    store = sc._jsc.sc().statusStore()
    no_tasks, no_quantiles = sc._jvm.java.util.ArrayList(), sc._gateway.new_array(sc._jvm.double, 0)
    seen: set[int] = set()
    out = {}
    for group in groups:
        c = {"jobs": 0, "stages": 0, "stages_planned": 0, "tasks": 0, "shuffle_write_bytes": 0}
        for job in sorted(tracker.getJobIdsForGroup(group)):
            c["jobs"] += 1
            for sid in tracker.getJobInfo(job).stageIds:
                c["stages_planned"] += 1
                if sid in seen:
                    continue
                seen.add(sid)
                attempts = store.stageData(sid, False, no_tasks, False, no_quantiles)
                if attempts.isEmpty():
                    continue
                stage = attempts.last()
                if stage.numCompleteTasks() > 0:
                    c["stages"] += 1
                    c["tasks"] += stage.numCompleteTasks()
                    c["shuffle_write_bytes"] += stage.shuffleWriteBytes()
        out[group] = c
    return out


def span_metrics(tracer: Tracer, counts: dict[str, dict[str, float]]) -> dict[str, float]:
    """Every span's six fields, summed over the replayed calls."""
    metrics = {}
    for name in SPANS:
        spans = [s for s in tracer.spans if s["name"] == name]
        if name in tracer.missing or not spans:
            metrics |= {f"{name}.{k}": MISSING for k in SPAN_FIELDS}
            continue
        total = {k: sum(counts[s["group"]][k] for s in spans) for k in counts[spans[0]["group"]]}
        metrics |= {
            f"{name}.time_s": sum(s["end"] - s["start"] for s in spans),
            f"{name}.rows": sum(s["rows"] for s in spans),
            f"{name}.jobs": total["jobs"],
            f"{name}.stages": total["stages"],
            f"{name}.tasks": total["tasks"],
            f"{name}.shuffle_write_mb": total["shuffle_write_bytes"] / 1e6,
        }
    return metrics


def ratio_metrics(metrics: dict[str, float], n_cells: int, flagged_wrong: int) -> dict[str, float]:
    """The waste ratios, from span rows; ``MISSING`` where a span is missing."""
    rows = {name: metrics[f"{name}.rows"] for name in SPANS}

    def ratio(num, den):
        return MISSING if MISSING in (num, den) or not den else num / den

    flagged = rows["core.error_detector"]
    labeled = rows["core.candidate_gen.labels"]
    still_wrong = MISSING if MISSING in (flagged, labeled) else flagged - labeled
    return {
        "spatial.join.pairs_per_record": ratio(rows["spatial.join"], n_cells),
        "core.error_detector.flag_rate": ratio(flagged, n_cells),
        "core.error_detector.flag_precision": ratio(flagged_wrong, flagged),
        "core.candidate_gen.cands_per_cell": ratio(rows["core.candidate_gen.candidates"], still_wrong),
        "core.candidate_gen.label_rate": ratio(labeled, flagged),
    }
