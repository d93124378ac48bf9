"""Experiment harness: dataset analogs and the paper's tables (§6).

Every table in the evaluation section has a builder here returning a
pandas DataFrame (and writing ``results/table*.csv``); one thin wrapper
per table, ``benchmarks/bench_*.py``, runs it (``pytest
benchmarks/bench_table4.py --benchmark-only``). Paper-vs-measured numbers
are transcribed in ``EXPERIMENTS.md``.

Scaling: record counts are controlled by ``sf`` (1.0 = benchmark scale,
far below the paper's testbed — see DESIGN.md substitutions). The spatial
range ``d`` is chosen adaptively per dataset so the expected neighborhood
holds ~40 records, matching the operating point the paper's parameter
study converges to (d = 1000 m ≈ 43 expected neighbors on its 20K-record
Chicago-Synthetic).
"""
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import pandas as pd
from pyspark.sql import SparkSession

from repro.core.constraints import SpatialRangeConstraint, WeightFunction
from repro.core.pipeline import host_baseline_clean, sparcle_clean
from repro.evalx import metrics as M
from repro.hostsys.baran import baran_clean
from repro.spatial.geo import M_PER_DEG_LAT, meters_per_degree_lon
from repro.synth_spatial import (
    BBOX_AUSTIN,
    BBOX_CHICAGO,
    BBOX_NYC,
    RegionAttr,
    dataset_stats,
    spatial_dataset_pdf,
)

SYSTEMS = ("sparcle_n2", "sparcle_n0", "holoclean", "baran")
TARGET_NEIGHBORS = 40.0


@dataclass(frozen=True)
class DatasetSpec:
    """One evaluation dataset analog (Table 3 row group)."""

    key: str
    bench_n: int  # records at sf = 1.0
    bbox: tuple[float, float, float, float]
    attrs: tuple[RegionAttr, ...]
    seed: int

    def n(self, sf: float) -> int:
        return max(500, int(self.bench_n * sf))


#: Error rates, duplication ratios and distinct-value counts from Table 3;
#: record counts scaled to the local Spark target (DESIGN.md §3). The NYC
#: borough errors are almost all missing values (418,896 of 421,013).
AUSTIN = DatasetSpec(
    key="austin",
    bench_n=12_000,
    bbox=BBOX_AUSTIN,
    attrs=(
        RegionAttr("zipcode", 50, error_rate=0.150, dup_ratio=0.0),
        RegionAttr("city", 9, error_rate=0.131, dup_ratio=0.0),
    ),
    seed=101,
)
CHICAGO = DatasetSpec(
    key="chicago",
    bench_n=24_000,
    bbox=BBOX_CHICAGO,
    attrs=(
        RegionAttr("community", 77, error_rate=0.144, dup_ratio=0.64),
        RegionAttr("census", 980, error_rate=0.190, dup_ratio=0.64),
        RegionAttr("ward", 50, error_rate=0.248, dup_ratio=0.58),
    ),
    seed=102,
)
NYC = DatasetSpec(
    key="nyc",
    bench_n=30_000,
    bbox=BBOX_NYC,
    attrs=(
        RegionAttr("borough", 5, error_rate=0.240, dup_ratio=0.44, missing_frac=0.995),
        RegionAttr("zipcode", 230, error_rate=0.302, dup_ratio=0.30),
    ),
    seed=103,
)
CHICAGO_SYNTH = DatasetSpec(
    key="chicago_synthetic",
    bench_n=20_000,
    bbox=BBOX_CHICAGO,
    attrs=(
        RegionAttr("district", 23, error_rate=0.10),
        RegionAttr("ward", 50, error_rate=0.10),
        RegionAttr("zipcode", 59, error_rate=0.10),
        RegionAttr("beat", 275, error_rate=0.10),
        RegionAttr("census", 801, error_rate=0.10),
    ),
    seed=104,
)
REAL_SPECS = (AUSTIN, CHICAGO, NYC)


def bbox_area_m2(bbox: tuple[float, float, float, float]) -> float:
    lat_min, lat_max, lon_min, lon_max = bbox
    ref = (lat_min + lat_max) / 2
    return (lat_max - lat_min) * M_PER_DEG_LAT * (lon_max - lon_min) * meters_per_degree_lon(ref)


def adaptive_d(bbox: tuple[float, float, float, float], n: int, target: float = TARGET_NEIGHBORS) -> float:
    """Range d putting ~``target`` expected records in each neighborhood."""
    return math.sqrt(target * bbox_area_m2(bbox) / (math.pi * max(n, 1)))


def results_dir() -> Path:
    """Where table CSVs land; ``REPRO_RESULTS_DIR`` overrides (tests point
    it at a tmp dir so toy-scale runs don't clobber benchmark outputs)."""
    override = os.environ.get("REPRO_RESULTS_DIR")
    d = Path(override) if override else Path(__file__).resolve().parents[3] / "results"
    d.mkdir(parents=True, exist_ok=True)
    return d


def _spark_view(spark: SparkSession, pdf: pd.DataFrame, attrs: Sequence[RegionAttr]):
    """The systems' input: observed columns only — ground truth stays out."""
    cols = ["rid", "lat", "lon"] + [a.name for a in attrs]
    return spark.createDataFrame(pdf[cols])


def run_system(
    spark: SparkSession,
    pdf: pd.DataFrame,
    spec: DatasetSpec,
    attribute: str,
    system: str,
    *,
    d_m: float,
    corrector: str = "aimnet",
) -> tuple[pd.DataFrame, float]:
    """One (dataset, dependency, system) run → (repairs pdf, elapsed s).

    ``corrector`` defaults to AimNet: the paper's deployment host is the
    open-source HoloClean distribution, whose error-correction module is
    AimNet (§6).
    """
    if system not in SYSTEMS:
        raise ValueError(f"system must be one of {SYSTEMS}, got {system!r}")
    if system == "baran":
        t0 = time.perf_counter()
        res = baran_clean(pdf[["rid", "lat", "lon", attribute]], attribute=attribute)
        repairs = res.repairs.rename(columns={"repair": "new_value"})
        return repairs, time.perf_counter() - t0
    sdf = _spark_view(spark, pdf, spec.attrs)
    t0 = time.perf_counter()
    if system == "holoclean":
        out = host_baseline_clean(sdf, attribute, corrector=corrector)
    else:
        n_exp = 2.0 if system == "sparcle_n2" else 0.0
        constraint = SpatialRangeConstraint(attribute, d_m, WeightFunction(n=n_exp))
        out = sparcle_clean(sdf, constraint, corrector=corrector)
    repairs = out.repairs.select("rid", "new_value").toPandas()
    return repairs, time.perf_counter() - t0


def run_dataset(
    spark: SparkSession,
    spec: DatasetSpec,
    *,
    sf: float = 1.0,
    systems: Sequence[str] = SYSTEMS,
) -> pd.DataFrame:
    """All (dependency × system) runs for one dataset.

    Returns tidy rows including per-dependency precision/recall/F1,
    wall-clock, and per-system "overall" record-level rows (Table 4
    semantics).
    """
    n = spec.n(sf)
    pdf = spatial_dataset_pdf(n=n, attrs=spec.attrs, bbox=spec.bbox, seed=spec.seed)
    d_m = adaptive_d(spec.bbox, n)
    rows = []
    for system in systems:
        repairs_by_attr: dict[str, pd.DataFrame] = {}
        for a in spec.attrs:
            repairs, elapsed = run_system(
                spark, pdf, spec, a.name, system, d_m=d_m
            )
            repairs_by_attr[a.name] = repairs
            m = M.evaluate_repairs(pdf, repairs, attribute=a.name)
            rows.append(
                {
                    "dataset": spec.key, "attribute": a.name, "system": system,
                    "precision": m.precision, "recall": m.recall, "f1": m.f1,
                    "elapsed_s": elapsed, "n_errors": m.n_errors,
                    "n_repairs": m.n_repairs, "n_records": n, "d_m": d_m,
                }
            )
        om = M.overall_record_metrics(pdf, repairs_by_attr)
        rows.append(
            {
                "dataset": spec.key, "attribute": "Overall", "system": system,
                "precision": om.precision, "recall": om.recall, "f1": om.f1,
                "elapsed_s": sum(
                    r["elapsed_s"] for r in rows
                    if r["dataset"] == spec.key and r["system"] == system
                    and r["attribute"] != "Overall"
                ),
                "n_errors": om.n_errors, "n_repairs": om.n_repairs,
                "n_records": n, "d_m": d_m,
            }
        )
    return pd.DataFrame(rows)


# --------------------------------------------------------------------------
# Table builders
# --------------------------------------------------------------------------

def table1(spark: SparkSession, *, sf: float = 1.0) -> pd.DataFrame:
    """Table 1: NYC borough repair rates, total / duplicated / new location."""
    spec = NYC
    n = spec.n(sf)
    pdf = spatial_dataset_pdf(n=n, attrs=spec.attrs, bbox=spec.bbox, seed=spec.seed)
    d_m = adaptive_d(spec.bbox, n)
    rows = []
    for system in ("holoclean", "sparcle_n2"):
        repairs, _ = run_system(spark, pdf, spec, "borough", system, d_m=d_m)
        split = M.duplication_split(pdf, repairs, attribute="borough")
        rows.append(
            {
                "system": system,
                "total": split.total_recall,
                "errors_at_duplicated_location": split.duplicated_recall,
                "errors_at_new_location": split.new_location_recall,
                "n_duplicated": split.n_duplicated,
                "n_new": split.n_new,
            }
        )
    out = pd.DataFrame(rows)
    out.to_csv(results_dir() / "table1.csv", index=False)
    return out


def table2(spark: SparkSession) -> pd.DataFrame:
    """Table 2: the worked example's candidate-generation state."""
    from repro.core.candidate_gen import generate_candidates
    from repro.core.error_detector import detect_errors
    from repro.evalx.toy import TOY_TOTAL, toy_df, toy_dm, toy_freq

    df, dm, freq = toy_df(spark), toy_dm(spark), toy_freq(spark)
    det = detect_errors(df, dm, attribute="borough")
    res = generate_candidates(
        df, det, attribute="borough", freq=freq, total=TOY_TOTAL,
        # Disable phase-3 drops/labels to print the full table first.
        min_prob=0.0, max_prob=1.1,
    )
    out = (
        res.candidates.select("rid", "value", "weight", "spatial_weight", "prob", "prob_norm")
        .toPandas()
        .sort_values(["rid", "value"])
        .reset_index(drop=True)
        .rename(columns={"weight": "sum_weights"})
    )
    out.to_csv(results_dir() / "table2.csv", index=False)
    return out


def table3(*, sf: float = 1.0) -> pd.DataFrame:
    """Table 3: measured properties of the generated analogs."""
    rows = []
    for spec in (*REAL_SPECS, CHICAGO_SYNTH):
        n = spec.n(sf)
        pdf = spatial_dataset_pdf(n=n, attrs=spec.attrs, bbox=spec.bbox, seed=spec.seed)
        for st in dataset_stats(pdf, spec.attrs):
            rows.append(
                {
                    "dataset": spec.key,
                    "dependency": f"(lat,lon) -> {st.name}",
                    "records": st.records,
                    "errors": st.errors,
                    "dup_ratio": st.dup_ratio,
                    "distinct": st.distinct,
                }
            )
    out = pd.DataFrame(rows)
    out.to_csv(results_dir() / "table3.csv", index=False)
    return out


def table4(spark: SparkSession, *, sf: float = 1.0) -> pd.DataFrame:
    """Table 4: accuracy on the three real-data analogs; also writes Table 6."""
    parts = [run_dataset(spark, spec, sf=sf) for spec in REAL_SPECS]
    out = pd.concat(parts, ignore_index=True)
    out.to_csv(results_dir() / "table4.csv", index=False)
    table6(out)
    return out


def table5(spark: SparkSession, *, sf: float = 1.0) -> pd.DataFrame:
    """Table 5: accuracy per attribute on Chicago-Synthetic."""
    out = run_dataset(spark, CHICAGO_SYNTH, sf=sf)
    out = out[out["attribute"] != "Overall"].reset_index(drop=True)
    out.to_csv(results_dir() / "table5.csv", index=False)
    return out


def table6(t4: pd.DataFrame) -> pd.DataFrame:
    """Table 6: wall-clock per dataset and system, from Table 4's runs."""
    out = (
        t4[t4["attribute"] == "Overall"]
        .loc[:, ["dataset", "system", "elapsed_s", "n_records"]]
        .reset_index(drop=True)
    )
    out.to_csv(results_dir() / "table6.csv", index=False)
    return out


def param_sweep(
    spark: SparkSession,
    *,
    sf: float = 1.0,
    d_values: Sequence[float] = (200.0, 500.0, 1000.0, 2000.0),
    n_values: Sequence[float] = (0.0, 2.0, 4.0, 16.0),
) -> pd.DataFrame:
    """Figure 5 (d × n sweep) as a table; fixes the defaults for §6.2–6.5.

    Scaled-down analog of the paper's sweep dataset: the paper uses 20K
    records over 801 census tracts (≈25 records/region); the default here
    keeps that ratio at 8K records over 320 regions.
    """
    n = max(1000, int(8000 * sf))
    n_regions = max(10, int(round(n / 25)))
    attr = RegionAttr("census", n_regions, error_rate=0.10)
    pdf = spatial_dataset_pdf(n=n, attrs=[attr], bbox=BBOX_CHICAGO, seed=105)
    sdf = _spark_view(spark, pdf, [attr])
    rows = []
    for d_m in d_values:
        for n_exp in n_values:
            c = SpatialRangeConstraint("census", d_m, WeightFunction(n=n_exp))
            t0 = time.perf_counter()
            out = sparcle_clean(sdf, c, corrector="aimnet")
            repairs = out.repairs.select("rid", "new_value").toPandas()
            elapsed = time.perf_counter() - t0
            m = M.evaluate_repairs(pdf, repairs, attribute="census")
            rows.append(
                {
                    "d_m": d_m, "n_exp": n_exp, "f1": m.f1,
                    "precision": m.precision, "recall": m.recall,
                    "elapsed_s": elapsed, "n_records": n,
                }
            )
    out = pd.DataFrame(rows)
    out.to_csv(results_dir() / "param_sweep.csv", index=False)
    return out
