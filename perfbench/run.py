"""Sparcle cleaning benchmark.

    python3 perfbench/run.py --workload austin-zipcode --seed 101 --seconds 1 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
One run starts a fresh local Spark JVM and

1. sets up once in the fresh JVM (JVM launch, session start, input
   generation from the seed, ``createDataFrame``, cache), then sets up
   several more times in new sessions on the same JVM and reports their
   median as ``setup_s``. The first set-up is ``launch_s``, one sample
   per run whose class loading from disk swings with other programs'
   I/O, so it is reported ungated: in the ``context`` line, and as a
   metric of the traced run;
2. times the first cleaning call in the JVM as ``cold_s``, discards one
   more warm-up call, then repeats calls until ``--seconds`` have passed
   and reports their median as ``clean_s``. Calls keep speeding up for
   several calls after the first (the JIT is still compiling), so a
   window that fits a varying number of calls makes ``clean_s`` vary;
   the benchmark sets a window shorter than one call, for exactly one;
3. checks every call's repair set against the digest recorded for the
   seed in ``digests.json`` by ``record_digests.py`` (or, for a seed
   without one, against the first call) and against seed-independent
   invariants; a call that raises or differs counts in ``failed``.

With ``--trace 1`` it instead replays one call layer by layer (see
``replay.py``) and reports the per-layer metrics. ``--held-out`` swaps
in a seed kept back for confirming a gain after the change is written.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""
import argparse
import dataclasses
import json
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(ROOT / "src"))

import pandas as pd  # noqa: E402

import replay  # noqa: E402
import session  # noqa: E402
from repro.evalx.metrics import evaluate_repairs  # noqa: E402
from workloads import CORRECTOR, ID, WORKLOADS, Workload, repair_digest, repair_problems  # noqa: E402

WORK = ROOT / ".perfbench_work"
DIGESTS = HERE / "digests.json"
SETUPS = 9  # set-ups per run after the first, in the same JVM; setup_s is their median

END_TO_END_UNITS = {
    "setup_s": "s",
    "cold_s": "s",
    "clean_s": "s",
    "cells_per_s": "1/s",
    "f1": "ratio",
    "peak_rss_mb": "MB",
}


def recorded_digest(workload: str, seed: int) -> str | None:
    with open(DIGESTS) as f:
        return json.load(f).get(workload, {}).get(str(seed))


class Checker:
    """Counts calls and failures against the reference repair set."""

    def __init__(self, pdf: pd.DataFrame, reference: str | None):
        self.pdf = pdf
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, repairs: pd.DataFrame | None, what: str) -> None:
        """Record one call; ``repairs`` is None when the call raised."""
        self.attempted += 1
        problems = [f"{what}: raised"] if repairs is None else repair_problems(self.pdf, repairs)
        if repairs is not None:
            digest = repair_digest(repairs)
            if self.reference is None:
                self.reference = digest
            elif digest != self.reference:
                problems.append(f"{what}: repair digest {digest} != {self.reference}")
        if problems:
            self.failed += 1
            self.problems += problems


def timed_call(w: Workload, sdf, checker: Checker, what: str) -> tuple[float, pd.DataFrame | None]:
    t0 = time.perf_counter()
    try:
        repairs = w.clean_table(sdf)
    except Exception:  # a failed call is counted, and the run goes on
        traceback.print_exc()
        repairs = None
    elapsed = time.perf_counter() - t0
    checker.check(repairs, what)
    return elapsed, repairs


def set_up(w: Workload, seed: int, confs: dict):
    """Set up once in a fresh JVM, then ``SETUPS`` times in new sessions on it.

    Returns the last session with its inputs, the fresh-JVM set-up time
    and the later set-up times.
    """

    def once():
        t0 = time.perf_counter()
        spark = session.start(confs)
        pdf = w.inputs(seed)
        sdf = w.to_spark(spark, pdf).cache()
        sdf.count()
        return spark, pdf, sdf, time.perf_counter() - t0

    spark, pdf, sdf, launch_s = once()
    times = []
    for _ in range(SETUPS):
        spark.stop()  # the JVM stays up
        spark, pdf, sdf, elapsed = once()
        times.append(elapsed)
    return spark, pdf, sdf, launch_s, times


def f1_of(w: Workload, pdf: pd.DataFrame, repairs: pd.DataFrame) -> float:
    scores = [
        evaluate_repairs(pdf, repairs[repairs["attribute"] == a][[ID, "new_value"]], attribute=a).f1
        for a in w.attributes
    ]
    return statistics.fmean(scores)


def end_to_end(
    w: Workload, spark, pdf, sdf, launch_s, setup_times, checker: Checker, seconds: float
) -> tuple[dict, dict]:
    cold_s, repairs = timed_call(w, sdf, checker, "cold call")
    timed_call(w, sdf, checker, "warm-up call")
    samples = []
    t_start = time.perf_counter()
    while not samples or time.perf_counter() - t_start < seconds:
        elapsed, rep = timed_call(w, sdf, checker, f"sample {len(samples)}")
        samples.append(elapsed)
        repairs = rep if repairs is None else repairs
    if repairs is None:
        raise RuntimeError("every cleaning call raised")
    clean_s = statistics.median(samples)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "cold_s": cold_s,
        "clean_s": clean_s,
        "cells_per_s": w.n * len(w.attributes) / clean_s,
        "f1": f1_of(w, pdf, repairs),
        "peak_rss_mb": session.jvm_peak_rss_mb(spark),
    }
    info = {
        "clean_s.all": samples,
        "clean_s.max": max(samples),
        "clean_s.samples": len(samples),
        "setup_s.all": setup_times,
        "launch_s": launch_s,
        "failed_frac": checker.failed / checker.attempted,
    }
    return metrics, info


def traced(w: Workload, spark, pdf, sdf, launch_s, checker: Checker) -> tuple[dict, dict]:
    tracer = replay.Tracer(spark)
    timed_call(w, sdf, checker, "cold call")
    with tracer.group("e2e"):
        untraced_s, _ = timed_call(w, sdf, checker, "untraced call")
    heap_live_mb = session.jvm_heap_live_mb(spark)
    t0 = time.perf_counter()
    parts, flagged_wrong = [], 0
    for a in w.attributes:
        repairs, flagged = replay.replay_call(tracer, w, sdf, a)
        parts.append(repairs)
        if flagged is not None:
            truth = pdf.set_index(ID).loc[flagged[ID]]
            flagged_wrong += int((truth[a].fillna("") != truth[f"{a}__truth"]).sum())
    traced_s = time.perf_counter() - t0
    if any(p is None for p in parts):
        replay_status = "incomplete"
    else:
        digest = repair_digest(pd.concat(parts, ignore_index=True))
        replay_status = "matches" if digest == checker.reference else f"diverged ({digest})"
    info = {"trace.replay": replay_status, "trace.missing_spans": tracer.missing}
    if w.system != "host":  # Table 6: this call over one host-baseline call on the same table
        host = dataclasses.replace(w, system="host")
        t1 = time.perf_counter()
        try:
            host.clean_table(sdf)
            info["table6.sparcle_over_host"] = untraced_s / (time.perf_counter() - t1)
        except Exception:  # information only; the traced run goes on
            traceback.print_exc()
            info["table6.sparcle_over_host"] = None
    counts = replay.spark_counts(spark, ["e2e"] + [s["group"] for s in tracer.spans])
    metrics = replay.span_metrics(tracer, counts)
    metrics |= replay.ratio_metrics(metrics, w.n * len(w.attributes), flagged_wrong)
    whole = counts["e2e"]
    metrics |= {
        "spark.jobs": whole["jobs"],
        "spark.stages": whole["stages"],
        "spark.stages_planned": whole["stages_planned"],
        "spark.tasks": whole["tasks"],
        "jvm.heap_live_mb": heap_live_mb,
        "launch_s": launch_s,
        "trace.overhead_s": traced_s - untraced_s if replay_status != "incomplete" else replay.MISSING,
    }
    trace = {"workload": w.name, "spans": tracer.spans, "counts": counts}
    (WORK / "trace.json").write_text(json.dumps(trace, indent=1))
    return metrics, info


def units(trace: bool) -> dict[str, str]:
    if not trace:
        return END_TO_END_UNITS
    out = {f"{s}.{k}": u for s in replay.SPANS for k, u in replay.SPAN_FIELDS.items()}
    return out | replay.RATIOS | {
        "spark.jobs": "count",
        "spark.stages": "count",
        "spark.stages_planned": "count",
        "spark.tasks": "count",
        "jvm.heap_live_mb": "MB",
        "launch_s": "s",
        "trace.overhead_s": "s",
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, help="input seed (default: the dataset's DatasetSpec seed)")
    p.add_argument(
        "--held-out", action="store_true",
        help="use the workload's held-out seed, kept for confirming a gain after the change is written",
    )
    p.add_argument("--seconds", type=float, default=1.0, help="sample warm calls for at least this long")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    w = WORKLOADS[args.workload]
    seed = w.held_out_seed if args.held_out else args.seed if args.seed is not None else w.default_seed
    reference = recorded_digest(w.name, seed)
    confs = session.configure(WORK)
    spark = None
    try:
        spark, pdf, sdf, launch_s, setup_times = set_up(w, seed, confs)
        checker = Checker(pdf, reference)
        if args.trace:
            metrics, info = traced(w, spark, pdf, sdf, launch_s, checker)
        else:
            metrics, info = end_to_end(w, spark, pdf, sdf, launch_s, setup_times, checker, args.seconds)
    finally:
        session.shutdown(spark)

    context = {
        "workload": w.name,
        "seed": seed,
        "default_seed": w.default_seed,
        "held_out_seed": w.held_out_seed,
        "digest": {"recorded": reference, "run": checker.reference},
        "nproc": session.nproc(),
        "confs": confs,
        "records": w.n,
        "dependencies": list(w.attributes),
        "system": w.system,
        "corrector": CORRECTOR,
        "d_m": w.d_m if w.system != "host" else 0.0,
        **info,
        "problems": checker.problems[:20],
    }
    print("context " + json.dumps(context, sort_keys=True))
    unit_of = units(bool(args.trace))
    for name, unit in unit_of.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": u} for name, u in unit_of.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
