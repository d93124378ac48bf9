"""Spark session set-up for the benchmark: one local JVM, files kept in the checkout.

The session settings follow the test suite's ``conftest.py`` (Arrow on,
broadcast joins off) with a smaller shuffle-partition count; see
``SHUFFLE_PARTITIONS``. Everything Spark and Python write (shuffle and
temp files) goes under the work directory, which sits inside the checkout.
"""
import os
import shlex
import subprocess
from pathlib import Path

from pyspark import SparkContext
from pyspark.sql import SparkSession

#: conftest.py defaults to 64. Warm calls are bound by per-task and
#: per-stage overhead: on 4 cores a warm Austin call on 2,000 records took
#: 10.5 s with 64 partitions (970 tasks) and 6.8 s with 8 (185 tasks), and
#: the repeated runs a comparison needs do not fit their time at 64.
SHUFFLE_PARTITIONS = 8
#: Ample for these tables; small, because other programs share the machine.
DRIVER_MEMORY = "1g"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def configure(work: Path) -> dict:
    """Set the environment the JVM launch reads; return the session confs.

    Must run before the first ``SparkSession`` of the process is built.
    """
    tmp, local = work / "tmp", work / "spark-local"
    for d in (tmp, local):
        d.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(local)
    master = f"local[{nproc()}]"
    java_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            "--master", master,
            "--driver-memory", DRIVER_MEMORY,
            "--driver-java-options", shlex.quote(java_opts),
            "--conf", "spark.driver.host=127.0.0.1",
            "--conf", "spark.ui.enabled=false",
            "--conf", "spark.ui.showConsoleProgress=false",
            "pyspark-shell",
        ]
    )
    return {
        "spark.master": master,
        "spark.driver.memory": DRIVER_MEMORY,
        "spark.sql.shuffle.partitions": str(SHUFFLE_PARTITIONS),
        "spark.sql.execution.arrow.pyspark.enabled": "true",
        "spark.sql.autoBroadcastJoinThreshold": "-1",
        "spark.local.dir": str(local),
        "spark.sql.warehouse.dir": str(work / "warehouse"),
        # The traced run reads every job and stage of its calls back from
        # the status store; the default keeps only the last 1000.
        "spark.ui.retainedJobs": "100000",
        "spark.ui.retainedStages": "100000",
    }


def start(confs: dict) -> SparkSession:
    builder = SparkSession.builder.appName("perfbench")
    for k, v in confs.items():
        if k not in ("spark.master", "spark.driver.memory"):
            builder = builder.config(k, v)
    return builder.getOrCreate()


def jvm_peak_rss_mb(spark: SparkSession) -> float:
    """The driver JVM's resident-set high-water mark (``VmHWM``).

    The heap starts small and grows as the calls need it, so this is the
    peak heap the JVM touched plus its native peak: Arrow and network
    buffers, thread stacks, code cache and metaspace.
    """
    pid = spark.sparkContext._jvm.java.lang.ProcessHandle.current().pid()
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not found")


def jvm_heap_live_mb(spark: SparkSession) -> float:
    """Heap in use after a full collection: what the JVM still holds."""
    jvm = spark.sparkContext._jvm
    jvm.java.lang.System.gc()
    rt = jvm.java.lang.Runtime.getRuntime()
    return (rt.totalMemory() - rt.freeMemory()) / 2**20


def shutdown(spark: SparkSession | None) -> None:
    """Stop the session and the gateway JVM, and wait for the JVM to exit."""
    if spark is not None:
        spark.stop()
    gateway = SparkContext._gateway
    if gateway is None:
        return
    proc = gateway.proc
    gateway.shutdown()
    proc.stdin.close()  # the JVM exits when its stdin closes
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    SparkContext._gateway = None
    SparkContext._jvm = None

