"""Runs one benchmark workload and prints its result line.

    python3 perfbench/run.py --workload d4-deep --seed 104 --seconds 10 --trace 0

Builds the program and the benchmark from source if needed (see build.py),
runs the workload in one JVM with a local Spark session, and forwards its
report. The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
Without --seed the workload's dataset seed is used. Exits non-zero, without
a result line, if the build or the run fails.
"""

import argparse
import json
import signal
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # keep the source tree free of __pycache__
import build  # noqa: E402

ROOT = build.ROOT
BENCH = ROOT / "perfbench"
RUN_LIMIT_S = 175
HEAP = "4g"

JVM_OPTIONS = [
    f"-Xms{HEAP}",
    f"-Xmx{HEAP}",
    "-Xss64m",  # the search recursions are deep on dense blocks
    "-XX:+IgnoreUnrecognizedVMOptions",
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/jdk.internal.ref=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
    "-Dfile.encoding=UTF-8",
    "-Dstdout.encoding=UTF-8",
]


def fail(msg: str, code: int = 1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def check_result(line: str, spec: dict, trace: bool) -> dict:
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(result)}")
    names = set(result["metrics"])
    want = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    if names != want:
        raise ValueError(f"metrics missing {sorted(want - names)}, unexpected {sorted(names - want)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("no operation attempted")
    return result


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    try:
        classes = build.build()
        jars = build.spark_jars()
        java = build.java()
    except (build.BuildError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}", 2)
    started = time.monotonic()

    scratch = ROOT / ".bench_build" / "run"
    (scratch / "tmp").mkdir(parents=True, exist_ok=True)
    cmd = [java] + JVM_OPTIONS + [
        f"-Djava.io.tmpdir={scratch / 'tmp'}",
        f"-Dspark.local.dir={scratch / 'spark-local'}",
        f"-Dspark.sql.warehouse.dir={scratch / 'warehouse'}",
        f"-Dlog4j2.configurationFile={BENCH / 'log4j2.properties'}",
        f"-Dperfbench.commit={commit()}",
        f"-Dperfbench.sources={build.source_digest(build.sources())}",
        "-cp", f"{classes}:{jars / '*'}",
        "repro.perfbench.Main",
        "--workload", args.workload,
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]

    child = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)

    def stop(signum, _frame):
        child.kill()
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = child.communicate(timeout=max(1.0, RUN_LIMIT_S - (time.monotonic() - started)))
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        fail("run exceeded its time limit", 3)

    lines = out.rstrip("\n").split("\n")
    if child.returncode != 0:
        print(out, file=sys.stderr)
        fail(f"benchmark JVM exited with code {child.returncode}")
    for line in lines[:-1]:
        print(line)
    try:
        result = check_result(lines[-1], spec, bool(args.trace))
    except (ValueError, json.JSONDecodeError) as e:
        print(lines[-1], file=sys.stderr)
        fail(f"malformed result line: {e}")
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
