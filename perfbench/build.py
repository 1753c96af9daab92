"""Build file of the benchmark.

Compiles the program's sources (`src/main/scala`) together with the
benchmark's own (`perfbench/src`) into `.bench_build/perfbench/classes`,
using the Scala compiler that ships in Spark's `jars` directory, so the
build needs no dependency resolution. A build whose inputs have not changed
is reused.

    python3 perfbench/build.py        # prints the classes directory
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE_DIRS = [ROOT / "src" / "main" / "scala", ROOT / "perfbench" / "src"]
OUT = ROOT / ".bench_build" / "perfbench"
COMPILE_TIMEOUT_S = 600


class BuildError(Exception):
    pass


def spark_jars() -> Path:
    """The jars directory of the Spark installation ($SPARK_HOME, else the
    one that provides `spark-submit` on PATH)."""
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = str(Path(submit).resolve().parent.parent)
    jars = Path(home) / "jars" if home else None
    if jars is None or not any(jars.glob("scala-compiler-*.jar")):
        raise BuildError("no Spark installation with a Scala compiler found; set SPARK_HOME")
    return jars


def java() -> str:
    home = os.environ.get("JAVA_HOME")
    exe = Path(home) / "bin" / "java" if home else None
    if exe is not None and exe.exists():
        return str(exe)
    found = shutil.which("java")
    if not found:
        raise BuildError("no java found; set JAVA_HOME")
    return found


def sources() -> list:
    missing = [str(d.relative_to(ROOT)) for d in SOURCE_DIRS if not d.is_dir()]
    if missing:
        raise BuildError(f"source directories missing: {', '.join(missing)}")
    return sorted(p for d in SOURCE_DIRS for p in d.rglob("*.scala"))


def source_digest(files: list) -> str:
    h = hashlib.sha256()
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def build() -> Path:
    """Returns the classes directory, compiling first if any input changed."""
    files = sources()
    jars = spark_jars()
    compiler = sorted(p.name for p in jars.glob("scala-compiler-*.jar"))
    stamp = source_digest(files) + " " + " ".join(compiler)
    classes = OUT / "classes"
    stamp_file = OUT / "classes.stamp"
    if classes.is_dir() and stamp_file.exists() and stamp_file.read_text() == stamp:
        return classes
    tmp = OUT / "classes.tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    cp = str(jars / "*")
    cmd = [java(), "-Xss8m", "-Xmx2g", "-cp", cp, "scala.tools.nsc.Main",
           "-nowarn", "-d", str(tmp), "-classpath", cp] + [str(f) for f in files]
    print(f"building {len(files)} sources ...", file=sys.stderr, flush=True)
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=COMPILE_TIMEOUT_S)
    if done.returncode != 0:
        raise BuildError(f"scalac failed with exit code {done.returncode}")
    shutil.rmtree(classes, ignore_errors=True)
    tmp.rename(classes)
    stamp_file.write_text(stamp)
    return classes


if __name__ == "__main__":
    try:
        print(build())
    except (BuildError, subprocess.TimeoutExpired) as e:
        print(f"build failed: {e}", file=sys.stderr)
        sys.exit(2)
