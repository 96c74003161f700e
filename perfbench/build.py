"""Build file of the benchmark: compiles the program (src/main/scala) together
with the benchmark driver (perfbench/src) with the Scala compiler that ships
in Spark's jars directory, into <checkout>/.bench_build/perfbench/classes.

A build is reused while the sources, the jar set and this file are unchanged.
Run it on its own with `python3 perfbench/build.py`.
"""
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = ROOT / ".bench_build" / "perfbench"


def java() -> str:
    home = os.environ.get("JAVA_HOME")
    exe = Path(home, "bin", "java") if home else None
    if exe is not None and exe.is_file():
        return str(exe)
    found = shutil.which("java")
    if found is None:
        sys.exit("build: no java on PATH and no JAVA_HOME")
    return found


def jars() -> list:
    """Spark's jars: the Scala compiler and library, and the program's Spark API."""
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit is None:
            sys.exit("build: set SPARK_HOME or put spark-submit on PATH")
        home = str(Path(submit).resolve().parent.parent)
    found = sorted(Path(home, "jars").glob("*.jar"))
    if not any(j.name.startswith("scala-compiler") for j in found):
        sys.exit(f"build: no scala-compiler jar under {home}/jars")
    return found


def sources() -> list:
    program = ROOT / "src" / "main" / "scala"
    if not program.is_dir():
        sys.exit(f"build: program sources not found at {program}")
    found = sorted(program.rglob("*.scala")) + sorted((BENCH_DIR / "src").rglob("*.scala"))
    if not found:
        sys.exit("build: no Scala sources")
    return found


def build() -> tuple:
    """Returns (classes directory, runtime classpath entries), compiling if needed."""
    cp = jars()
    srcs = sources()
    digest = hashlib.sha256()
    for f in [Path(__file__)] + srcs:
        digest.update(str(f.relative_to(ROOT)).encode())
        digest.update(f.read_bytes())
    for j in cp:
        digest.update(j.name.encode())
    stamp = OUT / "stamp"
    classes = OUT / "classes"
    if classes.is_dir() and stamp.is_file() and stamp.read_text() == digest.hexdigest():
        return classes, cp

    OUT.mkdir(parents=True, exist_ok=True)
    fresh = OUT / "classes.new"
    shutil.rmtree(fresh, ignore_errors=True)
    fresh.mkdir()
    classpath = os.pathsep.join(str(j) for j in cp)
    cmd = [java(), "-Xmx1g", "-cp", classpath, "scala.tools.nsc.Main", "-nowarn",
           "-d", str(fresh), "-classpath", classpath] + [str(s) for s in srcs]
    print(f"build: compiling {len(srcs)} sources", file=sys.stderr)
    # Compiler messages go to stderr: standard output is kept for the result.
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"build: scalac failed with code {done.returncode}")
    shutil.rmtree(classes, ignore_errors=True)
    fresh.rename(classes)
    stamp.write_text(digest.hexdigest())
    return classes, cp


if __name__ == "__main__":
    print(build()[0])
