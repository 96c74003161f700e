"""Runs one benchmark workload; see perfbench/README.md.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the program first if needed (perfbench/build.py), then runs the
benchmark in one JVM with fixed settings. The JVM prints the metrics, and
as the last line of standard output the JSON result.
"""
import argparse
import os
import signal
import subprocess
import sys

sys.dont_write_bytecode = True
import build  # noqa: E402  (perfbench/build.py, beside this file)

WORKLOADS = ["ingest-porto-a", "mixed-geolife-s"]

# Fixed JVM settings, so runs on different commits compare like with like.
HEAP = "2g"
YOUNG = "1g"
CPUS = 2  # the workloads are single-threaded; this bounds GC and JIT threads


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--scale", default="full", choices=["full", "tiny"],
                    help="tiny is for the smoke test only")
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    classes, jars = build.build()
    out = build.OUT
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    cpus = min(CPUS, len(os.sched_getaffinity(0)))
    # A fixed heap and young generation, touched up front and backed by huge
    # pages, keep GC and TLB behaviour the same from run to run.
    jvm = [build.java(), f"-Xms{HEAP}", f"-Xmx{HEAP}", f"-Xmn{YOUNG}", "-XX:+UseParallelGC",
           "-XX:-UseAdaptiveSizePolicy", "-XX:+UseTransparentHugePages", "-XX:+AlwaysPreTouch",
           f"-XX:ActiveProcessorCount={cpus}", f"-Djava.io.tmpdir={tmp}",
           "-cp", ":".join([str(classes)] + [str(j) for j in jars]),
           "repro.perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--scale", args.scale, "--out", str(out / "traces")]

    proc = subprocess.Popen(jvm)

    def stop(signum, _frame):
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    code = proc.wait()
    if code != 0:
        print(f"run: the JVM exited with code {code}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
