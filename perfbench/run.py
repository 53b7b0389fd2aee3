#!/usr/bin/env python3
"""Raven benchmark launcher.

Builds the benchmark (perfbench/build.sbt compiles the program's sources
with the benchmark code) when its sources changed, then runs one workload
in a fresh JVM and passes its report through. The last line of standard
output is the result as one JSON object.

    python3 perfbench/run.py --workload interactive --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of the repository. Needs SPARK_HOME (the Spark binary
distribution), sbt and a JDK 17. Build output, scratch data, result files
and span traces go under .bench_build/.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "perfbench")
CLASSPATH = os.path.join(BUILD, "classpath.txt")
BUILT_FROM = os.path.join(BUILD, "sources.sha256")
PROGRAM_SOURCES = os.path.join(ROOT, "src", "main", "scala", "repro")

# Every workload Main knows; BENCHMARK.json lists those the regular runs use.
WORKLOADS = ("interactive", "model_churn", "bulk_score")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 800
HEAP = "-Xmx3g"
# Spark on JDK 17 needs these packages opened (as its own launcher does).
JVM_OPENS = [
    "--add-opens=java.base/" + p + "=ALL-UNNAMED"
    for p in ("java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
              "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
              "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")
] + ["-Djdk.reflect.useDirectMethodHandle=false", "-Dio.netty.tryReflectionSetAccessible=true"]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_files():
    roots = [os.path.join(ROOT, "src", "main"), os.path.join(BENCH, "src"), os.path.join(BENCH, "project")]
    files = [os.path.join(BENCH, "build.sbt")]
    for r in roots:
        for d, dirs, names in os.walk(r):
            dirs[:] = [x for x in dirs if x != "target"]
            files += [os.path.join(d, n) for n in names]
    return sorted(files)


def source_hash():
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def build(src_hash):
    if os.path.exists(CLASSPATH) and os.path.exists(BUILT_FROM):
        with open(BUILT_FROM) as fh:
            if fh.read().strip() == src_hash:
                return
    print("perfbench: building", file=sys.stderr)
    env = dict(os.environ, COURSIER_MODE=os.environ.get("COURSIER_MODE", "offline"))
    try:
        proc = subprocess.run(["sbt", "--batch", "-Dsbt.log.noformat=true", "writeClasspath"], cwd=BENCH,
                              stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if proc.returncode != 0 or not os.path.exists(CLASSPATH):
        fail("build failed")
    os.makedirs(BUILD, exist_ok=True)
    with open(BUILT_FROM, "w") as fh:
        fh.write(src_hash)


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                              timeout=10).stdout.strip() or "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def run_jvm(args, src_hash, capture=False, timeout=RUN_TIMEOUT_S):
    """Runs the benchmark JVM; returns (exit code, standard output if captured)."""
    java_home = os.environ.get("JAVA_HOME")
    java = os.path.join(java_home, "bin", "java") if java_home else "java"
    with open(CLASSPATH) as fh:
        cp = fh.read().strip()
    work = os.path.join(OUT, "work", "%s-%d" % ("-".join(args[1:2]), os.getpid()))
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = [java, HEAP, "-Djava.io.tmpdir=" + tmp] + JVM_OPENS + ["-cp", cp, "repro.perfbench.Main"] + args + [
        "--work", work, "--out", os.path.join(OUT, "results"),
        "--stamp", "git_sha=" + git_sha(), "--stamp", "source_sha256=" + src_hash]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE if capture else None, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run timed out after %d s" % timeout)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if capture and out:
        sys.stdout.write(out)
        sys.stdout.flush()
    return proc.returncode, out


def results(out):
    return [json.loads(line) for line in out.splitlines() if line.startswith('{"correct"')]


# Modes whose answers the corrupted-reference runs must report wrong: classic SQL paths, the
# inlined pruned forest, the NN runtime and the external process.
CHECKED_MODES = {"interactive": ("dt", "rf_pruned", "rf_nn", "mlp_nn", "external"),
                 "bulk_score": ("dt", "rf", "rf_pruned", "rf_nn", "mlp_nn", "external")}


def smoke(src_hash):
    """Each workload once at tiny size: every metric of BENCHMARK.json is
    printed with its unit, and a wrong reference answer fails the op in
    every checked mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    listed = [w["name"] for w in spec["workloads"]]
    base = ["--workload", "all", "--seed", "1", "--seconds", "3", "--smoke"]
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        code, out = run_jvm(base + ["--trace", trace], src_hash, capture=True)
        got = results(out or "")
        assert code == 0 and len(got) == len(WORKLOADS), "trace %s: exit %d, %d results" % (trace, code, len(got))
        for w, r in zip(WORKLOADS, got):
            want = {m["name"]: m["unit"] for m in spec[key]}
            units = {k: v["unit"] for k, v in r["metrics"].items()}
            if w in listed:
                assert units == want, "%s trace %s: metrics differ: %s" % (w, trace, set(units) ^ set(want))
            else:
                # A workload the regular runs leave out has no rows_per_s for modes it does not run.
                core = {k: u for k, u in want.items() if not k.startswith("rows_per_s.")}
                assert core.items() <= units.items() <= want.items(), \
                    "%s trace %s: metrics differ: %s" % (w, trace, set(units) ^ set(want))
            missing = [k for k, v in r["metrics"].items() if not isinstance(v["value"], (int, float))]
            assert not missing, "%s trace %s: no value for %s" % (w, trace, missing)
            assert r["correct"] and r["attempted"] >= 1, "%s trace %s: %s" % (w, trace, r)
    for w, modes in CHECKED_MODES.items():
        code, out = run_jvm(["--workload", w, "--seed", "1", "--seconds", "3", "--smoke", "--trace", "0",
                             "--corrupt-reference"], src_hash, capture=True)
        r = results(out or "")[-1]
        assert code == 0 and not r["correct"], "%s: a wrong reference answer was not reported: %s" % (w, r)
        with open(os.path.join(OUT, "results", "%s-seed1-trace0.json" % w)) as fh:
            ops = json.load(fh)["ops"]
        for m in modes:
            causes = [op[3] for op in ops if op[0] == m]
            assert "wrong_answer" in causes, \
                "%s: a wrong reference answer for %s was not reported as a wrong answer: %s" % (w, m, causes)
    print("perfbench smoke: ok", file=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    ap.add_argument("--smoke", action="store_true", help="check the benchmark itself at tiny size")
    a = ap.parse_args()
    if not os.path.isdir(PROGRAM_SOURCES):
        fail("no program sources at src/main/scala/repro; run from a checkout of the repository")
    if not os.path.isdir(os.path.join(os.environ.get("SPARK_HOME", ""), "jars")):
        fail("SPARK_HOME must name a Spark binary distribution")
    src_hash = source_hash()
    build(src_hash)
    if a.smoke:
        smoke(src_hash)
        return 0
    if not a.workload:
        fail("--workload is required")
    n = len(WORKLOADS) if a.workload == "all" else 1
    code, _ = run_jvm(["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
                       "--trace", a.trace], src_hash, timeout=RUN_TIMEOUT_S * n)
    return code


if __name__ == "__main__":
    sys.exit(main())
