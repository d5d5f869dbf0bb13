#!/usr/bin/env python3
"""Serving benchmark for the OIPA system.

Run from the root of a checkout:

    python3 perfbench/run.py --workload campaign-dblp --seed 1 --seconds 10 --trace 0

The first run builds the program and the benchmark from source with sbt
(perfbench/build.sbt depends on the repository's own build) and caches the
classpath in .bench_build/, keyed by a hash of every source and build file.
Later runs start the benchmark JVM directly. The JVM's last line of standard
output is the result object; it is passed through unchanged and printed last.
"""
import argparse
import hashlib
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"

DRIVER_HEAP = "4g"
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 840

# Module opens that spark-submit adds on JDK 17 (the repository's build.sbt
# passes the same list to forked runs and tests).
JVM_OPENS = [
    "-XX:+IgnoreUnrecognizedVMOptions",
    *(f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
        "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
        "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
        "sun.util.calendar")),
    "-Djdk.reflect.useDirectMethodHandle=false",
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_inputs():
    """Every file that goes into the build: program sources, build files, benchmark sources."""
    files = [ROOT / "build.sbt", HERE / "build.sbt", HERE / "project" / "build.properties"]
    files += [p for p in (ROOT / "project").glob("*") if p.suffix in (".sbt", ".scala", ".properties")]
    for d in (ROOT / "src" / "main", ROOT / "jobs", HERE / "src"):
        files += [p for p in d.rglob("*") if p.is_file()]
    return sorted(set(files))


def stamp():
    h = hashlib.sha256()
    for p in build_inputs():
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def run_checked(cmd, cwd, timeout, **kw):
    proc = subprocess.Popen(cmd, cwd=cwd, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc.returncode, out


def classpath():
    """Build if any input changed since the cached classpath was written."""
    cp_file, stamp_file = BUILD / "classpath.txt", BUILD / "stamp.txt"
    want = stamp()
    if cp_file.exists() and stamp_file.exists() and stamp_file.read_text() == want:
        return cp_file.read_text().strip()
    BUILD.mkdir(exist_ok=True)
    print("perfbench: building program and benchmark with sbt", file=sys.stderr)
    code, out = run_checked(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.forcestart=false",
         "compile", "export Runtime/fullClasspath"],
        cwd=HERE, timeout=BUILD_TIMEOUT_S, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True)
    lines = [l for l in out.splitlines() if l.strip()]
    if code != 0 or not lines:
        sys.stderr.write(out[-4000:])
        fail(f"build failed (sbt exit {code})")
    cp = lines[-1].strip()
    cp_file.write_text(cp)
    stamp_file.write_text(want)
    return cp


def main():
    # A terminated run still stops the JVM or sbt it started (run_checked).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    for need in ("build.sbt", "src/main/scala"):
        if not (ROOT / need).exists():
            fail(f"{need} not found: run from the root of a full checkout of the repository")

    cp = classpath()
    work = BUILD / "run"
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    cmd = ["java", f"-Xms{DRIVER_HEAP}", f"-Xmx{DRIVER_HEAP}", *JVM_OPENS,
           f"-Djava.io.tmpdir={work / 'tmp'}",
           f"-Dlog4j2.configurationFile={HERE / 'log4j2.properties'}",
           "-cp", cp, "repro.perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace, "--work-dir", str(work)]
    code, out = run_checked(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                            stdin=subprocess.DEVNULL, text=True)
    lines = out.splitlines()
    if code != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(out)
        fail(f"benchmark JVM failed (exit {code})")
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
