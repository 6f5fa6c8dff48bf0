#!/usr/bin/env python3
"""End-to-end benchmark of mcscope: one command for every workload.

    python3 perfbench/run.py --workload zoo_cold --seed 1 --seconds 20 --trace 0

Builds the benchmark package (perfbench/CMakeLists.txt: the mcscope
libraries and CLI from ../src plus the benchmark binary) as a Release build under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
benchmark binary for one workload, and prints every metric by name and unit.  The
last line of standard output is the JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
and writes the spans of the traced passes to .bench_out/.  Each run
also writes .bench_out/<workload>-seed<N>-trace<T>.json with the result
and a host and build stamp.  Exit codes: 0 when every output checked
out, 1 when an output or a premise check failed, 2 when the benchmark
could not build or run.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("zoo_cold", "paper_cold", "grid_warm", "serve_journal")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# A run measures for --seconds; set-up, checks and shutdown get this
# much more before the benchmark binary is stopped.
GRACE_SECONDS = 150


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(bdir):
    """Configure (once) and build the benchmark package; return bdir."""
    for needed in (ROOT / "src" / "CMakeLists.txt",
                   ROOT / "tools" / "mcscope_main.cc"):
        if not needed.is_file():
            fail(f"mcscope sources not found ({needed.relative_to(ROOT)})")
    bdir.mkdir(parents=True, exist_ok=True)
    log_path = bdir.parent / "perfbench-build.log"
    # Compiler temporaries stay inside the checkout too.
    tmp = bdir.parent / "perfbench-tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              stdin=subprocess.DEVNULL, env=env).returncode != 0:
                tail = log_path.read_text(errors="replace").splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed; see {log_path}")
    return bdir


def source_digest():
    """SHA-256 over the sources the benchmark builds and reads."""
    h = hashlib.sha256()
    paths = [ROOT / "tools" / "mcscope_main.cc",
             ROOT / "tests" / "golden" / "batch_zoo_2006.csv"]
    for top in (ROOT / "src", BENCH_DIR):
        paths += [p for p in top.rglob("*")
                  if p.is_file() and "__pycache__" not in p.parts]
    for p in sorted(paths):
        h.update(str(p.relative_to(ROOT)).encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def filesystem_of(path):
    """Filesystem type of the mount holding `path` (from /proc/mounts)."""
    best, fstype = "", "unknown"
    target = str(Path(path).resolve())
    try:
        for line in Path("/proc/mounts").read_text().splitlines():
            fields = line.split()
            if len(fields) < 3:
                continue
            mount = fields[1]
            if (target == mount or target.startswith(mount.rstrip("/") + "/")) \
                    and len(mount) > len(best):
                best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def host_stamp(work_dir):
    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "kernel": platform.release(),
        "work_dir_filesystem": filesystem_of(work_dir),
    }


def run_benchmark(argv, timeout, tmp_dir):
    """Run the benchmark binary in its own process group; return (rc, stdout)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("MCSCOPE_")}
    env["TMPDIR"] = str(tmp_dir)
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stdin=subprocess.DEVNULL, env=env, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("benchmark binary timed out")
    finally:
        # The binary reaps the serve daemon it starts; anything left in
        # its group (a worker orphaned by a crash) is stopped here.
        deadline = time.monotonic() + 5
        try:
            os.killpg(proc.pid, signal.SIGKILL)
            while time.monotonic() < deadline:
                time.sleep(0.05)
                os.killpg(proc.pid, 0)
        except ProcessLookupError:
            pass
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    bdir = build(build_dir())
    work_dir = bdir.parent / "perfbench-work" / str(os.getpid())
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    span_file = out_dir / f"{name}.spans.json"

    work_dir.mkdir(parents=True, exist_ok=True)
    argv = [str(bdir / "mcscope_perfbench"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", str(args.trace),
            "--bench-dir", str(BENCH_DIR), "--repo-root", str(ROOT),
            "--work-dir", str(work_dir), "--mcscope", str(bdir / "mcscope")]
    if args.trace:
        argv += ["--span-out", str(span_file)]
    try:
        rc, out = run_benchmark(argv, args.seconds + GRACE_SECONDS, work_dir)
        stamp = host_stamp(work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = out.splitlines()
    result = detail = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if rc not in (0, 1) or not isinstance(result, dict):
        sys.stdout.write("\n".join(lines[:-1] if result else lines) + "\n")
        fail(f"benchmark binary exited with code {rc} and no result")

    for line in lines[:-1]:
        if line.startswith("detail: "):
            detail = json.loads(line[len("detail: "):])
        else:
            print(line)
    stamp["build_type"] = (detail or {}).get("build_type")
    print("  stamp: " + ", ".join(f"{k}={v}" for k, v in stamp.items()))
    record = {"args": vars(args), "stamp": stamp, "detail": detail,
              "result": result,
              "span_file": str(span_file.relative_to(ROOT)) if args.trace else None}
    (out_dir / f"{name}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(result), flush=True)
    sys.exit(rc)


if __name__ == "__main__":
    main()
