#!/usr/bin/env python3
"""Build and run the repo benchmark (see perfbench/README.md).

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload fleet-epoch --seed 1 \
        --seconds 20 --trace 0

The harness is compiled from the checkout's own sources into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). The last
line of standard output is the result object; everything before it is
human-readable context (provenance, sample counts). The exit code is 0
only when the run completed, whether or not its checks passed (the
result's "correct" field says that).
"""

import argparse
import fcntl
import hashlib
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("fleet-epoch", "device-ledger", "certify-registry")
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    """Configure once, then incrementally build the harness."""
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (out / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(out), "--target",
                      "perfbench", "-j2"])
        # Keep the compiler's temporary files inside the checkout.
        tmp = out / "tmp"
        tmp.mkdir(exist_ok=True)
        env = dict(os.environ, TMPDIR=str(tmp))
        with open(log, "a") as fh:
            for cmd in steps:
                if subprocess.run(cmd, stdout=fh, stderr=subprocess.STDOUT,
                                  env=env).returncode:
                    tail = log.read_text(errors="replace")[-4000:]
                    print(tail, file=sys.stderr)
                    fail(f"build step failed: {' '.join(cmd)}")
    return out / "perfbench"


def source_digest():
    """SHA-256 over the library sources the harness was built from,
    so a result names its code even outside a git checkout."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists():
        return "none"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {ROOT / 'src'}; run from a "
             "full source checkout")
    out = build_dir()
    exe = build(out)
    work = out / "runs"
    work.mkdir(exist_ok=True)
    cmd = [str(exe), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", str(work),
           "--git-sha", git_sha(), "--src-digest", source_digest()]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
