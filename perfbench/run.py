#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload learn|derive|serve --seed N \
        --seconds S --trace 0|1

Run from anywhere; paths are taken relative to the repository root (the
parent of this directory). Builds into .bench_build/, keeps sockets,
model files and daemon logs in a per-run directory under .bench_run/
that is removed afterwards, and passes the exit code of the benchmark
through. The last line of standard output is the result object; see
perfbench/README.md.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
RUN_DIR = ".bench_run"
TARGETS = ["perfbench/perfbench.exe", "bin/mrsl_cli.exe"]
EXE, DAEMON = (os.path.join(BUILD_DIR, "default", t) for t in TARGETS)
NOT_SOURCE = {".git", "_build", BUILD_DIR, RUN_DIR}
TIMEOUT_S = 170


def git(*args):
    try:
        return subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        return None


def source_files():
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    if listed is not None:
        return [p for p in listed.split("\0") if p and os.path.isfile(os.path.join(ROOT, p))]
    files = []
    for top, dirs, names in os.walk(ROOT):
        dirs[:] = [d for d in dirs if d not in NOT_SOURCE]
        files += [os.path.relpath(os.path.join(top, n), ROOT) for n in names]
    return files


def git_object(kind, data):
    return hashlib.sha1(b"%s %d\0%s" % (kind, len(data), data)).digest()


def tree_hash(files):
    """The git tree hash of these files as they are on disk: equal to
    `git rev-parse HEAD^{tree}` for a clean checkout of HEAD, with or
    without a .git directory."""
    root = {}
    for path in files:
        node = root
        *dirs, name = path.split(os.sep)
        for d in dirs:
            node = node.setdefault(d, {})
        node[name] = path

    def write(node):
        entries = []
        for name, child in node.items():
            if isinstance(child, dict):
                entries.append((name + "/", b"40000", name, write(child)))
            else:
                full = os.path.join(ROOT, child)
                with open(full, "rb") as f:
                    blob = git_object(b"blob", f.read())
                mode = b"100755" if os.stat(full).st_mode & 0o100 else b"100644"
                entries.append((name, mode, name, blob))
        entries.sort(key=lambda e: e[0].encode())
        return git_object(
            b"tree",
            b"".join(m + b" " + n.encode() + b"\0" + h for _, m, n, h in entries),
        )

    return write(root).hex()


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=["learn", "derive", "serve"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "release", *("./" + t for t in TARGETS)],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode

    tree = tree_hash(source_files())
    head = git("rev-parse", "HEAD^{tree}")
    dirty = "null" if head is None else str(head.strip() != tree).lower()
    # One CPU for the benchmark and the daemon it starts. On a VM, a
    # closed loop between two processes on two vCPUs keeps halting and
    # waking vCPUs, and each wake-up waits on the hypervisor: that wait
    # (counted as steal) dominated serve latency and made it unsteady.
    cpus = os.sched_getaffinity(0)
    cpu = min(cpus)
    os.makedirs(os.path.join(ROOT, RUN_DIR), exist_ok=True)
    run_dir = os.path.relpath(tempfile.mkdtemp(dir=os.path.join(ROOT, RUN_DIR)), ROOT)
    cmd = [os.path.join(ROOT, EXE), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--daemon", "./" + DAEMON,
           "--run-dir", run_dir, "--tree", tree, "--dirty", dirty,
           "--nproc", str(len(cpus)), "--cpu", str(cpu)]
    # Its own process group, so a timeout also stops the daemon it started.
    bench = subprocess.Popen(
        cmd, cwd=ROOT, start_new_session=True,
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
    )
    try:
        code = bench.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(bench.pid, signal.SIGKILL)
        bench.wait()
        print("perfbench: timed out", file=sys.stderr)
        code = 1
    finally:
        try:
            os.killpg(bench.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        shutil.rmtree(os.path.join(ROOT, run_dir), ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
