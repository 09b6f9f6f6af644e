#!/usr/bin/env python3
"""Builds rrqd and the benchmark from this checkout, then runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The build goes to .bench_build/perfbench
(or $CARGO_TARGET_DIR/perfbench when that is set), in Release mode; rrqd's
state dirs live under .bench_build/state/ and are removed after every run,
failed runs included; a traced run writes its spans to .bench_build/traces/.
Everything the run starts is stopped before it exits. The last line of
stdout is the benchmark's JSON result (see perfbench/README.md); build
output and progress go to stderr. Exit codes: those of rrq_perfbench, or 3
when the build fails or the run overruns its time limit.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_LIMIT_S = 170
FIRST_RUN_LIMIT_S = 880


def build(build_dir, env):
    """Configures (once) and builds rrqd and rrq_perfbench; returns both paths."""
    source = os.path.join(ROOT, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", source, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "rrq_perfbench",
                    "rrqd", "-j", jobs],
                   check=True, stdout=sys.stderr, env=env)
    return (os.path.join(build_dir, "rrq_perfbench"),
            os.path.join(build_dir, "rrq", "net", "rrqd"))


def stop_group(proc):
    """SIGKILLs whatever is left of the run's process group and reaps it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def on_signal(signum, _frame):
    # Turn SIGTERM/SIGINT into an exception, so the cleanup in main() runs.
    raise SystemExit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    args = parser.parse_args()

    os.chdir(ROOT)
    started = time.monotonic()
    out_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    tmp = os.path.join(out_root, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    try:
        binary, rrqd = build(os.path.join(out_root, "perfbench"), env)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 3
    build_s = time.monotonic() - started

    state_root = os.path.join(out_root, "state", f"run-{os.getpid()}")
    os.makedirs(state_root, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace,
           "--rrqd", rrqd, "--state-root", state_root,
           "--trace-dir", os.path.join(out_root, "traces")]
    # Its own session, so every rrqd child it forks can be killed as a group.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env,
                            start_new_session=True, text=True)
    # A run must end within RUN_LIMIT_S; the first run in a checkout, which
    # spends its time building, within FIRST_RUN_LIMIT_S.
    limit = FIRST_RUN_LIMIT_S if build_s >= 60 else RUN_LIMIT_S
    try:
        stdout, _ = proc.communicate(timeout=max(10, limit - build_s))
        code = proc.returncode
    except subprocess.TimeoutExpired:
        stdout, code = "", 3
        print("perfbench: run overran its time limit", file=sys.stderr)
    finally:
        stop_group(proc)
        shutil.rmtree(state_root, ignore_errors=True)
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
