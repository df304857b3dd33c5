"""Benchmark f1kgw on one workload, end to end or layer by layer.

    python3 perfbench/run.py --workload axioms --seed 1 --seconds 20 --trace 0 [--save FILE]

Workloads (see README.md): axioms, categories, isometry, cli.  Closed
loop, one client: each pass is a fresh interpreter (so the kernel's
caches start cold) that runs the whole workload and checks every output,
and the next pass starts when it ends.  Passes repeat until --seconds is
used up; at least one runs.

--trace 0 reports the end-to-end metrics: the median pass's wall time,
CPU time and peak RSS (pass process and its children), the median
interpreter-plus-import time over several set-up probes, and the share
of steps that passed.  The times are scaled to the host's nominal speed
by the speed probe that runs inside every untraced pass (pace.py); the
unscaled ones are printed beside them.  --trace 1 runs one untraced pass, then traced
passes, and reports the per-layer metrics named in BENCHMARK.json plus
the tracing overhead.  The last stdout line is the JSON result; the line
before it records the environment.  --save also writes everything to a
file that compare.py reads.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import pace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("axioms", "categories", "isometry", "cli")
PROBES_PER_PASS = 3
PASS_TIMEOUT = 150
# Interpreter start plus import of f1kgw and every module of the package.
PROBE = (
    "import importlib, pkgutil, f1kgw\n"
    "for m in pkgutil.iter_modules(f1kgw.__path__):\n"
    "    importlib.import_module('f1kgw.' + m.name)\n"
)


def fail(message):
    sys.stderr.write("error: %s\n" % message)
    sys.exit(2)


def child_env():
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def kill_group(pid):
    """Kill a timed-out child with everything it started."""
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(cmd, env):
    """Run cmd to completion: (exit code, stdout, wall s, CPU s, peak RSS MB).

    CPU and peak RSS come from wait4, so they cover the child and every
    descendant it waited for (kgw subprocesses, pool workers).
    """
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, start_new_session=True)
    timer = threading.Timer(PASS_TIMEOUT, kill_group, (proc.pid,))
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024


def environment(seed):
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".pyx"):
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "backend": None,  # reported by the passes
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "seed": seed,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


class Pass:
    def __init__(self, code, out, wall, cpu, rss):
        self.wall, self.cpu, self.rss = wall, cpu, rss
        self.result = None
        if code == 0:
            try:
                self.result = json.loads(out.decode().splitlines()[-1])
            except (ValueError, IndexError):
                pass
        self.error = None if self.result else "pass exited %d without a result" % code
        self.pace = self.result.get("pace") if self.result else None
        if self.result and self.pace is not None and not self.pace["probes"]:
            self.result, self.error = None, "the speed probe took no samples"

    @property
    def work(self):
        """Wall time less the probe's own."""
        return self.wall - self.pace["probe_s"]

    @property
    def attempted(self):
        return sum(s[0] for s in self.result["steps"].values()) if self.result else 1

    @property
    def failed(self):
        return sum(s[1] for s in self.result["steps"].values()) if self.result else 1

    @property
    def failures(self):
        return self.result["failures"] if self.result else [self.error]


def run_pass(workload, seed, traced, env):
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload, "--seed", str(seed)]
    return Pass(*run_child(cmd + (["--trace"] if traced else []), env))


def spread(values):
    return "median of %d; min %.4g, max %.4g" % (len(values), min(values), max(values))


def end_to_end(passes, setup, spec):
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    timed = [p for p in passes if p.result]
    if not timed:
        fail("no pass produced a result: %s" % passes[0].error)
    speed = pace.merge([p.pace for p in timed])
    values = {
        "wall_s": [pace.scale(p.work, p.pace) for p in timed],
        "cpu_s": [pace.scale(p.cpu - p.pace["probe_s"], p.pace) for p in timed],
        "peak_rss_mb": [p.rss for p in timed],
        "setup_s": [pace.scale(s, speed) for s in setup],
    }
    unscaled = {"wall_s": [p.wall for p in timed], "cpu_s": [p.cpu for p in timed], "setup_s": setup}
    metrics = {k: statistics.median(v) for k, v in values.items()}
    metrics["pass_ratio"] = (attempted - failed) / attempted
    for m in spec["end_to_end"]:
        detail = spread(values[m["name"]]) if m["name"] in values else ""
        if m["name"] in unscaled:
            detail += "; unscaled %.4f" % statistics.median(unscaled[m["name"]])
        print("%-14s %12.4f %-5s %s" % (m["name"], metrics[m["name"]], m["unit"], detail))
    print("speed probe: %d chunks, mean speed %.3f of nominal" % (speed["probes"], speed["speed"] / speed["probes"]))
    print("%-14s %12.4f %-5s %d failed of %d steps" % ("fail_ratio", failed / attempted, "ratio", failed, attempted))
    return metrics, []


def per_layer(passes, untraced, spec):
    traced = [p for p in passes if p.result]
    figures = [p.result.get("layers", {}) for p in traced]
    problems = []
    metrics = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if name == "trace.overhead_s":
            continue
        values = [f.get(name, 0) for f in figures] or [0]
        if m["unit"] == "s":
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = values[0]
            if any(v != values[0] for v in values):
                problems.append("count %s differs between passes: %s" % (name, values))
    walls = [p.work for p in untraced if p.result]
    metrics["trace.overhead_s"] = (
        statistics.median([p.wall for p in traced]) - statistics.median(walls) if traced and walls else 0.0
    )
    quiet = []
    for layer in dict.fromkeys(m["name"].split(".")[0] for m in spec["per_layer"]):
        mine = [m["name"] for m in spec["per_layer"] if m["name"].split(".")[0] == layer]
        zero = [name for name in mine if not metrics[name]]
        quiet += ["%s.* (all %d)" % (layer, len(mine))] if zero == mine else zero
    for m in spec["per_layer"]:
        if metrics[m["name"]]:
            print("%-52s %14.6g %s" % (m["name"], metrics[m["name"]], m["unit"]))
    print("not exercised on this workload (reported as 0): %s" % (", ".join(quiet) or "none"))
    timed = [k for k in metrics if k.endswith("_s") and not k.startswith(("cli.", "trace."))]
    top = sorted(timed, key=metrics.get, reverse=True)[:6]
    print("largest layer times: %s" % ", ".join("%s %.3f s" % (k, metrics[k]) for k in top))
    return metrics, problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="also write the full result set to this file")
    args = parser.parse_args()

    if not (ROOT / "src" / "f1kgw" / "__init__.py").is_file():
        fail("no f1kgw sources under %s" % (ROOT / "src"))
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        fail("cannot read BENCHMARK.json: %s" % exc)
    env = child_env()
    probe = [sys.executable, "-c", PROBE]
    setup = []

    def setup_probe():
        code, _, wall, _, _ = run_child(probe, env)
        if code != 0:
            fail("importing f1kgw failed (exit %d)" % code)
        return wall

    setup_probe()  # untimed: the first import also writes the bytecode caches
    deadline = time.perf_counter() + args.seconds
    untraced = [run_pass(args.workload, args.seed, False, env)] if args.trace else []
    passes = []
    # Probes are spread over the run, between passes, so that both see
    # the same machine; a pass starts while at least half of one fits.
    while True:
        setup += [setup_probe() for _ in range(PROBES_PER_PASS)]
        passes.append(run_pass(args.workload, args.seed, bool(args.trace), env))
        half = statistics.median(p.wall for p in passes) / 2
        if time.perf_counter() + half > deadline:
            break

    record = environment(args.seed)
    backends = {p.result["backend"] for p in untraced + passes if p.result}
    record["backend"] = backends.pop() if len(backends) == 1 else sorted(backends) or None
    print("workload %s, seed %d, %d %s passes, backend %s, python %s, nproc %s" % (
        args.workload, args.seed, len(passes), "traced" if args.trace else "untraced",
        record["backend"], record["python"], record["nproc"]))
    if args.trace:
        metrics, problems = per_layer(passes, untraced, spec)
    else:
        metrics, problems = end_to_end(passes, setup, spec)
    failures = [f for p in untraced + passes for f in p.failures] + problems
    for line in failures[:20]:
        print("FAILED %s" % line)
    attempted = sum(p.attempted for p in untraced + passes) + len(problems)
    failed = sum(p.failed for p in untraced + passes) + len(problems)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in spec["per_layer" if args.trace else "end_to_end"]},
    }
    if args.save:
        saved = dict(result, env=record, workload=args.workload, seconds=args.seconds,
                     trace=args.trace, walls=[p.wall for p in passes])
        Path(args.save).write_text(json.dumps(saved, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"env": record}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
