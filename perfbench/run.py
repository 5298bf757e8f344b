"""Benchmark of the necklaces command line.

Run from the root of the repository (stdlib only, nothing to build):

    python3 perfbench/run.py --workload center|decompose|session|all \\
        [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --write-golden

Load model: a closed loop with one client.  The harness runs one child
process at a time and waits for it, so at most one CPU-bound child runs.
Every command is its own ``python -m necklaces.cli ... --format json``
process (the demo script its own ``python demos/...`` process), forked by
spawner.py, which reports the child's wall time and rusage.

Reference-speed seconds.  On a virtual CPU that shares its core with other
tenants, the same command takes up to 1.8x longer from one second or minute
to the next, because the CPU itself slows.  spawner.py pins every child to
one CPU and times a fixed Fraction-sum probe on that CPU right before the
child, every 30 ms while it runs and right after it.  Every time the
benchmark reports (wall, CPU, set-up, traced self time) is the measured time
scaled by ``PROBE_REF_S`` over the mean of the child's probes: the time the
command would take with the CPU at the probe's reference speed.  Wall times
first lose the time the child could not run: its wait for the CPU behind
other processes and the CPU's steal time (the host not running the virtual
CPU), neither of which the probes see.  Only the machine's speed and
absence are taken out; a change to the program moves these times as much
as it moves the raw ones.  The probes take about 2% of the CPU from the
child.  The raw wall times, the time taken out and the probes are kept in
the run record.

``--trace 0`` measures the end-to-end metrics with tracing off.  It repeats
the workload's command list while another pass fits into ``--seconds``, at
least twice, and spawns no-work children (interpreter start, import and
parser build) around the passes for ``setup_s``.  ``--trace 1`` alternates
an untraced pass with a pass in which every command runs under tracer.py,
and reports the per-layer metrics.

End-to-end metrics of one run, in reference-speed seconds: ``wall_s`` and
``cpu_s`` (children's user plus system time) of one pass over the command
list, median over passes;
``cmd_p50_s``, the median over commands of each command's median wall time;
``cmd_tail_s``, the nearest-rank p75 of all command samples of the run;
``setup_s``, the median no-work child; ``peak_rss_mb``, the largest
``ru_maxrss`` of any command child.

Every output is checked: exit code, the program's own ok/agree/oracle
fields, the golden stdout digests in golden.json (captured with
``--write-golden`` for seed 0, and applied to every command whose argv they
cover) and the invariants in workloads.py.  The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it records the run's conditions and raw per-command samples.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
WORK = os.path.join(HERE, ".work")
GOLDEN = os.path.join(HERE, "golden.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
SETUP_CODE = "import necklaces.cli as c; c.build_parser()"
CHILD_TIMEOUT_S = 150
MIN_PASSES = 2
SETUP_SPAWNS_PER_PASS = 5
TAIL_PERCENTILE = 75
DEFAULT_SEED = 0
# The probe's time on an uncontended vCPU of a 2.0 GHz Xeon VM with
# Python 3.11: the speed that the reported times are scaled to.
PROBE_REF_S = 0.00026


def speed_scale(reply) -> float:
    """Factor that turns the child's measured times into reference-speed
    seconds."""
    return PROBE_REF_S / statistics.mean(reply["probe_s"])


def running_s(reply) -> float:
    """Wall time of the child less the time it could not run.  The CPU's
    steal time also covers steal while the child waited, which its wait
    already holds; the child's own time on the CPU bounds the result."""
    away = reply["wait_s"] + reply["steal_s"]
    return max(reply["wall_s"] - away, reply["exec_s"])


class Sample:
    """One finished child: its timings, in reference-speed seconds, and
    whether its output passed."""

    def __init__(self, command, reply, stdout, problems):
        self.command = command
        self.scale = speed_scale(reply)
        self.raw_wall_s = reply["wall_s"]
        self.away_s = reply["wall_s"] - running_s(reply)
        self.probe_s = reply["probe_s"]
        self.wall_s = running_s(reply) * self.scale
        # for times measured inside the child, which hold its share of the
        # time it could not run
        self.span_scale = self.wall_s / self.raw_wall_s
        self.cpu_s = reply["cpu_s"] * self.scale
        self.maxrss_kb = reply["maxrss_kb"]
        self.stdout_bytes = len(stdout)
        self.problems = problems


class Spawner:
    """Client of spawner.py, the fork server that starts every child."""

    def __init__(self):
        os.makedirs(WORK, exist_ok=True)
        self.stdout = os.path.join(WORK, "stdout")
        self.stderr = os.path.join(WORK, "stderr")
        env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        # multipoly keys monomials by str; fix str hashing across processes
        env["PYTHONHASHSEED"] = "0"
        self.proc = subprocess.Popen(
            [sys.executable, "-S", os.path.join(HERE, "spawner.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            cwd=ROOT,
            text=True,
        )

    def run(self, argv):
        """Run argv to completion; (reply, stdout bytes, stderr text)."""
        request = {"argv": argv, "stdout": self.stdout, "stderr": self.stderr, "timeout": CHILD_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("spawner exited")
        with open(self.stdout, "rb") as out, open(self.stderr, "rb") as err:
            return json.loads(line), out.read(), err.read().decode(errors="replace")

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def child_argv(command, trace_path=None):
    if trace_path is not None:
        return [sys.executable, os.path.join(HERE, "tracer.py"), trace_path] + command
    if command[0].endswith(".py"):
        return [sys.executable] + command
    return [sys.executable, "-m", "necklaces.cli"] + command


def run_command(spawner, command, golden, trace_path=None):
    reply, stdout, stderr = spawner.run(child_argv(command, trace_path))
    problems = workloads.check(command, reply["code"], stdout, golden)
    if problems:
        tail = stderr.strip().splitlines()[-1:] or [""]
        print(f"FAILED {workloads.command_key(command)[:120]}: {'; '.join(problems)} {tail[0]}", file=sys.stderr)
    return Sample(command, reply, stdout, problems)


def setup_sample(spawner) -> float:
    reply, _, stderr = spawner.run([sys.executable, "-c", SETUP_CODE])
    if reply["code"] != 0:
        raise RuntimeError(f"no-work child failed: {stderr.strip()}")
    return running_s(reply) * speed_scale(reply)


def run_pass(spawner, commands, golden):
    return [run_command(spawner, c, golden) for c in commands]


def run_traced_pass(spawner, commands, golden, totals, counts, imports):
    """Run every command under the tracer; add its layer [calls, self
    seconds] to `totals`, its work counts to `counts` and its import time
    to `imports`."""
    path = os.path.join(WORK, "trace")
    samples = []
    for command in commands:
        if os.path.exists(path):
            os.remove(path)
        sample = run_command(spawner, command, golden, path)
        samples.append(sample)
        try:
            header, kind, parent, start, end = tracer.load(path)
        except (OSError, ValueError, EOFError) as exc:
            sample.problems.append(f"no trace: {exc}")
            continue
        if header["untraced"]:
            print(f"layers not found: {', '.join(header['untraced'])}", file=sys.stderr)
        imports.append(header["import_s"] * sample.span_scale)
        for name, (calls, own) in tracer.layer_totals(header["names"], kind, parent, start, end).items():
            entry = totals.setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += own * sample.span_scale
        for key, value in header["counts"].items():
            counts[key] = max(counts.get(key, 0), value) if key.endswith("max_rows") else counts.get(key, 0) + value
    return samples


def percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def enough_time(started, pass_seconds, seconds, passes, minimum):
    if passes < minimum:
        return True
    return time.perf_counter() - started + statistics.median(pass_seconds) <= seconds


def measure(spawner, commands, golden, seconds):
    """End-to-end metrics with tracing off."""
    setup_sample(spawner)  # warm-up: compiles bytecode, fills the file cache
    setups, passes, pass_seconds = [], [], []
    started = time.perf_counter()
    while enough_time(started, pass_seconds, seconds, len(passes), MIN_PASSES):
        t0 = time.perf_counter()
        setups += [setup_sample(spawner) for _ in range(SETUP_SPAWNS_PER_PASS)]
        passes.append(run_pass(spawner, commands, golden))
        pass_seconds.append(time.perf_counter() - t0)
    flat = [s for p in passes for s in p]
    metrics = {
        "wall_s": statistics.median(sum(s.wall_s for s in p) for p in passes),
        # median over commands of each command's median over passes, so that
        # a list of few commands does not mix the extremes of two of them
        "cmd_p50_s": statistics.median(
            statistics.median(s.wall_s for s in runs) for runs in zip(*passes)
        ),
        "cmd_tail_s": percentile([s.wall_s for s in flat], TAIL_PERCENTILE),
        "setup_s": statistics.median(setups),
        "cpu_s": statistics.median(sum(s.cpu_s for s in p) for p in passes),
        "peak_rss_mb": max(s.maxrss_kb for s in flat) / 1024,
    }
    return metrics, flat, {"passes": len(passes), "setup_samples": setups}


def measure_traced(spawner, commands, golden, seconds):
    """Per-layer metrics, averaged over traced passes."""
    setup_sample(spawner)
    plain_walls, traced_walls, flat = [], [], []
    totals, counts, imports, stdout_bytes, pass_seconds = {}, {}, [], 0, []
    started = time.perf_counter()
    while enough_time(started, pass_seconds, seconds, len(traced_walls), 1):
        t0 = time.perf_counter()
        plain = run_pass(spawner, commands, golden)
        samples = run_traced_pass(spawner, commands, golden, totals, counts, imports)
        pass_seconds.append(time.perf_counter() - t0)
        plain_walls.append(sum(s.wall_s for s in plain))
        traced_walls.append(sum(s.wall_s for s in samples))
        flat += plain + samples
        stdout_bytes += sum(s.stdout_bytes for s in samples)
    n = len(traced_walls)
    metrics = {}
    for name, (calls, own) in totals.items():
        metrics[f"{name}.calls"] = calls / n
        metrics[f"{name}.self_s"] = own / n
    for key, value in counts.items():
        metrics[key] = value if key.endswith("max_rows") else value / n

    def ratio(num, den):
        return metrics.get(num, 0) / metrics[den] if metrics.get(den) else 0.0

    metrics["elements.project_to_necklace.kept_ratio"] = ratio(
        "elements.project_to_necklace.terms_out", "elements.project_to_necklace.terms_in")
    metrics["brackets.necklace_bracket.zero_ratio"] = ratio(
        "brackets.necklace_bracket.zero_results", "brackets.necklace_bracket.calls")
    metrics["linalg.rank.nonzero_ratio"] = ratio("linalg.rank.nonzero", "linalg.rank.cells")
    metrics["linalg.rank.full_rank_ratio"] = ratio("linalg.rank.full_rank", "linalg.rank.calls")
    metrics["cli.stdout_bytes"] = stdout_bytes / n
    metrics["setup.import_s"] = statistics.median(imports) if imports else 0.0
    metrics["trace.overhead_ratio"] = sum(traced_walls) / sum(plain_walls)
    # traced wall = every span's self time + import + what no span covers
    layers_s = sum(own for _, own in totals.values())
    remainder = (sum(traced_walls) - layers_s - sum(imports)) / n
    metrics["trace.remainder_s"] = remainder
    extra_failures = 0
    if remainder < 0:
        print(f"FAILED trace accounting: layer self time exceeds traced wall by {-remainder:.6f} s", file=sys.stderr)
        extra_failures = 1
    info = {"passes": n, "untraced_wall_s": plain_walls, "traced_wall_s": traced_walls}
    return metrics, flat, info, extra_failures


def source_sha256():
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "necklaces")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(ROOT, ".git", head[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def run_workload(commands, seconds, trace, golden, spec):
    """(metrics named in spec, attempted, failed, run record)."""
    with Spawner() as spawner:
        if trace:
            metrics, samples, info, extra = measure_traced(spawner, commands, golden, seconds)
        else:
            (metrics, samples, info), extra = measure(spawner, commands, golden, seconds), 0
    attempted = len(samples) + extra
    failed = sum(1 for s in samples if s.problems) + extra
    index = {workloads.command_key(c): i for i, c in enumerate(commands)}
    info.update({
        "trace": trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit(),
        "source_sha256": source_sha256(),
        "commands": [workloads.command_key(c)[:80] for c in commands],
        "probe_ref_s": PROBE_REF_S,
        # command index, wall s, cpu s, max RSS kB, raw wall s, raw s taken out, probes s
        "samples": [
            [index[workloads.command_key(s.command)], s.wall_s, s.cpu_s, s.maxrss_kb, s.raw_wall_s, s.away_s, s.probe_s]
            for s in samples
        ],
        "error_rate": failed / attempted,
    })
    if trace:  # a layer that did no work has no counts
        chosen = {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        chosen = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    return chosen, attempted, failed, info


def write_golden():
    golden = {}
    with Spawner() as spawner:
        for name, make in workloads.WORKLOADS.items():
            for command in make(DEFAULT_SEED):
                reply, stdout, stderr = spawner.run(child_argv(command))
                problems = workloads.check(command, reply["code"], stdout, {})
                if problems:
                    raise SystemExit(f"{workloads.command_key(command)}: {problems} {stderr}")
                golden[workloads.command_key(command)] = workloads.digest(stdout)
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(golden)} digests to {os.path.relpath(GOLDEN, ROOT)}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true", help=f"record stdout digests for seed {DEFAULT_SEED}")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "necklaces", "cli.py")):
        print("run from the repository root: src/necklaces/cli.py not found", file=sys.stderr)
        return 2
    if args.write_golden:
        write_golden()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    with open(SPEC) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        commands = workloads.WORKLOADS[name](args.seed)
        chosen, n, bad, info = run_workload(commands, seconds, args.trace, golden, spec)
        info.update(workload=name, seed=args.seed)
        attempted += n
        failed += bad
        for metric, entry in chosen.items():
            print(f"{name:<10} {metric:<48} {entry['value']:>14.6f} {entry['unit']}")
        print(f"{name:<10} {'error_rate':<48} {info['error_rate']:>14.6f} ratio")
        print(json.dumps({"info": info}))
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in chosen.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
