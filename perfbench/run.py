"""End-to-end benchmark of the regasym command line, with an optional traced run.

Usage, from the repository root::

    python3 perfbench/run.py --workload coeffs|counts|grids --seed N --seconds S --trace 0|1

One client runs a workload's fixed list of ``python -m regasym``
invocations one after another, each in a fresh process (a closed loop),
in an order shuffled by the seed; that is one pass.  Passes repeat while
another one fits in S seconds.  Every invocation's exit code and stdout
are checked by ``oracle.py``.

``--trace 0`` reports the ``end_to_end`` metrics of ``BENCHMARK.json``,
medians over the passes: ``wall_s`` and ``cpu_s`` of one pass (children's
user+system time from ``wait4``), ``peak_rss_mb`` (largest child) and
``setup_s`` (a fresh interpreter importing ``regasym.cli``, median of
several).  The benchmark and its children run pinned to one CPU, and the
three times are given at a reference host speed: each child's time,
less the CPU's steal time for wall times, is divided by the host-speed
factor ``speedprobe.py`` measured while it ran.  The summary also prints
the times as measured.  ``--trace 1`` alternates untraced passes with
passes run through ``tracer.py`` and reports the ``per_layer`` metrics:
per-pass totals of layer self time, calls and sizes, memo hit ratios,
and the tracing overhead.

A summary goes to stdout, then, as the last line, one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A
record of the run, with the environment, goes to ``.perfbench/runs/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import oracle
import tracer
from speedprobe import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 11
HARD_LIMIT_S = 170.0  # the whole run ends within this, killing a stuck child
BASELINE_BACKEND = "python"  # mpmath backend of the recorded baseline (no gmpy2)

CACHE, DATA, FILLED = "{cache}", "{data}", "{filled}"


@dataclass(frozen=True)
class Invocation:
    options: tuple[str, ...]  # global options; placeholders are filled per run
    args: tuple[str, ...]

    @property
    def key(self) -> str:
        return " ".join(self.args)


def _inv(command: str, options: tuple[str, ...] = ()) -> Invocation:
    return Invocation(options, tuple(command.split()))


FRESH = ("--cache-dir", CACHE, "--data-dir", DATA)  # empty cache and data dirs
READER = ("--cache-dir", FILLED)  # cache filled before timing starts


@dataclass(frozen=True)
class Workload:
    invocations: tuple[Invocation, ...]
    fill: tuple[Invocation, ...] = ()  # run once per run, untimed, to fill FILLED


WORKLOADS = {
    "coeffs": Workload(
        (
            _inv("expand sg --k 3 --order 8"),
            _inv("expand sg --k 4 --order 8"),
            _inv("expand sg --k 5 --order 6"),
            _inv("expand csg --k 4 --order 6"),
            _inv("formal-k --r 3"),
        )
    ),
    "counts": Workload(
        (
            _inv("count --k 4 --n 10 --method formula", FRESH),
            _inv("count --k 5 --n 8 --method formula", FRESH),
            _inv("count --k 3 --n 12 --method formula", FRESH),
            _inv("count --k 4 --n 8", FRESH),
        )
    ),
    "grids": Workload(
        (
            _inv("validate --which sg --k 2,3,4,5 --n 10:100:2 --r 3 --precision 4096"),
            _inv("validate --which csg --k 3,4 --n 10:100:2 --r 3 --precision 4096"),
            _inv("validate --which sg --k 3,4,5 --n 10:100:10 --r 3"),
            _inv("count --k 4 --n 10 --method formula", READER),
            _inv("count --k 3 --n 12 --method formula", READER),
        ),
        fill=(
            _inv("count --k 4 --n 10 --method formula", READER),
            _inv("count --k 3 --n 12 --method formula", READER),
        ),
    ),
}


@dataclass
class Outcome:
    key: str
    returncode: int
    wall_s: float
    steal_s: float  # the part of wall_s the host did not run the pinned CPU
    cpu_s: float
    maxrss_mb: float
    speed: float  # host-speed factor over the invocation (speedprobe.py)
    problems: list[str]
    spans: dict | None = None


@dataclass
class Pass:
    traced: bool
    outcomes: list[Outcome] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum((o.wall_s - o.steal_s) / o.speed for o in self.outcomes)

    @property
    def cpu_s(self) -> float:
        return sum(o.cpu_s / o.speed for o in self.outcomes)

    @property
    def raw_wall_s(self) -> float:
        return sum(o.wall_s for o in self.outcomes)

    @property
    def raw_cpu_s(self) -> float:
        return sum(o.cpu_s for o in self.outcomes)

    @property
    def steal_s(self) -> float:
        return sum(o.steal_s for o in self.outcomes)

    @property
    def peak_rss_mb(self) -> float:
        return max(o.maxrss_mb for o in self.outcomes)

    @property
    def layers(self) -> dict[str, float] | None:
        return layer_metrics(self) if self.traced else None


class Harness:
    """Spawns children from the repository root and owns the run's scratch dir."""

    def __init__(self, root: Path, started: float, expected: dict[str, str], probe: SpeedProbe):
        self.root = root
        self.started = started
        self.probe = probe
        self.env = {
            k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "REGASYM_"))
        }
        self.env["PYTHONPATH"] = str(root / "src")
        (root / ".perfbench").mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="run-", dir=root / ".perfbench"))
        self.data = self.tmp / "data"
        self.filled = self.tmp / "filled"
        self.data.mkdir()
        self.filled.mkdir()
        self.expected = expected
        self.serial = 0

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def _path(self, stem: str) -> Path:
        self.serial += 1
        return self.tmp / f"{stem}-{self.serial}"

    def spawn(self, argv: list[str]) -> tuple[int, float, float, float, float, float, str]:
        """Run one child to completion.

        Returns its exit code, wall s, steal s (of the pinned CPU), cpu s,
        max RSS MB, host-speed factor and stdout.
        """
        timeout = max(1.0, HARD_LIMIT_S - (time.perf_counter() - self.started))
        out_path = self._path("stdout")
        with open(out_path, "wb") as out, open(self._path("stderr"), "wb") as err:
            steal = self.probe.steal_s()
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=self.env, cwd=self.root
            )
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            end = time.perf_counter()
            steal = self.probe.steal_s() - steal
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (
            proc.returncode,
            end - start,
            steal,
            usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0,
            self.probe.factor(start, end),
            out_path.read_text(errors="replace"),
        )

    def args(self, inv: Invocation) -> list[str]:
        """The invocation's regasym arguments with this run's directories filled in."""
        fill = {CACHE: str(self._path("cache")), DATA: str(self.data), FILLED: str(self.filled)}
        return [fill.get(a, a) for a in inv.options] + list(inv.args)

    def invoke(self, inv: Invocation, spans_id: int | None = None) -> Outcome:
        """One invocation, untraced or (with spans_id) through tracer.py."""
        args = self.args(inv)
        if spans_id is None:
            argv = [sys.executable, "-m", "regasym", *args]
        else:
            spans_path = self._path("spans")
            argv = [sys.executable, str(self.root / "perfbench" / "tracer.py"),
                    str(spans_path), str(spans_id), "--", *args]
        rc, wall, steal, cpu, rss, speed, stdout = self.spawn(argv)
        problems = oracle.check(inv.key, rc, stdout, self.expected)
        outcome = Outcome(inv.key, rc, wall, steal, cpu, rss, speed, problems)
        if spans_id is not None:
            try:
                outcome.spans = json.loads(spans_path.read_text())
            except (OSError, ValueError) as exc:
                outcome.problems.append(f"no spans written: {exc}")
        return outcome

    def setup_times(self) -> list[float]:
        """Wall time of a fresh interpreter importing regasym.cli, after one warm-up.

        Each time is less steal and at the reference host speed.
        """
        times = []
        for i in range(SETUP_REPEATS + 1):
            rc, wall, steal, _, _, speed, _ = self.spawn(
                [sys.executable, "-c", "import regasym.cli"]
            )
            if rc != 0:
                raise RuntimeError(f"importing regasym.cli failed with exit code {rc}")
            if i:
                times.append((wall - steal) / speed)
        return times

    def environment(self) -> dict:
        probe = (
            "import json, platform, mpmath.libmp; "
            "print(json.dumps([platform.python_version(), mpmath.libmp.BACKEND]))"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], env=self.env, cwd=self.root,
            capture_output=True, text=True, check=True, timeout=60,
        ).stdout
        python, backend = json.loads(out)
        return {
            "python": python,
            "mpmath_backend": backend,
            "comparable": backend == BASELINE_BACKEND,
            "nproc": len(self.probe.affinity),
            "pinned_cpu": self.probe.cpu,
            "commit": _git_commit(self.root),
            "src_sha256": _tree_hash(self.root / "src"),
        }


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout's own .git, if it has one (read without running git)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _tree_hash(top: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(top.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(top)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it, or None."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in range(99, 0, -1):
        idx = math.ceil(p / 100 * n) - 1
        if n - 1 - idx >= 10:
            return p, ordered[idx]
    return None


def layer_metrics(p: Pass) -> dict[str, float]:
    """Per-layer totals of one traced pass, keyed '<module>.<function>.<stat>'."""
    totals: dict[str, float] = {}

    def add(name: str, value: float):
        totals[name] = totals.get(name, 0) + value

    hits: dict[str, list[int]] = {}
    for o in p.outcomes:
        if o.spans is None:
            continue
        add("cli.import_s", o.spans["import_s"])
        for name, t in tracer.self_times(o.spans["spans"]).items():
            add(f"{name}.self_s", t)
        for _, _, name, _, _, extra in o.spans["spans"]:
            add(f"{name}.calls", 1)
            for stat, value in (extra or {}).items():
                if stat == "error":
                    add(f"{name}.retries", value == "PrecisionUnderflow")
                else:
                    add(f"{name}.{stat}", value)
        for name, (h, m) in o.spans["caches"].items():
            acc = hits.setdefault(name, [0, 0])
            acc[0] += h
            acc[1] += m
    for name, (h, m) in hits.items():
        totals[f"{name}.hit_ratio"] = h / (h + m) if h + m else 0.0
    return totals


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


@dataclass
class Run:
    """Everything one benchmark run observed."""

    env: dict
    seed: int
    trace: bool
    setup: list[float]  # setup_s samples
    fills: list[Outcome]  # untimed cache-filling invocations
    passes: list[Pass]

    @property
    def plain(self) -> list[Pass]:
        return [p for p in self.passes if not p.traced]

    @property
    def outcomes(self) -> list[Outcome]:
        return self.fills + [o for p in self.passes for o in p.outcomes]

    def values(self) -> dict[str, float]:
        """Every metric this run can report, end-to-end and (if traced) per layer."""
        plain = self.plain
        values = {
            "wall_s": _median([p.wall_s for p in plain]),
            "cpu_s": _median([p.cpu_s for p in plain]),
            "setup_s": _median(self.setup),
            "peak_rss_mb": _median([p.peak_rss_mb for p in plain]),
        }
        traced = [p.layers for p in self.passes if p.traced]
        if traced:
            names = {name for layers in traced for name in layers}
            values.update({n: _median([layers.get(n, 0.0) for layers in traced]) for n in names})
            values["trace.wall_s"] = _median([p.wall_s for p in self.passes if p.traced])
            values["trace.untraced_wall_s"] = values["wall_s"]
            values["trace.overhead_s"] = values["trace.wall_s"] - values["wall_s"]
        return values


def measure(root: Path, workload: Workload, seed: int, seconds: float, trace: bool,
            metrics: list[dict], out) -> dict:
    """Run the workload for about `seconds`; print a summary and return the result."""
    started = time.perf_counter()
    with SpeedProbe() as probe:
        harness = Harness(root, started, oracle.load_expected(), probe)
        try:
            env = harness.environment()
            run = Run(env, seed, trace, harness.setup_times(),
                      [harness.invoke(inv) for inv in workload.fill], [])
            rng = random.Random(seed)
            t0 = time.perf_counter()
            while True:
                p = Pass(traced=trace and len(run.passes) % 2 == 1)
                order = list(workload.invocations)
                rng.shuffle(order)
                for i, inv in enumerate(order):
                    p.outcomes.append(harness.invoke(inv, i if p.traced else None))
                run.passes.append(p)
                n, elapsed = len(run.passes), time.perf_counter() - t0
                if time.perf_counter() - started > HARD_LIMIT_S:
                    break
                if (not trace or n >= 2) and elapsed * (1 + 1 / n) > seconds:
                    break  # another pass of average length would overrun
        finally:
            harness.close()

    values = run.values()
    failed = sum(1 for o in run.outcomes if o.problems)
    result = {
        "correct": failed == 0,
        "attempted": len(run.outcomes),
        "failed": failed,
        # a layer that never ran in this workload reads 0
        "metrics": {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in metrics},
    }
    _summary(out, run, workload, values)
    _record(root, run, values, result)
    return result


def _summary(out, run: Run, workload: Workload, values: dict[str, float]):
    plain = run.plain
    print(f"env {json.dumps(run.env)}", file=out)
    if not run.env["comparable"]:
        print(f"NOT COMPARABLE: mpmath backend {run.env['mpmath_backend']!r}, "
              f"the baseline used {BASELINE_BACKEND!r}", file=out)
    print(f"closed loop, 1 client, {len(workload.invocations)} invocations per pass, "
          f"{len(plain)} untraced and {len(run.passes) - len(plain)} traced passes, "
          f"seed {run.seed}", file=out)
    for name, unit, samples in (
        ("wall_s", "s", [p.wall_s for p in plain]),
        ("cpu_s", "s", [p.cpu_s for p in plain]),
        ("setup_s", "s", run.setup),
        ("peak_rss_mb", "MB", [p.peak_rss_mb for p in plain]),
    ):
        tail = tail_percentile(samples)
        tail_text = (f"p{tail[0]} {tail[1]:.4f} {unit}" if tail
                     else "no tail percentile (needs 11 samples)")
        print(f"{name:12s} median {values[name]:.4f} {unit}; {tail_text}; N={len(samples)}",
              file=out)
    speeds = [o.speed for p in plain for o in p.outcomes]
    print(f"(wall_s, cpu_s and setup_s are at the reference host speed.  As measured: "
          f"wall_s median {_median([p.raw_wall_s for p in plain]):.4f} s, "
          f"cpu_s median {_median([p.raw_cpu_s for p in plain]):.4f} s, "
          f"steal {_median([p.steal_s for p in plain]):.4f} s per pass; "
          f"host-speed factor {min(speeds):.3f}..{max(speeds):.3f}, "
          f"median {_median(speeds):.3f})", file=out)
    failed = [o for o in run.outcomes if o.problems]
    print(f"{'fail_frac':12s} {len(failed) / len(run.outcomes):.4f} "
          f"({len(failed)} of {len(run.outcomes)} invocations failed)", file=out)
    for o in failed[:5]:
        print(f"  FAILED {o.key}: {'; '.join(o.problems)}", file=out)
    print("median wall time of each invocation, as measured:", file=out)
    for key in dict.fromkeys(inv.key for inv in workload.invocations):
        walls = [o.wall_s for p in plain for o in p.outcomes if o.key == key]
        print(f"  {_median(walls):8.4f} s  {key}", file=out)
    if run.trace:
        layers = sorted(
            ((k, v) for k, v in values.items() if k.endswith(".self_s")), key=lambda kv: -kv[1]
        )
        print("top self time: " + ", ".join(f"{k} {v:.4f} s" for k, v in layers[:3]), file=out)
        print(f"tracing overhead {values['trace.overhead_s']:+.4f} s per pass "
              f"(traced {values['trace.wall_s']:.4f} s, untraced {values['wall_s']:.4f} s)",
              file=out)


def _record(root: Path, run: Run, values: dict[str, float], result: dict):
    runs = root / ".perfbench" / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    record = {
        "env": run.env,
        "seed": run.seed,
        "trace": run.trace,
        "setup_s": run.setup,
        "passes": [
            {"traced": p.traced, "wall_s": p.wall_s, "cpu_s": p.cpu_s,
             "raw_wall_s": p.raw_wall_s, "raw_cpu_s": p.raw_cpu_s, "steal_s": p.steal_s,
             "peak_rss_mb": p.peak_rss_mb, "layers": p.layers,
             "invocations": [[o.key, o.returncode, o.wall_s, o.steal_s, o.cpu_s, o.speed,
                              o.problems]
                             for o in p.outcomes]}
            for p in run.passes
        ],
        "failures": [[o.key, o.problems] for o in run.outcomes if o.problems],
        "values": values,
        "result": result,
    }
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = runs / f"{stamp}-seed{run.seed}-trace{int(run.trace)}.json"
    path.write_text(json.dumps(record, indent=1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "regasym" / "cli.py").is_file():
        print(f"error: no regasym sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    try:
        result = measure(ROOT, WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace), metrics, sys.stdout)
    except (RuntimeError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
