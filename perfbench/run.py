"""torsionlab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload tower --seed 1 --seconds 20 --trace 0

Run from the root of a torsionlab checkout.  The workloads are in
``workloads.py``; each is a closed loop with one client, its jobs running
one after another.  CLI jobs are fresh ``python -m torsionlab ... --json``
processes; ``random-ses`` calls the library in this process.
``TORSIONLAB_THREADS=1`` pins BLAS to one thread: on a small shared machine
a second BLAS thread makes timings far noisier, and the other core is left
to the runner and the system.

Set-up writes the seeded inputs (or generates the random instances) and
warms the interpreter; it runs five times and ``setup_s`` is the median.
The timed part then runs whole passes over the job list.  The number of
passes is fixed by ``--seconds`` and the workload's pass time at the seed
(``Workload.pass_s``), so a run lasts about ``--seconds`` there, and two
versions of the program are measured on the same work.  Traced runs
alternate passes until ``--seconds`` have elapsed.

Job timings keep the fastest of a job's passes.  On a small shared machine
the speed of the same code swings by a third within seconds, and slowdowns
only ever add time: a run's median follows how much of it fell in slow
spells, while its fastest pass follows the program (on ``random-ses`` the
median pass varied by 45% over four runs, the fastest by 9%).

With ``--trace 0`` the run reports the end-to-end metrics:

* ``setup_s``      median set-up time
* ``wall_s``       wall time of the fastest pass over the job list
* ``job_ms_p50``   median over the jobs of each job's latency (its fastest
                   pass)
* ``job_ms_tail``  the same latencies at the highest of the percentiles 99.9,
                   99.5, 99, 98, 95, 90, 80, 75, 70, 60, 50 with at least 10
                   jobs beyond it, or the slowest job below 20 jobs
* ``peak_rss_mb``  largest peak RSS of any process of the workload
* ``ok_frac``      jobs that exited 0 and passed every check / jobs run

With ``--trace 1`` the jobs are replayed in this process, through
``torsionlab.cli.main`` for CLI jobs, alternating untraced and traced
passes; the run reports per-layer calls and self times (see
``tracing.py``), ``cli.start_s`` (a fresh interpreter importing
torsionlab, untraced) and ``trace.overhead_frac`` (fastest traced over
fastest untraced pass, minus one).  Spans are written to ``perfbench/_traces/``.

Every job is checked against ``oracles.py``.  ``correct`` is false when a
job gave a wrong answer: a failed check, bytes that differ between
identical jobs, or an exit other than 0 and the CLI's numerical-failure
exit 1.  A numerical failure is not a wrong answer, but it counts in
``failed``.  The line before the result holds the machine, the sample
counts, the chosen tail percentile and the first problems found.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
BLAS_THREADS = 1
START_REPEATS = 3
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 70.0, 60.0, 50.0)
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("job_ms_p50", "ms"),
              ("job_ms_tail", "ms"), ("peak_rss_mb", "MB"), ("ok_frac", "fraction"))
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass
class Outcome:
    """What one job did: its latency, memory, exit code and output."""

    seconds: float
    rss_mb: float
    code: int
    stdout: bytes
    stderr: str
    result: dict | None = None


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    problems: list[str] = field(default_factory=list)
    seen: dict[str, bytes] = field(default_factory=dict)

    def add(self, job, outcome: Outcome) -> None:
        """Classify one outcome against its job's check."""
        self.attempted += 1
        problems = self._problems(job, outcome)
        if problems is None:      # numerical failure, the CLI's exit 1
            self.failed += 1
            self._note(job, [outcome.stderr.strip()[-200:]])
        elif problems:
            self.failed += 1
            self.wrong += 1
            self._note(job, problems)

    def _problems(self, job, outcome: Outcome) -> list[str] | None:
        if outcome.code == 1 and outcome.stderr.startswith("numerical failure:"):
            return None
        if outcome.code != 0:
            return [f"exit {outcome.code}: {outcome.stderr.strip()[-300:]}"]
        report = outcome.result
        if report is None:
            try:
                report = json.loads(outcome.stdout)
            except ValueError as exc:
                return [f"stdout is not JSON: {exc}"]
        problems = job.check(report)
        first = self.seen.setdefault(job.key, outcome.stdout)
        if first != outcome.stdout:
            problems.append("output bytes differ from an identical earlier job")
        return problems

    def _note(self, job, problems: list[str]) -> None:
        if len(self.problems) < 20:
            self.problems.append(f"{job.key}: {'; '.join(problems)}")


# ---------------------------------------------------------------------------
# running jobs


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(argv: list[str], cwd: Path, env: dict) -> Outcome:
    """Run one child to completion; its peak RSS comes from wait4."""
    out_path, err_path = cwd / ".stdout", cwd / ".stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(elapsed, usage.ru_maxrss / 1024.0, proc.returncode,
                   out_path.read_bytes(),
                   err_path.read_text(encoding="utf-8", errors="replace"))


def cli_in_process(job, workdir: Path) -> Outcome:
    """Replay a CLI job through ``torsionlab.cli.main`` in this process."""
    from torsionlab import cli
    out, err = io.StringIO(), io.StringIO()
    previous = os.getcwd()
    start = time.perf_counter()
    os.chdir(workdir)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main([*job.argv, "--json"])
    except Exception as exc:  # a crash of the CLI is an outcome to report
        code, err = 70, io.StringIO(f"{type(exc).__name__}: {exc}")
    finally:
        os.chdir(previous)
    elapsed = time.perf_counter() - start
    return Outcome(elapsed, 0.0, code, out.getvalue().encode(), err.getvalue())


def call_in_process(job) -> Outcome:
    """Run an in-process job; a numerical failure maps to the CLI's exit 1."""
    from torsionlab.errors import NumericalError, QuadratureError
    start = time.perf_counter()
    try:
        result = job.call()
    except (NumericalError, QuadratureError) as exc:
        return Outcome(time.perf_counter() - start, 0.0, 1, b"",
                       f"numerical failure: {exc}")
    except Exception as exc:  # a crash is an outcome to report
        return Outcome(time.perf_counter() - start, 0.0, 70, b"",
                       f"{type(exc).__name__}: {exc}")
    elapsed = time.perf_counter() - start
    canonical = json.dumps({k: format(v, ".15g") for k, v in sorted(result.items())})
    return Outcome(elapsed, 0.0, 0, canonical.encode(), "", result)


# ---------------------------------------------------------------------------
# statistics


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value) at the highest of TAIL_PERCENTILES with at least
    ten samples beyond it; the maximum (100) below twenty samples."""
    import numpy as np
    for p in TAIL_PERCENTILES:
        if len(samples) * (1.0 - p / 100.0) >= 10.0:
            return p, float(np.percentile(samples, p))
    return 100.0, max(samples)


def machine() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_caps": {var: os.environ.get(var)
                        for var in ("TORSIONLAB_THREADS", *BLAS_VARS)},
    }
    # The thread count OpenBLAS actually uses, where its library is found.
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                info["openblas_threads_in_effect"] = getter()
                return info
    return info


# ---------------------------------------------------------------------------
# the run


class Run:
    def __init__(self, workload, seed: int, seconds: float, size: str,
                 shift: float):
        from oracles import Oracle
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.size = size
        self.oracle = Oracle(shift)
        self.env = child_env()
        self.workdir = HERE / "_work" / f"{workload.name}-{seed}-{os.getpid()}"
        self.tally = Tally()
        self.tracer = None
        self.jobs: list = []
        self.detail: dict = {}

    def setup_once(self) -> float:
        """Write or generate the inputs and warm the interpreter; seconds."""
        start = time.perf_counter()
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        warm = run_child([sys.executable, "-c", "import torsionlab"],
                         self.workdir, self.env)
        if warm.code != 0:
            raise RuntimeError(f"cannot import torsionlab: {warm.stderr}")
        self.jobs = self.workload.prepare(self.workdir, self.seed, self.oracle,
                                          self.size, ROOT)
        return time.perf_counter() - start

    def run_pass(self, mode: str) -> tuple[float, list[Outcome]]:
        """One pass over the job list; checks run after the timed loop."""
        outcomes = []
        start = time.perf_counter()
        for index, job in enumerate(self.jobs):
            if self.workload.in_process:
                runner = call_in_process
                args = (job,)
            elif mode == "process":
                runner = run_child
                args = ([sys.executable, "-m", "torsionlab", *job.argv, "--json"],
                        self.workdir, self.env)
            else:
                runner = cli_in_process
                args = (job, self.workdir)
            if mode == "traced":
                outcomes.append(self.tracer.job_span(index, runner, *args))
            else:
                outcomes.append(runner(*args))
        wall = time.perf_counter() - start
        for job, outcome in zip(self.jobs, outcomes):
            self.tally.add(job, outcome)
        return wall, outcomes

    def end_to_end(self) -> dict:
        setups = [self.setup_once() for _ in range(SETUP_REPEATS)]
        mode = "in-process" if self.workload.in_process else "process"
        walls, rss = [], []
        latencies: list[list[float]] = [[] for _ in self.jobs]
        for _ in range(self.workload.passes(self.seconds)):
            wall, outcomes = self.run_pass(mode)
            walls.append(wall)
            for samples, outcome in zip(latencies, outcomes):
                samples.append(outcome.seconds * 1000.0)
            rss += [o.rss_mb for o in outcomes]
        best = [min(samples) for samples in latencies]
        if self.workload.in_process:
            rss = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
        percentile, tail_ms = tail(best)
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": min(walls),
            "job_ms_p50": statistics.median(best),
            "job_ms_tail": tail_ms,
            "peak_rss_mb": max(rss),
            "ok_frac": 1.0 - self.tally.failed / self.tally.attempted,
        }
        self.detail = {"passes": len(walls), "pass_walls": walls,
                       "jobs_per_pass": len(self.jobs),
                       "setup_samples": len(setups),
                       "tail_percentile": percentile,
                       "failed_frac": self.tally.failed / self.tally.attempted}
        return {name: {"value": values[name], "unit": unit}
                for name, unit in END_TO_END}

    def traced(self) -> dict:
        from tracing import PER_LAYER, Tracer
        self.setup_once()
        starts = [run_child([sys.executable, "-c", "import torsionlab"],
                            self.workdir, self.env).seconds
                  for _ in range(START_REPEATS)]
        self.tracer = Tracer()
        mode = "in-process" if self.workload.in_process else "replay"
        plain, traced, layers = [], [], []
        deadline = time.perf_counter() + self.seconds
        while not traced or time.perf_counter() < deadline:
            plain.append(self.run_pass(mode)[0])
            first = len(self.tracer.spans)
            self.tracer.install()
            try:
                traced.append(self.run_pass("traced")[0])
            finally:
                self.tracer.uninstall()
            layers.append(self.tracer.pass_metrics(first))
        trace_dir = HERE / "_traces"
        trace_dir.mkdir(exist_ok=True)
        self.tracer.write(trace_dir / f"{self.workload.name}-seed{self.seed}.jsonl")
        values = {name: statistics.median(p[name] for p in layers)
                  for name in layers[0]}
        values["cli.start_s"] = statistics.median(starts)
        values["trace.overhead_frac"] = min(traced) / min(plain) - 1.0
        self.detail = {"untraced_passes": len(plain), "traced_passes": len(traced),
                       "jobs_per_pass": len(self.jobs),
                       "spans": len(self.tracer.spans)}
        return {name: {"value": values[name], "unit": unit}
                for name, unit, _ in PER_LAYER}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks towers and groups (self-test)")
    parser.add_argument("--oracle-shift", type=float, default=0.0,
                        help="move every reference value (self-test)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "torsionlab" / "__init__.py").is_file() or \
            not (ROOT / "demos" / "data").is_dir():
        print(f"no torsionlab checkout at {ROOT}: src/torsionlab and "
              "demos/data are needed", file=sys.stderr)
        return 2
    # TORSIONLAB_THREADS alone sets the cap, here and in every child; it
    # must be in the environment before numpy is first imported.
    for var in BLAS_VARS:
        os.environ.pop(var, None)
    os.environ["TORSIONLAB_THREADS"] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    import torsionlab  # noqa: F401  (sets the BLAS caps before numpy loads)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    run = Run(WORKLOADS[args.workload], args.seed, args.seconds, args.size,
              args.oracle_shift)
    try:
        metrics = run.traced() if args.trace else run.end_to_end()
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "size": args.size, "machine": machine(), **run.detail,
              "wrong": run.tally.wrong, "problems": run.tally.problems}
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": run.tally.wrong == 0,
                      "attempted": run.tally.attempted,
                      "failed": run.tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
