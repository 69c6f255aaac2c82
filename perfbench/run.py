"""qkclass benchmark: one workload, one seed, end-to-end or traced metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--toy]

Run from the root of a source checkout; the program is taken from ``src/``.
All load comes from this process as a closed loop: each step of a pass is a
child process (``python3 -m qkclass.cli ...`` or ``perfbench/mixed.py run``)
started after the previous one exits, with BLAS pinned to one thread.

``--trace 0``: generate the inputs from the seed ``SETUP_REPEATS`` times
(``setup_s`` is the median), then repeat passes until ``--seconds`` is used,
at least ``MIN_PASSES`` of them and at least one per input set. Pass ``i``
is ``workload.steps(..., rotation=i)``. The first pass of each rotation is
checked against the numpy oracle, every later pass must reproduce that
pass's files byte for byte (``wall_clock_seconds`` aside). Each child is
started through ``spawn.py``, which reports its wall time and its own peak
RSS from ``os.wait4``. ``--trace 1``: generate the inputs once and run
``traced.py`` (rotation 0) in its own process for the per-layer metrics.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. An operation is one child process (setup or
step); it fails on a non-zero exit or a failed check. Lines before it
(prefixed ``#``) give the environment, the allocation plan and per-step
times. Scratch files go to ``.perfbench_work/`` and are removed at exit;
reports and trace files stay in ``.perfbench_out/``.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import mixed  # noqa: E402
import oracle  # noqa: E402
import traced  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
MIN_PASSES = 3
CHILD_TIMEOUT_S = 150.0
BLAS_THREADS = "1"
MIB = 1024.0  # ru_maxrss is in KiB on Linux

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "train_s": "s",
    "classify_points_per_s": "points/s",
    "peak_rss_mb": "MiB",
}


def child_env() -> dict:
    env = dict(os.environ)
    paths = [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env.update({
        "PYTHONPATH": os.pathsep.join(paths),
        "PYTHONDONTWRITEBYTECODE": "1",
        "PYTHONHASHSEED": "0",
        "OPENBLAS_NUM_THREADS": BLAS_THREADS,
        "OMP_NUM_THREADS": BLAS_THREADS,
        "MKL_NUM_THREADS": BLAS_THREADS,
    })
    return env


def command(kind: str, argv: list[str]) -> list[str]:
    if kind == "cli":
        return [sys.executable, "-m", "qkclass.cli", *argv]
    script = "mixed.py" if kind == "mixed" else "traced.py"
    return [sys.executable, str(HERE / script), *argv]


def kill_group(pgid: int):
    """SIGKILL a launcher's process group; wait up to 5 s for it to empty."""
    try:
        os.killpg(pgid, signal.SIGKILL)
        for _ in range(500):
            time.sleep(0.01)
            os.killpg(pgid, 0)
    except ProcessLookupError:
        pass


class Runner:
    """Launches children one at a time, each through ``spawn.py`` in a process
    group of its own, and keeps the operation ledger."""

    def __init__(self, work: Path):
        self.env = child_env()
        self.log = work / "children.log"
        self.spawn_result = work / "spawn.json"
        self.attempted = 0
        self.failures: list[str] = []
        self.peak_rss_mib = 0.0

    def run(self, label: str, kind: str, argv: list[str]) -> tuple[int, float]:
        """Run one child; returns (exit code, seconds from start to reaping)."""
        self.attempted += 1
        self.spawn_result.unlink(missing_ok=True)
        launcher = [sys.executable, str(HERE / "spawn.py"), str(self.spawn_result)]
        with open(self.log, "ab") as log:
            log.write(f"=== {label}: {' '.join(argv)}\n".encode())
            log.flush()
            start = time.perf_counter()
            proc = subprocess.Popen(launcher + command(kind, argv), env=self.env, cwd=ROOT,
                                    stdin=subprocess.DEVNULL, stdout=log, stderr=log,
                                    start_new_session=True)
            timer = threading.Timer(CHILD_TIMEOUT_S, kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, _ = os.wait4(proc.pid, 0)
            except BaseException:
                kill_group(proc.pid)
                proc.wait()
                raise
            finally:
                timer.cancel()
            elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            kill_group(proc.pid)  # a launcher that died early may leave its command
        try:
            with open(self.spawn_result) as handle:
                report = json.load(handle)
        except (OSError, ValueError):
            report = None
        if proc.returncode != 0:
            self.fail(label, f"exit code {proc.returncode}")
        elif report is None:
            self.fail(label, "launcher wrote no result")
        if report is None:
            return proc.returncode or 1, elapsed
        self.peak_rss_mib = max(self.peak_rss_mib, report["maxrss_kib"] / MIB)
        return proc.returncode, report["seconds"]

    def fail(self, label: str, why: str):
        self.failures.append(f"{label}: {why}")

    @property
    def failed_ops(self) -> int:
        return len({f.split(": ", 1)[0] for f in self.failures})


def environment() -> dict:
    import numpy

    blas = "unknown"
    try:
        config = numpy.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except Exception:  # noqa: BLE001 - show_config layout differs across numpy versions
        pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas, "blas_threads": BLAS_THREADS,
            "git_sha": sha or "unavailable (not a git checkout)"}


def input_files(directory: Path) -> list[str]:
    return sorted(str(path.relative_to(directory)) for path in directory.rglob("*")
                  if path.is_file())


def setup(workload, seed: int, toy: bool, work: Path, runner: Runner, repeats: int):
    """Generate the inputs ``repeats`` times; returns (inputs dir, seconds each)."""
    times = []
    for rep in range(repeats):
        inputs = work / f"inputs{rep}"
        inputs.mkdir()
        seconds = 0.0
        for i, (kind, argv) in enumerate(workload.setup_commands(seed, str(inputs), toy)):
            seconds += runner.run(f"setup{rep}.{i}", kind, argv)[1]
        start = time.perf_counter()
        workload.after_setup(str(inputs), toy)
        times.append(seconds + time.perf_counter() - start)
        if rep:
            names = input_files(work / "inputs0")
            for name in oracle.same_outputs(str(work / "inputs0"), str(inputs), names):
                runner.fail(f"setup{rep}.0", f"input {name} differs from the first set-up")
    return work / "inputs0", times


def check_pass(workload, inputs: Path, out: Path, seed: int, runner: Runner, label: str,
               step_names: list[str], rotation: int = 0):
    try:
        findings = oracle.CHECKS[workload.name](
            str(inputs), str(out), seed=seed, shots=getattr(workload, "shots", 0),
            single_shot_seed=mixed.SINGLE_SHOT_SEED, rotation=rotation)
    except Exception as exc:  # noqa: BLE001 - unreadable outputs fail every step
        for name in step_names:
            runner.fail(f"{label}.{name}", f"oracle could not read outputs: {exc!r}")
        return
    for name, problems in findings.items():
        for problem in problems:
            runner.fail(f"{label}.{name}", problem)


def run_pass(workload, inputs: Path, out: Path, seed: int, toy: bool, runner: Runner,
             label: str, rotation: int) -> dict:
    out.mkdir()
    record = {"steps": {}, "train_s": 0.0, "classify_s": 0.0, "points": 0}
    for step in workload.steps(str(inputs), str(out), toy, seed, rotation):
        if workloads.preflight(step.planned_bytes):
            continue
        code, seconds = runner.run(f"{label}.{step.name}", step.kind, step.argv)
        record["steps"][step.name] = seconds
        if step.role == "train":
            record["train_s"] += seconds
        elif step.role == "classify":
            record["classify_s"] += seconds
            record["points"] += step.points
        elif step.role == "library" and code == 0:
            with open(out / "timings.json") as handle:
                timings = json.load(handle)
            record["train_s"] += timings["train_s"]
            record["classify_s"] += timings["classify_s"]
            record["points"] += timings["classify_points"]
    record["wall_s"] = sum(record["steps"].values())
    return record


def plan(workload, toy: bool) -> list[dict]:
    cells = [{"cell": s.cell, "planned_bytes": s.planned_bytes}
             for s in workload.steps("IN", "OUT", toy, 0)]
    cells += workload.skipped_cells(toy)
    for cell in cells:
        reason = workloads.preflight(cell["planned_bytes"])
        cell["status"] = f"skipped: {reason}" if reason else "run"
    return cells


def closed_loop(workload, args, work: Path, runner: Runner) -> dict:
    inputs, setup_times = setup(workload, args.seed, args.toy, work, runner, SETUP_REPEATS)
    sets = workload.sets(args.toy)
    min_passes = max(MIN_PASSES, sets)
    passes = []
    start = time.perf_counter()
    while True:
        index = len(passes)
        label = f"pass{index}"
        out = work / label
        record = run_pass(workload, inputs, out, args.seed, args.toy, runner, label, index)
        passes.append(record)
        steps = workload.steps(str(inputs), str(out), args.toy, args.seed, index)
        if index < sets:
            check_pass(workload, inputs, out, args.seed, runner, label, list(record["steps"]),
                       index)
        else:
            first = f"pass{index % sets}"
            for step in steps:
                if step.name not in record["steps"]:
                    continue
                for name in oracle.same_outputs(str(work / first), str(out), step.outputs):
                    runner.fail(f"{label}.{step.name}", f"{name} differs from {first}")
            shutil.rmtree(out)
        elapsed = time.perf_counter() - start
        if len(passes) >= min_passes and elapsed + record["wall_s"] > args.seconds:
            break
    rates = [p["points"] / p["classify_s"] for p in passes if p["classify_s"] > 0]
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(setup_times),
        "train_s": statistics.median(p["train_s"] for p in passes),
        "classify_points_per_s": statistics.median(rates) if rates else 0.0,
        "peak_rss_mb": runner.peak_rss_mib,
    }
    step_times = {name: statistics.median(p["steps"].get(name, 0.0) for p in passes)
                  for name in passes[0]["steps"]}
    return {"metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()},
            "passes": len(passes), "setup_times": setup_times, "step_median_s": step_times,
            "pass_records": passes}


def traced_run(workload, args, work: Path, runner: Runner, out_dir: Path) -> dict:
    inputs, _ = setup(workload, args.seed, args.toy, work, runner, 1)
    trace_file = out_dir / f"trace-{workload.name}-seed{args.seed}.json"
    metrics_file = work / "layer_metrics.json"
    argv = ["--workload", workload.name, "--seed", str(args.seed), "--inputs", str(inputs),
            "--out-dir", str(work / "traced"), "--trace-file", str(trace_file),
            "--metrics", str(metrics_file)] + (["--toy"] if args.toy else [])
    code, _ = runner.run("traced", "traced", argv)
    if code != 0:
        return {"metrics": {}, "trace_file": str(trace_file)}
    with open(metrics_file) as handle:
        result = json.load(handle)
    runner.attempted += result["steps"] - 1
    for name in result["failed_steps"]:
        runner.fail(f"traced.{name}", "step failed in-process")
    steps = workload.steps(str(inputs), "OUT", args.toy, args.seed)
    for tag in ("untraced", "traced"):
        check_pass(workload, inputs, work / "traced" / tag, args.seed, runner, f"traced.{tag}",
                   [s.name for s in steps])
    for step in steps:
        for name in oracle.same_outputs(str(work / "traced" / "untraced"),
                                        str(work / "traced" / "traced"), step.outputs):
            runner.fail(f"traced.{step.name}", f"{name} differs between traced and untraced")
    metrics = {name: {"value": value, "unit": traced.unit_of(name)}
               for name, value in result["metrics"].items()}
    return {"metrics": metrics, "trace_file": str(trace_file)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qkclass benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="toy input sizes, for the smoke check")
    args = parser.parse_args(argv)
    if not (SRC / "qkclass" / "cli.py").is_file():
        print(f"error: no qkclass sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    # A terminated run still kills and reaps its current child (Runner.run).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workload = workloads.WORKLOADS[args.workload]
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    work = ROOT / ".perfbench_work" / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    runner = Runner(work)
    try:
        if args.trace:
            result = traced_run(workload, args, work, runner, out_dir)
        else:
            result = closed_loop(workload, args, work, runner)
    finally:
        suffix = "-trace" if args.trace else ""
        if runner.failures and runner.log.exists():
            shutil.copy(runner.log, out_dir / f"log-{workload.name}-seed{args.seed}{suffix}.txt")
        shutil.rmtree(work, ignore_errors=True)
    failed = runner.failed_ops
    report = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "environment": environment(), "plan": plan(workload, args.toy),
              "error_ratio": {"failed": failed, "attempted": runner.attempted,
                              "base": "child processes and in-process steps run"},
              "failures": runner.failures, **result}
    with open(out_dir / f"report-{workload.name}-seed{args.seed}{suffix}.json", "w") as handle:
        json.dump(report, handle, indent=1)
    print(f"# environment {json.dumps(report['environment'])}")
    for cell in report["plan"]:
        print(f"# cell {cell['cell']}: planned {cell['planned_bytes']} B, {cell['status']}")
    if "passes" in result:
        print(f"# passes {result['passes']}, set-up repeats {len(result['setup_times'])}")
    for name, seconds in result.get("step_median_s", {}).items():
        print(f"# step {name}: median {seconds:.3f} s")
    print(f"# error_ratio {failed}/{runner.attempted} = {failed / runner.attempted:.4f} "
          f"(base: {report['error_ratio']['base']})")
    for failure in runner.failures[:20]:
        print(f"# FAILED {failure}")
    print(json.dumps({"correct": failed == 0 and bool(result["metrics"]),
                      "attempted": runner.attempted, "failed": failed,
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
