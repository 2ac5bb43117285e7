"""Benchmark of `submap pipeline` run time, one workload per call.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 50 --trace 0

Closed loop, one client: one pipeline process at a time, pinned to one
core, each on inputs generated from the seed before its clock starts.
A probe thread on the same core times a fixed loop throughout, and each
process's times are scaled by the probe to a reference core speed, so
that the core's own speed drift does not read as a change to the
program (see SpeedProbe).  The first two processes share one instance
so their artifacts can be compared byte for byte; later processes each
get a new instance.  Processes are started until the next one would
overrun `--seconds` (at least two run).

With `--trace 0` the last stdout line reports the end-to-end metrics:
medians over the processes of the calibrated total_s and setup_s, and of
peak_rss_mb.  With `--trace 1` the processes alternate untraced and
traced on the same instance, and the line reports the per-layer metrics
of the traced ones plus `trace.overhead_share`.  Details, and the reason
for each workload, are in perfbench/README.md.

This script needs nothing but the standard library, so its own memory
stays small next to the pipeline's peak RSS that it measures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
DEADLINE_S = 170.0         # the whole call must end within 180 s
MIN_PROCESSES = 2          # the determinism pair
# Refinement takes P@1 from the identity map's 0.4-0.6 (gen.py) to 1.0
# on every instance tried; two fewer refinement rounds leave it at 0.94.
PAPER_P_AT_1_FLOOR = 0.999
# One BLAS thread on a 2-core machine: identical paper-shape inputs
# spread 2% run to run against 6% with two threads, whose barriers stall
# whenever either core slows down; the spare core absorbs this script and
# the OS.
BLAS_THREADS = 1
# Speed probe: a pure-Python loop of PROBE_LOOP iterations, PROBE_HZ
# times a second, on the pipeline's core.  REFERENCE_PROBE_S is what one
# loop takes on the reference core (about the median on the 2-vCPU VM
# the benchmark was tuned on), so calibrated seconds stay close to wall
# seconds there.  The probe costs about 1.5% of that core.
PROBE_LOOP = 10_000
PROBE_HZ = 20
REFERENCE_PROBE_S = 0.0008

DESK_INI = """
[run]
seed = {seed}
refine_mode = global
single_restarts = 3

[data]
source = {data}/source.vec
target = {data}/target.vec
gold = {data}/gold.tsv
normalize_iterations = 5

[single_gan]
epochs = 6
steps_per_epoch = 20
batch_size = 32
beta = 0.5
lr_generator = 0.1
lr_discriminator = 0.1
dis_hidden = 256
dis_dropout = 0.0
dis_steps_per_gen_step = 3
criterion_vocab = 10000
csls_k = 10

[refinement]
vocab_limit = 10000
max_iters = 50

[evaluation]
per_subspace = true
vocab_limit = 50000
"""

PAPER_INI = """
[run]
seed = {seed}
refine_mode = global
single_restarts = 1

[data]
source = {data}/source.vec
target = {data}/target.vec
gold = {data}/gold.tsv

[single_gan]
epochs = 1
steps_per_epoch = 5
dis_hidden = 2048
criterion_vocab = 2000

[refinement]
vocab_limit = 2000
max_iters = 5

[evaluation]
vocab_limit = 2000
"""


@dataclass(frozen=True)
class Workload:
    gen_args: tuple[str, ...]
    config: str
    p_at_1_floor: float | None = None


WORKLOADS = {
    "desk": Workload(("desk",), DESK_INI),
    "paper": Workload(("rotation", "--words", "4000"), PAPER_INI, PAPER_P_AT_1_FLOOR),
}


@dataclass
class Sample:
    instance: int
    traced: bool
    wall_s: float = 0.0        # launch to exit
    setup_wall_s: float = 0.0  # launch to the end of `normalize`
    probe_s: float = 0.0       # trimmed mean probe loop time on the pipeline's core
    stolen_s: float = 0.0      # time the hypervisor ran something else on that core
    total_s: float = 0.0       # wall_s and setup_wall_s, calibrated (see run_workload)
    setup_s: float = 0.0
    peak_rss_mb: float = 0.0
    attempt: int = 0           # pipeline reruns after an empty dictionary
    p_at_1: float | None = None
    identity_p_at_1: float | None = None
    timings: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    layers: dict | None = None
    self_share: dict | None = None
    functions: dict | None = None


class SpeedProbe:
    """Times a fixed pure-Python loop in a thread pinned to `cpu`.

    The cores of this kind of shared VM change speed by 20-30% over
    seconds to minutes, independently of each other.  The probe runs on
    the pipeline's own core while the pipeline runs, so its loop time
    tracks the speed the pipeline got: scaling the core's time by
    REFERENCE_PROBE_S / loop time removes the drift but not a change in
    the work the program does.  Loop time is the thread's CPU time, so
    moments when the probe is preempted do not count.
    """

    def __init__(self, cpu: int):
        self.cpu = cpu
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        os.sched_setaffinity(0, {self.cpu})   # this thread only
        while not self._stop.wait(1.0 / PROBE_HZ):
            started = time.thread_time()
            acc = 0
            for i in range(PROBE_LOOP):
                acc += i * i
            self.samples.append(time.thread_time() - started)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def loop_s(self) -> float:
        """Mean loop time without the slowest and fastest tenth."""
        ordered = sorted(self.samples)
        cut = len(ordered) // 10
        return statistics.mean(ordered[cut:len(ordered) - cut]) if ordered else 0.0


def stolen_seconds(cpu: int) -> float:
    """Steal time of one core so far, from /proc/stat (0 where absent)."""
    try:
        with open("/proc/stat", encoding="ascii") as f:
            for line in f:
                fields = line.split()
                if fields[0] == f"cpu{cpu}":
                    return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        pass
    return 0.0


def fixed_layout() -> list[str]:
    """Command prefix that starts a process with address-space
    randomisation off, or [] where `setarch` is missing.

    Together with a fixed PYTHONHASHSEED this gives every pipeline
    process the same memory layout and hash order.  Over ten processes
    of one `desk` instance each, calibrated times spread 5.0% with
    randomised layouts and 1.7% with fixed ones.
    """
    setarch = shutil.which("setarch")
    return [setarch, platform.machine(), "-R"] if setarch else []


def pipeline_cpu() -> int:
    """The core the pipeline runs on: the last one this process may use,
    leaving the first to this script and the OS."""
    return max(os.sched_getaffinity(0))


class Deadline:
    def __init__(self, seconds: float):
        self.at = time.monotonic() + seconds

    def left(self) -> float:
        return self.at - time.monotonic()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"     # see fixed_layout()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(argv: list[str], log: Path, deadline: Deadline, cpu: int | None = None):
    """Run one process to completion; returns (exit code, seconds, rusage).

    With `cpu` the child starts pinned to that core (it inherits the
    affinity it is forked with).  `os.wait4` gives this child's own peak
    RSS.  A timer kills the child if it outlives the deadline, and the
    process is always reaped.
    """
    timeout = deadline.left()
    if timeout <= 0:
        return None, 0.0, None
    allowed = os.sched_getaffinity(0)
    with open(log, "wb") as out:
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})
        try:
            started = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT,
                                    env=child_env(), cwd=ROOT)
        finally:
            os.sched_setaffinity(0, allowed)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        seconds = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage


def tail(log: Path, lines: int = 5) -> str:
    try:
        return " | ".join(log.read_text(encoding="utf-8", errors="replace")
                          .strip().splitlines()[-lines:])
    except OSError:
        return "(no log)"


def read_manifest(run: Path) -> dict:
    return json.loads((run / "manifest.json").read_text(encoding="utf-8"))


def check_outputs(run: Path, data: Path, workload: Workload, sample: Sample) -> None:
    """Every manifest stage ok with its artifacts, a non-empty seed
    dictionary, and on `paper` the P@1 that refinement recovers; adds
    to `sample.problems` and records P@1 next to the identity map's."""
    problems = sample.problems
    try:
        manifest = read_manifest(run)
    except (OSError, ValueError) as e:
        problems.append(f"manifest unreadable: {e}")
        return
    order = manifest.get("stage_order", [])
    for name in order:
        stage = manifest.get("stages", {}).get(name)
        if not stage or stage.get("status") != "ok":
            problems.append(f"stage {name} not ok")
            continue
        missing = [a for a in stage.get("artifacts", []) if not (run / a).exists()]
        if missing:
            problems.append(f"stage {name} missing {missing}")
    if "induce_dict" in order:
        seed_dict = run / "seed_dict.tsv"
        if not seed_dict.exists() or seed_dict.stat().st_size == 0:
            problems.append("seed_dict.tsv empty")
    if workload.p_at_1_floor is not None:
        try:
            p = json.loads((run / "report.json").read_text(encoding="utf-8"))["p_at_1"]
        except (OSError, ValueError, KeyError) as e:
            problems.append(f"report.json unreadable: {e}")
        else:
            sample.p_at_1 = p
            sample.identity_p_at_1 = json.loads(
                (data / "identity.json").read_text(encoding="utf-8"))["p_at_1"]
            if p < workload.p_at_1_floor:
                problems.append(f"p_at_1 {p} below {workload.p_at_1_floor}")


def artifact_differences(a: Path, b: Path) -> list[str]:
    """Files that differ between two runs of one instance, ignoring only
    the manifest timings."""
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    diffs = sorted(str(p) for p in files_a ^ files_b)
    for rel in sorted(files_a & files_b):
        if rel == Path("manifest.json"):
            ma, mb = read_manifest(a), read_manifest(b)
            ma.pop("timings", None)
            mb.pop("timings", None)
            # compared as text: NaN criteria never compare equal as floats
            same = json.dumps(ma, sort_keys=True) == json.dumps(mb, sort_keys=True)
        else:
            same = (a / rel).read_bytes() == (b / rel).read_bytes()
        if not same:
            diffs.append(str(rel))
    return diffs


def settle(directory: Path) -> None:
    """Write the files under `directory` to disk now, so that their
    write-back does not land inside the next timed process."""
    for path in directory.rglob("*"):
        if path.is_file():
            fd = os.open(path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def schedule(trace: bool):
    """(instance, traced) pairs: the first instance runs twice, then
    untraced runs each get a new instance while traced runs pair up."""
    yield 0, False
    yield 0, trace
    i = 1
    while True:
        yield i, False
        if trace:
            yield i, True
        i += 1


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 work: Path, deadline: Deadline) -> list[Sample]:
    workload = WORKLOADS[name]
    samples: list[Sample] = []
    runs: dict[int, Path] = {}
    started = time.monotonic()
    last_cost = 0.0
    for instance, traced in schedule(trace):
        if len(samples) >= MIN_PROCESSES and (
                time.monotonic() - started + last_cost > seconds):
            break
        if deadline.left() < 1.0:
            break
        cost_started = time.monotonic()
        data = work / f"in{instance}"
        inst_seed = seed * 1000 + instance
        if not data.exists():
            code, _, _ = run_child([sys.executable, str(BENCH_DIR / "gen.py"),
                                    *workload.gen_args, "--out", str(data),
                                    "--seed", str(inst_seed)],
                                   work / f"gen{instance}.log", deadline)
            if code != 0:
                raise RuntimeError(f"input generation failed: "
                                   f"{tail(work / f'gen{instance}.log')}")
            settle(data)
            # the schedule never returns to an earlier instance
            for old in list(runs):
                shutil.rmtree(runs.pop(old), ignore_errors=True)
                shutil.rmtree(work / f"in{old}", ignore_errors=True)
        cfg = work / f"run{instance}.ini"
        cfg.write_text(workload.config.format(data=data, seed=inst_seed), encoding="utf-8")
        out = work / f"run{len(samples)}"
        cli = ["pipeline", "--config", str(cfg), "--out", str(out)]
        metrics_file = work / f"layers{len(samples)}.json"
        if traced:
            argv = [sys.executable, str(BENCH_DIR / "traced_pipeline.py"),
                    str(metrics_file), *cli]
        else:
            argv = [sys.executable, "-m", "submap.cli", *cli]
        argv = fixed_layout() + argv
        log = work / f"run{len(samples)}.log"
        cpu = pipeline_cpu()
        stolen = stolen_seconds(cpu)
        with SpeedProbe(cpu) as probe:
            code, wall, usage = run_child(argv, log, deadline, cpu)
        sample = Sample(instance, traced, wall_s=wall, probe_s=probe.loop_s(),
                        stolen_s=stolen_seconds(cpu) - stolen)
        if code is None or usage is None:
            sample.problems.append("deadline reached before the process finished")
            samples.append(sample)
            break
        sample.peak_rss_mb = usage.ru_maxrss / 1024.0
        if code != 0:
            sample.problems.append(f"exit code {code}: {tail(log)}")
        else:
            check_outputs(out, data, workload, sample)
        if (out / "manifest.json").exists():
            manifest = read_manifest(out)
            timings = manifest.get("timings", {})
            sample.timings = timings
            sample.attempt = manifest.get("attempt", 0)
            # a rerun repeats every stage and the manifest keeps only the
            # last attempt's timings, so its setup_s holds the failed attempt
            sample.setup_wall_s = wall - sum(v for k, v in timings.items()
                                             if k != "normalize")
        if sample.probe_s > 0 and sample.stolen_s < wall:
            # the core's own time, at the reference speed; steal inside
            # the set-up window is taken as pro rata
            scale = (wall - sample.stolen_s) / wall * REFERENCE_PROBE_S / sample.probe_s
            sample.total_s = wall * scale
            sample.setup_s = sample.setup_wall_s * scale
        else:
            sample.problems.append("no speed probe reading")
        if traced and metrics_file.exists():
            doc = json.loads(metrics_file.read_text(encoding="utf-8"))
            sample.layers = doc.get("metrics")
            sample.self_share = doc.get("self_share")
            sample.functions = doc.get("functions")
        if traced and sample.layers is None:
            sample.problems.append("traced run wrote no layer metrics")
        if instance in runs and code == 0:
            diffs = artifact_differences(runs[instance], out)
            if diffs:
                sample.problems.append(f"artifacts differ from the first run: {diffs}")
        else:
            runs.setdefault(instance, out)
        if out != runs.get(instance):
            shutil.rmtree(out, ignore_errors=True)
        else:
            settle(out)
        samples.append(sample)
        last_cost = time.monotonic() - cost_started
    return samples


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc[kind]}


def end_to_end(samples: list[Sample]) -> dict:
    ok = [s for s in samples if not s.problems and not s.traced] or samples
    # a rerun's setup_s includes its failed attempts (see run_workload)
    first_attempt = [s for s in ok if s.attempt == 0] or ok
    return {k: {"value": statistics.median(
                getattr(s, k) for s in (first_attempt if k == "setup_s" else ok)),
                "unit": unit}
            for k, unit in declared_units("end_to_end").items()}


def per_layer(samples: list[Sample]) -> dict:
    units = declared_units("per_layer")
    traced = [s for s in samples if s.traced and s.layers and not s.problems]
    by_instance = {s.instance: s for s in samples if not s.traced and not s.problems}
    overhead = [t.total_s / by_instance[t.instance].total_s - 1.0
                for t in traced if t.instance in by_instance]
    metrics = {}
    for name, unit in units.items():
        if name == "trace.overhead_share":
            values = overhead
        elif name == "pipeline.wall_s":
            values = [s.wall_s for s in by_instance.values()]
        else:
            values = [s.layers[name] for s in traced if name in s.layers]
        metrics[name] = {"value": statistics.median(values) if values else 0.0,
                         "unit": unit}
    return metrics


def environment(work: Path, deadline: Deadline) -> dict:
    log = work / "env.log"
    code, _, _ = run_child([sys.executable, str(BENCH_DIR / "envinfo.py")], log, deadline)
    if code != 0:
        raise RuntimeError(f"environment probe failed: {tail(log)}")
    return json.loads(log.read_text(encoding="utf-8").strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="submap pipeline benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "submap" / "__init__.py").is_file():
        print(f"error: no submap sources under {SRC}", file=sys.stderr)
        return 2
    # when terminated, still kill and reap the running child (see run_child)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    deadline = Deadline(DEADLINE_S)
    work = STATE / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        env = environment(work, deadline)
        env["fixed_layout"] = bool(fixed_layout())
        samples = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                               work, deadline)
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for s in samples if s.problems)
    metrics = per_layer(samples) if args.trace else end_to_end(samples)
    for i, s in enumerate(samples):
        status = "ok" if not s.problems else "FAILED: " + "; ".join(s.problems)
        quality = ("" if s.p_at_1 is None else
                   f"P@1 {s.p_at_1:.4f} (identity map {s.identity_p_at_1:.4f}), ")
        rerun = f"rerun {s.attempt} (setup_s left out), " if s.attempt else ""
        print(f"{args.workload} process {i} instance {s.instance}"
              f"{' traced' if s.traced else ''}: total {s.total_s:.3f} s, "
              f"setup {s.setup_s:.3f} s (wall {s.wall_s:.3f} s and {s.setup_wall_s:.3f} s, "
              f"probe {s.probe_s * 1e3:.3f} ms, stolen {s.stolen_s:.2f} s), peak RSS {s.peak_rss_mb:.1f} MB, "
              f"{quality}{rerun}{status}")
    shares = [s.self_share for s in samples if s.self_share]
    if shares:
        print("self time by module (first traced process): " + ", ".join(
            f"{k} {v:.1%}" for k, v in shares[0].items()))
    print("environment: " + json.dumps(env, sort_keys=True))
    for k, v in metrics.items():
        print(f"{k} = {v['value']:.6g} {v['unit']}")
    result = {"correct": failed == 0, "attempted": len(samples), "failed": failed,
              "metrics": metrics}
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "environment": env, "seconds": args.seconds,
                    "samples": [vars(s) for s in samples]}, indent=1, sort_keys=True),
        encoding="utf-8")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
