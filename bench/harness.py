"""Closed-loop load generator: runs a workload's ops as fresh CLI processes, one at a time.

One client: the next op starts only when the previous one has exited.
A pass is one run of the workload's op list; passes repeat while the next
one is expected to end within the run's time budget.  Between ops the
harness times a fixed pure-Python task (the calibration), so that a run can
report its timings at a fixed machine speed.
"""

from __future__ import annotations

import json
import math
import os
import select
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

import measure
from workloads import Op, reference_name

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE_DIR = ROOT / "bench" / "reference"
TRACED_OP = ROOT / "bench" / "traced_op.py"
WORK_ROOT = ROOT / ".bench_work"
RUN_LIMIT_S = 170.0  # every run ends well inside the 180 s allowed
CALIBRATION_SHARE = 0.2  # calibration time as a share of op time
CALIBRATION_WARMUP = 3  # samples taken before the first op


class OpResult:
    """What one op did, as seen from outside its process."""

    def __init__(self, args, rc, wall_s, rss_kb, stdout, stderr=""):
        self.args = tuple(args)
        self.rc = rc
        self.wall_s = wall_s
        self.rss_kb = rss_kb
        self.stdout = stdout
        self.stderr = stderr
        self.error: Optional[str] = None
        self.cache_hit: Optional[bool] = None
        self.bytes_written = 0
        self.spans: List[dict] = []

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def latency(self) -> float:
        """Wall time, or infinity for a failed op: a failure never counts as fast."""
        return self.wall_s if self.ok else math.inf


# A fresh interpreter that imports mpmath and then does big-integer products,
# Fraction sums and dict updates: the start-up every op pays, and the kinds
# of work that reglab's exact series and mpmath's pure-Python backend do.
# It imports nothing from reglab, so a change to the program leaves it alone.
CALIBRATION_CODE = """
from fractions import Fraction
import mpmath
x, y, acc, total, counts = 3 ** 2000, 7 ** 1500, 0, Fraction(0), {}
for i in range(1, 1500):
    acc = (acc + x * (y + i)) % (x + i)
    total += Fraction(1, i)
for i in range(30000):
    counts[i % 97] = counts.get(i % 97, 0) + i
"""


def calibration_task() -> float:
    """Wall seconds of one calibration process: 0.13 to 0.22 s on a 2.1 GHz
    Xeon VM, as its neighbours load it."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", CALIBRATION_CODE], cwd=ROOT, env=child_env(),
                   stdout=subprocess.DEVNULL, check=True)
    return time.perf_counter() - start


class Calibration:
    """Samples of the calibration task, spread over a run between its ops.

    The shared cores of a small VM change speed over minutes, by more than
    any bound a timing could hold.  The calibration starts and runs like an
    op and slows with it, so the ratio of an op's time to the calibration's
    median in the same run stays steady.  (Scaling each op by the samples
    taken nearest to it added more noise than it removed.)  After each op,
    samples are taken until they have used `share` of the op time so far.
    """

    def __init__(self, share: float = CALIBRATION_SHARE,
                 task: Callable[[], float] = calibration_task):
        self.share = share
        self.task = task
        self.samples: List[float] = []
        self.spent_s = 0.0
        self.op_s = 0.0

    def sample(self) -> None:
        seconds = self.task()
        self.samples.append(seconds)
        self.spent_s += seconds

    def after_op(self, op_wall_s: float) -> None:
        self.op_s += op_wall_s
        while self.spent_s < self.share * self.op_s:
            self.sample()

    def median(self) -> float:
        return measure.median(self.samples)


class PassResult(NamedTuple):
    traced: bool
    wall_s: float  # the sum of its ops' wall times
    ops: List[OpResult]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.ops)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.pop("REGLAB_CACHE", None)  # the CLI would otherwise cache every op
    # ops load reglab from cached bytecode, as an installed copy would, in
    # every environment the benchmark is started from
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_process(cmd: Sequence[str], work_dir: Path, timeout_s: float,
                env: Optional[Dict[str, str]] = None) -> OpResult:
    """Run cmd to completion; record exit code, wall time and its own peak RSS.

    os.wait4 gives the rusage of this child alone, so ru_maxrss is the op's
    peak.  A pidfd bounds the wait without polling; on timeout the child is
    killed and the op fails.
    """
    out_path, err_path = work_dir / "stdout", work_dir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(list(cmd), stdout=out, stderr=err, cwd=ROOT,
                                env=env if env is not None else child_env())
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                ready, _, _ = select.select([pidfd], [], [], max(timeout_s, 0.0))
            finally:
                os.close(pidfd)
            if not ready:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = OpResult(cmd, proc.returncode, wall, usage.ru_maxrss,
                      out_path.read_text(errors="replace"),
                      err_path.read_text(errors="replace"))
    if not ready:
        result.error = "killed after {:.0f} s".format(timeout_s)
    return result


def _snapshot(directory: Path) -> Dict[str, tuple]:
    if not directory.is_dir():
        return {}
    out = {}
    for entry in os.scandir(directory):
        st = entry.stat()
        out[entry.name] = (st.st_size, st.st_mtime_ns)
    return out


def run_op(op: Op, op_id: int, work_dir: Path, cache_dir: Path, traced: bool,
           timeout_s: float) -> OpResult:
    argv = op.argv(str(cache_dir))
    if traced:
        spans_path = work_dir / "spans.jsonl"
        spans_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(TRACED_OP), str(spans_path), str(op_id), "--"] + argv
    else:
        cmd = [sys.executable, "-m", "reglab.cli"] + argv
    before = _snapshot(cache_dir) if op.uses_cache else None
    result = run_process(cmd, work_dir, timeout_s)
    result.args = op.args
    if op.uses_cache:
        after = _snapshot(cache_dir)
        written = [name for name, stat in after.items() if before.get(name) != stat]
        result.cache_hit = not written
        result.bytes_written = sum(after[name][0] for name in written)
    if traced and spans_path.exists():
        result.spans = measure.load_spans(spans_path)
    return result


def load_reference(args: Sequence[str]) -> Optional[str]:
    path = REFERENCE_DIR / reference_name(tuple(args))
    return path.read_text() if path.exists() else None


def judge(results: Sequence[OpResult], references: Dict[str, str]) -> None:
    """Set each result's error: non-zero exit, reference mismatch, or a cache
    hit that differs from the first output for the same arguments."""
    first: Dict[tuple, str] = {}
    for r in results:
        if r.error is not None:
            continue
        if r.rc != 0:
            r.error = "exit code {}".format(r.rc)
            continue
        ref = references.get(reference_name(r.args))
        if ref is None:
            r.error = "no reference output recorded"
            continue
        r.error = measure.check_output(r.args, r.stdout, ref)
        if r.error is None and first.get(r.args, r.stdout) != r.stdout:
            r.error = "cache hit differs from the miss output"
        first.setdefault(r.args, r.stdout)


def run_pass(ops: Sequence[Op], pass_dir: Path, traced: bool,
             references: Dict[str, str], hard_deadline: float,
             calibration: Calibration) -> PassResult:
    """One pass over the op list against a fresh cache directory."""
    pass_dir.mkdir(parents=True)
    cache_dir = pass_dir / "cache"
    cache_dir.mkdir()
    results = []
    for op_id, op in enumerate(ops):
        result = run_op(op, op_id, pass_dir, cache_dir, traced,
                        hard_deadline - time.perf_counter())
        results.append(result)
        if result.error is not None:  # killed: the run is out of time
            break
        calibration.after_op(result.wall_s)
    judge(results, references)
    shutil.rmtree(pass_dir)
    return PassResult(traced, sum(r.wall_s for r in results), results)


def run_passes(ops: Sequence[Op], schedule: Sequence[bool], seconds: float,
               references: Dict[str, str], work_dir: Path, run_start: float,
               calibration: Calibration) -> List[PassResult]:
    """Repeat passes, cycling through `schedule` (traced or not), while the next
    pass and its calibration are expected to end within `seconds`.  Every kind
    runs at least once."""
    passes: List[PassResult] = []
    start = time.perf_counter()
    hard_deadline = run_start + RUN_LIMIT_S
    for _ in range(CALIBRATION_WARMUP):
        calibration.sample()
    while True:
        traced = schedule[len(passes) % len(schedule)]
        result = run_pass(ops, work_dir / "pass{}".format(len(passes)), traced,
                          references, hard_deadline, calibration)
        passes.append(result)
        if len(result.ops) < len(ops):
            break
        nxt = schedule[len(passes) % len(schedule)]
        same = [p.wall_s for p in passes if p.traced == nxt] or [result.wall_s]
        expected = measure.median(same) * (1 + calibration.share)
        now = time.perf_counter()
        if now + expected > hard_deadline:
            break
        if len(passes) >= len(schedule) and now - start + expected > seconds:
            break
    return passes


def time_imports(modules: Sequence[str], repeats: int, work_dir: Path) -> List[float]:
    """Wall times of fresh interpreters that import `modules` and exit."""
    cmd = [sys.executable, "-c", "import " + ", ".join(modules)]
    times = []
    for _ in range(repeats):
        r = run_process(cmd, work_dir, 60.0)
        if r.rc != 0:
            raise RuntimeError("importing {} failed: {}".format(modules, r.stderr.strip()))
        times.append(r.wall_s)
    return times


def import_breakdown(modules: Sequence[str], repeats: int, work_dir: Path) -> Dict[str, float]:
    """Median seconds spent importing mpmath and the reglab modules themselves,
    from `python -X importtime` in fresh interpreters."""
    cmd = [sys.executable, "-X", "importtime", "-c", "import " + ", ".join(modules)]
    mpmath_s, reglab_s = [], []
    for _ in range(repeats):
        r = run_process(cmd, work_dir, 60.0)
        if r.rc != 0:
            raise RuntimeError("importing {} failed: {}".format(modules, r.stderr.strip()))
        mp_us, top_us = measure.parse_importtime(r.stderr)
        mpmath_s.append(mp_us / 1e6)
        reglab_s.append((top_us - mp_us) / 1e6)
    return {"setup.import_mpmath_s": measure.median(mpmath_s),
            "setup.import_reglab_s": measure.median(reglab_s)}


def probe_versions(work_dir: Path, modules: Sequence[str]) -> Dict[str, str]:
    """Python, mpmath and reglab versions, read in a child that imports `modules`."""
    code = ("import json, sys, mpmath, mpmath.libmp, reglab, " + ", ".join(modules) +
            "; print(json.dumps("
            "{'python': sys.version.split()[0], 'mpmath': mpmath.__version__, "
            "'mpmath_backend': mpmath.libmp.BACKEND, 'reglab': reglab.__version__}))")
    r = run_process([sys.executable, "-c", code], work_dir, 60.0)
    if r.rc != 0:
        raise RuntimeError("cannot import reglab: {}".format(r.stderr.strip()))
    return json.loads(r.stdout)


def git_sha() -> str:
    """HEAD's commit id, read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = git / ref
        if ref_path.exists():
            return ref_path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"
