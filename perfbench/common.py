"""Paths, prepared artifacts, machine facts and summary statistics.

The benchmark runs from the root of a checkout and touches nothing outside
it: processes it starts keep their temporary files under
``.perfbench_work/`` (removed when the run ends) and prepared artifacts (the
trained model and the streaming dataset, both built by the code under test
from fixed seeds) under ``.perfbench_cache/<key>/``, where the key hashes
every file of ``src/`` and ``perfbench/prepare.py``.  A change to the
program therefore never reuses an artifact built by other code; repeated
runs of the same code reuse it, so set-up and measurement are not charged
for training.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
CACHE = ROOT / ".perfbench_cache"

#: Thread settings the benchmark pins for itself and every process it starts.
#: One BLAS thread per process: the serving workload runs four busy processes
#: on a two-core machine, and multi-threaded BLAS reorders reductions, which
#: changes training's loss trajectory from run to run.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (for example, no program to measure)."""


#: Longest temporary directory that still leaves room for the serving
#: fleet's Unix control socket (``<tmp>/repro-pool-XXXXXXXX/control.sock``)
#: under the 107-byte socket path limit.
_MAX_TMP_PATH = 64


def child_env() -> dict[str, str]:
    """Environment for processes the benchmark starts.

    ``src`` is importable, threads are pinned and temporary files go under
    the checkout when its path is short enough for a Unix socket inside.
    """
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    tmp = WORK / "tmp"
    if len(str(tmp)) <= _MAX_TMP_PATH:
        tmp.mkdir(parents=True, exist_ok=True)
        env["TMPDIR"] = str(tmp)
    return env


def require_program() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no program to measure: {SRC / 'repro'} is missing")


def remove_work() -> None:
    shutil.rmtree(WORK, ignore_errors=True)


def code_key() -> str:
    """Hash of the program's sources and of the artifact recipes."""
    digest = hashlib.sha256()
    files = sorted(SRC.rglob("*.py")) + [Path(__file__).with_name("prepare.py")]
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:20]


def prepared(artifact: str, timeout: float = 600.0) -> Path:
    """Directory of a prepared artifact (``model`` or ``dataset``), built if missing.

    The artifact is built in a separate process, so the measuring process
    never trains and its memory high-water mark covers only the workload.
    It is built in a temporary directory and renamed into place when complete.
    """
    target = CACHE / code_key() / artifact
    if target.is_dir():
        return target
    target.parent.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=f".{artifact}-", dir=target.parent))
    try:
        subprocess.run(
            [sys.executable, "-m", "perfbench.prepare", artifact, str(staging / artifact)],
            cwd=ROOT,
            env=child_env(),
            check=True,
            timeout=timeout,
            stdout=subprocess.DEVNULL,
        )
        try:
            os.replace(staging / artifact, target)
        except OSError:
            if not target.is_dir():
                raise
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return target


# ---------------------------------------------------------------------------
# Machine facts
# ---------------------------------------------------------------------------


def _blas_facts() -> dict:
    import numpy

    try:
        config = numpy.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except Exception:  # noqa: BLE001 - facts are best effort, never fatal
        return {"name": None, "version": None}


def src_line_count() -> int:
    return sum(len(path.read_bytes().splitlines()) for path in SRC.rglob("*.py"))


def machine_facts() -> dict:
    import numpy

    try:
        import scipy

        scipy_version: Optional[str] = scipy.__version__
    except ImportError:
        scipy_version = None
    try:
        usable_cores = len(os.sched_getaffinity(0))
    except AttributeError:
        usable_cores = os.cpu_count()
    return {
        "nproc": usable_cores,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas": _blas_facts(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "src_lines": src_line_count(),
    }


def _probe_kernel() -> None:
    counts: dict[int, int] = {}
    for value in range(100_000):
        counts[value % 97] = counts.get(value % 97, 0) + value
    import numpy

    vector = numpy.arange(4096.0)
    for _ in range(400):
        vector = numpy.abs(vector - 3.0) * 0.5 + 1.0


class MachineGauge:
    """How fast the shared machine ran during a run, from a fixed probe kernel.

    On a shared host the same code runs up to twice as slow for minutes at a
    time while other tenants are busy.  The probe kernel never touches the
    program, so it slows with the machine and not with the program.  A run
    samples it between its units of work and reports the median in its
    detail line, so a slow run can be told from a slow program.  (Scaling
    the reported times by it was tried and rejected: the serving and
    training workloads slow less than the probe, so the scaled figures
    spread wider than the raw ones.)
    """

    REPEATS = 5

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> None:
        import gc
        import time

        enabled = gc.isenabled()
        gc.disable()  # the program's heap must not slow the probe
        try:
            for _ in range(self.REPEATS):
                started = time.perf_counter()
                _probe_kernel()
                self.samples.append(1000.0 * (time.perf_counter() - started))
        finally:
            if enabled:
                gc.enable()

    @property
    def probe_ms(self) -> float:
        return median(self.samples)


# ---------------------------------------------------------------------------
# Summary statistics
# ---------------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile with linear interpolation (numpy's default)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = math.ceil(position)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


#: Percentiles a tail is reported at, highest first.
TAIL_PERCENTILES = (99.0, 95.0, 90.0, 75.0)


def tail(values: Sequence[float], min_beyond: int = 10) -> tuple[str, float, int]:
    """The highest percentile with at least ``min_beyond`` samples beyond it.

    Returns ``(label, value, samples beyond)``.  When the sample is too small
    for any listed percentile the maximum is reported, labelled ``"max"``.
    """
    count = len(values)
    for q in TAIL_PERCENTILES:
        if count * (100.0 - q) / 100.0 < min_beyond:
            continue
        cut = percentile(values, q)
        beyond = sum(1 for value in values if value > cut)
        if beyond >= min_beyond:
            return f"p{q:g}", cut, beyond
    return "max", max(values), 0
