"""Process preparation shared by the benchmark's entry scripts.

Import this before numpy: `prepare()` pins the BLAS and OpenMP pools to one
thread (the benchmark runs one closed-loop client per process) and puts the
checkout's own `src/` first on the import path, so the package under test is
always the one built from this checkout, never an installed copy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class MissingSource(RuntimeError):
    """The checkout holds no `src/striplift` package to benchmark."""


def prepare() -> Path:
    """Pin native thread pools and make `src/` importable; return the root."""
    if "numpy" in sys.modules:
        raise RuntimeError("boot.prepare() must run before numpy is imported")
    for var in _THREAD_VARS:
        os.environ[var] = "1"
    return use_source()


def use_source() -> Path:
    """Import striplift from this checkout's `src/`; MissingSource if it is absent."""
    if not (SRC / "striplift" / "__init__.py").is_file():
        raise MissingSource(f"no package source at {SRC / 'striplift'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import striplift

    if Path(striplift.__file__).resolve().parent != (SRC / "striplift").resolve():
        raise MissingSource(f"striplift was imported from {striplift.__file__}, not {SRC}")
    return ROOT


def commit() -> str:
    """The checkout's commit, read from `.git` without running git; else 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    """What a result record carries about the machine and the code."""
    import numpy

    return {
        "commit": commit(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "threads_pinned": {var: os.environ.get(var) for var in _THREAD_VARS},
    }
