"""Host facts recorded next to every result, and the OpenBLAS thread pin.

Timings on a shared two-core host move with its load, so each run prints the
facts its numbers rest on: cores, CPU model, interpreter and library versions,
each loaded OpenBLAS with its build configuration and thread count, and the
code under test (git commit when the checkout has one, else none; always a
digest of ``src/``).
"""

import ctypes
import hashlib
import os
import platform
import signal
import statistics
import time

_PREFIXES = ("scipy_openblas_", "openblas_")
_SUFFIXES = ("64_", "")


def _blas_function(lib, name, restype, argtypes):
    for prefix in _PREFIXES:
        for suffix in _SUFFIXES:
            try:
                fn = getattr(lib, f"{prefix}{name}{suffix}")
            except AttributeError:
                continue
            fn.restype, fn.argtypes = restype, argtypes
            return fn
    return None


def openblas_libraries():
    """Paths of the OpenBLAS builds mapped into this process."""
    paths = []
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = "/" + line.rstrip("\n").partition("/")[2]
            if "openblas" in os.path.basename(path) and path not in paths:
                paths.append(path)
    return paths


def pin_openblas():
    """Set every loaded OpenBLAS to one thread; returns what each reports."""
    out = []
    for path in openblas_libraries():
        lib = ctypes.CDLL(path)
        set_threads = _blas_function(lib, "set_num_threads", None, [ctypes.c_int])
        get_threads = _blas_function(lib, "get_num_threads", ctypes.c_int, [])
        get_config = _blas_function(lib, "get_config", ctypes.c_char_p, [])
        if set_threads is not None:
            set_threads(1)
        out.append({
            "library": os.path.basename(path),
            "config": get_config().decode() if get_config else None,
            "threads": get_threads() if get_threads else None,
        })
    return out


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    try:
        with open(".git/HEAD") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(".git", ref)):
            with open(os.path.join(".git", ref)) as fh:
                return fh.read().strip()
        with open(".git/packed-refs") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def src_digest(root="src"):
    """sha256 over the paths and bytes of every file under ``root``."""
    h = hashlib.sha256()
    for base, dirs, files in os.walk(root):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def facts():
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": pin_openblas(),
        "blas_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "git_commit": _git_commit(),
        "src_sha256": src_digest(),
    }


#: seconds one calibration sample takes on the reference host at about full speed
CALIBRATION_NOMINAL_S = 150e-6

#: seconds between calibration samples while a run is timed
SAMPLE_PERIOD_S = 0.01


def _step(acc, x):
    return (acc * 0.5 + x) % 97.0


class SpeedGauge:
    """Host speed, sampled every ``SAMPLE_PERIOD_S`` while timed work runs.

    The shared two-core host this benchmark was built on slows down by up to
    2x for seconds at a time.  A SIGALRM handler runs a fixed kernel of small
    numpy operations and plain Python (no sparsefit code) between the
    program's bytecodes and records how long it took, so the samples taken
    during a piece of work tell how fast the host ran it.  :meth:`scale` turns
    them into the factor that converts that piece's seconds into seconds at
    the nominal speed.  The kernel takes 1-3% of the measured time, a share of
    wall time that does not depend on the code under test.
    """

    def __init__(self):
        import numpy as np

        self._np = np
        self._a = np.eye(12) * 4.0 + np.fromfunction(lambda i, j: 1.0 / (1.0 + i + j), (12, 12))
        self._b = np.linspace(-1.0, 1.0, 12)
        self._v = np.linspace(0.1, 1.0, 50)
        self.samples = []
        self._busy = False
        self._previous = None

    def _kernel(self):
        """A small solve, a coordinate sweep over numpy scalars, vector math, float calls.

        The same kinds of operation as sparsefit's hot paths, in no sparsefit code.
        """
        np, a, b, v = self._np, self._a, self._b, self._v
        acc = float(np.linalg.solve(a, b) @ b)
        x = np.zeros(12)
        for _ in range(4):
            for j in range(12):
                z = b[j] - a[j] @ x + a[j, j] * x[j]
                x[j] = max(abs(z) - 0.1, 0.0) * (1.0 if z > 0 else -1.0) / a[j, j]
        for _ in range(3):
            acc += float(np.sum(v * b[0] - np.logaddexp(0.0, v)))
        for i in range(60):
            acc = _step(acc, i * 1.5)
        return acc

    def _sample(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            self._kernel()
            self.samples.append(time.perf_counter() - t0)
        finally:
            self._busy = False

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self):
        """Position in the sample list; pass it to :meth:`scale` after the work."""
        return len(self.samples)

    def scale(self, mark=0):
        """Nominal over the mean kernel time of the samples taken since ``mark``.

        Work too short to catch a sample uses every sample taken so far.
        """
        taken = self.samples[mark:] or self.samples
        return CALIBRATION_NOMINAL_S / statistics.fmean(taken) if taken else 1.0
