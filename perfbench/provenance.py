"""Machine and provenance block of a benchmark run.

Starts no process: the git revision and dirty flag are read from ``.git``
directly.  A checkout without ``.git`` reports the revision as unknown.
"""

import hashlib
import os
import platform
import struct
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def cap_blas_threads():
    """Cap BLAS threads at nproc in this process; call before numpy is imported."""
    cap = nproc()
    for var in BLAS_THREAD_VARS:
        try:
            cap = min(cap, int(os.environ[var]))
        except (KeyError, ValueError):
            pass
    cap = max(1, cap)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(cap)
    return cap


def _git_revision(git_dir):
    head = (git_dir / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git_dir / ref).is_file():
        return (git_dir / ref).read_text().strip()
    for line in (git_dir / "packed-refs").read_text().splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def _git_dirty(root, git_dir):
    """True when a tracked regular file differs from its blob in the index.

    Reads index versions 2 and 3; staged but uncommitted changes are not seen.
    """
    data = (git_dir / "index").read_bytes()
    signature, version, count = struct.unpack(">4sII", data[:12])
    if signature != b"DIRC" or version not in (2, 3):
        return None
    pos = 12
    for _ in range(count):
        mode = struct.unpack(">I", data[pos + 24:pos + 28])[0]
        sha = data[pos + 40:pos + 60]
        flags = struct.unpack(">H", data[pos + 60:pos + 62])[0]
        name_start = pos + 62 + (2 if flags & 0x4000 else 0)
        name_end = data.index(b"\0", name_start)
        path = root / data[name_start:name_end].decode()
        pos += (name_end - pos + 8) // 8 * 8
        if mode >> 12 != 0o10:  # not a regular file
            continue
        try:
            blob = path.read_bytes()
        except OSError:
            return True
        if hashlib.sha1(b"blob %d\0" % len(blob) + blob).digest() != sha:
            return True
    return False


def machine(root, blas_threads):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    git_dir = Path(root) / ".git"
    try:
        revision, dirty = _git_revision(git_dir), _git_dirty(Path(root), git_dir)
    except (OSError, ValueError, struct.error):
        revision, dirty = "unknown", None
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_thread_cap": blas_threads,
        "git_revision": revision,
        "git_dirty": dirty,
    }
