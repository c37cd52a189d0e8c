"""Shared on-demand compiler for the runtime C kernels.

:mod:`repro.sim._ckernels` and :mod:`repro.decoders._ckernels` each embed a
C source string; :func:`build` compiles it with the system C compiler into
a shared library cached under ``$REPRO_CKERNEL_DIR`` (default: a
``repro-ckernels`` directory in the system temp dir) and loads it.  The
cache key covers the source, the compiler flags and the host CPU, so a
library is never reused across ISAs or flag changes.

``-ffp-contract=off`` is part of the contract, not a tuning knob: GCC's
GNU-C default (``-ffp-contract=fast``) may fuse ``a + b - 2 * c`` into an
FMA under ``-march=native``, which rounds once instead of twice and drifts
from the double arithmetic the Python reference paths perform.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import tempfile

__all__ = ["build", "cpu_tag"]

#: Flags every kernel library is compiled with (``-march=native`` is tried
#: first and dropped when the toolchain rejects it).
CFLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")


def cpu_tag() -> str:
    """A machine fingerprint for the build cache.

    Libraries are compiled with ``-march=native``, so a cached ``.so`` must
    never be loaded on a CPU with a different ISA (e.g. a container image
    baked on an AVX-512 host and run elsewhere would SIGILL).
    """
    parts = [platform.machine()]
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith(("model name", "flags", "Features")):
                    parts.append(line.strip())
                    break
    except OSError:
        parts.append(platform.processor())
    return "|".join(parts)


def build(source: str, name: str) -> ctypes.CDLL | None:
    """Compile (or load the cached build of) ``source`` as ``<name>-*.so``.

    Returns ``None`` when no working C compiler is available, so callers
    can fall back to their pure-Python/NumPy paths.
    """
    tag = "|".join((*CFLAGS, "-march=native", cpu_tag()))
    digest = hashlib.sha256((source + "|" + tag).encode()).hexdigest()[:16]
    cache_dir = os.environ.get("REPRO_CKERNEL_DIR") or os.path.join(
        tempfile.gettempdir(), "repro-ckernels"
    )
    so_path = os.path.join(cache_dir, f"{name}-{digest}.so")
    if not os.path.exists(so_path):
        try:
            os.makedirs(cache_dir, exist_ok=True)
            src_path = os.path.join(cache_dir, f"{name}-{digest}.c")
            with open(src_path, "w") as handle:
                handle.write(source)
            tmp_path = f"{so_path}.{os.getpid()}.tmp"
            # -march=native is safe: the library is built on the machine that
            # runs it (and rebuilt per machine via the cache key).  Some
            # toolchains reject it; retry generic before giving up.
            for extra in (["-march=native"], []):
                try:
                    subprocess.run(
                        ["cc", *CFLAGS, *extra, src_path, "-o", tmp_path],
                        check=True,
                        capture_output=True,
                        timeout=120,
                    )
                    break
                except subprocess.CalledProcessError:
                    if not extra:
                        raise
            os.replace(tmp_path, so_path)  # atomic under concurrent builds
        except Exception:
            return None
    try:
        return ctypes.CDLL(so_path)
    except OSError:
        return None
