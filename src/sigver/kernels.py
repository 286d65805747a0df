"""The compiled kernels: ``_kernels.c``, built on first use and loaded
through ctypes.

``load`` builds the library with the C compiler Python was built with
(``sysconfig``'s ``CC``), ``FLAGS`` and ``LIBS`` (linked after the
source), into this package's ``__pycache__``, under a name that hashes
the source, the compiler, the flags and the libraries. An edited source
or another compiler therefore builds a new file, every later process
loads the built one without compiling, and deleting it is safe. A build
writes a temporary file and renames it into place, so processes that
build at once each load a whole library; it then deletes every other
``_kernels-*.so`` there, the builds of earlier sources, which no later
process would load. ``sigver.lstm`` loads the library when it is
imported, before any fork, so a forked worker never compiles.

The flags keep compiled arithmetic on numpy's bits: ``-ffp-contract=off``
fuses no multiply and add, and no ``-ffast-math``, ``-Ofast`` or
``-march=native`` lets the compiler reorder or contract an expression.
"""
from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
import shutil
import subprocess
import sysconfig
import tempfile
from pathlib import Path

SOURCE = Path(__file__).with_name("_kernels.c")
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
LIBS = ("-lm",)  # exp


def compiler() -> list[str]:
    """The C compiler command Python was built with."""
    return shlex.split(sysconfig.get_config_var("CC") or "cc")


def library_path() -> Path:
    """Where the library of this source, compiler and flags is built."""
    key = hashlib.sha256(SOURCE.read_bytes())
    key.update("\0".join([*compiler(), *FLAGS, *LIBS]).encode())
    return SOURCE.parent / "__pycache__" / f"_kernels-{key.hexdigest()[:16]}.so"


def build() -> Path:
    """The built library's path, compiling it first if it is missing.

    A failure is an OSError with a one-line message: no compiler, a
    compile error, or a cache directory that cannot be written.
    """
    path = library_path()
    if path.exists():
        return path
    cc = compiler()
    found = shutil.which(cc[0])
    if found is None:
        raise OSError(f"cannot build {SOURCE.name}: C compiler {cc[0]!r} not found; "
                      "the LSTM needs a C compiler (see README, Install)")
    try:
        path.parent.mkdir(exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=f"{path.stem}-", suffix=".tmp", dir=path.parent)
        os.close(fd)
    except OSError as exc:
        raise OSError(f"cannot build {SOURCE.name} in {path.parent}: {exc}") from exc
    try:
        proc = subprocess.run([found, *cc[1:], *FLAGS, "-o", tmp, str(SOURCE), *LIBS],
                              capture_output=True, text=True)
        if proc.returncode != 0:
            first = (proc.stderr.strip().splitlines() or ["no message"])[0]
            raise OSError(f"cannot build {SOURCE.name}: {cc[0]} exited with "
                          f"{proc.returncode}: {first}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    for stale in path.parent.glob("_kernels-*.so"):
        if stale != path:
            try:
                stale.unlink()
            except FileNotFoundError:  # another build removed it first
                pass
    return path


def load() -> ctypes.CDLL:
    """The compiled library, built first if needed (see ``build``)."""
    return ctypes.CDLL(str(build()))
