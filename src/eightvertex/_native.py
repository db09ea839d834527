"""The compiled step loop of ``mcmc.Chain``: building ``_chain.c`` and binding it.

``mcmc`` imports this module only when it builds a chain.  The first
``load`` in a process compiles ``_chain.c`` with ``BUILD`` into this
package's ``__pycache__``, under a name keyed by the sha256 of the source
and the flags, unless that library is there already.  It compiles to a
temporary file that is then moved into place, so a concurrent build never
loads a half-written library.  A missing compiler, a failed build or an
unwritable cache make ``load`` return None, and chains step in Python.
``load`` runs in the thread that builds the first chain; a lock makes
threads that build their first chains at once wait for one build.

``BUILD`` is ``-O3`` without ``-ffast-math`` and with ``-ffp-contract=off``,
so every float operation rounds as in the Python steps.
"""
from __future__ import annotations

import ctypes
import os
import struct
import sys
import threading
from pathlib import Path

import numpy as np

from .states import CLASS16

SOURCE = Path(__file__).with_name("_chain.c")
BUILD = ("cc", "-O3", "-std=c99", "-ffp-contract=off", "-shared", "-fPIC")
_LIB = None  # the loaded library, or False once it failed
_LOCK = threading.Lock()

int32, pointer = ctypes.c_int32, ctypes.POINTER
# the MT19937 words and index that open struct chain, as getstate()[1] lists them
_MT = struct.Struct("624Ii")


class _State(ctypes.Structure):  # struct chain of _chain.c
    _fields_ = [
        ("mt", ctypes.c_uint32 * 624), ("index", int32), ("started", int32),
        ("nmoves", int32), ("bits", int32), ("nvertices", int32),
        ("classes", int32 * 16), ("counts", int32 * 4), ("weights", ctypes.c_double * 4),
        ("start", pointer(int32)), ("touch", pointer(int32)),
        ("reference", pointer(ctypes.c_uint8)), ("masks", pointer(ctypes.c_uint8)),
        ("words", ctypes.c_uint32 * 624),
    ]


def load():
    """``NativeChain`` where the compiled kernel builds and loads, else None."""
    global _LIB
    with _LOCK:
        if _LIB is None:
            _LIB = _build() or False
    return NativeChain if _LIB else None


def _build():
    # CPython's builtin sha256 where it has one (_sha2 from 3.12, _sha256
    # before), as ``random`` imports its sha512: hashlib loads OpenSSL, which
    # adds 3.6 MB of RSS
    for module in ("_sha2" if sys.version_info >= (3, 12) else "_sha256", "hashlib"):
        try:
            sha256 = __import__(module).sha256
            break
        except ImportError:
            pass
    try:
        key = sha256(SOURCE.read_bytes() + "\0".join(BUILD).encode()).hexdigest()
        library = SOURCE.parent / "__pycache__" / f"_chain.{key[:16]}.so"
        if not library.exists():
            library.parent.mkdir(exist_ok=True)
            temp = f"{library}.{os.getpid()}.{threading.get_ident()}.tmp"
            # posix_spawn rather than subprocess, whose import alone adds 0.4 MB of RSS
            quiet = [(os.POSIX_SPAWN_OPEN, fd, os.devnull, os.O_WRONLY, 0) for fd in (1, 2)]
            try:
                pid = os.posix_spawnp(
                    BUILD[0], [*BUILD, "-o", temp, str(SOURCE)], os.environ, file_actions=quiet
                )
                if os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]):
                    raise OSError(f"{BUILD[0]} failed on {SOURCE.name}")
                os.replace(temp, library)
            except BaseException:
                if os.path.exists(temp):
                    os.unlink(temp)
                raise
        lib = ctypes.CDLL(str(library))
        run, ais = lib.chain_run, lib.chain_ais
    except (OSError, AttributeError):  # AttributeError: no posix_spawnp on this platform
        return None
    # the state goes by address: ctypes caches POINTER(_State) for good, and
    # every fresh import of this module makes a new _State
    # and the arrays of chain_ais by the addresses of their buffers
    i64, address = ctypes.c_int64, ctypes.c_void_p
    run.restype = ais.restype = None
    run.argtypes = (address, i64, i64, pointer(ctypes.c_uint8))
    ais.argtypes = (address, i64, i64, address, i64, address, address)
    return lib


class NativeChain:
    """A chain's masks, counts, class weights and generator in native memory.

    ``masks``, ``counts`` and ``weights`` are ctypes arrays, which the
    kernel reads and steps in place and ``mcmc.Chain`` reads and writes as
    it does its lists.  The move tables are views of the kernel's
    ``move_table``, which no chain writes.  Each method makes exactly one
    kernel call, which runs to its end; ``mcmc.Chain`` decides how much one
    call runs.  The generator's MT19937 state is copied from ``rng`` here,
    once, and the kernel tempers it into its word buffer on its first call;
    ``write_state`` copies the untempered state back.
    """

    def __init__(self, kernel, rng):
        start, entries, reference = kernel.move_table
        n, nmoves = len(reference), len(start) - 1
        state = self._state = _State()
        self._address = ctypes.addressof(state)
        _MT.pack_into(state, 0, *rng.getstate()[1])
        state.nmoves, state.bits, state.nvertices = nmoves, nmoves.bit_length(), n
        state.classes[:] = CLASS16
        # views, not copies: the struct keeps them, and they keep the kernel's arrays
        state.start = (int32 * len(start)).from_buffer(start)
        state.touch = (int32 * len(entries)).from_buffer(entries)
        state.reference = (ctypes.c_uint8 * n).from_buffer(reference)
        state.masks = self.masks = (ctypes.c_uint8 * n).from_buffer_copy(reference)
        self.counts, self.weights = state.counts, state.weights

    def write_state(self, rng):
        """Set ``rng`` to the kernel's point of its stream."""
        version, _, gauss = rng.getstate()
        rng.setstate((version, _MT.unpack_from(self._state), gauss))

    def run(self, blocks: int, thinning: int, record: bool = False) -> bytearray | None:
        """``blocks`` blocks of ``thinning`` steps; with ``record``, the masks after
        each, n bytes a block, in one ``bytearray``."""
        masks = bytearray(blocks * len(self.masks)) if record else None
        buffer = masks if masks is None else (ctypes.c_uint8 * len(masks)).from_buffer(masks)
        _LIB.chain_run(self._address, blocks, thinning, buffer)
        return masks

    def ais(self, ratios, particles: int, thinning: int, log_ratios) -> list[float]:
        """``particles`` particles of ``Chain.ais``; return their log weights.

        ``ratios`` holds each stage's 16 class-weight ratios, the C-contiguous
        float64 array of shape (q, 16) that ``Chain.ais`` divides, and
        ``log_ratios`` the C-contiguous float64 array of shape (q, 4) it checks.
        """
        log_weights = np.zeros(particles)
        _LIB.chain_ais(self._address, particles, len(ratios), ratios.ctypes.data, thinning,
                       log_ratios.ctypes.data, log_weights.ctypes.data)
        return log_weights.tolist()
