"""Host C toolchain support for the native simulation backends.

The ``backend="native"`` engines (:mod:`repro.gatesim.native`,
:mod:`repro.rtl.native`, :mod:`repro.hls.native`) emit plain C99
source, compile it into a shared object with whatever C compiler the
host offers, and call into it through cffi (ABI mode) when cffi is
importable, or ctypes otherwise.  This module holds everything the
three emitters share:

* **toolchain discovery** -- ``$CC`` first, then ``cc``/``gcc``/
  ``clang`` on ``$PATH``, cached per process;
* **the build-flag policy** (:func:`build_cflags`) -- one set of
  flags for every build;
* **an on-disk shared-object cache** keyed by a digest of (schema
  version, compiler, flags, source), so recompiles survive process
  restarts.  Corrupt or stale artifacts fall back to a recompile, the
  directory is LRU-bounded by mtime, and hit/miss/eviction/error and
  source-byte counters flow into the :mod:`repro.obs` metrics
  registry;
* **builds in two halves** -- :func:`start_build` starts ``cc`` as a
  child and returns at once, so a caller can run other work while it
  compiles, and :meth:`Build.wait` reaps and installs it;
  :func:`build_shared_object` is the two back to back;
* **graceful degradation** -- :func:`resolve_backend` maps ``native``
  to ``compiled`` with a single :class:`NativeFallbackWarning` and a
  ``repro_native_fallback_total`` telemetry increment when no C
  compiler is present, so CI and bare environments keep working;
* **one buffer surface for both kernel languages** -- a loaded shared
  object (:class:`NativeModule`) and a kernel printed as Python
  (:class:`PythonKernel`, the compiled engines') offer the same
  buffers, views and argument packing, so each level has one host
  for both.

Nothing here imports numpy or the simulators; it is a leaf module.
"""

from __future__ import annotations

import ctypes
import errno
import functools
import hashlib
import os
import re
import shutil
import subprocess
import tempfile
import time
import warnings
from array import array
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "NATIVE_SCHEMA_VERSION", "Build", "NativeFallbackWarning",
    "NativeModule", "NativeToolchainError", "PythonKernel", "build_cflags",
    "build_shared_object", "compile_and_load", "find_compiler",
    "native_cache_dir", "resolve_backend", "start_build",
    "toolchain_available", "toolchain_info",
]

#: bump to invalidate every on-disk artifact (ABI or codegen changes)
NATIVE_SCHEMA_VERSION = 1

#: candidate compiler names probed on $PATH, in order
_COMPILER_CANDIDATES = ("cc", "gcc", "clang")

#: environment knobs
ENV_CC = "CC"
ENV_CACHE_DIR = "REPRO_NATIVE_CACHE_DIR"
ENV_CACHE_MAX = "REPRO_NATIVE_CACHE_MAX"
ENV_CFLAGS = "REPRO_NATIVE_CFLAGS"


class NativeToolchainError(RuntimeError):
    """No usable C toolchain, or a compile/load step failed twice."""


class NativeFallbackWarning(UserWarning):
    """``backend="native"`` silently degraded to ``compiled``."""


# ----------------------------------------------------------------------
# toolchain discovery
# ----------------------------------------------------------------------
#: (probed, compiler-or-None) -- cached per process
_COMPILER: List[Optional[str]] = [None]
_PROBED: List[bool] = [False]


def find_compiler() -> Optional[str]:
    """Absolute path of the host C compiler, or ``None``.

    ``$CC`` wins when set and resolvable; otherwise the first of
    ``cc``/``gcc``/``clang`` found on ``$PATH``.  The probe result is
    cached; tests reset it via :func:`_reset_toolchain_cache`.
    """
    if _PROBED[0]:
        return _COMPILER[0]
    found: Optional[str] = None
    env_cc = os.environ.get(ENV_CC, "").strip()
    if env_cc:
        found = shutil.which(env_cc)
    if found is None:
        for name in _COMPILER_CANDIDATES:
            found = shutil.which(name)
            if found:
                break
    _COMPILER[0] = found
    _PROBED[0] = True
    return found


def _reset_toolchain_cache() -> None:
    """Forget the cached compiler probe (test hook)."""
    _COMPILER[0] = None
    _PROBED[0] = False
    _WARNED_FALLBACK[0] = False


def toolchain_available() -> bool:
    """True when a C compiler was found on this host."""
    return find_compiler() is not None


def _loader_kind() -> str:
    try:
        import cffi  # noqa: F401
        return "cffi"
    except ImportError:
        return "ctypes"


def build_cflags() -> List[str]:
    """The compiler flags of every build: ``$REPRO_NATIVE_CFLAGS`` when
    set, else ``-O1``, which compiles every kernel in ~60-85% of
    ``-O2``'s CPU time; its kernels step within a few percent of
    ``-O2``'s, less than any benchmark workload resolves."""
    env = os.environ.get(ENV_CFLAGS, "").strip()
    return env.split() if env else ["-O1"]


def toolchain_info() -> Dict[str, object]:
    """One-line description of the toolchain (CLI / artifact metadata).

    ``cflags`` states the :func:`build_cflags` policy every build
    follows; each build is counted under the flags it used in
    ``repro_native_builds_total{cflags=...}``.
    """
    cflags = " ".join(build_cflags())
    if os.environ.get(ENV_CFLAGS, "").strip():
        cflags += f" (${ENV_CFLAGS}, every build)"
    else:
        cflags += " (every build)"
    return {
        "available": toolchain_available(),
        "compiler": find_compiler(),
        "loader": _loader_kind(),
        "cflags": cflags,
        "schema_version": NATIVE_SCHEMA_VERSION,
    }


# ----------------------------------------------------------------------
# graceful degradation
# ----------------------------------------------------------------------
_WARNED_FALLBACK: List[bool] = [False]


def _count(name: str, help_text: str = "", by: float = 1,
           **labels) -> None:
    try:
        from .obs.metrics import REGISTRY
    except ImportError:  # pragma: no cover - leaf-safety guard
        return
    REGISTRY.counter(name, help=help_text, **labels).inc(by)


def resolve_backend(backend: str) -> str:
    """Map an engine that needs a C toolchain to its fallback engine
    (``native`` to ``compiled``, per :data:`repro.engines.ENGINES`) when
    no C toolchain is present.

    Emits one :class:`NativeFallbackWarning` per process and counts the
    degradation in ``repro_native_fallback_total`` so dashboards see
    hosts that silently lost the native tier.  Every other backend name
    passes through unchanged.
    """
    from .engines import ENGINES

    engine = ENGINES.get(backend)
    if engine is None or engine.fallback is None or toolchain_available():
        return backend
    _count("repro_native_fallback_total",
           "native backend degraded to compiled (no C toolchain)")
    if not _WARNED_FALLBACK[0]:
        _WARNED_FALLBACK[0] = True
        warnings.warn(
            "no C compiler found (tried $CC, cc, gcc, clang): "
            f"backend=\"{backend}\" falling back to \"{engine.fallback}\"",
            NativeFallbackWarning, stacklevel=2)
    return engine.fallback


# ----------------------------------------------------------------------
# on-disk shared-object cache
# ----------------------------------------------------------------------
def native_cache_dir() -> str:
    """The shared-object cache directory (created on demand).

    ``$REPRO_NATIVE_CACHE_DIR`` wins; the default lives under
    ``~/.cache/repro/native`` with a per-user tempdir fallback for
    homeless environments.
    """
    path = os.environ.get(ENV_CACHE_DIR, "").strip()
    if not path:
        path = os.path.join(os.path.expanduser("~"), ".cache", "repro",
                            "native")
    try:
        os.makedirs(path, exist_ok=True)
    except OSError:
        path = os.path.join(tempfile.gettempdir(),
                            f"repro-native-{os.getuid()}")
        os.makedirs(path, exist_ok=True)
    return path


def _cache_max_entries() -> int:
    try:
        return max(1, int(os.environ.get(ENV_CACHE_MAX, "64")))
    except ValueError:
        return 64


def source_digest(source: str,
                  cflags: Optional[Sequence[str]] = None) -> str:
    """Digest identifying one artifact: schema + toolchain + source."""
    if cflags is None:
        cflags = build_cflags()
    compiler = find_compiler() or "none"
    h = hashlib.sha256()
    h.update(f"v{NATIVE_SCHEMA_VERSION}|{compiler}|"
             f"{' '.join(cflags)}|".encode())
    h.update(source.encode())
    return h.hexdigest()[:40]


def _evict_lru(directory: str, keep: int) -> None:
    try:
        entries = [(os.path.getmtime(os.path.join(directory, f)),
                    os.path.join(directory, f))
                   for f in os.listdir(directory) if f.endswith(".so")]
    except OSError:
        return
    entries.sort()
    for _, path in entries[:max(0, len(entries) - keep)]:
        for victim in (path, path[:-3] + ".c"):
            try:
                os.unlink(victim)
            except OSError:
                pass
        _count("repro_native_disk_cache_evictions_total",
               "native .so artifacts evicted (LRU by mtime)")


def _unlink_quietly(*paths: str) -> None:
    for path in paths:
        try:
            os.unlink(path)
        except OSError:
            pass


class Build:
    """One ``.so`` build that :func:`start_build` started: a disk hit,
    finished at once, or a ``cc`` child that runs until :meth:`wait`.

    :meth:`wait` reaps the child (``os.wait4``, for its CPU seconds) and
    installs the artifact; :meth:`cancel` kills and reaps a child that
    still runs and removes its temporary files.  The caller holds the
    handle: nothing else keeps a started build.
    """

    def __init__(self, path: str):
        self.path = path
        #: the ``cc`` child's CPU seconds, once reaped (0 for a hit)
        self.cpu_s = 0.0
        self._proc: Optional[subprocess.Popen] = None
        self._error: Optional[NativeToolchainError] = None

    def _start(self, compiler: str, cflags: Sequence[str], tag: str,
               source: str) -> None:
        """Write *source* to a temporary file and start ``cc`` on it; a
        ``cc`` that cannot run fails at :meth:`wait`."""
        pid = os.getpid()
        self._tmp = (f"{self.path[:-3]}.{pid}.tmp.c", f"{self.path}.{pid}.tmp")
        self._compiler = compiler
        self._attrs = dict(tag=tag, cflags=" ".join(cflags),
                           source_bytes=len(source))
        with open(self._tmp[0], "w") as fh:
            fh.write(source)
        # a file, not a pipe: a child that fills a pipe nobody reads yet
        # would stall
        self._log = tempfile.TemporaryFile("w+")
        self._t0_wall = time.time()
        try:
            self._proc = subprocess.Popen(
                [compiler, *cflags, "-shared", "-fPIC", "-o", self._tmp[1],
                 self._tmp[0]], stdin=subprocess.DEVNULL, stdout=self._log,
                stderr=subprocess.STDOUT)
        except OSError as exc:
            self._discard()
            self._error = NativeToolchainError(
                f"failed to run {compiler}: {exc}")

    def wait(self) -> str:
        """The artifact's path, once the child is reaped and the artifact
        installed; raises :class:`NativeToolchainError` for a failed
        build.  The ``native.cc`` span, from start to reap, lands under
        the span open here.  An interrupt while waiting cancels."""
        proc = self._proc
        if proc is not None:
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                self.cancel()
                raise
            self._proc = None
            proc.returncode = os.waitstatus_to_exitcode(status)
            self._install(proc.returncode, usage.ru_utime + usage.ru_stime)
        if self._error is not None:
            raise self._error
        return self.path

    def _install(self, returncode: int, cpu_s: float) -> None:
        self.cpu_s = cpu_s
        _count("repro_native_build_seconds_total",
               "CPU seconds of the C compiler, by the flags it used",
               by=cpu_s, cflags=self._attrs["cflags"])
        from .obs.trace import record_span
        record_span("native.cc", self._t0_wall, time.time(),
                    cpu_s=round(cpu_s, 6), **self._attrs)
        self._log.seek(0)
        output = self._log.read()
        self._log.close()
        if returncode != 0:
            _unlink_quietly(*self._tmp)
            _count("repro_native_disk_cache_errors_total",
                   "native toolchain compile/load failures")
            self._error = NativeToolchainError(
                f"{self._compiler} failed ({returncode}):\n{output[:2000]}")
            return
        try:
            os.replace(self._tmp[0], self.path[:-3] + ".c")
            os.replace(self._tmp[1], self.path)
        except OSError as exc:
            _unlink_quietly(*self._tmp)
            self._error = NativeToolchainError(
                f"could not install {self.path}: {exc}")
            return
        _evict_lru(os.path.dirname(self.path), _cache_max_entries())

    def cancel(self) -> None:
        """Kill and reap a child that still runs and remove its
        temporary files; nothing once :meth:`wait` reaped it."""
        proc, self._proc = self._proc, None
        if proc is None:
            return
        proc.kill()
        proc.wait()
        self._discard()

    def _discard(self) -> None:
        self._log.close()
        _unlink_quietly(*self._tmp)


def start_build(source: str, tag: str = "mod",
                cflags: Optional[Sequence[str]] = None) -> Build:
    """Start compiling *source* to a cached ``.so``; see :class:`Build`.

    *cflags* defaults to :func:`build_cflags`.  Cache hits are
    recognised by digest-addressed filenames and only touch the mtime
    (the LRU clock).  A miss starts ``cc`` as a child writing temporary
    files, which :meth:`Build.wait` renames into place (``os.replace``),
    so concurrent processes can share the directory.
    """
    compiler = find_compiler()
    if compiler is None:
        raise NativeToolchainError(
            "no C compiler found (tried $CC, cc, gcc, clang)")
    if cflags is None:
        cflags = build_cflags()
    build = Build(os.path.join(
        native_cache_dir(), f"{tag}-{source_digest(source, cflags)}.so"))
    if os.path.exists(build.path):
        _count("repro_native_disk_cache_hits_total",
               "native .so artifacts reused from the on-disk cache")
        try:
            os.utime(build.path)
        except OSError:
            pass
        return build
    _count("repro_native_disk_cache_misses_total",
           "native .so artifacts compiled from source")
    _count("repro_native_builds_total",
           "native .so artifacts compiled, by the flags they used",
           cflags=" ".join(cflags))
    _count("repro_native_source_bytes_total",
           "C source bytes fed to the native toolchain", by=len(source))
    build._start(compiler, cflags, tag, source)
    return build


def build_shared_object(source: str, tag: str = "mod",
                        cflags: Optional[Sequence[str]] = None) -> str:
    """Compile *source* to a cached ``.so``; return its path: the
    :func:`start_build` of it, waited for.  ``cc`` is recorded as a
    ``native.cc`` span that carries its CPU seconds as ``cpu_s``, which
    also add to ``repro_native_build_seconds_total{cflags=...}``."""
    return start_build(source, tag=tag, cflags=cflags).wait()


# ----------------------------------------------------------------------
# loading
# ----------------------------------------------------------------------
_DECL_RE = re.compile(
    r"^\s*(?P<ret>[A-Za-z_][A-Za-z0-9_ ]*?)\s*\*?\s*"
    r"(?P<name>[A-Za-z_][A-Za-z0-9_]*)\s*\((?P<args>[^)]*)\)\s*;\s*$")

_CTYPES_MAP = {
    "void": None,
    "int": ctypes.c_int,
    "long": ctypes.c_long,
    "int64_t": ctypes.c_int64,
    "uint64_t": ctypes.c_uint64,
    "int64_t*": ctypes.POINTER(ctypes.c_int64),
    "uint64_t*": ctypes.POINTER(ctypes.c_uint64),
    "int32_t*": ctypes.POINTER(ctypes.c_int32),
    "uint8_t*": ctypes.POINTER(ctypes.c_uint8),
    "long*": ctypes.POINTER(ctypes.c_long),
}


def _parse_cdef(cdef: str) -> Dict[str, Tuple[object, List[object]]]:
    """``cdef`` text -> {name: (restype, argtypes)} for ctypes."""
    table: Dict[str, Tuple[object, List[object]]] = {}
    for line in cdef.splitlines():
        line = line.strip()
        if not line or line.startswith("//"):
            continue
        m = _DECL_RE.match(line)
        if m is None:
            raise NativeToolchainError(f"unparsable cdef line: {line!r}")
        args: List[object] = []
        arg_text = m.group("args").strip()
        if arg_text and arg_text != "void":
            for piece in arg_text.split(","):
                toks = piece.replace("*", " * ").split()
                base = toks[0]
                if "*" in toks:
                    base += "*"
                ctype = _CTYPES_MAP.get(base)
                if ctype is None:
                    raise NativeToolchainError(
                        f"unsupported cdef arg type {piece.strip()!r}")
                args.append(ctype)
        ret = m.group("ret").strip()
        table[m.group("name")] = (_CTYPES_MAP.get(ret), args)
    return table


class NativeModule:
    """A loaded shared object behind a loader-neutral facade.

    ``fn(name)`` returns the exported function; ``u64_buffer``
    allocates an indexable machine array the functions accept as a
    pointer argument, ``u64_view`` aliases one as a memoryview, and
    ``u64_arg`` passes a Python int sequence as a pointer argument;
    ``u8_buffer`` / ``u8_bytes`` are a byte array and its contents.
    Works identically over cffi ABI mode and ctypes so the simulators
    never branch on the loader.
    """

    def __init__(self, path: str, cdef: str):
        self.path = path
        self.loader = _loader_kind()
        if self.loader == "cffi":
            import cffi
            self._ffi = cffi.FFI()
            self._ffi.cdef(cdef)
            self._lib = self._ffi.dlopen(path)
        else:
            self._ffi = None
            self._lib = ctypes.CDLL(path)
            for name, (restype, argtypes) in _parse_cdef(cdef).items():
                f = getattr(self._lib, name)
                f.restype = restype
                f.argtypes = argtypes

    def fn(self, name: str):
        return getattr(self._lib, name)

    def u64_buffer(self, init) -> object:
        """A uint64 array: pass an int length or an initial sequence."""
        values = None if isinstance(init, int) else list(init)
        n = max(1, init if values is None else len(values))
        if self._ffi is not None:
            buf = self._ffi.new("uint64_t[]", n)
        else:
            buf = (ctypes.c_uint64 * n)()
        if values:
            self.u64_view(buf)[:len(values)] = array(
                "Q", [v & 0xFFFFFFFFFFFFFFFF for v in values])
        return buf

    def u64_view(self, buf) -> memoryview:
        """A fast writable integer view aliasing a ``u64_buffer``.

        Element access on raw cffi/ctypes arrays goes through the FFI
        layer (~4x a dict access); a flat memoryview over the same
        storage indexes at plain-buffer speed and takes slice
        assignment from an ``array('Q')``.  Use the view for
        Python-side reads/pokes and keep passing the original buffer
        to the native functions.
        """
        if self._ffi is not None:
            return memoryview(self._ffi.buffer(buf)).cast("Q")
        # ctypes exports '<Q', which memoryviews cannot index: recast
        return memoryview(buf).cast("B").cast("Q")

    def u64_arg(self, values: Sequence[int]) -> object:
        """*values* as a ``uint64_t*`` argument, in one bulk copy.

        Raises :class:`OverflowError` when a value lies outside
        ``[0, 2**64)``; the caller masks and retries.  The returned
        object keeps the copy alive for the duration of the call.
        """
        words = array("Q", values)
        if self._ffi is not None:
            return self._ffi.from_buffer("uint64_t[]", words)
        return (ctypes.c_uint64 * len(words)).from_buffer(words)

    def i32_arg(self, values: Sequence[int]) -> object:
        """*values* as an ``int32_t*`` argument (a copy it keeps alive)."""
        words = array("i", values)
        if self._ffi is not None:
            return self._ffi.from_buffer("int32_t[]", words)
        return (ctypes.c_int32 * len(words)).from_buffer(words)

    def u8_buffer(self, n: int) -> object:
        """A zeroed ``uint8_t`` array of *n* entries (at least one)."""
        if self._ffi is not None:
            return self._ffi.new("uint8_t[]", max(1, n))
        return (ctypes.c_uint8 * max(1, n))()

    def u8_bytes(self, buf) -> bytes:
        """The contents of a :meth:`u8_buffer`."""
        if self._ffi is not None:
            return self._ffi.buffer(buf)[:]
        return bytes(buf)

    #: ``u64_words(values)``: *values* as what a view's slice takes,
    #: raising :class:`OverflowError` outside ``[0, 2**64)``
    u64_words = functools.partial(array, "Q")

    #: the mask of one stored value
    u64_mask = (1 << 64) - 1

    @staticmethod
    def u64_lanes(view: memoryview, first: int, stride: int) -> memoryview:
        """Every *stride*-th word of *view* from *first*, as a view: one
        name's lanes in a pattern-major array."""
        return view[first::stride]


class _ListLanes:
    """Every *stride*-th entry of a list from *first*, written through
    to the list like the strided memoryview slice
    :meth:`NativeModule.u64_lanes` returns: ``lanes[:] = values`` and
    ``tolist()``.  Like a C buffer, the lanes refuse a negative word
    with :class:`OverflowError` (the caller masks and retries)."""

    __slots__ = ("_buf", "_every")

    def __init__(self, buf: list, first: int, stride: int):
        self._buf = buf
        self._every = slice(first, None, stride)

    def __setitem__(self, every: slice, values) -> None:
        if min(values) < 0:
            raise OverflowError("negative value for an unsigned word")
        self._buf[self._every] = values

    def tolist(self) -> list:
        return self._buf[self._every]


class PythonKernel:
    """A kernel printed as Python, loaded with ``compile()``/``exec``
    behind :class:`NativeModule`'s buffer surface.

    Lists stand in for the ``uint64_t`` buffers: a list is its own
    view and its own argument, and holds ints of any width, so the
    engines built on this surface have no word-width limit.
    *namespace* seeds the kernel's globals.
    """

    def __init__(self, source: str, filename: str,
                 namespace: Optional[Dict[str, object]] = None):
        self._namespace: Dict[str, object] = dict(namespace or {})
        exec(compile(source, filename, "exec"), self._namespace)

    def fn(self, name: str):
        return self._namespace[name]

    @staticmethod
    def u64_buffer(init) -> list:
        return [0] * init if isinstance(init, int) else list(init)

    @staticmethod
    def u64_view(buf: list) -> list:
        return buf

    @staticmethod
    def u64_arg(values: Sequence[int]) -> Sequence[int]:
        return values

    i32_arg = u64_arg

    #: *values* as a list, which a list's slice takes (its lanes
    #: refuse a negative value when it is stored)
    u64_words = list

    #: masking with -1 keeps every bit: a list holds any int
    u64_mask = -1

    u64_lanes = _ListLanes

    #: a bytearray is its own byte buffer
    u8_buffer = bytearray
    u8_bytes = bytes


def compile_and_load(source: str, cdef: str,
                     tag: str = "mod") -> NativeModule:
    """Build (or reuse) the ``.so`` for *source* and load it.

    A corrupt or stale on-disk artifact -- truncated file, ABI drift
    that slipped past the digest -- is deleted and rebuilt once rather
    than crashing; two consecutive failures raise
    :class:`NativeToolchainError`.  An artifact that vanished before
    it was loaded was evicted by a process sharing the cache: it is
    rebuilt, and neither counted nor held against the load.
    """
    cflags = build_cflags()
    last_error: Optional[Exception] = None
    failures = 0
    while failures < 2:
        so_path = build_shared_object(source, tag=tag, cflags=cflags)
        try:
            return NativeModule(so_path, cdef)
        except NativeToolchainError:
            raise
        except Exception as exc:  # OSError from dlopen, cffi errors
            if os.strerror(errno.ENOENT) in str(exc):
                continue  # a peer's LRU eviction won the race
            failures += 1
            last_error = exc
            _count("repro_native_disk_cache_errors_total",
                   "native toolchain compile/load failures")
            try:
                os.unlink(so_path)
            except OSError:
                pass
    raise NativeToolchainError(
        f"could not load native module after rebuild: {last_error}")
