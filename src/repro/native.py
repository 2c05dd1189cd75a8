"""Host C toolchain support for the native simulation backends.

The ``backend="native"`` engines (:mod:`repro.gatesim.native`,
:mod:`repro.rtl.native`, :mod:`repro.hls.native`) emit plain C99
source, compile it into a shared object with whatever C compiler the
host offers, and call into it through cffi (ABI mode) when cffi is
importable, or ctypes otherwise.  This module holds everything the
three emitters share:

* **toolchain discovery** -- ``$CC`` first, then ``cc``/``gcc``/
  ``clang`` on ``$PATH``, cached per process;
* **the build-flag policy** (:func:`build_cflags`) -- one decision,
  from how long the program will run;
* **an on-disk shared-object cache** keyed by a digest of (schema
  version, compiler, flags, source), so recompiles survive process
  restarts.  Corrupt or stale artifacts fall back to a recompile, the
  directory is LRU-bounded by mtime, and hit/miss/eviction/error and
  source-byte counters flow into the :mod:`repro.obs` metrics
  registry;
* **builds as child processes** -- :func:`start_build` starts ``cc``
  and returns at once, so a caller can run other work while it
  compiles; :func:`build_shared_object` starts and waits;
* **graceful degradation** -- :func:`resolve_backend` maps ``native``
  to ``compiled`` with a single :class:`NativeFallbackWarning` and a
  ``repro_native_fallback_total`` telemetry increment when no C
  compiler is present, so CI and bare environments keep working.

Nothing here imports numpy or the simulators; it is a leaf module.
"""

from __future__ import annotations

import ctypes
import errno
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
    "NATIVE_SCHEMA_VERSION", "NativeFallbackWarning", "NativeModule",
    "NativeToolchainError", "BREAK_EVEN_CYCLES", "build_cflags",
    "build_shared_object", "compile_and_load", "find_compiler",
    "native_cache_dir", "resolve_backend", "toolchain_available",
    "toolchain_info", "Build", "start_build",
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


#: run length (clock cycles) below which ``-O2`` never pays back its
#: build, so :func:`build_cflags` picks ``-O0``.  Both sides of the
#: trade scale with source size -- ``cc`` time, and the time one step
#: saves -- so the threshold is a cycle count on its own.  Measured on
#: a 2-CPU x86_64 host with gcc, on a ~260 KB FI overlay and the
#: 253 KB Gate-RTL netlist: ``cc`` takes 0.6-1.0 s at ``-O0`` and
#: 3.6-5.2 s at ``-O2``; one 64-pattern step takes 13-19 us at ``-O0``
#: and 4.5-9.3 us at ``-O2``.  ``-O2`` therefore repays its extra
#: 2.6-4.6 s of build after roughly 0.3-0.8 M cycles; the threshold
#: sits at the low end, so a run that might repay ``-O2`` still gets
#: it.  FI overlays run 607-36,355 cycles.
BREAK_EVEN_CYCLES = 300_000


def build_cflags(run_cycles: Optional[int] = None) -> List[str]:
    """The compiler flags of one build: the one flag policy.

    ``$REPRO_NATIVE_CFLAGS`` wins unconditionally.  Otherwise a caller
    that knows its program runs fewer than :data:`BREAK_EVEN_CYCLES`
    cycles gets ``-O0``, and every other build ``-O2``.
    """
    env = os.environ.get(ENV_CFLAGS, "").strip()
    if env:
        return env.split()
    if run_cycles is not None and run_cycles < BREAK_EVEN_CYCLES:
        return ["-O0"]
    return ["-O2"]


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
        cflags += (f"; {' '.join(build_cflags(0))} for runs under "
                   f"{BREAK_EVEN_CYCLES} cycles")
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
    """One ``.so`` build: a disk hit, done at once, or a ``cc`` child.

    :func:`start_build` makes it; :meth:`wait` finishes it and returns
    the artifact path.  :meth:`reap` waits for the child without
    raising, so a caller can take the child's exit off its critical
    path and leave a failure for the :meth:`wait` that needs the
    artifact.  Reaping installs the artifact, adds the child's CPU
    seconds to ``repro_native_build_seconds_total{cflags=...}`` and
    records a ``native.cc`` span from start to reap under the span open
    at that moment.  :meth:`cancel` stops a child that still runs.
    """

    def __init__(self, path: str):
        self.path = path
        self.pid = os.getpid()
        #: CPU seconds of the ``cc`` child and what it ran, once reaped
        self.cpu_s = 0.0
        self.error: Optional[NativeToolchainError] = None
        self._proc: Optional[subprocess.Popen] = None
        self._tmp_c = f"{path[:-3]}.{self.pid}.tmp.c"
        self._tmp_so = f"{path}.{self.pid}.tmp"

    def _launch(self, compiler: str, cflags: Sequence[str], tag: str,
                source: str) -> None:
        """Write *source* to a temporary file and start ``cc`` on it."""
        self._compiler = compiler
        self._span = dict(tag=tag, cflags=" ".join(cflags),
                          source_bytes=len(source))
        with open(self._tmp_c, "w") as fh:
            fh.write(source)
        # a file, not a pipe: a child that fills a pipe nobody reads
        # yet would stall
        self._log = tempfile.TemporaryFile("w+")
        self._t0_wall = time.time()
        try:
            self._proc = subprocess.Popen(
                [compiler, *cflags, "-shared", "-fPIC", "-o", self._tmp_so,
                 self._tmp_c], stdin=subprocess.DEVNULL, stdout=self._log,
                stderr=subprocess.STDOUT)
        except OSError as exc:
            self._log.close()
            os.unlink(self._tmp_c)
            raise NativeToolchainError(f"failed to run {compiler}: {exc}")

    def reap(self) -> None:
        """Wait for the child to exit and install its artifact; a
        failure is kept for :meth:`wait` to raise.  An interrupt while
        waiting cancels the build."""
        proc = self._proc
        if proc is None:
            return
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            self.cancel()
            raise
        self._proc = None
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.cpu_s = usage.ru_utime + usage.ru_stime
        _count("repro_native_build_seconds_total",
               "CPU seconds of the C compiler, by the flags it used",
               by=self.cpu_s, cflags=self._span["cflags"])
        from .obs.trace import record_span
        record_span("native.cc", self._t0_wall, time.time(),
                    cpu_s=round(self.cpu_s, 6), **self._span)
        self._log.seek(0)
        output = self._log.read()
        self._log.close()
        if proc.returncode != 0:
            _unlink_quietly(self._tmp_c, self._tmp_so)
            _count("repro_native_disk_cache_errors_total",
                   "native toolchain compile/load failures")
            self.error = NativeToolchainError(
                f"{self._compiler} failed ({proc.returncode}):\n"
                f"{output[:2000]}")
            return
        try:
            os.replace(self._tmp_c, self.path[:-3] + ".c")
            os.replace(self._tmp_so, self.path)
        except OSError as exc:
            _unlink_quietly(self._tmp_c, self._tmp_so)
            self.error = NativeToolchainError(
                f"could not install {self.path}: {exc}")
            return
        _evict_lru(os.path.dirname(self.path), _cache_max_entries())

    def wait(self) -> str:
        """The artifact path, once built; raises a failed build's
        :class:`NativeToolchainError`."""
        if _STARTED.get(self.path) is self:
            del _STARTED[self.path]
        self.reap()
        if self.error is not None:
            raise self.error
        return self.path

    def cancel(self) -> None:
        """Kill and reap a child that still runs, remove its temporary
        files, and forget the build: the next :func:`start_build` of
        its source starts afresh or finds the artifact on disk."""
        if _STARTED.get(self.path) is self:
            del _STARTED[self.path]
        proc = self._proc
        if proc is None:
            return
        self._proc = None
        proc.kill()
        proc.wait()
        self._log.close()
        _unlink_quietly(self._tmp_c, self._tmp_so)
        self.error = NativeToolchainError(f"build of {self.path} cancelled")


#: builds this process started and no :meth:`Build.wait` took up yet,
#: by artifact path
_STARTED: Dict[str, Build] = {}


def start_build(source: str, tag: str = "mod",
                cflags: Optional[Sequence[str]] = None) -> Build:
    """Start compiling *source* to a cached ``.so``; see :class:`Build`.

    *cflags* defaults to :func:`build_cflags` with no run length.  A
    build of the same artifact that this process started and nothing
    waited for yet is returned as is.  Cache hits are recognised by
    digest-addressed filenames and only touch the mtime (the LRU
    clock).  ``cc`` runs as a child process writing temporary files
    that :meth:`Build.reap` renames into place (``os.replace``), so
    concurrent processes can share the directory.
    """
    compiler = find_compiler()
    if compiler is None:
        raise NativeToolchainError(
            "no C compiler found (tried $CC, cc, gcc, clang)")
    if cflags is None:
        cflags = build_cflags()
    directory = native_cache_dir()
    digest = source_digest(source, cflags)
    so_path = os.path.join(directory, f"{tag}-{digest}.so")
    started = _STARTED.get(so_path)
    if started is not None and started.pid == os.getpid():
        return started
    if os.path.exists(so_path):
        _count("repro_native_disk_cache_hits_total",
               "native .so artifacts reused from the on-disk cache")
        try:
            os.utime(so_path)
        except OSError:
            pass
        return Build(so_path)
    _count("repro_native_disk_cache_misses_total",
           "native .so artifacts compiled from source")
    flags = " ".join(cflags)
    _count("repro_native_builds_total",
           "native .so artifacts compiled, by the flags they used",
           cflags=flags)
    _count("repro_native_source_bytes_total",
           "C source bytes fed to the native toolchain", by=len(source))
    build = Build(so_path)
    build._launch(compiler, cflags, tag, source)
    _STARTED[so_path] = build
    return build


def build_shared_object(source: str, tag: str = "mod",
                        cflags: Optional[Sequence[str]] = None) -> str:
    """Compile *source* to a cached ``.so``; return its path: the
    :func:`start_build` of it, waited for."""
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
    ``u64_arg`` passes a Python int sequence as a pointer argument.
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


def compile_and_load(source: str, cdef: str, tag: str = "mod",
                     run_cycles: Optional[int] = None) -> NativeModule:
    """Build (or reuse) the ``.so`` for *source* and load it.

    *run_cycles* is how long the caller will run the program, when it
    knows; :func:`build_cflags` turns it into the build flags.

    A corrupt or stale on-disk artifact -- truncated file, ABI drift
    that slipped past the digest -- is deleted and rebuilt once rather
    than crashing; two consecutive failures raise
    :class:`NativeToolchainError`.  An artifact that vanished before
    it was loaded was evicted by a process sharing the cache: it is
    rebuilt, and neither counted nor held against the load.
    """
    cflags = build_cflags(run_cycles)
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
