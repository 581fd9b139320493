"""File-backed column storage behind the shm descriptor seam.

The shared-memory layer in :mod:`repro.parallel.shm` ships factory and
affinity arrays by ``(segment, shape, dtype, offset)`` descriptor.  This
module supplies the second storage backend those descriptors can point at:
memory-mapped files in a per-registry *spool directory*, so catalogues that
exceed ``/dev/shm`` (or RAM) can live on disk and let the OS page cache be
the memory hierarchy.  Workers attach a spool file exactly as they attach a
shared-memory segment — one read-only mapping per file, numpy views at
descriptor offsets — and the same POSIX rule applies to both: unlinking the
backing object invalidates *new* attaches while existing mappings keep
reading the old bytes, which is what lets epoch swaps retire storage while
in-flight shards drain.

Two objects mirror the ``multiprocessing.shared_memory`` API surface the
registry already speaks:

* :class:`MappedFileSegment` — one mapped spool file with ``.name`` (the
  absolute path), ``.buf`` (a writable or read-only memoryview), ``.size``,
  ``.close()`` (raises :class:`BufferError` while numpy views are alive,
  like ``mmap``/shm) and ``.unlink()`` (raises :class:`FileNotFoundError`
  when already gone, like shm).
* :class:`SpoolDirectory` — a private ``mkdtemp`` directory that mints
  uniquely-named segment files (names are never recycled within a process)
  and removes itself on close or garbage collection.

Spool-file names are absolute paths and therefore can never collide with
POSIX shm names (which contain no separator); the ``storage`` field on each
descriptor is still the authoritative discriminator.

The storage axis is selected by name — :data:`STORAGE_SHM` (default) or
:data:`STORAGE_MMAP` — validated through :func:`validate_storage_name`, the
single choice point mirroring ``resilience.validate_executor_name``.
"""

from __future__ import annotations

import mmap
import os
import shutil
import tempfile
import threading
import weakref

#: Storage backend names accepted everywhere a ``storage=`` knob exists.
STORAGE_SHM = "shm"
STORAGE_MMAP = "mmap"
VALID_STORAGES = (STORAGE_SHM, STORAGE_MMAP)

#: Optional override for where spool directories are created (defaults to
#: the system temporary directory).
SPOOL_DIR_ENV = "REPRO_SPOOL_DIR"

#: Optional process-wide /dev/shm budget in bytes: an ``storage="shm"``
#: registry whose projected export would push its live shm bytes past this
#: budget spills that export to a spool file instead.
SHM_BUDGET_ENV = "REPRO_SHM_BUDGET_BYTES"

#: Prefix of every spool directory this module creates; the CI orphan sweep
#: greps for it the same way it greps /dev/shm for ``psm_``.
SPOOL_PREFIX = "repro-spool-"


def validate_storage_name(storage: str) -> str:
    """Validate a storage backend name, returning it unchanged.

    The single choice point for the ``storage=`` axis, mirroring
    ``resilience.validate_executor_name`` for ``executor=``.
    """
    if storage not in VALID_STORAGES:
        valid = ", ".join(repr(name) for name in VALID_STORAGES)
        raise ValueError(f"unknown storage {storage!r}: valid backends are {valid}")
    return storage


def default_shm_budget_bytes() -> int | None:
    """The /dev/shm spill budget from ``REPRO_SHM_BUDGET_BYTES``, if set."""
    text = os.environ.get(SHM_BUDGET_ENV, "").strip()
    if not text:
        return None
    try:
        budget = int(text)
    except ValueError as error:
        raise ValueError(
            f"{SHM_BUDGET_ENV} must be an integer byte count, got {text!r}"
        ) from error
    if budget < 0:
        raise ValueError(f"{SHM_BUDGET_ENV} must be non-negative, got {budget}")
    return budget


class MappedFileSegment:
    """One memory-mapped spool file with the shm segment API surface.

    ``create=True`` creates the file (exclusively — spool names are never
    reused) and maps it writable; otherwise an existing file is mapped
    read-only, which is the worker-side attach path.  The mapping stays
    valid after ``unlink()`` until ``close()``, exactly like a shared-memory
    segment.
    """

    def __init__(self, name: str, create: bool = False, size: int = 0) -> None:
        self.name = name
        self._closed = False
        if create:
            if size <= 0:
                raise ValueError(f"spool segment size must be positive, got {size}")
            fd = os.open(name, os.O_CREAT | os.O_EXCL | os.O_RDWR, 0o600)
            try:
                os.ftruncate(fd, size)
                self._mmap = mmap.mmap(fd, size)
            finally:
                os.close(fd)
            self.size = size
        else:
            fd = os.open(name, os.O_RDONLY)
            try:
                self.size = os.fstat(fd).st_size
                if self.size <= 0:
                    raise ValueError(f"cannot map empty spool file {name!r}")
                self._mmap = mmap.mmap(fd, self.size, access=mmap.ACCESS_READ)
            finally:
                os.close(fd)
        self.buf: memoryview = memoryview(self._mmap)

    def close(self) -> None:
        """Release the mapping; raises ``BufferError`` while views are alive."""
        if self._closed:
            return
        self.buf.release()
        self._mmap.close()
        self._closed = True

    def unlink(self) -> None:
        """Delete the backing file; existing mappings keep their bytes."""
        os.unlink(self.name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r}, size={self.size})"


def _remove_spool_dir(path: str) -> None:
    """Best-effort removal of a spool directory and any files left in it."""
    shutil.rmtree(path, ignore_errors=True)


class SpoolDirectory:
    """A private directory minting uniquely-named mapped-file segments.

    The directory is created under ``root`` (default: ``REPRO_SPOOL_DIR`` or
    the system tempdir) and removed — files and all — on :meth:`close` or,
    as a backstop mirroring the registry finalizer, when the object is
    garbage collected or the interpreter exits.
    """

    def __init__(self, root: str | None = None) -> None:
        base = root or os.environ.get(SPOOL_DIR_ENV) or tempfile.gettempdir()
        os.makedirs(base, exist_ok=True)
        self.path = tempfile.mkdtemp(prefix=SPOOL_PREFIX, dir=base)
        self._counter = 0
        self._lock = threading.Lock()
        self._finalizer = weakref.finalize(self, _remove_spool_dir, self.path)

    @property
    def closed(self) -> bool:
        return not self._finalizer.alive

    def create_segment(self, size: int) -> MappedFileSegment:
        """Create and map a fresh spool file of ``size`` bytes."""
        if self.closed:
            raise ValueError(f"spool directory {self.path!r} is closed")
        with self._lock:
            self._counter += 1
            name = os.path.join(self.path, f"col-{self._counter:06d}.bin")
        return MappedFileSegment(name, create=True, size=size)

    def close(self) -> None:
        """Remove the spool directory and everything in it."""
        self._finalizer()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.path!r})"
