"""Binary state snapshots with a fixed little-endian layout.

Layout of version 2 (all little-endian):

    magic            8 bytes  b"MODMHD1\\0"
    version          u32      currently 2
    nx, ny, nz       3 x u32
    lx, ly, lz, t    4 x f64
    formulation      u8       0 = modified, 1 = traditional
    background       9 x f64  matrix M, row-major
    field count      u32
    per field:       16-byte zero-padded ASCII name,
                     then nx*ny*nz f64 values, x index fastest

Field order is fixed: Ax Ay Az, vx vy vz, rho, P.  Both formulations
share the layout, so every state round-trips bit for bit, background
gauge included.

``read_snapshot`` still reads version 1 files.  Their modified layout is
version 2's; their traditional one holds 3 x f64 (H0) in place of M and
Hx Hy Hz in place of Ax Ay Az.  The background is rebuilt as
``BackgroundPotential.from_uniform_field(H0)``: normal and zero H0
components come back bit for bit, signed zeros included (a subnormal one
may not: the symmetric gauge stores H0/2), and the state's gauge is
lost.  H becomes the zero-mean solenoidal A whose stencil curl is H, at
the stencil order the caller names, which a version 1 file does not hold.

Writes go to a temporary file in the target directory followed by an
atomic rename, so a crash never leaves a half-written snapshot under the
final name.
"""

from __future__ import annotations

import math
import os
import struct
import tempfile

import numpy as np

from . import electromagnetics as em
from .grid import GridSpec
from .params import Formulation
from .projection import _inverse_curl
from .state import SimState, scalar_components

MAGIC = b"MODMHD1\x00"
VERSION = 2
_NAME_LEN = 16
# magic, version, nx ny nz, lx ly lz t, formulation code: 57 bytes
_HEADER = struct.Struct("<8sI3I4dB")


class SnapshotError(RuntimeError):
    """Unreadable, truncated, or wrong-version snapshot file."""


_FIELD_NAMES = ("Ax", "Ay", "Az", "vx", "vy", "vz", "rho", "P")
_V1_TRADITIONAL_NAMES = ("Hx", "Hy", "Hz") + _FIELD_NAMES[3:]


def atomic_write(path, chunks) -> None:
    """Write the bytes-like ``chunks``, in turn, to ``path`` through a
    temporary file and a rename.

    Readers see the old file or all of the chunks, never a torn file; the
    temporary file is removed if anything fails, producing a chunk included.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(prefix=".tmp-", dir=directory)
    try:
        with os.fdopen(fd, "wb") as handle:
            for chunk in chunks:
                handle.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_snapshot(path, state: SimState) -> None:
    atomic_write(path, _chunks(state))


def _chunks(state: SimState):
    """The file's bytes in layout order; one transposed copy per field at a time."""
    g = state.grid
    modified = state.formulation is Formulation.MODIFIED
    yield _HEADER.pack(MAGIC, VERSION, g.nx, g.ny, g.nz,
                       g.lx, g.ly, g.lz, state.t, 0 if modified else 1)
    yield state.bg.matrix.astype("<f8").tobytes()
    yield struct.pack("<I", len(_FIELD_NAMES))
    for name, arr in zip(_FIELD_NAMES, scalar_components(state.fields)):
        yield name.encode("ascii").ljust(_NAME_LEN, b"\x00")
        # x index fastest: the C-ordered transpose
        yield np.ascontiguousarray(arr.T, dtype="<f8")


class _Reader:
    """Sequential reads from an open file, checked against its length."""

    def __init__(self, handle):
        self.handle = handle
        self.size = os.fstat(handle.fileno()).st_size
        self.pos = 0

    def need(self, n: int) -> None:
        """Raise unless the file holds n more bytes."""
        if self.pos + n > self.size:
            raise SnapshotError(
                f"truncated snapshot: needed {self.pos + n} bytes, "
                f"file has {self.size}"
            )

    def take(self, n: int) -> bytes:
        self.need(n)
        data = self.handle.read(n)
        self._advance(n, len(data))
        return data

    def take_into(self, out: np.ndarray) -> None:
        """Fill the C-contiguous ``out`` with the next ``out.nbytes`` bytes."""
        self.need(out.nbytes)
        self._advance(out.nbytes, self.handle.readinto(out))

    def _advance(self, n: int, got: int) -> None:
        if got < n:   # the file shrank after its length was taken
            self.size = self.pos + got
            self.need(n)
        self.pos += n


def read_snapshot(path, order: int = 2) -> SimState:
    """The state in the snapshot at ``path``; ``order`` is the stencil order
    that turns a version 1 traditional file's H into A (see the module docstring)."""
    with open(path, "rb") as handle:
        return _read(_Reader(handle), order)


def _read(rd: _Reader, order: int) -> SimState:
    magic = rd.take(len(MAGIC))
    if magic != MAGIC:
        raise SnapshotError("not a snapshot file (bad magic)")
    _, version, nx, ny, nz, lx, ly, lz, t, form_code = _HEADER.unpack(
        magic + rd.take(_HEADER.size - len(MAGIC)))
    if version not in (1, VERSION):
        raise SnapshotError(
            f"unsupported snapshot version {version} (this build reads "
            f"versions 1 and {VERSION})"
        )
    if form_code not in (0, 1):
        raise SnapshotError(f"unknown formulation code {form_code}")
    formulation = Formulation.TRADITIONAL if form_code else Formulation.MODIFIED
    h_form = version == 1 and form_code == 1
    # an impossible header is refused before any field is read
    try:
        grid = GridSpec(nx, ny, nz, lx, ly, lz)
        if not math.isfinite(t):
            raise ValueError(f"t must be finite, got {t}")
        values = np.frombuffer(rd.take(24 if h_form else 72), dtype="<f8")
        background = (em.BackgroundPotential.from_uniform_field(values) if h_form
                      else em.BackgroundPotential(values.reshape(3, 3)))
    except ValueError as exc:
        raise SnapshotError(f"impossible header value: {exc}") from None

    (count,) = struct.unpack("<I", rd.take(4))
    expected = _V1_TRADITIONAL_NAMES if h_form else _FIELD_NAMES
    if count != len(expected):
        raise SnapshotError(f"expected {len(expected)} fields, header says {count}")
    fields = None
    for i, want in enumerate(expected):
        name = rd.take(_NAME_LEN).rstrip(b"\x00").decode("ascii", "replace")
        if name != want:
            raise SnapshotError(f"expected field {want!r}, found {name!r}")
        if fields is None:
            # the header's sizes must fit in the file before they are allocated
            rd.need(8 * grid.npoints)
            fields = (np.empty(grid.vshape), np.empty(grid.vshape),
                      np.empty(grid.shape), np.empty(grid.shape))
            # x index fastest on disk: each field lands in place through one buffer
            flat = np.empty((nz, ny, nx), dtype="<f8")
        rd.take_into(flat)
        np.copyto(scalar_components(fields)[i], flat.T)
    if rd.pos != rd.size:
        raise SnapshotError(f"{rd.size - rd.pos} trailing bytes after fields")
    if h_form:
        fields = (_inverse_curl(fields[0], grid, order),) + fields[1:]

    return SimState(grid, formulation, *fields, background, t)
