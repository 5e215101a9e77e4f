"""Binary state snapshots with a fixed little-endian layout.

Layout (all little-endian):

    magic            8 bytes  b"MODMHD1\\0"
    version          u32      currently 1
    nx, ny, nz       3 x u32
    lx, ly, lz, t    4 x f64
    formulation      u8       0 = modified, 1 = traditional
    background       9 x f64 (matrix M, row-major) if modified,
                     3 x f64 (uniform H0)          if traditional
    field count      u32
    per field:       16-byte zero-padded ASCII name,
                     then nx*ny*nz f64 values, x index fastest

Field order is fixed: the magnetic unknown first (Ax Ay Az or
Hx Hy Hz), then vx vy vz, rho, P.  Writes go to a temporary file in
the target directory followed by an atomic rename, so a crash never
leaves a half-written snapshot under the final name.
"""

from __future__ import annotations

import os
import struct
import tempfile

import numpy as np

from . import electromagnetics as em
from .grid import GridSpec
from .params import Formulation
from .state import SimState

MAGIC = b"MODMHD1\x00"
VERSION = 1
_NAME_LEN = 16


class SnapshotError(RuntimeError):
    """Unreadable, truncated, or wrong-version snapshot file."""


def _field_names(formulation: Formulation):
    mag = ("Ax", "Ay", "Az") if formulation is Formulation.MODIFIED \
        else ("Hx", "Hy", "Hz")
    return mag + ("vx", "vy", "vz", "rho", "P")


def _pack_name(name: str) -> bytes:
    raw = name.encode("ascii")
    if len(raw) > _NAME_LEN:
        raise SnapshotError(f"field name too long: {name!r}")
    return raw.ljust(_NAME_LEN, b"\x00")


def atomic_write(path, data: bytes) -> None:
    """Write ``data`` to ``path`` through a temporary file and a rename.

    Readers see the old file or all of ``data``, never a torn file; the
    temporary file is removed if anything fails.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(prefix=".tmp-", dir=directory)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_snapshot(path, state: SimState) -> None:
    g = state.grid
    parts = [MAGIC, struct.pack("<I", VERSION),
             struct.pack("<3I", g.nx, g.ny, g.nz),
             struct.pack("<4d", g.lx, g.ly, g.lz, state.t)]
    if state.formulation is Formulation.MODIFIED:
        parts.append(struct.pack("<B", 0))
        parts.append(state.bg.matrix.astype("<f8").tobytes())
        mag = state.a
    else:
        parts.append(struct.pack("<B", 1))
        parts.append(state.h0.astype("<f8").tobytes())
        mag = state.h
    names = _field_names(state.formulation)
    scalars = (mag[0], mag[1], mag[2], state.v[0], state.v[1], state.v[2],
               state.rho, state.p)
    parts.append(struct.pack("<I", len(names)))
    for name, arr in zip(names, scalars):
        parts.append(_pack_name(name))
        parts.append(np.ascontiguousarray(arr).astype("<f8").tobytes(order="F"))

    atomic_write(path, b"".join(parts))


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise SnapshotError(
                f"truncated snapshot: needed {self.pos + n} bytes, "
                f"file has {len(self.blob)}"
            )
        out = self.blob[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def read_snapshot(path) -> SimState:
    with open(path, "rb") as handle:
        rd = _Reader(handle.read())
    if rd.take(len(MAGIC)) != MAGIC:
        raise SnapshotError("not a snapshot file (bad magic)")
    (version,) = rd.unpack("<I")
    if version != VERSION:
        raise SnapshotError(
            f"unsupported snapshot version {version} (this build reads "
            f"version {VERSION})"
        )
    nx, ny, nz = rd.unpack("<3I")
    lx, ly, lz, t = rd.unpack("<4d")
    (form_code,) = rd.unpack("<B")
    if form_code not in (0, 1):
        raise SnapshotError(f"unknown formulation code {form_code}")
    formulation = Formulation.MODIFIED if form_code == 0 else Formulation.TRADITIONAL
    if formulation is Formulation.MODIFIED:
        matrix = np.frombuffer(rd.take(72), dtype="<f8").reshape(3, 3)
        bg, h0 = em.BackgroundPotential(matrix), None
    else:
        bg, h0 = None, np.frombuffer(rd.take(24), dtype="<f8").copy()
    grid = GridSpec(nx, ny, nz, lx, ly, lz)

    (count,) = rd.unpack("<I")
    expected = _field_names(formulation)
    if count != len(expected):
        raise SnapshotError(f"expected {len(expected)} fields, header says {count}")
    scalars = {}
    nbytes = 8 * nx * ny * nz
    for want in expected:
        name = rd.take(_NAME_LEN).rstrip(b"\x00").decode("ascii", "replace")
        if name != want:
            raise SnapshotError(f"expected field {want!r}, found {name!r}")
        flat = np.frombuffer(rd.take(nbytes), dtype="<f8")
        scalars[want] = flat.reshape((nx, ny, nz), order="F").copy()
    if rd.pos != len(rd.blob):
        raise SnapshotError(f"{len(rd.blob) - rd.pos} trailing bytes after fields")

    vec = np.stack
    v = vec([scalars["vx"], scalars["vy"], scalars["vz"]])
    kwargs = dict(grid=grid, formulation=formulation, v=v,
                  rho=scalars["rho"], p=scalars["P"], t=t)
    if formulation is Formulation.MODIFIED:
        kwargs["a"] = vec([scalars["Ax"], scalars["Ay"], scalars["Az"]])
        kwargs["bg"] = bg
    else:
        kwargs["h"] = vec([scalars["Hx"], scalars["Hy"], scalars["Hz"]])
        kwargs["h0"] = h0
    return SimState(**kwargs)
