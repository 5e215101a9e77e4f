"""Binary snapshot format: round-trips and failure modes."""

import dataclasses
import errno
import os
import re
import struct

import numpy as np
import pytest

import modmhd.operators as ops
from modmhd import (BackgroundPotential, Formulation, GridSpec, SnapshotError,
                    random_solenoidal, read_snapshot, write_snapshot)
from modmhd.snapshot import MAGIC

from conftest import cube, slab


def _sample_state(formulation):
    case = random_solenoidal(slab(8), formulation=formulation, seed=42)
    st = case.state
    return st.with_fields(st.mag, st.v, st.rho, st.p, t=0.375)


@pytest.mark.parametrize("formulation",
                         [Formulation.MODIFIED, Formulation.TRADITIONAL])
def test_round_trip_is_bitwise(tmp_path, formulation):
    st = _sample_state(formulation)
    path = tmp_path / "snap.bin"
    write_snapshot(path, st)
    back = read_snapshot(path)

    assert back.formulation is formulation
    assert back.t == st.t
    assert back.grid.shape == st.grid.shape
    assert back.grid.lx == st.grid.lx
    assert np.array_equal(back.mag, st.mag)
    assert np.array_equal(back.v, st.v)
    assert np.array_equal(back.rho, st.rho)
    assert np.array_equal(back.p, st.p)
    assert back.bg == st.bg


def test_write_then_rewrite_same_bytes(tmp_path):
    st = _sample_state(Formulation.MODIFIED)
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    write_snapshot(p1, st)
    write_snapshot(p2, st)
    assert p1.read_bytes() == p2.read_bytes()


def test_no_temp_files_left_behind(tmp_path):
    write_snapshot(tmp_path / "snap.bin", _sample_state(Formulation.MODIFIED))
    assert os.listdir(tmp_path) == ["snap.bin"]


def test_failed_write_keeps_the_old_file_and_leaves_no_temp_file(tmp_path, monkeypatch):
    # the disk fills up once the header and the first fields are written
    path = tmp_path / "snap.bin"
    write_snapshot(path, _sample_state(Formulation.MODIFIED))
    old = path.read_bytes()
    real_fdopen = os.fdopen
    written = []

    class FillingUp:
        def __init__(self, handle):
            self.handle = handle

        def write(self, chunk):
            if sum(written) > len(old) // 2:
                raise OSError(errno.ENOSPC, "No space left on device")
            written.append(memoryview(chunk).nbytes)
            return self.handle.write(chunk)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.handle.close()

    monkeypatch.setattr(os, "fdopen", lambda fd, mode: FillingUp(real_fdopen(fd, mode)))
    with pytest.raises(OSError, match="No space left"):
        write_snapshot(path, _sample_state(Formulation.TRADITIONAL))
    assert 0 < sum(written) < len(old)
    assert path.read_bytes() == old
    assert os.listdir(tmp_path) == ["snap.bin"]


def test_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTASNAP" + b"\x00" * 64)
    with pytest.raises(SnapshotError, match="bad magic"):
        read_snapshot(path)


def test_unsupported_version_names_both_versions(tmp_path):
    st = _sample_state(Formulation.MODIFIED)
    path = tmp_path / "snap.bin"
    write_snapshot(path, st)
    blob = bytearray(path.read_bytes())
    blob[len(MAGIC):len(MAGIC) + 4] = struct.pack("<I", 3)
    path.write_bytes(bytes(blob))
    with pytest.raises(SnapshotError, match="version 3.*reads versions 1 and 2"):
        read_snapshot(path)


# byte offsets in a v2 snapshot: nx follows the magic and version, lx the
# three sizes, t the three lengths, the formulation code the four doubles;
# the background M follows it, and the field count follows M
_NX_AT = 12
_LX_AT = 24
_T_AT = 48
_FORM_AT = 56
_BACKGROUND_AT = _FORM_AT + 1
_COUNT_AT = _BACKGROUND_AT + 72
_NAME_AT = _COUNT_AT + 4
_NAN = struct.pack("<d", float("nan"))
_MOD, _TRAD = Formulation.MODIFIED, Formulation.TRADITIONAL


@pytest.mark.parametrize("formulation,offset,patch,message", [
    (_MOD, _FORM_AT, struct.pack("<B", 7), "unknown formulation code 7"),
    (_MOD, _COUNT_AT, struct.pack("<I", 7), "expected 8 fields, header says 7"),
    (_MOD, _NAME_AT, b"Bx".ljust(16, b"\x00"), "expected field 'Ax', found 'Bx'"),
    (_MOD, _NX_AT, struct.pack("<I", 0),
     "impossible header value: nx must be >= 4, got 0"),
    (_MOD, _LX_AT, _NAN,
     "impossible header value: lx must be positive and finite, got nan"),
    (_TRAD, _BACKGROUND_AT, _NAN,
     "impossible header value: background matrix must be a finite 3x3 matrix"),
    (_MOD, _T_AT, _NAN, "impossible header value: t must be finite, got nan"),
], ids=["formulation", "count", "name", "nx0", "lx_nan", "h0_nan", "t_nan"])
def test_corrupt_header_rejected(tmp_path, formulation, offset, patch, message):
    path = tmp_path / "snap.bin"
    write_snapshot(path, _sample_state(formulation))
    blob = bytearray(path.read_bytes())
    blob[offset:offset + len(patch)] = patch
    path.write_bytes(bytes(blob))
    with pytest.raises(SnapshotError, match=re.escape(message)):
        read_snapshot(path)


def _landau_state():
    """A traditional state on the Landau gauge A0 = (0, -z, 0) of H0 = x-hat."""
    landau = np.zeros((3, 3))
    landau[1, 2] = -1.0
    return dataclasses.replace(_sample_state(_TRAD), bg=BackgroundPotential(landau))


def _v1_traditional_bytes(st, order=2):
    """A v1 traditional file of ``st``: H0 and H = curl A in place of M and A."""
    return _documented_bytes(st, 1, h=ops.curl(st.mag, st.grid, order))


def test_traditional_background_reads_back_bitwise(tmp_path):
    # a v1 traditional file stores H0 only; mixed signs and a -0.0 survive
    # the symmetric gauge it is read back into, and a v2 rewrite keeps it
    stored = struct.pack("<3d", 0.3, -0.0, -0.9)
    blob = bytearray(_v1_traditional_bytes(_sample_state(_TRAD)))
    blob[_BACKGROUND_AT:_BACKGROUND_AT + 24] = stored
    path = tmp_path / "snap.bin"
    path.write_bytes(bytes(blob))
    back = read_snapshot(path)
    assert back.bg.uniform_field.astype("<f8").tobytes() == stored
    write_snapshot(tmp_path / "again.bin", back)
    again = read_snapshot(tmp_path / "again.bin")
    assert again.bg == back.bg
    assert again.bg.uniform_field.astype("<f8").tobytes() == stored


def test_traditional_file_keeps_h0_but_not_the_background_gauge(tmp_path):
    # a v1 traditional file stores H0 only: the Landau gauge of H0 = x-hat
    # comes back as the symmetric gauge of the same H0
    st = _landau_state()
    path = tmp_path / "snap.bin"
    path.write_bytes(_v1_traditional_bytes(st))
    back = read_snapshot(path)
    assert back.bg.uniform_field.tobytes() == st.bg.uniform_field.tobytes()
    assert back.bg == BackgroundPotential.from_uniform_field(st.bg.uniform_field)
    assert back.bg != st.bg


def test_v2_keeps_the_traditional_background_gauge(tmp_path):
    st = _landau_state()
    path = tmp_path / "snap.bin"
    write_snapshot(path, st)
    back = read_snapshot(path)
    assert back.bg == st.bg
    for got, want in zip(back.fields, st.fields):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("h0", [(0.3, -0.2, 0.9), (-0.0, 0.0, -0.0),
                                (1.7e308, -1.7e308, 0.0)],
                         ids=["mixed", "signed_zeros", "near_max"])
def test_uniform_field_survives_the_symmetric_gauge(h0):
    want = np.array(h0)
    got = BackgroundPotential.from_uniform_field(want).uniform_field
    assert got.tobytes() == want.tobytes()


def test_truncated_file(tmp_path):
    st = _sample_state(Formulation.TRADITIONAL)
    path = tmp_path / "snap.bin"
    write_snapshot(path, st)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(SnapshotError, match="truncated"):
        read_snapshot(path)


def test_trailing_garbage_rejected(tmp_path):
    st = _sample_state(Formulation.MODIFIED)
    path = tmp_path / "snap.bin"
    write_snapshot(path, st)
    path.write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(SnapshotError):
        read_snapshot(path)


def test_round_trip_preserves_cube_grid(tmp_path):
    from modmhd import uniform_rest

    st = uniform_rest(cube(8, length=3.0)).state
    path = tmp_path / "snap.bin"
    write_snapshot(path, st)
    back = read_snapshot(path)
    assert back.grid.lx == back.grid.ly == back.grid.lz == 3.0
    assert back.grid.nx == 8


def _documented_bytes(st, version, h=None):
    """The layout of the module docstring, assembled field by field.  With
    ``h`` it is a v1 traditional file, which holds H0 and H in place of M and A."""
    g = st.grid
    blob = b"MODMHD1\x00" + struct.pack("<I", version)
    blob += struct.pack("<3I", g.nx, g.ny, g.nz)
    blob += struct.pack("<4d", g.lx, g.ly, g.lz, st.t)
    blob += struct.pack("<B", 0 if st.formulation is Formulation.MODIFIED else 1)
    if h is None:
        blob += struct.pack("<9d", *st.bg.matrix.ravel())
        mag, prefix = st.mag, "A"
    else:
        blob += struct.pack("<3d", *st.bg.uniform_field)
        mag, prefix = h, "H"
    named = tuple((prefix + axis, mag[i]) for i, axis in enumerate("xyz"))
    named += (("vx", st.v[0]), ("vy", st.v[1]), ("vz", st.v[2]),
              ("rho", st.rho), ("P", st.p))
    blob += struct.pack("<I", 8)
    for name, arr in named:
        values = [arr[i, j, k] for k in range(g.nz) for j in range(g.ny)
                  for i in range(g.nx)]
        blob += struct.pack("<16s", name.encode()) + struct.pack(f"<{len(values)}d", *values)
    return blob


def _layout_state(formulation, grid=GridSpec(8, 6, 4, 1.0, 2.5, 7.0), order=2):
    case = random_solenoidal(grid, formulation, b0=0.3, seed=3, order=order)
    return case.state.with_fields(*case.state.fields, t=3.375)


@pytest.mark.parametrize("formulation",
                         [Formulation.MODIFIED, Formulation.TRADITIONAL])
def test_bytes_follow_documented_v2_layout(tmp_path, formulation):
    st = _layout_state(formulation)
    path = tmp_path / "snap.bin"
    write_snapshot(path, st)
    assert path.read_bytes() == _documented_bytes(st, 2)


def test_v1_modified_file_still_reads(tmp_path):
    st = _layout_state(Formulation.MODIFIED)
    path = tmp_path / "snap.bin"
    path.write_bytes(_documented_bytes(st, 1))
    back = read_snapshot(path)
    assert back.formulation is Formulation.MODIFIED and back.t == st.t
    assert back.bg == st.bg
    for got, want in zip(back.fields, st.fields):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("order", [2, 4])
def test_v1_traditional_file_reads_h_back_as_a(tmp_path, order):
    # the file holds H = curl A; the reader inverts the order's stencil curl
    st = _layout_state(Formulation.TRADITIONAL, GridSpec(8, 10, 12, 1.0, 2.5, 7.0), order)
    h = ops.curl(st.mag, st.grid, order)
    path = tmp_path / "snap.bin"
    path.write_bytes(_v1_traditional_bytes(st, order))
    back = read_snapshot(path, order=order)
    assert back.formulation is Formulation.TRADITIONAL and back.t == st.t
    assert ops.max_norm(ops.curl(back.mag, back.grid, order) - h) <= 1e-13 * ops.max_norm(h)
    assert ops.max_norm(back.mag - st.mag) <= 1e-13 * ops.max_norm(st.mag)
    assert back.bg == st.bg   # the builder's symmetric gauge
    for got, want in zip(back.fields[1:], st.fields[1:]):
        assert np.array_equal(got, want)
