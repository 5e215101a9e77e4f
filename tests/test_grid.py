import numpy as np
import pytest

import modmhd.operators as ops
from modmhd import ConfigError, GridSpec, PhysParams, parse_config
from modmhd import wavevector_from_modes as package_rule
from modmhd.dispersion import wavevector_from_modes as dispersion_rule
from modmhd.grid import STENCIL_ORDERS_TEXT, full_vector, wavevector_from_modes

from conftest import TWO_PI, cube


def test_spacings_and_shapes():
    g = GridSpec(8, 16, 4, 1.0, 2.0, 4.0)
    assert g.spacings == (1.0 / 8, 2.0 / 16, 4.0 / 4)
    assert g.shape == (8, 16, 4)
    assert g.vshape == (3, 8, 16, 4)
    assert g.npoints == 8 * 16 * 4
    assert g.cell_volume * g.npoints == pytest.approx(1.0 * 2.0 * 4.0)


def test_the_mode_rule_lives_in_grid():
    # the builders and the dispersion tools share this one rule
    assert package_rule is wavevector_from_modes
    assert dispersion_rule is wavevector_from_modes


def test_coords_exclude_right_endpoint():
    g = cube(16)
    xs, ys, zs = g.coords()
    assert xs[0] == 0.0
    assert xs[-1] == pytest.approx(TWO_PI - g.hx)
    assert len(xs) == len(ys) == len(zs) == 16


def test_meshes_broadcast():
    g = GridSpec(6, 8, 4, 1.0, 1.0, 1.0)
    x, y, z = g.meshes()
    assert x.shape == (6, 1, 1)
    assert y.shape == (1, 8, 1)
    assert z.shape == (1, 1, 4)
    assert (x + y + z).shape == g.shape


@pytest.mark.parametrize("bad", [
    dict(nx=3), dict(ny=0), dict(nz=-8),
    dict(lx=0.0), dict(ly=-1.0), dict(lz=np.inf),
])
def test_invalid_specs_rejected(bad):
    kw = dict(nx=8, ny=8, nz=8, lx=1.0, ly=1.0, lz=1.0)
    kw.update(bad)
    with pytest.raises(ValueError):
        GridSpec(**kw)


def test_non_integer_resolution_rejected():
    with pytest.raises(ValueError):
        GridSpec(8.0, 8, 8, 1.0, 1.0, 1.0)


def test_require_order():
    g = GridSpec(4, 4, 4, 1.0, 1.0, 1.0)
    g.require_order(2)
    with pytest.raises(ValueError):
        g.require_order(4)   # needs 8 points per axis
    with pytest.raises(ValueError):
        g.require_order(3)
    cube(8).require_order(4)


@pytest.mark.parametrize("order", [0, 1, 2, 3, 4, 6])
def test_one_stencil_order_set_everywhere(order):
    # every order check accepts exactly {2, 4}, and every rejection names
    # the allowed orders with the one shared text
    assert STENCIL_ORDERS_TEXT == "2 or 4"
    g = cube(16)
    f = np.zeros(g.shape)
    text = (f"grid.nx = 16\ngrid.ny = 16\ngrid.nz = 16\ngrid.lx = 1\n"
            f"grid.ly = 1\ngrid.lz = 1\nscenario.name = \"uniform_rest\"\n"
            f"numerics.stencil_order = {order}\n")
    checks = [
        (ValueError, STENCIL_ORDERS_TEXT, lambda: g.require_order(order)),
        (ValueError, STENCIL_ORDERS_TEXT, lambda: PhysParams(stencil_order=order)),
        (ConfigError, STENCIL_ORDERS_TEXT, lambda: parse_config(text)),
        (ValueError, STENCIL_ORDERS_TEXT, lambda: ops._d1(f, 0, g.hx, order)),
        (ValueError, STENCIL_ORDERS_TEXT, lambda: ops._d2(f, 0, g.hx, order)),
        (ValueError, STENCIL_ORDERS_TEXT,
         lambda: ops.modified_wavenumber(1.0, g.hx, order)),
    ]
    for error, message, check in checks:
        if order in (2, 4):
            check()
        else:
            with pytest.raises(error, match=message):
                check()


def test_field_constructors():
    g = cube(8)
    x, _, _ = g.meshes()
    v = full_vector(g, (np.sin(x), 0.0, 1.0))
    assert v.shape == g.vshape
    assert np.all(v[2] == 1.0)
