"""Batch command line: run, identities, dispersion, convergence, info.

Exit codes are exhaustive and mutually exclusive: 0 success, 1 a
check failed (an identity or a fitted convergence order out of band),
2 configuration error (including an output location that cannot be
written), 3 numerical failure mid-run (``run`` still flushes the
partial diagnostics).  Output files are written to a temporary name in
the target directory and renamed into place, so readers never see a
torn file.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import os
import sys

import numpy as np

from . import __version__
from . import snapshot as snap
from .analysis import convergence_study, format_identity_report, identity_suite
from .config import RunConfig, ConfigError, parse_config, serialize_config
from .diagnostics import CSV_COLUMNS
from .dispersion import dispersion, oracle_omegas
from .dynamics import SimulationError, run
from .params import Formulation
from .scenarios import SCENARIO_DEFAULTS, uniform_rest

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# glibc mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap() -> None:
    """Stop glibc from handing freed field arrays back to the kernel.

    Every RK4 stage allocates and frees the same few-megabyte arrays.
    glibc's dynamic thresholds follow the largest block freed so far; on
    a 32^3 run they settle near 2 MiB (mmap) and 4 MiB (trim), so the heap
    top is handed back as a stage's temporaries are freed and the next
    stage faults those pages in again: about 1400 minor faults a step,
    and steps that slow down and spread when the host is loaded.  The
    command line owns its process, so it pins both thresholds at the
    ceilings that the dynamic rule can reach (32 and 64 MiB).  A libc
    without ``mallopt`` is left alone.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _write_text(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    snap.atomic_write(path, text.encode())


def _write_csv(path: str, header, rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    _write_text(path, "\n".join(lines) + "\n")


def _load_config(args) -> RunConfig:
    text = ""
    if args.config is not None:
        try:
            with open(args.config, "r") as handle:
                text = handle.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config!r}: {exc}") from None
    cfg = parse_config(text, overrides=args.set or ())
    if args.out_dir is not None:
        cfg = dataclasses.replace(cfg, out_dir=args.out_dir)
    return cfg


def _flush_diagnostics(out_dir: str, records) -> None:
    rows = [rec.as_row() for rec in records]
    _write_csv(os.path.join(out_dir, "diagnostics.csv"), CSV_COLUMNS, rows)


def cmd_run(cfg: RunConfig) -> int:
    case = cfg.build_case()
    params = cfg.phys()
    out_dir = cfg.out_dir
    # a config error leaves no output, so check it before writing config.txt
    case.state.grid.require_order(params.stencil_order)
    _write_text(os.path.join(out_dir, "config.txt"), serialize_config(cfg))

    on_step = None
    if cfg.snapshot_every > 0:
        def on_step(state, step):
            if step % cfg.snapshot_every == 0:
                path = os.path.join(out_dir, f"snapshot_{step:06d}.bin")
                snap.write_snapshot(path, state)

    try:
        final, records = run(case.state, params, cfg.t_end,
                             out_every=cfg.out_every, source=case.source,
                             on_step=on_step)
    except SimulationError as exc:
        _flush_diagnostics(out_dir, exc.records)
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    _flush_diagnostics(out_dir, records)
    if cfg.snapshot_every > 0:
        snap.write_snapshot(os.path.join(out_dir, "final.bin"), final)
    print(f"run complete: t = {final.t:g}, {len(records)} diagnostics rows "
          f"-> {os.path.join(out_dir, 'diagnostics.csv')}")
    return EXIT_OK


def cmd_identities(cfg: RunConfig) -> int:
    if not cfg.identities_resolutions:
        raise ConfigError("identities.resolutions must not be empty")
    report = identity_suite(cfg.identities_resolutions, params=cfg.phys())
    print(format_identity_report(report))

    header = ("identity", "kind", "resolution", "spacing", "value",
              "order", "expected_order", "passed")
    rows = []
    for item in report.results:
        order = "" if item.order is None else _fmt(item.order)
        expected = "" if item.expected_order is None else _fmt(item.expected_order)
        for n, h, value in zip(report.resolutions, item.spacings, item.values):
            rows.append((item.key, item.kind, n, _fmt(h), _fmt(value),
                         order, expected, int(item.passed)))
    _write_csv(os.path.join(cfg.out_dir, "identities.csv"), header, rows)

    if not report.all_passed:
        failed = [item.key for item in report.results if not item.passed]
        print(f"FAILED identities: {', '.join(failed)}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_dispersion(cfg: RunConfig) -> int:
    grid = cfg.grid()
    params = cfg.phys()
    if cfg.dispersion_formulation == "both":
        formulations = (Formulation.MODIFIED, Formulation.TRADITIONAL)
    else:
        formulations = (Formulation(cfg.dispersion_formulation),)

    header = ("mx", "my", "mz", "formulation", "mode",
              "omega_re", "omega_im", "oracle_re", "oracle_im", "warning")
    rows = []
    for form in formulations:
        background = uniform_rest(grid, form, cfg.dispersion_rho0,
                                  cfg.dispersion_p0, cfg.dispersion_h0).state
        for modes in cfg.dispersion_k:
            result = dispersion(background, modes, params)
            oracle = oracle_omegas(background, modes, params)
            for i, (w, wo) in enumerate(zip(result.omega, oracle)):
                rows.append((*modes, form.value, i, _fmt(w.real), _fmt(w.imag),
                             _fmt(wo.real), _fmt(wo.imag), int(result.warning)))
            speeds = ", ".join(f"{s:.6g}" for s in result.speeds())
            print(f"{form.value} m={modes}: phase speeds {{{speeds}}}"
                  + ("  [eps-sensitivity warning]" if result.warning else ""))
    _write_csv(os.path.join(cfg.out_dir, "dispersion.csv"), header, rows)
    return EXIT_OK


def cmd_convergence(cfg: RunConfig) -> int:
    if len(cfg.convergence_resolutions) < 2:
        raise ConfigError("convergence.resolutions needs at least two entries")
    params = cfg.phys()
    form = cfg.formulation_enum()
    # a 4-point (thin) axis stays 4 points; every other axis scales by n / nx
    shapes = {}
    for n in cfg.convergence_resolutions:
        shapes[n] = {"nx": n}
        for axis in ("ny", "nz"):
            size = getattr(cfg, axis)
            scaled, rest = divmod(size * n, cfg.nx)
            if size != 4 and (rest or scaled < 4):
                raise ConfigError(
                    f"convergence.resolutions: at resolution {n}, {axis} = "
                    f"{size} scales to {size * n / cfg.nx:g}, not an integer >= 4")
            shapes[n][axis] = 4 if size == 4 else scaled

    def factory(n):
        return dataclasses.replace(cfg, **shapes[n]).build_case()

    try:
        result = convergence_study(factory, cfg.convergence_resolutions,
                                   cfg.convergence_t_end, params=params)
    except SimulationError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    rows = [(n, _fmt(h), _fmt(e)) for n, h, e in result.rows()]
    _write_csv(os.path.join(cfg.out_dir, "convergence.csv"),
               ("resolution", "spacing", "error"), rows)

    expected = cfg.convergence_expect_order or float(cfg.stencil_order)
    slack = cfg.convergence_order_slack
    print(f"{cfg.scenario} ({form.value}, {result.mode}): fitted order "
          f"{result.order:.3f}, expected {expected:g} +/- {slack:g}")
    if not np.isfinite(result.order) or abs(result.order - expected) > slack:
        print("FAILED: fitted order out of band", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_info() -> int:
    print(f"modmhd {__version__}")
    print(f"snapshot format: magic {snap.MAGIC!r}, version {snap.VERSION}")
    print(f"diagnostics columns: {', '.join(CSV_COLUMNS)}")
    print("scenarios and their parameters:")
    for name in sorted(SCENARIO_DEFAULTS):
        defaults = SCENARIO_DEFAULTS[name]
        body = ", ".join(f"{k}={v}" for k, v in sorted(defaults.items()))
        print(f"  {name}: {body or '(no parameters)'}")
    defaults = RunConfig(nx=16, ny=16, nz=16, lx=1, ly=1, lz=1,
                         scenario="uniform_rest")
    print("config defaults (grid.* and scenario.name are required):")
    for line in serialize_config(defaults).splitlines():
        key = line.split(" =")[0]
        if not key.startswith(("grid.", "scenario.")):
            print(f"  {line}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modmhd",
        description="vector-potential MHD laboratory (modified and "
                    "traditional formulations)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "integrate a scenario and write diagnostics.csv"),
        ("identities", "check the analytic identity suite"),
        ("dispersion", "numerical vs analytic dispersion relations"),
        ("convergence", "error-vs-resolution sweep with fitted order"),
        ("info", "print build defaults and format versions"),
    ):
        p = sub.add_parser(name, help=help_text)
        if name != "info":
            p.add_argument("--config", metavar="PATH",
                           help="flat key = value config file")
            p.add_argument("--out-dir", metavar="DIR",
                           help="override output.dir")
            p.add_argument("--set", action="append", metavar="KEY=VALUE",
                           help="override one config key (repeatable)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_CONFIG

    if args.command == "info":
        return cmd_info()
    _keep_freed_heap()
    try:
        cfg = _load_config(args)
        if args.command == "run":
            return cmd_run(cfg)
        if args.command == "identities":
            return cmd_identities(cfg)
        if args.command == "dispersion":
            return cmd_dispersion(cfg)
        return cmd_convergence(cfg)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
