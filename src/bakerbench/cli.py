"""Command-line front end.

Subcommands: iterate, verify, witness, render, psh.  Every run is
deterministic given its flags (plus --seed for sampled suites).  Exit
codes: 0 success, 2 usage error (an output file that cannot be written,
two outputs that name one file and a branch index beyond 2**53
included), 3 verification failure, 4 numeric failure (solver
non-convergence, fatal overflow, too few usable samples, running out of
memory, or any other ValueError from the computation).

Values may also come from a JSON config file (--config), whose entries
are parsed as flags written before the explicit ones, so explicit flags
win; the effective configuration is echoed in every report header, as
a key=value line or as the "config" object of a JSON tree (--format).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections.abc import Iterable
from pathlib import Path
from typing import Any

from . import __version__
from .core import OverflowSignal, PlanePoint, orbit
from .domain import L_THRESHOLD
from .psh import InsufficientSamples, ProbeSpec, submean_check, u_value
from .suites import GENERATOR_NAME, SUITES
from .witness import (DEFAULT_FIRST_BRANCH, SolverFailure, branch_range, find_witnesses,
                      image_direction)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFICATION = 3
EXIT_NUMERIC = 4

# Largest |branch index| the witness solver is given: it computes with the
# index as a float, which holds every integer up to 2**53 exactly.
MAX_BRANCH = 2**53

# Where render writes the PPM without --out; its report goes to stdout.
DEFAULT_PPM = Path("basin.ppm")


class UsageError(Exception):
    pass


def finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 're,im' pair, got {text!r}")
    return complex(*map(finite_float, parts))


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, dict[str, str]]]:
    """The parser, whose subcommands set args.handler to their cmd_
    function, and for each subcommand the flag of each option by
    destination."""
    ap = argparse.ArgumentParser(
        prog="bakerbench",
        description="Numerical workbench for the skew-product "
        "F(z,w) = (e^-(z+w) + z + w, e^-2w + 2w + 1)",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    options: dict[str, dict[str, str]] = {}

    def command(name: str, help: str, handler, out_help: str = "output path (default stdout)"):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        flags = options[name] = {}

        def add(flag: str, **kwargs) -> None:
            flags[p.add_argument(flag, **kwargs).dest] = flag

        add("--config", type=Path, help="JSON config file; flags win")
        add("--out", type=Path, help=out_help)
        add("--format", choices=["text", "tree"], default="text")
        return add

    add = command("iterate", "tabulate an orbit", cmd_iterate)
    add("--z", type=parse_complex, required=True, metavar="RE,IM")
    add("--w", type=parse_complex, required=True, metavar="RE,IM")
    add("--steps", type=int, required=True)

    add = command("verify", "run a randomized verification suite", cmd_verify)
    add("--suite", choices=sorted(SUITES), required=True)
    add("--samples", type=int, default=1000)
    add("--seed", type=int, default=0)
    add("--steps", type=int, default=30)

    add = command("witness", "find witness points for h(zeta) = c", cmd_witness)
    add("--target", type=parse_complex, required=True, metavar="RE,IM")
    add("--count", type=int, required=True)
    add("--first-branch", type=int, default=DEFAULT_FIRST_BRANCH)

    add = command("render", "render a basin slice to PPM/CSV", cmd_render,
                  out_help=f"PPM output path (default {DEFAULT_PPM})")
    add("--w-fixed", type=parse_complex, default=complex(4, 0), metavar="RE,IM")
    add("--xmin", type=finite_float, default=-5.0)
    add("--xmax", type=finite_float, default=5.0)
    add("--ymin", type=finite_float, default=-5.0)
    add("--ymax", type=finite_float, default=5.0)
    add("--width", type=int, default=512)
    add("--height", type=int, default=512)
    add("--budget", type=int, default=200)
    add("--workers", type=int, default=1)
    add("--alpha-threshold", type=finite_float, default=L_THRESHOLD)
    add("--palette", type=Path, help="JSON palette file")
    add("--csv-out", type=Path, help="also dump the grid as CSV")

    add = command("psh", "sub-mean-value probe of u_n on a line", cmd_psh)
    add("--center-z", type=parse_complex, required=True, metavar="RE,IM")
    add("--center-w", type=parse_complex, required=True, metavar="RE,IM")
    add("--dir-z", type=parse_complex, default=complex(1, 0), metavar="RE,IM")
    add("--dir-w", type=parse_complex, default=complex(0, 0), metavar="RE,IM")
    add("--radius", type=finite_float, default=0.01)
    add("--samples", type=int, default=64)
    add("--n", type=int, default=5)
    return ap, options


def _config_argv(flags: dict[str, str], path: Path) -> list[str]:
    """The entries of a JSON config file as ``--flag=value`` tokens of one
    subcommand, to be parsed before its explicit flags so that those win.
    A value must be a JSON string or number; keys that name no option of
    the subcommand are ignored."""
    try:
        data = json.loads(path.read_text())
        if not isinstance(data, dict):
            raise ValueError("config root must be an object")
    except (OSError, ValueError) as exc:
        raise UsageError(f"bad config file {path}: {exc}") from None
    tokens = []
    for key, value in data.items():
        if type(value) not in (str, int, float):  # not null, a bool, a list
            raise UsageError(f"bad config file {path}: {key} is not a string or number")
        flag = flags.get(key.replace("-", "_"))
        if flag is not None:
            tokens.append(f"{flag}={value}")
    return tokens


def _check_output(path: Path | None) -> None:
    """A usage error, raised before any compute, where path holds a NUL
    byte or names a directory or a file in a directory that does not
    exist."""
    if path is None:
        return
    if "\0" in str(path):
        raise UsageError(f"output path {str(path)!r} holds a NUL byte")
    if path.is_dir():
        raise UsageError(f"output path {path} is a directory")
    if not path.parent.is_dir():
        raise UsageError(f"output directory {path.parent} does not exist")


def _write(path: Path, chunks: Iterable[bytes]) -> None:
    """Write the chunks to path as they come; failing to is a usage error."""
    try:
        # The CSV dump comes a row at a time (25 KB at 512 wide); the buffer
        # gathers its rows into few writes.  A larger chunk, such as a PPM,
        # is written directly.
        with path.open("wb", buffering=1 << 18) as f:
            f.writelines(chunks)
    except OSError as exc:
        raise UsageError(f"cannot write output: {exc}") from None


def _spec(cls, **fields):
    """cls(**fields), where the ValueError of its validation is a usage
    error."""
    try:
        return cls(**fields)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _scalar(v: Any) -> str:
    if isinstance(v, complex):
        return f"{v.real!r},{v.imag!r}"
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "none"
    return str(v)


def kv_line(record: dict[str, Any]) -> str:
    """One record as space-separated key=value pairs on a single line."""
    return " ".join(f"{k}={_scalar(v)}" for k, v in record.items())


def _header(args: argparse.Namespace, **extra) -> dict:
    cfg = {"command": args.command}
    skip = {"command", "config", "handler"}
    for key, value in sorted(vars(args).items()):
        if key in skip or value is None:
            continue
        if isinstance(value, (complex, Path)):
            value = _scalar(value)
        cfg[key] = value
    cfg.update(extra)
    return cfg


def _report(args: argparse.Namespace, body: dict, lines: list[str],
            dest: Path | None, **extra) -> None:
    """The effective configuration (the flags and extra) and the result, to
    dest or stdout: as a JSON tree of the configuration and the entries of
    body, complex numbers as {"re": ..., "im": ...}, or as the
    configuration's key=value line followed by lines."""
    header = _header(args, **extra)
    if args.format == "tree":
        text = json.dumps({"config": header, **body}, indent=2,
                          default=lambda c: {"re": c.real, "im": c.imag}) + "\n"
    else:
        text = "\n".join([kv_line(header), *lines]) + "\n"
    if dest is None:
        sys.stdout.write(text)
    else:
        _write(dest, [text.encode()])


def cmd_iterate(args: argparse.Namespace) -> int:
    if args.steps < 0:
        raise UsageError("--steps must be >= 0")
    z, w, d = orbit(PlanePoint(args.z, args.w), args.steps)
    rows = []
    for n, (zn, wn, dn, un) in enumerate(zip(z.tolist(), w.tolist(), d.real.tolist(),
                                             u_value(z, w).tolist())):
        rows.append({
            "n": n,
            "re_z": zn.real, "im_z": zn.imag,
            "re_w": wn.real, "im_w": wn.imag,
            "margin": dn,
            "u_n": None if math.isnan(un) else un,
        })
    lines = [kv_line(r) for r in rows]
    truncated = z.size <= args.steps
    overflow_step = z.size - 1 if truncated else None
    if truncated:
        lines.append(kv_line({
            "notice": "orbit-truncated-by-overflow",
            "overflow_step": overflow_step,
        }))
    _report(args, {"rows": rows}, lines, args.out,
            truncated=truncated, overflow_step=overflow_step)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    if args.samples < 1 or args.steps < 1:
        raise UsageError("--samples and --steps must be >= 1")
    if args.seed < 0:
        raise UsageError("--seed must be >= 0")
    result = SUITES[args.suite](args.samples, args.seed, args.steps)
    record = {
        "suite": result.suite,
        "samples": result.samples,
        "steps": result.steps,
        "seed": result.seed,
        "violations": result.violations,
        result.worst_label: result.worst,
        "passed": result.passed,
        **result.notes,
    }
    _report(args, {"result": record}, [kv_line(record)], args.out,
            generator=GENERATOR_NAME)
    return EXIT_OK if result.passed else EXIT_VERIFICATION


def cmd_witness(args: argparse.Namespace) -> int:
    if args.count < 1:
        raise UsageError("--count must be >= 1")
    span = branch_range(args.target, args.count, args.first_branch)
    if max(abs(span.start), abs(span.stop - 1)) > MAX_BRANCH:
        raise UsageError("--first-branch and --count must keep the branch "
                         "indices within 2**53 in absolute value")
    seq = find_witnesses(args.target, args.count, first_branch=args.first_branch)
    witnesses = []
    lines = ["k,re_zeta,im_zeta,modulus,residual,"
             "dir_p_re,dir_p_im,dir_q_re,dir_q_im"]
    for k, z, mod, res in zip(seq.branches, seq.zetas, seq.moduli, seq.residuals):
        d = image_direction(z)
        witnesses.append({
            "k": k, "zeta": z, "modulus": mod, "residual": res,
            "direction": {"p": d.p, "q": d.q, "degenerate": d.degenerate},
        })
        lines.append(",".join(map(_scalar, (k, z, mod, res, d.p, d.q))))
    if seq.failed_branches:
        lines.append(kv_line({
            "notice": "branches-skipped",
            "failed_branches": ";".join(map(str, seq.failed_branches)),
        }))
    body = {
        "target": args.target,
        "failed_branches": list(seq.failed_branches),
        "witnesses": witnesses,
    }
    _report(args, body, lines, args.out)
    return EXIT_OK


def cmd_render(args: argparse.Namespace) -> int:
    # From the package, which loads render on first use and is where a
    # caller replaces these names.
    from . import PaletteSpec, SliceSpec, grid_csv_blocks, render_slice, write_ppm
    out = args.out if args.out is not None else DEFAULT_PPM
    _check_output(out)
    # realpath, unlike Path.resolve, raises nothing on a symlink loop.
    if (args.csv_out is not None
            and os.path.realpath(out) == os.path.realpath(args.csv_out)):
        raise UsageError(f"--csv-out {args.csv_out} names the PPM output {out}")
    for name in ("budget", "workers"):
        if getattr(args, name) < 1:
            raise UsageError(f"--{name} must be >= 1")
    if args.xmin > args.xmax or args.ymin > args.ymax:
        raise UsageError("--xmin and --ymin must not exceed --xmax and --ymax")
    palette = PaletteSpec()
    if args.palette is not None:
        try:
            palette = PaletteSpec.from_mapping(json.loads(args.palette.read_text()))
        except (OSError, ValueError, TypeError) as exc:
            raise UsageError(f"bad palette file {args.palette}: {exc}") from None
    spec = _spec(
        SliceSpec,
        base=PlanePoint(0j, args.w_fixed),
        dir_u=PlanePoint(1 + 0j, 0j),
        dir_v=PlanePoint(1j, 0j),
        u_range=(args.xmin, args.xmax),
        v_range=(args.ymin, args.ymax),
        width=args.width,
        height=args.height,
    )
    raster = render_slice(spec, args.budget, threshold=args.alpha_threshold,
                          workers=args.workers)
    _write(out, [write_ppm(raster, palette)])
    if args.csv_out is not None:
        _write(args.csv_out, grid_csv_blocks(raster))
    stats = {"ppm": str(out), **raster.stats}
    _report(args, {"stats": stats}, [kv_line(stats)], None, out=str(out))
    return EXIT_OK


def cmd_psh(args: argparse.Namespace) -> int:
    if args.n < 0:
        raise UsageError("--n must be >= 0")
    probe = _spec(
        ProbeSpec,
        center=PlanePoint(args.center_z, args.center_w),
        direction=PlanePoint(args.dir_z, args.dir_w),
        radius=args.radius,
        samples=args.samples,
    )
    report = submean_check(probe, args.n)
    record = {
        "n": report.n,
        "center_value": report.center_value,
        "circle_mean": report.circle_mean,
        "deficit": report.deficit,
        "valid_samples": report.valid_samples,
    }
    _report(args, {"report": record}, [kv_line(record)], args.out)
    return EXIT_OK


_PARSER, _FLAGS = build_parser()
# Finds the subcommand and --config, whose entries become flags of it.
_PRE = argparse.ArgumentParser(prog="bakerbench", add_help=False)
_PRE.add_argument("command", nargs="?")
_PRE.add_argument("--config", type=Path)


def _may_name_config(token: str) -> bool:
    """Whether argparse could read token as --config: its part before any
    '=' is --config or an abbreviation of it, at least '--c'."""
    option = token.partition("=")[0]
    return len(option) >= 3 and "--config".startswith(option)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        if any(map(_may_name_config, argv)):
            first, _ = _PRE.parse_known_args(argv)
            if first.config is not None and first.command in _FLAGS:
                at = argv.index(first.command) + 1
                argv[at:at] = _config_argv(_FLAGS[first.command], first.config)
        args = _PARSER.parse_args(argv)
        _check_output(args.out)
        _check_output(getattr(args, "csv_out", None))
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SolverFailure, OverflowSignal, InsufficientSamples, ValueError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError:
        print("numeric failure: out of memory", file=sys.stderr)
        return EXIT_NUMERIC


def entry() -> None:
    sys.exit(main())
