"""Command-line frontend emitting every computation as JSON or CSV.

Subcommands: `example` (saturate the three rotation-carrier systems),
`channel` (named channel report with Kraus data), `wedge`, `conditions`,
`semialgebra`, `reachable` (all driven by a system file), and `figdata`
(CSV of projected cone-boundary samples).  Exit codes: 0 success, 1
numerical failure (a saturation that did not converge, or a linear-algebra
error), 2 usage or parse error.  All floats are printed with 17
significant digits, so output is byte-identical for fixed inputs and seed.

A saturated wedge (`example`, `wedge`, `semialgebra`) is reported by the
data that fixes it, not by the cone's sampled generators: its dimensions,
the cone's generator count, pointedness and tol, the `base` (the drift
minus its edge projection) and the conjugation `family` whose orbit of the
base generates the cone (`kind`, `closed_form`, `periods`, `periodic` and
`seeds`, the edge's orthonormal basis), or null when the cone is the ray of
the base.  The sampled generators are not printed; with the echoed input
they are `saturate(initial_wedge(system), ...).cone.generators`.  A qubit or
two-qubit wedge is computed on Pauli transfer matrices, and every matrix a
report prints from it (`base`, `seeds`, a BCH witness) is converted back to
its superoperator by `lindblad.superop_from_ptm`.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import __version__
from .channels import (ChannelSpec, H_AXIS, H_X, H_Y, H_Z, P_Y, build_system,
                       example3_delta, kraus_family, kraus_rank, kraus_superop,
                       sigma, two_qubit_operator)
from .liealg import check_conditions
from .lindblad import ControlSystem, cptp_audit, lindbladian, propagator, superop_from_ptm
from .matcore import expm, inner
from .reachable import contraction_audit, random_schedule, sample_reachable
from .semialgebra import semialgebra_probe
from .wedge import MomentCurve, RotationOrbit, initial_wedge, saturate

SCHEMA = "liewedge-report/2"

_SATURATION_DEFAULTS = {"samples": 360, "rounds": 10, "tol": 1e-8, "seed": 0}


class SystemFileError(ValueError):
    """Malformed system file, with a line diagnostic in the message."""


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return "%.17g" % float(x)


@functools.lru_cache(maxsize=256)
def _template(shape: tuple, leaf: str, sep: str) -> str:
    """%-template that writes an array of `shape` as nested lists, each
    entry as `leaf` and the items of every list joined by `sep`."""
    t = leaf
    for d in reversed(shape):
        t = "[" + sep.join([t] * d) + "]"
    return t


def _format_array(a: np.ndarray, leaf: str, sep: str) -> str:
    """A non-empty array of at least one dimension through its shape's
    cached template.  A leaf with two fields takes the real and imaginary
    parts of a complex entry; a leaf with one takes a float."""
    if leaf.count("%") == 2:
        flat = np.ascontiguousarray(a, dtype=np.complex128).view(np.float64)
    else:
        flat = np.asarray(a, dtype=np.float64)
    return _template(a.shape, leaf, sep) % tuple(flat.ravel().tolist())


# the dtypes whose arrays `_dumps` writes through a template, and their leaf
_REPORT_LEAF = {np.float16: "%.17g", np.float32: "%.17g", np.float64: "%.17g",
                np.complex64: "[%.17g, %.17g]", np.complex128: "[%.17g, %.17g]"}


def _dumps(v, level: int = 0) -> str:
    """JSON writer with %.17g floats and stable key order.

    A non-empty float or complex array is written in one step through the
    cached template of its shape; other numpy arrays and scalars are
    written through `.tolist()`.  A complex number is written as
    ``[re, im]``.
    """
    if isinstance(v, float):
        return _fmt(v)
    if isinstance(v, np.ndarray) and v.ndim and v.size:
        leaf = _REPORT_LEAF.get(v.dtype.type)
        if leaf is not None:
            return _format_array(v, leaf, ", ")
    if isinstance(v, (np.ndarray, np.generic)):
        return _dumps(v.tolist(), level)
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, complex):
        return f"[{_fmt(v.real)}, {_fmt(v.imag)}]"
    if isinstance(v, str):
        return json.dumps(v)
    pad = "  " * level
    if isinstance(v, dict):
        if not v:
            return "{}"
        rows = [f'{pad}  {json.dumps(str(k))}: {_dumps(u, level + 1)}'
                for k, u in v.items()]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(v, (list, tuple)):
        if not v:
            return "[]"
        if any(isinstance(u, dict) for u in v):
            rows = [f"{pad}  {_dumps(u, level + 1)}" for u in v]
            return "[\n" + ",\n".join(rows) + f"\n{pad}]"
        return "[" + ", ".join([_dumps(u, level + 1) for u in v]) + "]"
    raise TypeError(f"cannot serialize {type(v).__name__}")


def _emit(command: str, inputs: dict, body: dict):
    """Print one report: the envelope, the command's input, then its body."""
    print(_dumps({"schema": SCHEMA, "version": __version__, "command": command,
                  "input": inputs, **body}))


# ---------------------------------------------------------------------------
# system files
# ---------------------------------------------------------------------------

_QUBIT_TOKENS = ("1", "x", "y", "z")


def _parse_matrix(rep: str, literal: str, lineno: int) -> np.ndarray:
    try:
        data = json.loads(literal)
    except json.JSONDecodeError as exc:
        raise SystemFileError(f"line {lineno}: bad matrix literal ({exc})")
    complex_field = rep != "r3"

    def entry(v):
        if isinstance(v, (int, float)) and not isinstance(v, bool):
            return complex(v) if complex_field else float(v)
        if isinstance(v, str) and complex_field:
            return complex(v.replace(" ", ""))
        raise SystemFileError(f"line {lineno}: bad matrix entry {v!r}")

    try:
        m = np.array([[entry(v) for v in row] for row in data])
    except SystemFileError:
        raise
    except (TypeError, ValueError):
        raise SystemFileError(f"line {lineno}: matrix literal must be a "
                              f"list of rows of equal length")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise SystemFileError(f"line {lineno}: matrix must be square, "
                              f"got shape {m.shape}")
    return m


def _parse_operator(rep: str, token: str, lineno: int,
                    noise: bool = False) -> np.ndarray:
    """Named axis token or JSON matrix literal -> operator matrix."""
    if token.startswith("["):
        return _parse_matrix(rep, token, lineno)
    if rep == "r3":
        if noise:
            if token.startswith("diag:"):
                try:
                    vals = [float(v) for v in token[5:].split(",")]
                except ValueError:
                    raise SystemFileError(f"line {lineno}: bad diag token "
                                          f"{token!r}")
                return np.diag(vals)
            raise SystemFileError(f"line {lineno}: r3 noise must be "
                                  f"'diag:a,b,c' or a matrix literal")
        if token in H_AXIS:
            return H_AXIS[token]
        raise SystemFileError(f"line {lineno}: unknown r3 axis {token!r}")
    if rep == "qubit":
        if token in _QUBIT_TOKENS:
            return sigma(token) / 2.0
        raise SystemFileError(f"line {lineno}: unknown qubit axis {token!r}")
    try:
        return two_qubit_operator(token)
    except ValueError:
        raise SystemFileError(f"line {lineno}: unknown two-qubit axis "
                              f"token {token!r}")


def parse_system_file(text: str):
    """Parse the flat key/value system format -> (ControlSystem, options)."""
    rep = None
    drift = None
    controls = []
    lindblad = []
    options = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        key = parts[0]
        value = parts[1].strip() if len(parts) > 1 else ""
        if key == "rep":
            if value not in ("r3", "qubit", "two_qubit"):
                raise SystemFileError(f"line {lineno}: unknown rep {value!r}")
            rep = value
            continue
        if key in ("drift", "control", "lindblad") and rep is None:
            raise SystemFileError(f"line {lineno}: 'rep' must come before "
                                  f"'{key}'")
        if key == "drift":
            drift = _parse_operator(rep, value, lineno)
        elif key == "control":
            controls.append(_parse_operator(rep, value, lineno))
        elif key == "lindblad":
            op_str, _, rate_str = value.rpartition(" ")
            if not op_str:
                raise SystemFileError(f"line {lineno}: lindblad needs "
                                      f"'<operator> <rate>'")
            try:
                rate = float(rate_str)
            except ValueError:
                raise SystemFileError(f"line {lineno}: bad rate {rate_str!r}")
            lindblad.append((_parse_operator(rep, op_str.strip(), lineno,
                                             noise=True), rate))
        elif key in ("samples", "rounds", "seed"):
            try:
                options[key] = int(value)
            except ValueError:
                raise SystemFileError(f"line {lineno}: {key} needs an "
                                      f"integer, got {value!r}")
        elif key in ("tol", "horizon"):
            try:
                options[key] = float(value)
            except ValueError:
                raise SystemFileError(f"line {lineno}: {key} needs a number, "
                                      f"got {value!r}")
        else:
            raise SystemFileError(f"line {lineno}: unknown key {key!r}")
    if rep is None:
        raise SystemFileError("missing 'rep' line")
    n = 3 if rep == "r3" else (2 if rep == "qubit" else 4)
    if drift is None:
        drift = np.zeros((n, n))
    try:
        system = ControlSystem(rep=rep, drift_H=drift, controls=tuple(controls),
                               lindblad_ops=tuple(lindblad))
    except ValueError as exc:
        raise SystemFileError(f"invalid system: {exc}")
    return system, options


def format_system_file(system: ControlSystem, options: dict = None) -> str:
    """Emit a system as the flat key/value format (17-digit round-trip).

    Matrix entries are written without spaces: floats on r3, quoted
    ``"re+imj"`` strings on the quantum representations."""
    leaf = '"%.17g%+.17gj"' if system.rep != "r3" else "%.17g"
    lines = [f"rep {system.rep}",
             f"drift {_format_array(system.drift_H, leaf, ',')}"]
    for c in system.controls:
        lines.append(f"control {_format_array(c, leaf, ',')}")
    for v, g in system.lindblad_ops:
        lines.append(f"lindblad {_format_array(v, leaf, ',')} {_fmt(g)}")
    for k, v in (options or {}).items():
        lines.append(f"{k} {_fmt(v) if isinstance(v, float) else v}")
    return "\n".join(lines) + "\n"


def _load_system(args):
    try:
        with open(args.system, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SystemFileError(f"cannot read {args.system}: {exc}")
    return parse_system_file(text)


_AT_LEAST_ONE = ("samples", "rounds", "pairs", "theta-steps", "count", "switches")
_POSITIVE = ("tol", "t", "horizon", "gamma")


def _checked(values: dict) -> dict:
    """Reject counts below 1, negative seeds and non-positive or non-finite
    tolerances, times and rates, from flags and system files alike, before
    any work."""
    for k, v in values.items():
        if k in _AT_LEAST_ONE and v < 1:
            raise ValueError(f"{k} must be at least 1, got {v}")
        if k == "seed" and v < 0:
            raise ValueError(f"seed must be non-negative, got {v}")
        if k in _POSITIVE and not 0 < v < np.inf:
            raise ValueError(f"{k} must be positive and finite, got {v}")
    return values


def _saturation_options(args, file_options: dict) -> dict:
    opts = dict(_SATURATION_DEFAULTS)
    opts.update({k: v for k, v in file_options.items() if k in opts})
    for k in opts:
        v = getattr(args, k, None)
        if v is not None:
            opts[k] = v
    return _checked(opts)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def _system_report(system: ControlSystem) -> dict:
    return {
        "rep": system.rep,
        "n_controls": system.n_controls,
        "drift_H": system.drift_H,
        "controls": system.controls,
        "lindblad_ops": [{"operator": v, "rate": g}
                         for v, g in system.lindblad_ops],
    }


def _conditions_report(system: ControlSystem) -> dict:
    rep = check_conditions(system)
    return {
        "dim_kc": rep.dim_kc,
        "dim_kd": rep.dim_kd,
        "dim_s": rep.dim_s,
        "dim_target_k": rep.dim_target_k,
        "dim_target_s": rep.dim_target_s,
        "holds_H": rep.holds_H,
        "holds_WH": rep.holds_WH,
        "holds_A": rep.holds_A,
    }


_CLOSED_FORMS = {RotationOrbit: "rotation-orbit", MomentCurve: "moment-curve"}


def _wedge_report(w) -> dict:
    """The wedge by the data that fixes it: the edge, and the cone over the
    orbit of `base` under the edge's group (`family`), or over its ray when
    there is no family.  `closed_form` names the closed form
    (`Cone.exact`) that decides membership, if any."""
    family = w.cone.analytic
    return {
        "edge_dim": w.edge.dim,
        "wedge_dim": w.dim,
        "cone": {
            "n_generators": w.cone.n_generators,
            "pointed": w.cone.pointed,
            "tol": w.cone.tol,
        },
        "base": superop_from_ptm(w.drift - w.edge.project(w.drift)),
        "family": None if family is None else {
            "kind": family.kind,
            "closed_form": _CLOSED_FORMS.get(type(w.cone.exact)),
            "periods": family.periods,
            "periodic": family.periodic,
            "seeds": tuple(superop_from_ptm(np.stack(family.seeds))),
        },
        "saturation": dict(w.saturation),
    }


def _saturate_system(system: ControlSystem, opts: dict):
    return saturate(initial_wedge(system), orbit_samples=opts["samples"],
                    max_rounds=opts["rounds"], tol=opts["tol"],
                    seed=opts["seed"])


def _exit_code(w) -> int:
    return 0 if w.saturation.get("converged", False) else 1


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_example(args) -> int:
    spec = ChannelSpec(name=f"example{args.number}")
    system = build_system(spec)
    opts = _saturation_options(args, {})
    w = _saturate_system(system, opts)
    _emit("example", {"example": args.number, **opts}, {
        "system": _system_report(system),
        "conditions": _conditions_report(system),
        **_wedge_report(w),
    })
    return _exit_code(w)


def cmd_channel(args) -> int:
    t = args.t
    if not 0 <= t < np.inf:
        raise ValueError(f"time must be nonnegative and finite, got {t}")
    rates = tuple(args.gamma) if args.gamma is not None else None
    spec = ChannelSpec(name=args.name, rates=rates)
    system = build_system(spec)
    body = {"system": _system_report(system)}
    kraus = None
    try:
        ks = kraus_family(spec, t)
        kraus = {
            "t": t,
            "operators": ks.operators,
            "rank": kraus_rank(kraus_superop(ks)),
        }
    except ValueError as exc:
        body["kraus_unavailable"] = str(exc)
    body["kraus"] = kraus
    if spec.rep != "r3":
        body["cptp_audit"] = cptp_audit(propagator(lindbladian(system), t))
    else:
        body["cptp_audit"] = None
    _emit("channel", {"name": args.name, "rates": spec.rates, "t": t}, body)
    return 0


def cmd_wedge(args) -> int:
    system, file_options = _load_system(args)
    opts = _saturation_options(args, file_options)
    w = _saturate_system(system, opts)
    _emit("wedge", {"system": args.system, **opts}, {
        "system": _system_report(system),
        **_wedge_report(w),
    })
    return _exit_code(w)


def cmd_conditions(args) -> int:
    system, _ = _load_system(args)
    _emit("conditions", {"system": args.system}, {
        "system": _system_report(system),
        "conditions": _conditions_report(system),
    })
    return 0


def cmd_semialgebra(args) -> int:
    probe = _checked({"pairs": args.pairs, "t": args.t})
    system, file_options = _load_system(args)
    opts = _saturation_options(args, file_options)
    w = _saturate_system(system, opts)
    witness = semialgebra_probe(w, pair_samples=args.pairs,
                                t_grid=(args.t,), seed=opts["seed"])
    _emit("semialgebra", {"system": args.system, **probe, **opts}, {
        **_wedge_report(w),
        "verdict": ("witness-found" if witness is not None
                    else "no-counterexample-found"),
        "witness": None if witness is None else {
            "A": superop_from_ptm(witness.A),
            "B": superop_from_ptm(witness.B),
            "t": witness.t,
            "residual": witness.residual,
            "product": superop_from_ptm(witness.product),
            "offending_component": superop_from_ptm(witness.offending_component),
        },
    })
    return _exit_code(w)


def cmd_reachable(args) -> int:
    system, file_options = _load_system(args)
    horizon = file_options.get("horizon", 1.0)
    _checked({"horizon": horizon, "count": args.count,
              "switches": args.switches, "seed": args.seed})
    samples = sample_reachable(system, args.count, args.switches,
                               horizon=horizon, seed=args.seed)
    summary = {"count": args.count, "switches": args.switches,
               "seed": args.seed, "horizon": horizon}
    if system.rep != "r3":
        audit = cptp_audit(np.stack(samples))
        summary["max_tp_defect"] = float(audit["tp_defect"].max())
        summary["min_choi_eig"] = float(audit["choi_min_eig"].min())
        summary["all_cptp"] = bool((audit["is_tp"] & audit["is_cp"]).all())
    else:
        summary["max_spectral_norm"] = max(
            float(np.linalg.norm(s, 2)) for s in samples)
    # the audit's schedule draws from the stream after the samples' streams
    audit_seed = np.random.SeedSequence(args.seed).spawn(args.count + 1)[-1]
    sched = random_schedule(system.n_controls, args.switches, horizon, audit_seed)
    try:
        audit = contraction_audit(system, sched, grid=50)
    except ValueError as exc:
        audit = {"unavailable": str(exc)}
    _emit("reachable", {"system": args.system, "switches": args.switches,
                        "count": args.count, "seed": args.seed}, {
        "system": _system_report(system),
        "samples": summary,
        "contraction_audit": audit,
    })
    return 0


_FIG_SPECS = {
    "2a": ("theta,c_Hx,c_Hz,c_Gamma0", "example2", (H_X, H_Z, "gamma0")),
    "2b": ("theta,c_Hy,c_Hz,c_Gamma0", "example2", (H_Y, H_Z, "gamma0")),
    "3": ("theta,c_Hx,c_Hz,c_py,c_Delta,c_Gamma0", "example3",
          (H_X, H_Z, P_Y, "delta", "gamma0")),
}


def cmd_figdata(args) -> int:
    header, which, basis = _FIG_SPECS[args.figure]
    gamma = args.gamma
    steps = args.theta_steps
    _checked({"gamma": gamma, "theta-steps": steps})
    system = build_system(ChannelSpec(which, rates=(gamma,)))
    gamma0 = system.lindblad_ops[0][0]
    named = {"gamma0": gamma0, "delta": example3_delta()}
    mats = [named.get(b, b) if isinstance(b, str) else b for b in basis]
    drift = system.drift_H + gamma0
    print(header)
    for k in range(steps):
        theta = 2.0 * np.pi * k / steps
        u = expm(theta * H_Y)
        g = u @ drift @ u.T
        coords = [inner(g, m) / inner(m, m) for m in mats]
        print(",".join([_fmt(theta)] + [_fmt(c) for c in coords]))
    return 0


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

def _add_saturation_flags(p):
    p.add_argument("--samples", type=int, default=None,
                   help="sampled cone generators, one sweep of the orbit")
    p.add_argument("--rounds", type=int, default=None,
                   help="maximum saturation rounds")
    p.add_argument("--tol", type=float, default=None,
                   help="membership/rank tolerance")
    p.add_argument("--seed", type=int, default=None, help="random seed")


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and then reused;
    parsing leaves it unchanged, so every call of `main` shares it."""
    parser = argparse.ArgumentParser(
        prog="liewedge",
        description="Lie wedges of controlled Lindblad channel semigroups")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("example", help="saturate a rotation-carrier example")
    p.add_argument("number", type=int, choices=(1, 2, 3))
    _add_saturation_flags(p)
    p.set_defaults(func=cmd_example)

    p = sub.add_parser("channel", help="named channel report with Kraus data")
    p.add_argument("name")
    p.add_argument("--gamma", type=float, nargs="+", default=None,
                   help="damping rate(s)")
    p.add_argument("--t", type=float, default=1.0, help="evaluation time")
    p.set_defaults(func=cmd_channel)

    p = sub.add_parser("wedge", help="saturate the wedge of a system file")
    p.add_argument("--system", required=True)
    _add_saturation_flags(p)
    p.set_defaults(func=cmd_wedge)

    p = sub.add_parser("conditions", help="controllability conditions")
    p.add_argument("--system", required=True)
    p.set_defaults(func=cmd_conditions)

    p = sub.add_parser("semialgebra", help="BCH-closure probe")
    p.add_argument("--system", required=True)
    p.add_argument("--pairs", type=int, default=200)
    p.add_argument("--t", type=float, default=1e-2)
    _add_saturation_flags(p)
    p.set_defaults(func=cmd_semialgebra)

    p = sub.add_parser("reachable", help="sample reachable channels")
    p.add_argument("--system", required=True)
    p.add_argument("--switches", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_reachable)

    p = sub.add_parser("figdata", help="CSV of projected cone samples")
    p.add_argument("figure", choices=("2a", "2b", "3"))
    p.add_argument("--theta-steps", type=int, default=360)
    p.add_argument("--gamma", type=float, default=1.0)
    p.set_defaults(func=cmd_figdata)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except np.linalg.LinAlgError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
