"""Command-line frontend: desk experiments on world-function geometries.

Every command resolves its full configuration, writes CSV/JSON outputs with
round-trip decimal precision (raw chain points as exact float64 .npy) and a
run manifest with sha256 digests, so a run can be reproduced bit for bit.

Exit codes: 0 success; 1 a usage error or an input the library rejects
(InvalidInputError); 2 any other WorldFunctionError, a numerical failure.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import hashlib
import json
import re
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .chains import ChainParams, simulate_ensemble
from .equivalence import (
    SolverConfig,
    TubeSamplerConfig,
    find_intransitivity_witness,
    is_equivalent,
    sample_segment_tube,
    solve_equivalent,
)
from .errors import InvalidInputError, WorldFunctionError
from .geometry import Geometry, GeomVector, _finite, as_point, relative_density, sigma
from .objects import Envelope, Skeleton, evaluate_envelope, object_membership


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a value that starts like a negative number (-1,0,0,0 or
        # -0.1:0.1:11) is a value, not an option
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):  # argparse would exit(2); usage errors are exit 1
        raise UsageError(message)


# ---------------------------------------------------------------------------
# parsing helpers
# ---------------------------------------------------------------------------

def parse_geometry(spec: str) -> Geometry:
    """Geometry mini-language: 'euclidean:dim=3', 'minkowski',
    'discrete:lambda0_sq=0.01', 'grainy:lambda0_sq=0.01,sigma0=0.03',
    'deformed:file=F.json'; or '@path.json' for a full serialized spec.

    Either form becomes the dict that ``Geometry.from_dict`` reads; a deformed
    spec takes that dict, its F and units, from the file."""
    try:
        if spec.startswith("@"):
            return Geometry.from_dict(_load_spec(spec, spec[1:]))
        kind, _, rest = spec.partition(":")
        opts = {}
        if rest:
            for item in rest.split(","):
                key, _, val = item.partition("=")
                if not val:
                    raise UsageError(f"malformed geometry option {item!r}")
                opts[key.strip()] = val.strip()
        if kind == "deformed":
            if "file" not in opts:
                raise UsageError(f"geometry {spec!r} is missing option 'file'")
            opts = _load_spec(spec, opts["file"])
        return Geometry.from_dict({**opts, "kind": kind})
    except WorldFunctionError as exc:
        raise UsageError(f"bad geometry spec {spec!r}: {exc}") from exc


def _load_spec(spec: str, path: str) -> dict:
    """The JSON object of a geometry spec file."""
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise UsageError(f"bad geometry spec {spec!r}: {path} must hold a JSON object")
    return obj


def parse_point(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"bad point {text!r}: {exc}") from exc


def _load_points(path: str, dim: int | None = None) -> list:
    """The points of a JSON array file, each checked by ``as_point``."""
    if not isinstance(points := _load_json(path), list):
        raise UsageError(f"{path} must hold a JSON array of points, not {type(points).__name__}")
    return [as_point(p, dim=dim) for p in points]


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path} is not valid JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

_CSV_BLOCK = 4096  # rows per formatted block of _write_csv


def _write_csv(path: Path, header: str, *columns) -> None:
    """CSV of equal-length 1-D columns: integer columns as ``str``, every
    other column as the round-trip ``repr`` of its float64 values.

    A non-finite value is a numerical failure, as in ``_write_json``: it
    raises naming the file and the column, and nothing is written.  Rows are
    formatted from ``tolist()`` by one ``%`` template per row, a block at a
    time, so the Python objects alive at once stay bounded.
    """
    cols = [c if c.dtype.kind in "iu" else np.asarray(c, dtype=float)
            for c in map(np.asarray, columns)]
    for name, c in zip(header.split(","), cols):
        if c.dtype.kind == "f" and not np.isfinite(c).all():
            raise WorldFunctionError(f"{path.name} would hold a non-finite value in column {name}")
    row = ",".join("%d" if c.dtype.kind in "iu" else "%r" for c in cols) + "\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for start in range(0, len(cols[0]), _CSV_BLOCK):
            block = zip(*(c[start:start + _CSV_BLOCK].tolist() for c in cols))
            fh.write("".join(map(row.__mod__, block)))


def _write_json(path: Path, payload: dict) -> str:
    """Write and return strict JSON; a non-finite value is a numerical failure.

    numpy arrays and scalars are written through ``tolist()``; np.float64 is
    a float and needs nothing.
    """
    payload = {"schema_version": 1, **payload}
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False,
                          default=lambda o: o.tolist()) + "\n"
    except ValueError as exc:
        raise WorldFunctionError(f"{path.name} would hold a non-finite value") from exc
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return text


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            h.update(block)
    return h.hexdigest()


def _write_manifest(args, g, outputs, started: str, extras: dict | None = None) -> None:
    """The run manifest; its config holds every parsed option, so the run can
    be repeated from it, beside the geometry those options built."""
    command = f"eqv_{args.mode}" if args.command == "eqv" else args.command
    options = {k: v for k, v in vars(args).items() if k not in ("func", "command")}
    manifest = {
        "tool": "worldfunc",
        "version": __version__,
        "command": command,
        "seed": options.get("seed"),
        "config": {"args": options} if g is None else {"geometry": g.to_dict(), "args": options},
        "started_utc": started,
        "finished_utc": _utcnow(),
        "outputs": {p.name: {"path": str(p), "sha256": _sha256(p)} for p in outputs},
        **(extras or {}),
    }
    _write_json(Path(args.out_dir) / f"{command}_manifest.json", manifest)


def _utcnow() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


# ---------------------------------------------------------------------------
# commands: each writes its outputs and returns (outputs, message, manifest
# extras); main() records the options, stamps the run and writes the manifest
# ---------------------------------------------------------------------------

def cmd_sigma(args, g):
    pts = np.reshape(_load_points(args.points, g.dim), (-1, g.dim))
    i, j = np.triu_indices(len(pts))
    out = Path(args.out_dir) / args.out
    _write_csv(out, "i,j,sigma", i, j, sigma(g, pts[i], pts[j]))
    return [out], f"wrote {i.size} sigma values to {out}", None


def _eqv_result(args, payload):
    """Write an eqv mode's JSON payload, which is also its message."""
    out = Path(args.out_dir) / f"eqv_{args.mode}.json"
    return [out], _write_json(out, payload).rstrip("\n"), None


def cmd_eqv_check(args, g):
    a = GeomVector(parse_point(args.a_origin), parse_point(args.a_end))
    b = GeomVector(parse_point(args.b_origin), parse_point(args.b_end))
    return _eqv_result(args, asdict(is_equivalent(g, a, b, args.tol)))


def cmd_eqv_solve(args, g):
    points = [parse_point(p) for p in (args.p0, args.p1, args.q0)]
    sol = solve_equivalent(g, *points, SolverConfig.from_dict(vars(args)))
    return _eqv_result(args, sol.to_dict())


def cmd_eqv_witness(args, g):
    witness = find_intransitivity_witness(g, seed=args.seed, budget=args.budget, tol=args.tol)
    if witness is None:
        payload = {"found": False, "budget": args.budget}
    else:
        a, b, c = witness
        payload = {"found": True,
                   "a": {"origin": a.origin, "end": a.end},
                   "b": {"origin": b.origin, "end": b.end},
                   "c": {"origin": c.origin, "end": c.end}}
    return _eqv_result(args, payload)


def cmd_tube(args, g):
    cfg = TubeSamplerConfig.from_dict(vars(args))
    tube = sample_segment_tube(g, parse_point(args.p0), parse_point(args.p1), cfg)
    out_dir = Path(args.out_dir)
    cloud = out_dir / args.out_cloud
    coords = ",".join(f"x{i}" for i in range(g.dim))
    _write_csv(cloud, f"t,r,{coords}", *tube.points.T)
    profile = out_dir / args.out_profile
    found = np.isfinite(tube.profile)  # an empty station has no radius: no row
    _write_csv(profile, "t,radius", tube.arc_positions[found], tube.profile[found])
    message = f"wrote {tube.points.shape[0]} member points to {cloud}, profile to {profile}"
    return [cloud, profile], message, {"empty_stations": tube.empty_stations,
                                       "rays_without_crossing": tube.rays_without_crossing}


def cmd_object(args, g):
    for name in ("random", "seed"):
        if getattr(args, name) < 0:
            raise UsageError(f"--{name} must be an integer >= 0, got {getattr(args, name)}")
    _finite("--box-half-width", args.box_half_width, 0.0)
    sk = Skeleton(_load_points(args.skeleton, g.dim))
    env = Envelope.cylinder() if args.envelope == "cylinder" \
        else Envelope.from_dict(_load_json(args.envelope))
    if args.probes:
        probes = np.reshape(_load_points(args.probes, g.dim), (-1, g.dim))
    else:
        rng = np.random.default_rng(args.seed)
        center = np.mean(np.stack(sk.points), axis=0)
        probes = center + rng.uniform(-args.box_half_width, args.box_half_width,
                                      (args.random, g.dim))
    # an envelope without R terms evaluates to one value for all probes
    vals = np.broadcast_to(evaluate_envelope(g, sk, env, probes), (len(probes),))
    member = np.broadcast_to(object_membership(g, sk, env, probes, args.tol), (len(probes),))
    out = Path(args.out_dir) / args.out
    coords = ",".join(f"x{i}" for i in range(g.dim))
    _write_csv(out, f"{coords},envelope_value,member", *probes.T, vals, member)
    return [out], f"wrote {len(probes)} probes to {out}", None


def cmd_chain(args, g):
    params = ChainParams.from_dict({**vars(args), "geometry": g})
    out, raw = Path(args.out_dir) / args.out_stats, Path(args.out_dir) / args.out_raw
    if args.raw:
        stats, points = simulate_ensemble(params, keep_chains=True)
        raw.parent.mkdir(parents=True, exist_ok=True)
        with open(raw, "wb") as fh:  # np.save of a path would append .npy to its name
            np.save(fh, points, allow_pickle=False)
    else:
        stats = simulate_ensemble(params)
    _write_csv(out, "step,mean_t,var_transverse,mean_angle",
               stats.step, stats.mean_t, stats.var_transverse, stats.mean_angle)
    extras = {"deflection_angle": params.deflection,
              "max_link_length_drift": float(stats.link_length_drift.max()),
              "max_gamma": float(stats.max_gamma.max())}
    message = f"wrote chain statistics for {params.ensemble} chains x {params.steps} steps to {out}"
    return [out, raw] if args.raw else [out], message, extras


def cmd_density(args, _g):
    try:
        lo, hi, count = args.grid.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError as exc:
        raise UsageError(f"bad grid {args.grid!r}, expected MIN:MAX:COUNT") from exc
    if not (np.isfinite(hi - lo) and count >= 0):  # a non-finite MIN or MAX makes it inf or nan
        raise UsageError(f"bad grid {args.grid!r}: MIN, MAX and MAX - MIN must be finite, COUNT >= 0")
    grid = np.linspace(lo, hi, count)
    rho = relative_density(args.lambda0_sq, args.sigma0, grid)
    out = Path(args.out_dir) / args.out
    _write_csv(out, "sigma_g,rho", grid, np.atleast_1d(rho))
    return [out], f"wrote {grid.size} density values to {out}", None


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> _Parser:
    """The parser of every command, built once: parse_args keeps no state in it."""
    parser = _Parser(prog="worldfunc",
                     description="Desk experiments on world-function geometries")
    parser.add_argument("--version", action="version", version=f"worldfunc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(subparsers, name, func, help, geometry=True, seed=True, tol=True, config=None):
        """A command's parser with the shared options it reads, or one per config field."""
        p = subparsers.add_parser(name, help=help)
        if geometry:
            p.add_argument("--geometry", required=True,
                           help="euclidean:dim=N | minkowski | discrete:lambda0_sq=X | "
                                "grainy:lambda0_sq=X,sigma0=Y | deformed:file=F.json | @spec.json")
        if seed and config is None:
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out-dir", default=".")
        if tol and config is None:
            p.add_argument("--tol", type=float, default=1e-9)
        for field, kind, _, _ in config._fields() if config else ():
            if field != "geometry":  # a field without a default has no class attribute
                p.add_argument("--" + field.replace("_", "-"), type=kind,
                               default=getattr(config, field, None),
                               required=not hasattr(config, field))
        p.set_defaults(func=func)
        return p

    p = command(sub, "sigma", cmd_sigma, "table of world-function values for a point file",
                seed=False, tol=False)
    p.add_argument("--points", required=True, help="JSON file with an array of points")
    p.add_argument("--out", default="sigma.csv")

    eqv = sub.add_parser("eqv", help="equivalence check / solve / intransitivity witness")
    modes = eqv.add_subparsers(dest="mode", required=True)
    p = command(modes, "check", cmd_eqv_check, "test two vectors for equivalence", seed=False)
    for name in ("--a-origin", "--a-end", "--b-origin", "--b-end"):
        p.add_argument(name, required=True)
    p = command(modes, "solve", cmd_eqv_solve, "end points Q1 with Q0Q1 equivalent to P0P1",
                config=SolverConfig)
    for name in ("--p0", "--p1", "--q0"):
        p.add_argument(name, required=True)
    p = command(modes, "witness", cmd_eqv_witness, "build an intransitive triple")
    p.add_argument("--budget", type=int, default=10000)

    p = command(sub, "tube", cmd_tube, "sample a segment as a tube", config=TubeSamplerConfig)
    p.add_argument("--p0", required=True)
    p.add_argument("--p1", required=True)
    p.add_argument("--out-cloud", default="tube_cloud.csv")
    p.add_argument("--out-profile", default="tube_profile.csv")

    p = command(sub, "object", cmd_object, "probe membership of a skeleton/envelope object")
    p.add_argument("--skeleton", required=True, help="JSON file with skeleton points")
    p.add_argument("--envelope", default="cylinder",
                   help="'cylinder' or a JSON expression file")
    p.add_argument("--probes", help="JSON file with probe points")
    p.add_argument("--random", type=int, default=1000,
                   help="number of random probes when --probes is absent")
    p.add_argument("--box-half-width", type=float, default=2.0)
    p.add_argument("--out", default="object_probes.csv")

    p = command(sub, "chain", cmd_chain, "simulate a world-chain ensemble", config=ChainParams)
    p.add_argument("--raw", action="store_true", help="also write the chain points as .npy")
    p.add_argument("--out-stats", default="chain_stats.csv")
    p.add_argument("--out-raw", default="chains.npy")

    p = command(sub, "density", cmd_density, "relative point density over a sigma_g grid",
                geometry=False, seed=False, tol=False)
    p.add_argument("--lambda0-sq", type=float, required=True)
    p.add_argument("--sigma0", type=float, required=True)
    p.add_argument("--grid", required=True, help="MIN:MAX:COUNT")
    p.add_argument("--out", default="density.csv")

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        started = _utcnow()
        g = parse_geometry(args.geometry) if "geometry" in args else None
        # an overflow reaches the user as the writers' or the library's error
        # (exit 2), not as numpy's warnings; the library's values are unchanged
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            outputs, message, extras = args.func(args, g)
        _write_manifest(args, g, outputs, started, extras)
        print(message)
        return 0
    except (UsageError, InvalidInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except WorldFunctionError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
