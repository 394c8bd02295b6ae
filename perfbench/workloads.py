"""The three workloads: inputs drawn from the seed, calls into worldfunc and
the output check of every op.

A workload hands out *calls*.  A call is ``(n_ops, run, check)``: ``run()``
does the program's work and is the only part timed, ``check(result)`` returns
a dict mapping a failure reason to the number of the call's ``n_ops`` ops
that failed for it.  A call that raises fails all its ops.  Calls come in
rounds of ``round_size``, and a run ends on a round boundary.
``known_failures`` names today's known defects: ops failing for one of
these reasons count as defective, not failed, and a correct run shows no
other reason; and ``stable`` is false once an output that must
repeat between rounds did not.  ``traced_modules`` are the worldfunc
modules the workload enters, which the traced run reports.  Every workload
is a closed loop: one caller on one thread issues the next call when the
previous one has returned.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np

from perfbench.stats import tail_percentile

DEFORMED_TABLE = [[-2.0, -2.1], [-0.5, -0.52], [0.0, 0.0], [0.5, 0.53], [2.0, 2.1]]


def substrate_geometries(wf):
    """The Minkowski-substrate geometries the solver workload cycles through."""
    return [("minkowski", wf.Geometry.minkowski()),
            ("discrete", wf.Geometry.discrete(0.01)),
            ("grainy", wf.Geometry.grainy(0.01, 0.03)),
            ("deformed", wf.Geometry.deformed(wf.DeformationFunction.from_table(DEFORMED_TABLE)))]


def substrate_input(rng, cls: int):
    """(p0, p1, q0) in the 4-d chart with p1 - p0 near the light cone (cls 0),
    timelike (cls 1) or spacelike (cls 2)."""
    p0 = rng.uniform(-1.0, 1.0, 4)
    q0 = rng.uniform(-1.0, 1.0, 4)
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    r = rng.uniform(0.3, 1.5)
    if cls == 0:
        dt = r * (1.0 + rng.uniform(-1e-3, 1e-3))
    elif cls == 1:
        dt = r * rng.uniform(1.2, 2.0)
    else:
        dt = r * rng.uniform(0.0, 0.8)
    dt *= rng.choice([-1.0, 1.0])
    return p0, p0 + np.concatenate([[dt], r * v]), q0


class Solve:
    """Multistart equivalence solves: 500 Euclidean-3 solves at starts=4,
    max_iter=60 and 60 Minkowski-substrate solves at starts=64 per round, in a
    seeded shuffled order; every round draws fresh inputs."""

    name = "solve"
    EUCLID, SUBSTRATE = 500, 60
    round_size = min_calls = EUCLID + SUBSTRATE
    tail_pct = tail_percentile(min_calls)
    known_failures = frozenset()
    stable = True  # every round draws new inputs: nothing to compare
    traced_modules = ("equivalence", "geometry")

    def __init__(self, wf, seed: int, workdir: Path):
        self.wf = wf
        self.seed = seed
        self.sigma = wf.sigma  # bound now: checks stay outside any trace
        self.e3 = wf.Geometry.euclidean(3)
        self.substrates = substrate_geometries(wf)
        self.first_round = self._round(0)

    def _round(self, r: int) -> list:
        wf = self.wf
        rng = np.random.default_rng([self.seed, r])
        jobs = []
        for k in range(self.EUCLID):
            p0, p1, q0 = rng.uniform(-3.0, 3.0, (3, 3))
            jobs.append((self.e3, p0, p1, q0, wf.SolverConfig(starts=4, max_iter=60, seed=k)))
        for k in range(self.SUBSTRATE):
            _, g = self.substrates[k % len(self.substrates)]
            p0, p1, q0 = substrate_input(rng, (k // len(self.substrates)) % 3)
            jobs.append((g, p0, p1, q0, wf.SolverConfig(starts=64, seed=k)))
        return [jobs[i] for i in rng.permutation(len(jobs))]

    def _call(self, job):
        g, p0, p1, q0, cfg = job

        def run():
            return self.wf.solve_equivalent(g, p0, p1, q0, cfg)

        def check(sol):
            if g.kind == "euclidean":
                if sol.variance != "single" or len(sol.representatives) != 1:
                    return {"euclid_not_single": 1}
                if np.linalg.norm(sol.representatives[0] - (q0 + p1 - p0)) >= 1e-6:
                    return {"euclid_not_translation": 1}
            two_a = 2.0 * self.sigma(g, p0, p1)
            for x, (r_par, r_len) in zip(sol.representatives, sol.residuals):
                scale = max(1.0, abs(two_a), abs(2.0 * self.sigma(g, q0, x)))
                if not (abs(r_par) <= cfg.tol * scale and abs(r_len) <= cfg.tol * scale):
                    return {"residual_above_tol": 1}
            return {}

        return 1, run, check

    def warmup(self):
        self._call(self.first_round[0])[1]()

    def calls(self):
        r = 0
        while True:
            jobs = self.first_round if r == 0 else self._round(r)
            for job in jobs:
                yield self._call(job)
            r += 1

    def trace_calls(self):
        return [self._call(job) for job in self.first_round[:self.min_calls // 5]]


# (label, lambda0_sq, keep_chains): the README example, test_09's diffusive
# regime and a high-boost case; the first and last show today's chain defect
CHAIN_CONFIGS = (("readme", 0.005, True), ("test_09", 1e-5, False), ("boost", 0.02, False))
CHAIN_SIZE = 1000  # chains per ensemble and steps per chain
DRIFT_LIMIT = 1e-12  # link-length drift the simulate_ensemble docstring promises


def chain_failures(drift, points=None) -> dict:
    """Per-chain check: non-finite state, or link-length drift above DRIFT_LIMIT."""
    nonfinite = ~np.isfinite(drift)
    if points is not None:
        nonfinite |= ~np.all(np.isfinite(points), axis=(1, 2))
    drifted = ~nonfinite & (drift > DRIFT_LIMIT)
    return {"nonfinite": int(nonfinite.sum()), "drift": int(drifted.sum())}


class Chain:
    """World-chain ensembles: one call is one simulate_ensemble of 1000 chains
    x 1000 steps at link_sigma_m = 0.5; one op is one chain."""

    name = "chain"
    round_size = len(CHAIN_CONFIGS)
    min_calls = 7 * round_size
    tail_pct = tail_percentile(min_calls)
    known_failures = frozenset({"nonfinite", "drift"})
    traced_modules = ("chains", "geometry")

    def __init__(self, wf, seed: int, workdir: Path):
        self.wf = wf
        self.params = [(label, wf.ChainParams(geometry=wf.Geometry.discrete(lam), link_sigma_m=0.5,
                                              steps=CHAIN_SIZE, ensemble=CHAIN_SIZE, seed=seed), keep)
                       for label, lam, keep in CHAIN_CONFIGS]
        self.seen: dict = {}
        self.stable = True

    def _call(self, label, params, keep):
        def run():
            return self.wf.simulate_ensemble(params, keep_chains=keep)

        def check(result):
            stats, points = result if keep else (result, None)
            failures = chain_failures(stats.link_length_drift, points)
            # same params, same seed: the failures must repeat exactly
            self.stable &= self.seen.setdefault(label, failures) == failures
            return failures

        return params.ensemble, run, check

    def warmup(self):
        _, params, keep = self.params[0]
        one = self.wf.ChainParams(geometry=params.geometry, link_sigma_m=params.link_sigma_m,
                                  steps=params.steps, ensemble=1, seed=params.seed)
        self.wf.simulate_ensemble(one, keep_chains=keep)

    def calls(self):
        while True:
            for cfg in self.params:
                yield self._call(*cfg)

    def trace_calls(self):
        return [self._call(*cfg) for cfg in self.params]


class _NonStrictJSON(ValueError):
    pass


def _reject_constant(name):
    raise _NonStrictJSON(f"non-standard JSON constant {name}")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Cli:
    """The README's commands run in-process through worldfunc.cli.main on
    generated input files; one op is one command, one round runs each once."""

    name = "cli"
    round_size = 9
    # four rounds put the tail (p72.2) mid-way through the same command's
    # samples whatever the number of rounds, not between two commands
    min_calls = 4 * round_size
    tail_pct = tail_percentile(min_calls)
    # `chain` at 1000 steps writes NaN into its manifest; nothing else may fail
    known_failures = frozenset({"chain.manifest_not_strict_json"})
    traced_modules = ("cli", "equivalence", "geometry", "objects", "chains")

    def __init__(self, wf, seed: int, workdir: Path):
        self.cli = wf.cli
        rng = np.random.default_rng([seed, 2])
        inp = workdir / "in"
        inp.mkdir(parents=True, exist_ok=True)
        pts = inp / "pts.json"
        pts.write_text(json.dumps(rng.uniform(-1.0, 1.0, (200, 4)).tolist()))
        sk = inp / "skeleton.json"
        sk.write_text(json.dumps(rng.uniform(-1.0, 1.0, (3, 3)).tolist()))
        s = str(seed)
        self.commands = [
            ("sigma", "sigma", ["sigma", "--geometry", "discrete:lambda0_sq=0.01", "--points", str(pts)]),
            ("eqv_check", "eqv_check",
             ["eqv", "check", "--geometry", "minkowski", "--a-origin", "0,0,0,0",
              "--a-end", "0.7,1,0,0.7", "--b-origin", "0,0,0,0", "--b-end", "0,1,0,0"]),
            ("eqv_solve", "eqv_solve",
             ["eqv", "solve", "--geometry", "minkowski", "--p0", "0,0,0,0", "--p1", "0,1,0,0",
              "--q0", "0,0,0,0", "--seed", s]),
            ("eqv_witness_discrete", "eqv_witness",
             ["eqv", "witness", "--geometry", "discrete:lambda0_sq=0.01", "--seed", "7"]),
            ("eqv_witness_euclidean", "eqv_witness",
             ["eqv", "witness", "--geometry", "euclidean:dim=3", "--seed", s, "--budget", "2000"]),
            ("tube", "tube",
             ["tube", "--geometry", "discrete:lambda0_sq=0.02", "--p0", "0,0,0,0", "--p1", "2,0,0,0",
              "--seed", s]),
            ("object", "object",
             ["object", "--geometry", "euclidean:dim=3", "--skeleton", str(sk), "--envelope", "cylinder",
              "--random", "1000", "--seed", s]),
            # the README example at a reduced ensemble and its own seed 42
            ("chain", "chain",
             ["chain", "--geometry", "discrete:lambda0_sq=0.005", "--link-sigma-m", "0.5",
              "--steps", "1000", "--ensemble", "64", "--seed", "42", "--raw"]),
            ("density", "density",
             ["density", "--lambda0-sq", "0.01", "--sigma0", "0.03", "--grid=-0.1:0.1:101"]),
        ]
        self.expect = {"eqv_check": ("equivalent", True),
                       "eqv_witness_discrete": ("found", True),
                       "eqv_witness_euclidean": ("found", False)}
        self.outdir = workdir / "out"
        self.digests: dict = {}
        self.stable = True
        self.bytes_per_round: dict = {}

    def _call(self, name, manifest_name, argv):
        out = self.outdir / name
        full = argv + ["--out-dir", str(out)]

        def run():
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                return self.cli.main(full)

        def check(rc):
            reason = verdict(rc)
            return {f"{name}.{reason}": 1} if reason else {}

        def verdict(rc):
            if rc != 0:
                return f"exit_{rc}"
            manifest_path = out / f"{manifest_name}_manifest.json"
            text = manifest_path.read_text()
            manifest = json.loads(text)
            files = [Path(v["path"]) for v in manifest["outputs"].values()]
            digests = {p.name: _sha256(p) for p in files}
            self.bytes_per_round[name] = len(text.encode()) + sum(p.stat().st_size for p in files)
            same = self.digests.setdefault(name, digests) == digests
            self.stable &= same
            try:
                json.loads(text, parse_constant=_reject_constant)
            except _NonStrictJSON:
                return "manifest_not_strict_json"
            if any(manifest["outputs"][k]["sha256"] != d for k, d in digests.items()):
                return "manifest_digest_wrong"
            if not same:
                return "output_changed"
            if name in self.expect:
                key, want = self.expect[name]
                got = json.loads(files[0].read_text()).get(key)
                if got is not want:
                    return f"{key}_not_{want}"
            return None

        return 1, run, check

    def warmup(self):
        name, manifest_name, argv = self.commands[1]  # eqv check: parser and writers, little compute
        with contextlib.redirect_stdout(io.StringIO()):
            self.cli.main(argv + ["--out-dir", str(self.outdir / "warmup")])

    def calls(self):
        while True:
            for cmd in self.commands:
                yield self._call(*cmd)

    def trace_calls(self):
        return [self._call(*cmd) for cmd in self.commands]


WORKLOADS = {w.name: w for w in (Solve, Chain, Cli)}
