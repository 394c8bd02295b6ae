"""Layer-alone timings: each public function called directly on fixed inputs
drawn from the seed, with no tracer installed.  Only the sigma-pair count per
solve comes from a second, traced pass over the same solves, and sigma's bytes
per pair from a pass under tracemalloc."""

from __future__ import annotations

import math
import statistics
import time
import tracemalloc

import numpy as np

from perfbench.tracer import Tracer
from perfbench.workloads import CHAIN_SIZE, substrate_geometries, substrate_input

SIGMA_PAIRS = 1_000_000
BYTES_PAIRS = 100_000  # batch whose allocations tracemalloc counts
REPEATS = 3


def _median_time(fn, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def peak_bytes(fn) -> int:
    """Peak bytes fn() allocates while it runs, as tracemalloc sees them
    (numpy reports its array buffers to tracemalloc)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def geometry_layer(wf, rng) -> dict:
    out = {}
    kinds = [("euclidean", wf.Geometry.euclidean(3))] + substrate_geometries(wf)
    for kind, g in kinds:
        p = rng.uniform(-1.0, 1.0, (SIGMA_PAIRS, g.dim))
        q = rng.uniform(-1.0, 1.0, (SIGMA_PAIRS, g.dim))
        t = _median_time(lambda: wf.sigma(g, p, q))
        out[f"geometry.sigma_ns_per_pair.{kind}"] = t / SIGMA_PAIRS * 1e9
        bp, bq = p[:BYTES_PAIRS], q[:BYTES_PAIRS]
        out[f"geometry.sigma_bytes_per_pair.{kind}"] = peak_bytes(lambda: wf.sigma(g, bp, bq)) / BYTES_PAIRS
    g = wf.Geometry.discrete(0.01)
    pts = list(rng.uniform(-1.0, 1.0, (2000, 4)))

    def scalar():
        for a, b in zip(pts[:-1], pts[1:]):
            wf.sigma(g, a, b)

    out["geometry.sigma_scalar_us"] = _median_time(scalar) / (len(pts) - 1) * 1e6
    return out


def equivalence_layer(wf, rng, seed: int) -> dict:
    out = {}
    e3 = wf.Geometry.euclidean(3)
    jobs = {"euclidean": [(e3, *rng.uniform(-3.0, 3.0, (3, 3)),
                           wf.SolverConfig(starts=4, max_iter=60, seed=k)) for k in range(20)]}
    for kind, g in substrate_geometries(wf):
        jobs[kind] = [(g, *substrate_input(rng, cls), wf.SolverConfig(starts=64, seed=cls))
                      for cls in range(3)]
    attempted = converged = 0
    for kind, kind_jobs in jobs.items():
        times = []
        for g, p0, p1, q0, cfg in kind_jobs:
            t0 = time.perf_counter()
            sol = wf.solve_equivalent(g, p0, p1, q0, cfg)
            times.append(time.perf_counter() - t0)
            attempted += sol.diagnostics.starts_attempted
            converged += sol.diagnostics.converged_count
        out[f"equivalence.solve_ms.{kind}"] = statistics.median(times) * 1e3
    out["equivalence.converged_ratio"] = converged / attempted
    # the same solves again, counting the sigma pairs equivalence asks for
    tracer = Tracer()
    tracer.install([wf.equivalence], [])
    try:
        for kind_jobs in jobs.values():
            for g, p0, p1, q0, cfg in kind_jobs:
                wf.solve_equivalent(g, p0, p1, q0, cfg)
    finally:
        tracer.uninstall()
    counted = tracer.records[("equivalence", "geometry.sigma")].items
    out["equivalence.sigma_pairs_per_solve"] = counted / sum(len(j) for j in jobs.values())

    g = wf.Geometry.discrete(0.02)
    cfg = wf.TubeSamplerConfig(seed=seed)
    tube = None

    def sample():
        nonlocal tube
        tube = wf.sample_segment_tube(g, (0, 0, 0, 0), (2, 0, 0, 0), cfg)

    out["equivalence.tube_ms"] = _median_time(sample) * 1e3
    out["equivalence.tube_found_ratio"] = float(np.isfinite(tube.radii).mean())
    g = wf.Geometry.discrete(0.01)
    out["equivalence.witness_ms"] = _median_time(
        lambda: wf.find_intransitivity_witness(g, seed=7), 5) * 1e3
    m = wf.Geometry.minkowski()
    pairs = [tuple(wf.GeomVector(*pts) for pts in rng.uniform(-1.0, 1.0, (2, 2, 4)))
             for _ in range(1000)]

    def check_all():
        for a, b in pairs:
            wf.is_equivalent(m, a, b)

    out["equivalence.is_equivalent_us"] = _median_time(check_all) / len(pairs) * 1e6
    return out


def objects_layer(wf, rng) -> dict:
    g = wf.Geometry.euclidean(3)
    sk = wf.Skeleton(tuple(rng.uniform(-1.0, 1.0, (3, 3))))
    env = wf.Envelope.cylinder()
    probes = rng.uniform(-2.0, 2.0, (100_000, 3))
    t = _median_time(lambda: wf.object_membership(g, sk, env, probes))
    scalar_probes = probes[:500]

    def scalar():
        for r in scalar_probes:
            wf.object_membership(g, sk, env, r)

    return {"objects.membership_ns_per_probe": t / len(probes) * 1e9,
            "objects.membership_scalar_us": _median_time(scalar) / len(scalar_probes) * 1e6}


def chains_layer(wf, seed: int) -> dict:
    params = wf.ChainParams(geometry=wf.Geometry.discrete(1e-5), link_sigma_m=0.5,
                            steps=CHAIN_SIZE, ensemble=CHAIN_SIZE, seed=seed)
    t = _median_time(lambda: wf.simulate_ensemble(params), 1)

    def draws():
        for i in range(CHAIN_SIZE):
            wf.chain_rng(seed, i).uniform(0.0, 2.0 * math.pi, CHAIN_SIZE)

    length = math.sqrt(2.0 * params.link_sigma_m)
    start = (np.zeros(4), np.array([length, 0.0, 0.0, 0.0]))

    def steps():
        rng = wf.chain_rng(seed, 0)
        state = start
        for _ in range(CHAIN_SIZE):
            state = wf.step_chain(state, params, rng)

    return {"chains.ns_per_chain_step": t / CHAIN_SIZE ** 2 * 1e9,
            "chains.rng_ms": _median_time(draws) * 1e3,
            "chains.step_chain_us": _median_time(steps) / CHAIN_SIZE * 1e6}


def run_layers(wf, seed: int) -> dict:
    rng = np.random.default_rng([seed, 3])
    out = geometry_layer(wf, rng)
    out.update(equivalence_layer(wf, rng, seed))
    out.update(objects_layer(wf, rng))
    out.update(chains_layer(wf, seed))
    return out
