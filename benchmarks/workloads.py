"""The four workloads: seeded lists of `bdhit` CLI jobs and what each must output.

A job is the argument list handed to `bdhit.cli.main` (the worker adds
`--out-dir`), a check kind and the parameters that check needs.  All
randomness comes from the workload seed; the program sees only the
generated chain files, samples files and flags.

Each workload function returns (jobs, failing).  `failing` holds the jobs that the
program as it stands gets wrong (NOTES.md); they run only with
`known_failures=True`, so that the default lists hold only jobs the
program gets right and `failed` stays 0 until a change breaks something.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

import reference

WORKLOADS = ("build-large", "grid-eval", "recover", "monte-carlo")

INPUTS = "inputs"  # relative to the work directory the jobs run in
T0 = 0.005  # the CLI's default t0 for numeric recovery


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple
    check: str
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Chain:
    """A chain as the CLI sees it (flags) and as the checks see it (doc)."""

    name: str
    flags: tuple
    doc: dict
    kappa: object = None  # set for the symmetric walk

    @property
    def n(self):
        return self.doc["N"]


def sym_chain(kappa, n):
    """The constant-rate walk with an integer kappa, so its rates stay exact."""
    doc = {"N": n, "lambda": [kappa] * (n - 1) + [0], "mu": [kappa] * n}
    flags = ("--model", "symmetric_rw", "--kappa", str(kappa), "--N", str(n))
    return Chain(f"sym{kappa}-{n}", flags, doc, kappa)


def _write_spec(inputs, name, doc):
    with open(os.path.join(inputs, f"{name}.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return Chain(name, ("--spec", f"{INPUTS}/{name}.json"), doc)


def _random_rates(rng, n):
    """Float rates drawn from U[0.5, 3]; the top birth rate is 0."""
    lam = rng.uniform(0.5, 3.0, n)
    mu = rng.uniform(0.5, 3.0, n)
    lam[-1] = 0.0
    return {"N": n, "lambda": lam.tolist(), "mu": mu.tolist()}


def random_chain(rng, inputs, name, n):
    return _write_spec(inputs, name, _random_rates(rng, n))


def typical_chain(rng, inputs, name, n, jumps, draws=200):
    """A random chain and 3-state nu whose mean jump count per path is nearest `jumps`.

    Jumps to absorption vary over 20x between U[0.5, 3] chains, and the
    simulation's work with them; picking the nearest of `draws` seeded
    candidates gives every seed the same amount of work.
    """
    best = None
    for _ in range(draws):
        doc = _random_rates(rng, n)
        nu = draw_nu(rng, 3, n)
        gap = abs(math.log(reference.mean_jumps(*reference.rates(doc), nu) / jumps))
        if best is None or gap < best[0]:
            best = (gap, doc, nu)
    return _write_spec(inputs, name, best[1]), best[2]


def rational_chain(rng, inputs, name, n):
    """Exact rates k/4 with k in 2..12, so the CLI keeps Fractions."""
    lam = [f"{int(k)}/4" for k in rng.integers(2, 13, n)]
    mu = [f"{int(k)}/4" for k in rng.integers(2, 13, n)]
    lam[-1] = "0"
    return _write_spec(inputs, name, {"N": n, "lambda": lam, "mu": mu})


def draw_nu(rng, k, top):
    """k distinct states in 1..top with masses in thousandths summing to 1."""
    states = sorted(int(s) for s in rng.choice(np.arange(1, top + 1), size=k, replace=False))
    cuts = np.sort(rng.choice(np.arange(1, 1000), size=k - 1, replace=False))
    counts = np.diff(np.concatenate([[0], cuts, [1000]]))
    return {s: int(c) / 1000 for s, c in zip(states, counts)}


def nu_flag(nu):
    return ",".join(f"{s}:{m!r}" for s, m in nu.items())


# ------------------------------------------------------------------ job kinds


def spectrum(chain):
    return Job(f"spectrum-{chain.name}", ("spectrum", *chain.flags), "spectrum",
               {"doc": chain.doc, "kappa": chain.kappa})


def density(chain, tag, state=None, nu=None, count=200, t_max=5.0, log=False):
    argv = ["density", *chain.flags, "--t-count", str(count), "--t-max", repr(t_max)]
    if log:
        argv.append("--log-grid")
    if nu is not None:
        argv += ["--nu", nu_flag(nu)]
    else:
        argv += ["--state", str(state)]
    params = {"doc": chain.doc, "kappa": chain.kappa, "state": state, "nu": nu,
              "grid": (0.01, t_max, count, log)}
    return Job(f"density-{tag}-{chain.name}", tuple(argv), "density", params)


def transition(chain, i, j, count):
    argv = ("transition", *chain.flags, "--from", str(i), "--to", str(j),
            "--t-count", str(count))
    params = {"doc": chain.doc, "from": i, "to": j, "grid": (0.01, 5.0, count, False)}
    return Job(f"transition-{i}-{j}-{chain.name}", argv, "transition", params)


def continuous_density(kappa, nodes, count):
    argv = ("density", "--model", "symmetric_rw", "--kappa", str(kappa), "--continuous",
            "--nodes", str(nodes), "--t-count", str(count))
    params = {"kappa": kappa, "grid": (0.01, 5.0, count, False)}
    return Job(f"density-continuous-{nodes}", argv, "continuous_density", params)


def reproduce(chain, tag, nu, j_max, mode, samples=None):
    argv = ["reproduce", *chain.flags, "--mode", mode, "--j-max", str(j_max)]
    if samples is None:
        argv += ["--nu", nu_flag(nu)]
    else:
        argv += ["--samples", samples]
    return Job(f"reproduce-{tag}-{chain.name}", tuple(argv), "reproduce", {"nu": nu})


def cmatrix(chain, rows):
    argv = ("cmatrix", *chain.flags, "--rows", str(rows))
    return Job(f"cmatrix-{rows}-{chain.name}", argv, "cmatrix",
               {"doc": chain.doc, "kappa": chain.kappa})


def htransform_gamma(kappa, n, gamma, branch):
    argv = ("htransform", "--model", "symmetric_rw", "--kappa", str(kappa), "--N", str(n),
            "--gamma", gamma, "--branch", branch)
    x = 1.0 + float(Fraction(gamma)) / (2.0 * kappa)
    alpha = x + math.sqrt(x * x - 1.0)
    if branch == "minus":
        alpha = 1.0 / alpha
    return Job(f"htransform-k{kappa}-g{gamma.replace('/', 'o')}-{branch}-{n}", argv,
               "htransform", {"n": n, "lam": kappa * alpha, "mu": kappa / alpha})


def htransform_target(lam, mu, n):
    argv = ("htransform", "--target-lambda", lam, "--target-mu", mu, "--N", str(n))
    return Job(f"htransform-l{lam.replace('/', 'o')}-m{mu.replace('/', 'o')}-{n}", argv,
               "htransform", {"n": n, "lam": float(Fraction(lam)), "mu": float(Fraction(mu))})


def simulate(chain, nu, paths, seed):
    """Horizon 60 / theta_min: a path outlives it with probability ~e^-60."""
    lam, mu = reference.rates(chain.doc)
    horizon = 60.0 / float(reference.atoms(lam, mu)[0])
    argv = ("simulate", *chain.flags, "--nu", nu_flag(nu), "--paths", str(paths),
            "--horizon", repr(horizon), "--seed", str(seed))
    return Job(f"simulate-{paths}-{chain.name}", argv, "simulate",
               {"doc": chain.doc, "nu": nu, "paths": paths})


def verify(chain):
    return Job(f"verify-{chain.name}", ("verify", *chain.flags), "verify")


# ------------------------------------------------------------------ workloads


def build_large(rng, inputs):
    # `density` at N = 2000 (7 to 10 s) is left out so that two passes fit
    # in a run; `density` at N = 1000 covers the evaluator's own psi table
    jobs = [spectrum(sym_chain(1, 1000)), density(sym_chain(1, 1000), "1", state=1),
            spectrum(sym_chain(1, 2000))]
    # random rates: wrong results from N = 40 on (NOTES.md)
    failing = []
    for n in (500, 1000, 2000):
        rand = random_chain(rng, inputs, f"rand-{n}", n)
        failing += [spectrum(rand), density(rand, "1", state=1)]
    return jobs, failing


def _grid_jobs(rng, chain, count):
    top = min(chain.n, 10)
    nu = draw_nu(rng, 3, top)
    state = int(rng.integers(1, top + 1))
    i, j = (int(x) for x in rng.integers(1, top + 1, 2))
    return [
        density(chain, "nu", nu=nu, count=count),
        density(chain, f"log{state}", state=state, count=count, t_max=20.0, log=True),
        transition(chain, i, j, count),
    ]


def grid_eval(rng, inputs):
    count = 20000
    jobs = _grid_jobs(rng, sym_chain(1, 200), count)
    jobs += _grid_jobs(rng, random_chain(rng, inputs, "rand-20", 20), count)
    jobs.append(continuous_density(1, 512, count))
    # random rates at N = 30 miss 1e-10 on some seeds (NOTES.md)
    failing = _grid_jobs(rng, random_chain(rng, inputs, "rand-30", 30), count)
    return jobs, failing


def write_samples(inputs, name, chain, nu):
    """Blind-mode input: exact density samples on both recovery windows."""
    t = np.unique(np.concatenate([np.linspace(0.6 * T0, 1.4 * T0, 101),
                                  np.linspace(0.3 * T0, 0.7 * T0, 101)]))
    lam, mu = reference.rates(chain.doc)
    f = reference.hitting_density(lam, mu, nu, t)
    with open(os.path.join(inputs, f"{name}.csv"), "w", encoding="utf-8") as fh:
        fh.write("t,f\n")
        for tt, ff in zip(t, f):
            fh.write(f"{float(tt)!r},{float(ff)!r}\n")
    return f"{INPUTS}/{name}.csv"


def _recover_jobs(rng, inputs, chain):
    jobs = []
    for k in range(6):
        nu = draw_nu(rng, 3, 4)
        jobs.append(reproduce(chain, f"numeric4-{k}", nu, 4, "numeric"))
        jobs.append(reproduce(chain, f"spectral{4 + 6 * (k % 2)}-{k}", nu,
                              4 + 6 * (k % 2), "spectral"))
    for k in range(2):
        nu = draw_nu(rng, 3, 4)
        samples = write_samples(inputs, f"samples-{chain.name}-{k}", chain, nu)
        jobs.append(reproduce(chain, f"blind4-{k}", nu, 4, "numeric", samples))
    if not chain.name.startswith("rand"):  # exact rates only
        jobs.append(cmatrix(chain, chain.n))
    return jobs


def recover(rng, inputs):
    chains = [
        sym_chain(1, 10),
        sym_chain(1, 30),
        random_chain(rng, inputs, "rand-10", 10),
        random_chain(rng, inputs, "rand-20", 20),
        rational_chain(rng, inputs, "rat-10", 10),
        rational_chain(rng, inputs, "rat-20", 20),
    ]
    jobs = []
    failing = []
    for chain in chains:
        jobs += _recover_jobs(rng, inputs, chain)
        # j_max = 6 is off on states reported reliable, on every chain
        nu6 = draw_nu(rng, 3, 6)
        failing.append(reproduce(chain, "numeric6", nu6, 6, "numeric"))
        samples = write_samples(inputs, f"samples6-{chain.name}", chain, nu6)
        failing.append(reproduce(chain, "blind6", nu6, 6, "numeric", samples))
    for kappa in (2, 3):
        jobs.append(cmatrix(sym_chain(kappa, 30), 30))
    for n in (10, 30):
        for kappa in (1, 2):
            gamma = f"{int(rng.integers(1, 9))}/4"
            for branch in ("plus", "minus"):
                jobs.append(htransform_gamma(kappa, n, gamma, branch))
        rates = [f"{int(k)}/4" for k in rng.choice(np.arange(2, 13), 4, replace=False)]
        jobs += [htransform_target(rates[0], rates[1], n), htransform_target(rates[2], rates[3], n)]
    # spectral recovery of every state of an N = 30 chain is off; random and
    # exact-rate chains with N = 30, as the workload first had them, are off
    # on some seeds even at j_max = 4 (NOTES.md)
    failing.append(reproduce(chains[1], "spectral30", draw_nu(rng, 3, 30), 30, "spectral"))
    failing += _recover_jobs(rng, inputs, random_chain(rng, inputs, "rand-30", 30))
    failing += _recover_jobs(rng, inputs, rational_chain(rng, inputs, "rat-30", 30))
    return jobs, failing


def monte_carlo(rng, inputs):
    rand, nu = typical_chain(rng, inputs, "rand-10", 10, jumps=60.0)
    sym = sym_chain(1, 10)
    seeds = [int(s) for s in rng.integers(0, 2**62, 2)]
    # 1e4 paths, not 1e5, so that a pass takes about 2 s and eight or more
    # fit in a run: each job's time is then a median over passes spread
    # across the whole run, which host drift moves less (NOTES.md)
    jobs = [
        simulate(rand, nu, 10_000, seeds[0]),
        simulate(sym, {1: 1.0}, 10_000, seeds[1]),
        verify(rand),
        verify(sym_chain(1, 30)),
    ]
    # verify on the drifted (2, 1) walk never finishes (NOTES.md): left out
    return jobs, []


def smoke(rng, inputs):
    """One small job of every kind, for the benchmark's own tests."""
    rand = random_chain(rng, inputs, "rand-8", 8)
    nu = draw_nu(rng, 2, 2)
    jobs = [
        spectrum(sym_chain(1, 20)),
        density(sym_chain(1, 20), "1", state=1, count=50),
        transition(rand, 1, 2, 50),
        continuous_density(1, 128, 50),
        reproduce(rand, "numeric2", nu, 2, "numeric"),
        reproduce(rand, "spectral2", nu, 2, "spectral"),
        cmatrix(sym_chain(1, 8), 8),
        htransform_gamma(1, 8, "1/2", "plus"),
        htransform_target("2", "1", 8),
        simulate(rand, nu, 500, 7),
        verify(sym_chain(1, 6)),
    ]
    return jobs, []


_JOB_LISTS = {
    "build-large": build_large,
    "grid-eval": grid_eval,
    "recover": recover,
    "monte-carlo": monte_carlo,
    "smoke": smoke,
}


def build(workload, seed, work, known_failures=False):
    """The workload's job list for this seed; writes its input files under `work`."""
    inputs = os.path.join(work, INPUTS)
    os.makedirs(inputs, exist_ok=True)
    rng = np.random.default_rng([seed, list(_JOB_LISTS).index(workload)])
    jobs, failing = _JOB_LISTS[workload](rng, inputs)
    if known_failures:
        jobs += failing
    names = [j.name for j in jobs]
    if len(set(names)) != len(names):
        raise ValueError(f"{workload}: duplicate job names")
    return jobs
