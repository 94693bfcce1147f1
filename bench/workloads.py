"""Seeded inputs and operations of the three workloads.

Each workload builds a pool of rounds; a round is a fixed list of operations
whose kinds and families are the same in every round, so the share of any
family in a run does not depend on the seed or on how many rounds fit.

* sweep: `declqr sweep --config` on 2x2 cost-landscape grids, both kinds.
* dense: `declqr solve`, `declqr check oracle` and `declqr reduce` on system
  files with n = 16 (second-order n = 8).
* ring:  decentral.find_uniform_gain on circulant quadruples with n = 1024.

Operations call declqr through module attributes (cli.cli_main,
decentral.find_uniform_gain) so that a traced run sees them.
"""

import io
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from declqr import cli, decentral, models, sysfile
from declqr.secondorder import SecondOrderSystem
from declqr.spectral import CirculantSpec, identity_spec

DENSE_N = 16
SECOND_ORDER_N = 8
RING_N = 1024
POOL_ROUNDS = {"sweep": 16, "dense": 8, "ring": 8}


@dataclass
class Op:
    """One timed operation.

    run is timed and returns the raw result; collect turns it into a hashable
    output (reading any files the run wrote) outside the timed interval;
    check(output, checks_module) returns None for a right output and a reason
    otherwise. Outputs are tuples whose first element is 0 when the program
    reported success.
    known_fault marks the family that fails today through a named fault.
    """

    slot: int
    kind: str
    family: str
    run: Callable
    collect: Callable
    check: Callable
    known_fault: bool = False


def _cli_op(argv):
    def run():
        buf = io.StringIO()
        code = cli.cli_main(argv, out=buf)
        return code, buf.getvalue()

    return run


def _as_is(raw):
    return raw


def _spd(rng, n):
    M = rng.normal(size=(n, n)) / np.sqrt(n)
    return M.T @ M + np.eye(n)


class _Pool:
    """Numbers ops by slot and writes their input files into one directory."""

    def __init__(self, rng, workdir):
        self.rng = rng
        self.workdir = workdir
        self.slots = 0

    def path(self, name):
        return os.path.join(self.workdir, name)

    def op(self, kind, family, run, collect, check, known_fault=False):
        self.slots += 1
        return Op(self.slots - 1, kind, family, run, collect, check, known_fault)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _sweep_op(pool, kind, axis1, axis2, curve_samples=None):
    slot = pool.slots
    config = {"kind": kind, "axis1": axis1, "axis2": axis2}
    if curve_samples is not None:
        config["curve_samples"] = curve_samples
    cfg_path = pool.path(f"config{slot}.json")
    csv_path = pool.path(f"sweep{slot}.csv")
    with open(cfg_path, "w") as fh:
        json.dump(config, fh)
    points = [
        (float(x1), float(x2))
        for x1 in np.geomspace(axis1["min"], axis1["max"], axis1["steps"])
        for x2 in np.geomspace(axis2["min"], axis2["max"], axis2["steps"])
    ]

    def collect(raw):
        code, text = raw
        if code != 0:
            return raw
        with open(csv_path, "rb") as fh:
            csv_bytes = fh.read()
        with open(csv_path[:-4] + ".json", "rb") as fh:
            sidecar = fh.read()
        return code, text, csv_bytes, sidecar

    def check(out, ch):
        return ch.check_sweep(kind, points, out[2], out[3])

    run = _cli_op(["sweep", "--config", cfg_path, "--output", csv_path])
    return pool.op("sweep", kind, run, collect, check)


def _log_axis(lo, hi, steps):
    return {"min": lo, "max": hi, "steps": steps, "spacing": "log"}


def sweep_round(pool):
    """A `qr` grid of 7 x 9 points and a `qa` grid of 7 x 7 points plus 14
    locus samples: 63 two-by-two solves each. Every axis is log-spaced over
    [1/h, h] with an odd step count, so `qr` contains the single decentralized
    point (1, 1), `qa` holds the locus q0 a2 = 1 on its anti-diagonal, and
    every other point is at least 19% away from the locus."""
    rng = pool.rng
    h1, h2, h3 = rng.uniform(2.0, 8.0, 3)
    return [
        _sweep_op(pool, "qr", _log_axis(1 / h1, h1, 7), _log_axis(1 / h2, h2, 9)),
        _sweep_op(pool, "qa", _log_axis(1 / h3, h3, 7), _log_axis(1 / h3, h3, 7), 14),
    ]


# ---------------------------------------------------------------------------
# dense
# ---------------------------------------------------------------------------

def random_dense(rng, n):
    """A with spectral radius about 3, B = I + small noise, random SPD Q, R."""
    A = 1.5 * rng.normal(size=(n, n)) / np.sqrt(n)
    B = np.eye(n) + 0.2 * rng.normal(size=(n, n)) / np.sqrt(n)
    return A, B, _spd(rng, n), _spd(rng, n)


def diagonal_optimum_dense(rng, n):
    """B = R = I and Q = D^2 - A'D - DA, so P = K = D is diagonal.

    D = s diag(u) with u in [1, 1.4] and s = 3 ||A||_2 + 1 keeps Q positive
    definite: ||A'D + DA|| <= 2.8 s ||A||_2 < s^2 <= lambda_min(D^2)."""
    A = 1.5 * rng.normal(size=(n, n)) / np.sqrt(n)
    D = np.diag((3.0 * np.linalg.norm(A, 2) + 1.0) * rng.uniform(1.0, 1.4, n))
    Q = D @ D - (A.T @ D + D @ A)
    return A, np.eye(n), (Q + Q.T) / 2.0, np.eye(n)


def random_second_order(rng, n):
    def noise():
        return rng.normal(size=(n, n)) / np.sqrt(n)

    return SecondOrderSystem(
        A1=-np.eye(n) + 0.5 * noise(), A2=-0.5 * np.eye(n) + 0.3 * noise(),
        B0=np.eye(n) + 0.2 * noise(), Q0=_spd(rng, n), Q2=_spd(rng, n), R0=_spd(rng, n),
    )


def diagonal_second_order(rng, n):
    """Every block diagonal: decoupled stations, so the gain is decentralized."""
    def d(lo, hi):
        return np.diag(rng.uniform(lo, hi, n))

    return SecondOrderSystem(
        A1=d(-2.0, -0.5), A2=d(-1.0, 0.0), B0=d(0.5, 2.0),
        Q0=d(0.5, 2.0), Q2=d(0.5, 2.0), R0=d(0.5, 2.0),
    )


def _dense_op(pool, mode, family, mats, expect=None):
    path = pool.path(f"dense{pool.slots}.json")
    sysfile.save_system(sysfile.dense_document(*mats), path)
    argv = ["solve"] if mode == "solve" else ["check", "oracle"]

    def check(out, ch):
        if mode == "solve":
            return ch.check_solve(out[1], *mats)
        return ch.check_oracle(out[1], *mats, expect)

    return pool.op(mode, family, _cli_op(argv + ["--system", path]), _as_is, check)


def _reduce_op(pool, family, sos, expect):
    path = pool.path(f"dense{pool.slots}.json")
    sysfile.save_system(sysfile.second_order_document(sos), path)
    blocks = (sos.A1, sos.A2, sos.B0, sos.Q0, sos.Q2, sos.R0)

    def check(out, ch):
        return ch.check_reduce(out[1], *blocks, expect)

    return pool.op("reduce", family, _cli_op(["reduce", "--system", path]), _as_is, check)


def dense_round(pool):
    """Six ops of 0.15-0.2 s each: solve, oracle and reduce, each once on a
    random instance (gain not decentralized) and once on an instance built to
    have a diagonal optimum."""
    rng, n = pool.rng, DENSE_N
    return [
        _dense_op(pool, "solve", "random", random_dense(rng, n)),
        _dense_op(pool, "solve", "diagonal", diagonal_optimum_dense(rng, n)),
        _dense_op(pool, "oracle", "random", random_dense(rng, n), False),
        _dense_op(pool, "oracle", "diagonal", diagonal_optimum_dense(rng, n), True),
        _reduce_op(pool, "random", random_second_order(rng, SECOND_ORDER_N), False),
        _reduce_op(pool, "diagonal", diagonal_second_order(rng, SECOND_ORDER_N), True),
    ]


# ---------------------------------------------------------------------------
# ring
# ---------------------------------------------------------------------------

def _row_from_symbol(symbol):
    """First row of the circulant whose frequency-k eigenvalue is symbol[k]."""
    return np.real(np.fft.fft(symbol)) / len(symbol)


def _even_symbol(rng, n, lo, hi):
    """Real eigenvalue sequence with s[k] == s[n-k]: a symmetric circulant."""
    s = rng.uniform(lo, hi, n)
    s[n - np.arange(1, n // 2 + 1)] = s[np.arange(1, n // 2 + 1)]
    return s


def diffusion_ring(rng, n):
    """Ring diffusion with the decentralizing derivative cost; K = I."""
    delta = float(rng.uniform(0.5, 2.0))
    q, r, c = models.diffusion_decentralizing_cost(n, delta)
    return (models.diffusion_operator(n, delta), identity_spec(n), q, r), c


def symmetric_gain_ring(rng, n):
    """Symmetric A, B, R with B > 0, and Q chosen so K = c I exactly:
    q(k) = r(k) (c^2 - 2 c a(k)/b(k)) with c above every 2 a(k)/b(k)."""
    ah = _even_symbol(rng, n, -1.0, 1.0)
    bh = _even_symbol(rng, n, 0.5, 2.5)
    rh = _even_symbol(rng, n, 0.5, 2.5)
    c = float(max(np.max(2.0 * ah / bh), 0.0) + rng.uniform(0.5, 2.0))
    qh = rh * (c * c - 2.0 * c * ah / bh)
    specs = tuple(CirculantSpec(_row_from_symbol(s)) for s in (ah, bh, qh, rh))
    return specs, c


def no_gain_ring(rng, n):
    """Symmetric A, B = I and unrelated SPD Q, R: the gain varies with k."""
    ah = _even_symbol(rng, n, -1.0, 1.0)
    qh = _even_symbol(rng, n, 0.2, 3.0)
    rh = _even_symbol(rng, n, 0.2, 3.0)
    a, q, r = (CirculantSpec(_row_from_symbol(s)) for s in (ah, qh, rh))
    return (a, identity_spec(n), q, r), None


def nonsymmetric_gain_ring(n):
    """Fixed non-symmetric A (first row 0.3, 1, 0, ..., 0, -0.2), B = R = I,
    q(k) = 16 - 8 Re a(k): the exact per-frequency Riccati gives K = 4 I.
    The inputs do not depend on the seed."""
    row = np.zeros(n)
    row[0], row[1], row[-1] = 0.3, 1.0, -0.2
    a = CirculantSpec(row)
    ah = np.fft.ifft(row) * n
    q = CirculantSpec(_row_from_symbol(16.0 - 8.0 * ah.real))
    return (a, identity_spec(n), q, identity_spec(n)), 4.0


def _ring_op(pool, family, instance, known_fault=False):
    specs, constructed = instance
    a, b, q, r = specs

    def run():
        return 0, decentral.find_uniform_gain(a, b, q, r)

    def check(out, ch):
        exact = ch.exact_uniform_gain(
            ch.exact_frequency_gains(*(s.first_row for s in specs))
        )
        if (exact is None) != (constructed is None) or (
            exact is not None and ch.check_ring(exact, constructed) is not None
        ):
            return "exact per-frequency gain contradicts the construction"
        return ch.check_ring(out[1], exact)

    return pool.op("ring", family, run, _as_is, check, known_fault)


def ring_round(pool):
    """Eight n = 1024 queries: 2 diffusion rings, 2 symmetric uniform-gain
    instances, 3 instances with no uniform gain, and 1 fixed non-symmetric
    instance with K = 4 I, which find_uniform_gain misses today because its
    candidate formula assumes real a(k), b(k)."""
    rng, n = pool.rng, RING_N
    return [
        _ring_op(pool, "diffusion", diffusion_ring(rng, n)),
        _ring_op(pool, "symmetric-gain", symmetric_gain_ring(rng, n)),
        _ring_op(pool, "no-gain", no_gain_ring(rng, n)),
        _ring_op(pool, "diffusion", diffusion_ring(rng, n)),
        _ring_op(pool, "symmetric-gain", symmetric_gain_ring(rng, n)),
        _ring_op(pool, "no-gain", no_gain_ring(rng, n)),
        _ring_op(pool, "no-gain", no_gain_ring(rng, n)),
        _ring_op(pool, "nonsymmetric-gain", nonsymmetric_gain_ring(n), known_fault=True),
    ]


ROUND_BUILDERS = {"sweep": sweep_round, "dense": dense_round, "ring": ring_round}


def build_rounds(workload, seed, workdir):
    """The workload's pool of rounds for this seed, input files in workdir."""
    pool = _Pool(np.random.default_rng([seed, sorted(ROUND_BUILDERS).index(workload)]), workdir)
    return [ROUND_BUILDERS[workload](pool) for _ in range(POOL_ROUNDS[workload])]
