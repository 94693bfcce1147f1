"""Constructors for the worked physical systems.

* a linearized two-species predator-prey model with logistic growth, at its
  coexistence equilibrium, controlled by stocking/harvesting each species;
* discrete diffusion of n subsystems on a ring, with the cost that makes the
  optimal gain the identity;
* heat transfer between two heated chambers across a shared wall;
* the 2x2 rotation-plus-growth plant used for cost-landscape studies, a
  member of decentral's diagonal-cost family, which builds its matrices.

Units are documented on the parameter types but not enforced; constructors
emit plain dimensionless matrices for the solvers.
"""

from dataclasses import dataclass, fields

import numpy as np

from .decentral import RATIO_TOL, DiagonalCost2x2, approx_equal, balance_ratio
from .errors import InputError
from .matcore import as_positive_real
from .spectral import CirculantSpec, _ring_size, identity_spec


@dataclass
class PredatorPreyParams:
    """Strictly positive model constants.

    r1, r2: intrinsic growth rates (1/time); k1, k2: carrying capacities
    (population); b: predation rate (1/(population*time)); e: conversion
    rate (dimensionless).
    """

    r1: float
    r2: float
    k1: float
    k2: float
    b: float
    e: float

    def __post_init__(self):
        for f in fields(self):
            setattr(self, f.name, as_positive_real(getattr(self, f.name), f.name))


def predator_prey_jacobian(p):
    """Jacobian of the coupled logistic dynamics at coexistence (2x2).

    State 1 is the prey deviation, state 2 the predator deviation; the input
    (B = I implicitly) adds or removes individuals of each species per unit
    time.
    """
    sigma = p.e * p.k1 * p.k2 * p.b ** 2 + p.r1 * p.r2
    return np.array(
        [
            [
                -p.r1 * p.r2 * (p.r1 - p.b * p.k2) / sigma,
                -p.b * p.k1 * p.r2 * (p.r1 - p.b * p.k2) / sigma,
            ],
            [
                p.b * p.e * p.k2 * p.r1 * (p.r2 + p.b * p.e * p.k1) / sigma,
                -p.r1 * p.r2 * (p.r2 + p.b * p.e * p.k1) / sigma,
            ],
        ]
    )


def diffusion_operator(n, delta=1.0):
    """Second-difference circulant on a ring of n sites spaced delta apart.

    First row (1/delta^2) * [-2, 1, 0, ..., 0, 1]. Eigenvalues are
    (2 cos(2 pi k / n) - 2) / delta^2, all nonpositive. n = 2 would fold the
    two neighbor offsets onto the same entry and is rejected, as is an n
    above spectral.MAX_RING_SIZE.
    """
    n = _ring_size(n)
    if n < 3:
        raise InputError("wrap-around collision: the ring needs n >= 3 sites")
    delta = as_positive_real(delta, "delta")
    row = np.zeros(n)
    row[0] = -2.0
    row[1] = 1.0
    row[-1] = 1.0
    return CirculantSpec(row / delta ** 2)


def diffusion_decentralizing_cost(n, delta=1.0):
    """Cost pair (Q, R) that makes the diffusion gain exactly the identity.

    Q's first row is the identity row minus twice the diffusion row: the state
    penalty x'Qx = x'x + 2 ||forward difference of x||^2 adds a penalty on the
    spatial derivative. R is the identity. Returns (Q, R, c) with the shared
    scalar gain c = 1, which holds for every n >= 3 and delta > 0.
    """
    d2 = diffusion_operator(n, delta)
    q_row = -2.0 * d2.first_row
    q_row[0] += 1.0
    return CirculantSpec(q_row), identity_spec(d2.n), 1.0


@dataclass
class ChamberParams:
    """Strictly positive heat-transfer coefficients.

    alpha0: heat loss to the environment (1/time); alpha1: transfer between
    the two chambers (1/time); beta0: each heater's input to its own chamber;
    beta1: leakage of heater input into the opposite chamber.
    """

    alpha0: float
    alpha1: float
    beta0: float
    beta1: float

    def __post_init__(self):
        for f in fields(self):
            setattr(self, f.name, as_positive_real(getattr(self, f.name), f.name))


@dataclass
class ChamberSystem:
    """Two-chamber system matrices plus both candidate balance conditions.

    magnitude_condition compares loss/gain magnitudes directly:
        (alpha0 - alpha1)/(alpha0 + alpha1) == (beta0 - beta1)/(beta0 + beta1).
    entry_condition is cor3's dynamics balance (circulant_pair_conditions)
    on the signed state-matrix entries (a0, a1) = (-alpha0, alpha1) against
    (b0, b1) = (beta0, beta1). The two disagree in general; neither is
    privileged here, and the numeric oracle adjudicates.
    """

    a: CirculantSpec
    b: CirculantSpec
    magnitude_condition: bool
    entry_condition: bool


def chamber_system(p):
    """Build the two-chamber circulant system and evaluate both conditions."""
    a0, a1 = -p.alpha0, p.alpha1
    beta = balance_ratio(p.beta0, p.beta1, "beta")
    return ChamberSystem(
        a=CirculantSpec(np.array([a0, a1])),
        b=CirculantSpec(np.array([p.beta0, p.beta1])),
        magnitude_condition=approx_equal(
            balance_ratio(p.alpha0, p.alpha1, "alpha"), beta, RATIO_TOL
        ),
        entry_condition=approx_equal(balance_ratio(a0, a1, "a"), beta, RATIO_TOL),
    )


def perf_example_system(q0=1.0, gamma2=1.0):
    """The 2x2 cost-landscape problem: plant [[1, 1], [-1, 1]] with B = I,
    Q = diag(q0, 1) and R = diag(1, 1/gamma2)."""
    return DiagonalCost2x2(1.0, 1.0, -1.0, 1.0, q0, 1.0, 1.0, gamma2).lqr_problem()
