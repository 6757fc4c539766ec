"""Expectation-orthogonality constraints and basis-portfolio optimization.

Constraints are portfolio-valued functions g_j of the state to which the
chosen policy must be orthogonal under the probability-weighted inner
product <x, y> = sum_s p_s x_s' y_s. The constrained optimum has the form

    w_s = c inv(A_s) (mu_s + sum_j c_j g_{j,s}),

where the multipliers solve M c = b with

    M[i, j] = <g_i, inv(A) g_j>,    b[i] = -<g_i, inv(A) mu>.

The achievable squared Hansen ratio splits as q = q_g + b' inv(M) b: the
orthogonal-complement optimum q_g plus the optimum over the span of the
constraint directions. ``optimize_basis`` solves the complementary
problem of optimizing over a finite set of basis portfolio functions,
which reduces to a classical single-period problem on pseudo-assets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainError,
    NotPositiveDefinite,
    ShapeMismatch,
    SingularBasis,
    SingularConstraintSystem,
)
from .market import DiscreteMarket, Policy, evaluate, q_of
from .moments import (
    MomentPair,
    Objective,
    PerfSummary,
    _chol_solve,
    conditional_q,
    scaling_constant,
    smm_direction,
)

# Reject constraint systems whose matrix M has condition estimate above this.
CONDITION_LIMIT = 1e12


def _per_state_vectors(x, market: DiscreteMarket, name: str) -> tuple[np.ndarray, ...]:
    vecs = x.weights if isinstance(x, Policy) else tuple(
        np.ascontiguousarray(v, dtype=np.float64) for v in x
    )
    if len(vecs) != market.n_states:
        raise DimensionMismatch(
            f"{name} has {len(vecs)} states, market has {market.n_states}"
        )
    for i, v in enumerate(vecs):
        if v.shape != (market.n_assets,):
            raise DimensionMismatch(
                f"{name} state {i}: expected length {market.n_assets}"
            )
    return vecs


def inner_product(x, y, market: DiscreteMarket) -> float:
    """Probability-weighted inner product sum_s p_s x_s' y_s."""
    xv = _per_state_vectors(x, market, "x")
    yv = _per_state_vectors(y, market, "y")
    total = 0.0
    for (p, _), a, b in zip(market.states, xv, yv):
        total += p * float(a @ b)
    return total


@dataclass(frozen=True)
class HedgeConstraint:
    """A per-state portfolio function the policy must be orthogonal to.

    ``target`` records the hedged portfolio for zero-covariance
    constraints; it is None for raw ones.
    """

    g: tuple[np.ndarray, ...]
    kind: str = "raw"
    target: tuple[np.ndarray, ...] | None = None

    @classmethod
    def raw(cls, vectors, market: DiscreteMarket) -> "HedgeConstraint":
        return cls(g=_per_state_vectors(vectors, market, "g"), kind="raw")

    @classmethod
    def zero_covariance(cls, market: DiscreteMarket, target) -> "HedgeConstraint":
        """Constraint forcing zero return covariance against ``target``.

        With c = <target, mu>, the constraint function is
        g_s = A_s w_s - c mu_s for target weights w.
        """
        w = _per_state_vectors(target, market, "target")
        mus = [m.mu for _, m in market.states]
        wm = inner_product(w, mus, market)
        g = tuple(
            m.second_moment @ ws - wm * m.mu
            for (_, m), ws in zip(market.states, w)
        )
        return cls(g=g, kind="zero_covariance", target=w)


@dataclass(frozen=True)
class HedgeSolution:
    """Multiplier system and the squared-Hansen split for a hedge solve.

    ``q_g + spanned_q`` equals the unconstrained q of the market, with
    ``spanned_q = b' inv(M) b`` the part lost to the constraints.
    """

    m_mat: np.ndarray
    b_vec: np.ndarray
    multipliers: np.ndarray
    q_g: float
    spanned_q: float


def solve_hedge(
    market: DiscreteMarket,
    constraints: Sequence[HedgeConstraint],
    objective: Objective,
) -> tuple[Policy, HedgeSolution]:
    """Optimal policy orthogonal in expectation to every constraint.

    Parameters
    ----------
    market : DiscreteMarket
    constraints : sequence of HedgeConstraint
        May be empty, in which case this reduces to the unconstrained
        optimal policy.
    objective : Objective
        Determines the overall scale of the returned policy.

    Returns
    -------
    (Policy, HedgeSolution)

    Raises
    ------
    SingularConstraintSystem
        If the constraints are linearly dependent under the inv(A) inner
        product (condition estimate of M above 1e12).
    DegenerateMarket
        If q_g = 0 under a SharpeBudget objective.
    """
    q = q_of(market)
    n_con = len(constraints)
    if n_con == 0:
        c = scaling_constant(q, objective)
        policy = Policy([c * smm_direction(m) for _, m in market.states])
        empty = np.zeros(0)
        sol = HedgeSolution(
            m_mat=np.zeros((0, 0)), b_vec=empty, multipliers=empty,
            q_g=q, spanned_q=0.0,
        )
        return policy, sol

    for j, con in enumerate(constraints):
        _per_state_vectors(con.g, market, f"constraint {j}")

    # Per state: solve A_s X = [g_1 ... g_J, mu] once.
    m_mat = np.zeros((n_con, n_con))
    b_vec = np.zeros(n_con)
    solved = []  # per state: inv(A_s) @ [G | mu]
    for s, (p, m) in enumerate(market.states):
        rhs = np.column_stack([con.g[s] for con in constraints] + [m.mu])
        x = _chol_solve(m.chol_second, rhs)
        solved.append(x)
        g_stack = rhs[:, :n_con]
        m_mat += p * (g_stack.T @ x[:, :n_con])
        b_vec -= p * (g_stack.T @ x[:, n_con])
    m_mat = (m_mat + m_mat.T) / 2.0

    if not np.all(np.isfinite(m_mat)) or np.linalg.cond(m_mat) > CONDITION_LIMIT:
        raise SingularConstraintSystem(
            f"constraint system is singular or ill-conditioned (J={n_con})"
        )
    multipliers = np.linalg.solve(m_mat, b_vec)
    spanned_q = float(b_vec @ multipliers)
    q_g = max(q - spanned_q, 0.0)

    scale = scaling_constant(q_g, objective)
    weights = []
    for (p, m), x in zip(market.states, solved):
        direction = x[:, n_con] + x[:, :n_con] @ multipliers
        weights.append(scale * direction)
    policy = Policy(weights)
    sol = HedgeSolution(
        m_mat=m_mat, b_vec=b_vec, multipliers=multipliers,
        q_g=q_g, spanned_q=spanned_q,
    )
    return policy, sol


def hedging_example_c1(market: DiscreteMarket, target) -> float:
    """Closed-form multiplier for a single zero-covariance hedge.

    Expressed purely through the scalars <w, mu>, <w, A w> and
    q = <mu, inv(A) mu>; must agree with the J=1 linear-system solve.
    """
    w = _per_state_vectors(target, market, "target")
    mus = [m.mu for _, m in market.states]
    wm = inner_product(w, mus, market)
    waw = 0.0
    for (p, m), ws in zip(market.states, w):
        y = m.chol_second.T @ ws
        waw += p * float(y @ y)
    q = q_of(market)
    denom = waw - 2.0 * wm**2 + wm**2 * q
    if denom == 0.0:
        raise SingularConstraintSystem("hedge target yields a zero constraint")
    return -(wm - wm * q) / denom


def optimize_basis(
    market: DiscreteMarket,
    basis: Sequence,
    objective: Objective,
) -> tuple[np.ndarray, PerfSummary]:
    """Optimal coefficients over a finite set of basis portfolio functions.

    Each basis element is a per-state vector function (same layout as a
    Policy). The mean vector and second-moment Gram matrix of the basis
    returns define a classical single-period problem on pseudo-assets,
    solved by the same second-moment machinery as everything else.

    Returns the coefficient vector and the performance of the resulting
    policy on ``market``.
    """
    if not basis:
        raise DomainError("basis must be nonempty")
    funcs = [_per_state_vectors(bf, market, f"basis {i}") for i, bf in enumerate(basis)]
    n_basis = len(funcs)

    mu_tilde = np.zeros(n_basis)
    gram = np.zeros((n_basis, n_basis))
    for s, (p, m) in enumerate(market.states):
        b_stack = np.column_stack([f[s] for f in funcs])  # n_assets x n_basis
        y = m.chol_second.T @ b_stack
        gram += p * (y.T @ y)
        mu_tilde += p * (b_stack.T @ m.mu)
    gram = (gram + gram.T) / 2.0

    try:
        pseudo = MomentPair.from_second_moment(mu_tilde, gram)
    except NotPositiveDefinite as exc:
        raise SingularBasis(f"basis Gram matrix is singular: {exc}") from None
    q_tilde = conditional_q(pseudo)
    coeff = scaling_constant(q_tilde, objective) * smm_direction(pseudo)

    weights = []
    for s in range(market.n_states):
        w = np.zeros(market.n_assets)
        for i, f in enumerate(funcs):
            w += coeff[i] * f[s]
        weights.append(w)
    summary = evaluate(market, Policy(weights))
    return coeff, summary


def flatten_pseudo_assets(returns, features) -> np.ndarray:
    """Row-wise Kronecker products of returns and features.

    Row t of the result is r_t (x) f_t; with n assets and k features,
    column (i - 1) * k + j (1-based) is asset i times feature j. Lets
    linear-in-features policies be optimized as a classical problem on
    the widened asset universe.
    """
    r = np.ascontiguousarray(returns, dtype=np.float64)
    f = np.ascontiguousarray(features, dtype=np.float64)
    if r.ndim != 2 or f.ndim != 2:
        raise ShapeMismatch("returns and features must be 2-d sample matrices")
    if r.shape[0] != f.shape[0]:
        raise ShapeMismatch(
            f"row counts differ: returns {r.shape[0]}, features {f.shape[0]}"
        )
    if r.shape[0] < 1:
        raise ShapeMismatch("need at least one sample row")
    t_count, n = r.shape
    k = f.shape[1]
    return np.einsum("ti,tj->tij", r, f).reshape(t_count, n * k)


def constraints_from_dict(data: dict, market: DiscreteMarket) -> list[HedgeConstraint]:
    """Parse ``{"constraints": [{"kind": ..., ...}, ...]}``.

    ``kind`` is "raw" (field "g") or "zero_covariance" (field "target"),
    each a list of per-state vectors.
    """
    if not isinstance(data, dict) or "constraints" not in data:
        raise DomainError('constraint JSON must be an object with a "constraints" list')
    out = []
    for i, entry in enumerate(data["constraints"]):
        if not isinstance(entry, dict) or "kind" not in entry:
            raise DomainError(f'constraint {i}: needs a "kind"')
        kind = entry["kind"]
        try:
            if kind == "raw":
                out.append(HedgeConstraint.raw(entry["g"], market))
            elif kind == "zero_covariance":
                out.append(HedgeConstraint.zero_covariance(market, entry["target"]))
            else:
                raise DomainError(f'unknown kind "{kind}"')
        except KeyError as exc:
            raise DomainError(f"constraint {i}: missing field {exc}") from None
        except (DomainError, DimensionMismatch) as exc:
            raise type(exc)(f"constraint {i}: {exc}") from None
    return out
