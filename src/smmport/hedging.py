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

Per-state portfolio functions (a constraint's ``g`` and ``target``, the
elements of a basis) are (S, n) arrays with one row per state. M, b and
the basis Gram matrix come from batched solves and ``einsum`` against
the market's stacked Cholesky factors, summed over states with
``math.fsum`` as in :mod:`smmport.market`.
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
from .market import (
    DiscreteMarket,
    Policy,
    _fsum_states,
    _vector_rows,
    evaluate,
    q_of,
    smm_policy,
)
from .moments import (
    MomentPair,
    Objective,
    PerfSummary,
    _chol_solve,
    _lock,
    conditional_q,
    scaling_constant,
    smm_direction,
)

# Reject constraint systems whose matrix M has condition estimate above this.
CONDITION_LIMIT = 1e12


def _per_state_vectors(x, market: DiscreteMarket, name: str) -> np.ndarray:
    """Read-only (S, n) array from a Policy or a sequence of per-state vectors."""
    v = x.weights if isinstance(x, Policy) else _vector_rows(x, name)
    if v.shape != (market.n_states, market.n_assets):
        raise DimensionMismatch(
            f"{name} is {v.shape[0]} states of {v.shape[1]} assets, market has "
            f"{market.n_states} of {market.n_assets}"
        )
    return v


def inner_product(x, y, market: DiscreteMarket) -> float:
    """Probability-weighted inner product sum_s p_s x_s' y_s."""
    xv = _per_state_vectors(x, market, "x")
    yv = _per_state_vectors(y, market, "y")
    return _fsum_states(market.probs * np.einsum("si,si->s", xv, yv))


@dataclass(frozen=True)
class HedgeConstraint:
    """A per-state portfolio function the policy must be orthogonal to.

    ``g`` is a read-only (S, n) array, one row per state. ``target``
    records the hedged portfolio, also (S, n), for zero-covariance
    constraints; it is None for raw ones.
    """

    g: np.ndarray
    kind: str = "raw"
    target: np.ndarray | None = None

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
        wm = inner_product(w, market.mu, market)
        g = np.einsum("sij,sj->si", market.second_moment, w) - wm * market.mu
        return cls(g=_lock(g), kind="zero_covariance", target=w)


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
        empty = np.zeros(0)
        sol = HedgeSolution(
            m_mat=np.zeros((0, 0)), b_vec=empty, multipliers=empty,
            q_g=q, spanned_q=0.0,
        )
        return smm_policy(market, objective), sol

    # G stacks the constraint functions as (S, n, J); one batched solve
    # gives inv(A_s) G_s, and the market already holds inv(A_s) mu_s.
    g = np.stack([
        _per_state_vectors(con.g, market, f"constraint {j}")
        for j, con in enumerate(constraints)
    ], axis=-1)
    x = _chol_solve(market.chol_second, g)
    p = market.probs
    m_mat = _fsum_states(p[:, None, None] * np.einsum("sni,snj->sij", g, x))
    b_vec = -_fsum_states(p[:, None] * np.einsum("snj,sn->sj", g, market.smm_directions))
    m_mat = (m_mat + m_mat.T) / 2.0

    if not np.all(np.isfinite(m_mat)) or np.linalg.cond(m_mat) > CONDITION_LIMIT:
        raise SingularConstraintSystem(
            f"constraint system is singular or ill-conditioned (J={n_con})"
        )
    multipliers = np.linalg.solve(m_mat, b_vec)
    spanned_q = float(b_vec @ multipliers)
    q_g = max(q - spanned_q, 0.0)

    scale = scaling_constant(q_g, objective)
    policy = Policy(scale * (market.smm_directions + x @ multipliers))
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
    moments = evaluate(market, Policy(w))
    wm, waw = moments.mean, moments.second_moment
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
    # F stacks the basis functions as (S, n, K).
    f = np.stack([
        _per_state_vectors(bf, market, f"basis {i}") for i, bf in enumerate(basis)
    ], axis=-1)
    p = market.probs
    y = np.einsum("sji,sjk->sik", market.chol_second, f)
    gram = _fsum_states(p[:, None, None] * np.einsum("sik,sil->skl", y, y))
    mu_tilde = _fsum_states(p[:, None] * np.einsum("sik,si->sk", f, market.mu))
    gram = (gram + gram.T) / 2.0

    try:
        pseudo = MomentPair.from_second_moment(mu_tilde, gram)
    except NotPositiveDefinite as exc:
        raise SingularBasis(f"basis Gram matrix is singular: {exc}") from None
    q_tilde = conditional_q(pseudo)
    coeff = scaling_constant(q_tilde, objective) * smm_direction(pseudo)
    summary = evaluate(market, Policy(f @ coeff))
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
    if not (np.all(np.isfinite(r)) and np.all(np.isfinite(f))):
        raise DomainError("returns and features must be finite")
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
