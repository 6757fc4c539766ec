"""Expectation-orthogonality constraints and basis-portfolio optimization.

Constraints are portfolio-valued functions g_j of the state to which the
chosen policy must be orthogonal under the probability-weighted inner
product <x, y> = sum_s p_s x_s' y_s. The constrained optimum has the form

    w_s = c inv(A_s) (mu_s + sum_j c_j g_{j,s}),

where the multipliers solve M c = b with

    M[i, j] = <g_i, inv(A) g_j>,    b[i] = -<g_i, inv(A) mu>.

The achievable squared Hansen ratio splits as q = q_g + b' inv(M) b: the
orthogonal-complement optimum q_g plus the optimum over the span of the
constraint directions, so 1 - q_g is a sum. ``optimize_basis`` solves the
complementary problem over a finite set of basis portfolio functions, a
classical single-period problem on pseudo-assets whose q splits alike.

Per-state portfolio functions (a constraint's ``g`` and ``target``, the
elements of a basis) are (S, n) arrays with one row per state. M, b and
the basis Gram matrix come from batched solves and per-state products,
Gram stacks included (``moments._products``), against the market's
stacked Cholesky factors, summed over states exactly by ``moments._fsum``
as in :mod:`smmport.market`: a state's terms are the same bits in any
stack. M c = b, once M passes ``CONDITION_LIMIT``, and the basis system
are solved by Cholesky factorization and ``moments._solve``.
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
    SmmError,
)
from .market import (
    Q_CONSISTENCY_TOL,
    DiscreteMarket,
    Policy,
    _EPS,
    _per_state_vectors,
    _second_moment,
    evaluate,
    q_of,
    smm_policy,
)
from .moments import (
    Objective,
    PerfSummary,
    _as_array,
    _fsum,
    _fsum_symmetric,
    _lock,
    _optimum,
    _pair_stacks,
    _products,
    _solve,
    _sym,
)

# Reject constraint systems whose matrix M has condition estimate above this.
# At cond(M) 3e10 to 8e10 (two nearly parallel constraints on 50 random
# states, 100 draws), spanned_q kept 6 to 10 significant digits against
# 50-digit mpmath, at most 0.074 of the split allowance 4 J eps |c|'|M||c|.
CONDITION_LIMIT = 1e12


def _check_terms(name: str, *stacks: np.ndarray) -> None:
    """Raise DomainError naming the first ``name`` whose per-state terms
    overflow: element k owns index k of axis 1 of each (S, K, ...) stack.
    ``_fsum`` cannot sum +inf and -inf, and a sum with one is no answer."""
    bad = np.zeros(stacks[0].shape[1], dtype=bool)
    for terms in stacks:
        bad |= ~np.isfinite(terms).reshape(terms.shape[:2] + (-1,)).all(axis=(0, 2))
    if bad.any():
        raise DomainError(f"{name} {int(np.argmax(bad))} overflows: its products "
                          "with the market are too large")


def inner_product(x, y, market: DiscreteMarket) -> float:
    """Probability-weighted inner product sum_s p_s x_s' y_s; a per-state
    product that overflows raises :class:`DomainError`."""
    xv = _per_state_vectors(x, market, "x")
    yv = _per_state_vectors(y, market, "y")
    terms = market.probs * _products(xv, yv)
    if not np.isfinite(terms).all():
        raise DomainError("x times y overflows")
    return _fsum(terms)


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
        g_s = A_s w_s - c mu_s for target weights w. A c or g that
        overflows raises :class:`DomainError` naming the target.
        """
        w = _per_state_vectors(target, market, "target")
        overflow = DomainError("target overflows: its products with the market are too large")
        try:
            wm = inner_product(w, market.mu, market)
        except DomainError:
            raise overflow from None
        with np.errstate(over="ignore", invalid="ignore"):
            g = _products(market.second_moment, w) - wm * market.mu  # A_s' = A_s
        if not np.isfinite(g).all():
            raise overflow
        return cls(g=_lock(g), kind="zero_covariance", target=w)


@dataclass(frozen=True)
class HedgeSolution:
    """Multiplier system and the squared-Hansen split for a hedge solve.

    ``q_g + spanned_q`` equals the unconstrained q of the market, with
    ``spanned_q = b' inv(M) b`` the part lost to the constraints. ``q_g``
    is computed on its own path, as the second moment of the unit
    constrained policy, and the split is checked against q to
    ``Q_CONSISTENCY_TOL`` plus the rounding error of ``spanned_q``.
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
    DomainError
        If a constraint's per-state products with the market overflow.
    SingularConstraintSystem
        If the constraints are linearly dependent under the inv(A) inner
        product (condition estimate of M above 1e12).
    DegenerateMarket
        If q_g = 0 under a SharpeBudget objective.
    SmmError
        If q_g + spanned_q differs from q by more than ``Q_CONSISTENCY_TOL``
        plus the rounding error that M's condition allows spanned_q.
    """
    n_con = len(constraints)
    if n_con == 0:
        empty = np.zeros(0)
        sol = HedgeSolution(
            m_mat=np.zeros((0, 0)), b_vec=empty, multipliers=empty,
            q_g=q_of(market), spanned_q=0.0,
        )
        return smm_policy(market, objective), sol

    # G stacks the constraint functions as (S, n, J); one batched solve
    # gives inv(A_s) G_s, and the market already holds inv(A_s) mu_s.
    g = np.stack([
        _per_state_vectors(con.g, market, f"constraint {j}")
        for j, con in enumerate(constraints)
    ], axis=-1)
    p = market.probs
    with np.errstate(over="ignore", invalid="ignore"):
        x = _solve(market.chol_second, g)[0]
        m_terms = p[:, None, None] * _products(g, x)
        b_terms = p[:, None] * _products(g, market.smm_directions)
    _check_terms("constraint", m_terms, b_terms)
    sums = _fsum(np.concatenate([m_terms, b_terms[:, :, None]], axis=2))
    m_mat, b_vec = _sym(sums[:, :n_con]), -sums[:, n_con]

    if not np.all(np.isfinite(m_mat)) or np.linalg.cond(m_mat) > CONDITION_LIMIT:
        raise SingularConstraintSystem(
            f"constraint system is singular or ill-conditioned (J={n_con})"
        )
    multipliers = _solve(np.linalg.cholesky(m_mat), b_vec)[0]
    spanned_q = float(b_vec @ multipliers)
    unit = market.smm_directions + x @ multipliers
    q_g, scale = _scaled_unit(market, unit, spanned_q, multipliers, m_mat, objective,
                              "q_g + spanned_q")
    policy = Policy(scale * unit)
    sol = HedgeSolution(
        m_mat=m_mat, b_vec=b_vec, multipliers=multipliers,
        q_g=q_g, spanned_q=spanned_q,
    )
    return policy, sol


def _scaled_unit(market: DiscreteMarket, unit: np.ndarray, other_q: float, coeffs: np.ndarray,
                 gram: np.ndarray, objective: Objective, name: str) -> tuple[float, float]:
    """The second moment h2 of the unit policy ``unit`` and its scale for
    ``objective`` by 1 - h2 = (1 - q) + ``other_q``. h2 + other_q must be q
    within ``Q_CONSISTENCY_TOL`` plus 4 J eps |c|'|gram||c|: 7 times the
    most rounding seen solving gram c = b, 0.56 J eps |c|'|gram||c| on
    2,572 hedges up to cond 1e12."""
    h2, q = _second_moment(market, unit), q_of(market)
    c = np.abs(coeffs)
    slack = 4.0 * c.size * _EPS * float(c @ np.abs(gram) @ c)
    if not abs(h2 + other_q - q) <= Q_CONSISTENCY_TOL + slack:
        raise SmmError(f"internal: {name} = {h2 + other_q!r} differs from q = {q!r}")
    return h2, _optimum(h2, market._one_minus_q + other_q, objective)[0]


def hedging_example_c1(market: DiscreteMarket, target) -> float:
    """Closed-form multiplier for a single zero-covariance hedge.

    Expressed purely through the scalars <w, mu>, <w, A w> and
    q = <mu, inv(A) mu>, with the market's own 1 - q in the numerator, so
    it keeps its digits as q nears 1; must agree with the J=1
    linear-system solve.
    """
    w = _per_state_vectors(target, market, "target")
    moments = evaluate(market, Policy(w))
    wm, waw = moments.mean, moments.second_moment
    q = q_of(market)
    wm2 = wm * wm
    denom = waw - 2.0 * wm2 + wm2 * q
    if denom == 0.0:
        raise SingularConstraintSystem("hedge target yields a zero constraint")
    return -wm * market._one_minus_q / denom


def optimize_basis(
    market: DiscreteMarket,
    basis: Sequence,
    objective: Objective,
) -> tuple[np.ndarray, PerfSummary]:
    """Optimal coefficients over a finite set of basis portfolio functions.

    Each basis element is a per-state vector function (same layout as a
    Policy). The mean vector and second-moment Gram matrix of the basis
    returns define a classical single-period problem on pseudo-assets,
    whose unit coefficients inv(Gram) mean are scaled as in solve_hedge.

    Returns the coefficient vector and the performance of the resulting
    policy on ``market``. A basis element whose per-state products with
    the market overflow raises :class:`DomainError`.
    """
    if not basis:
        raise DomainError("basis must be nonempty")
    # F stacks the basis functions as (S, n, K).
    f = np.stack([
        _per_state_vectors(bf, market, f"basis {i}") for i, bf in enumerate(basis)
    ], axis=-1)
    p = market.probs
    with np.errstate(over="ignore", invalid="ignore"):
        y = _products(market.chol_second, f)
        gram_terms = p[:, None, None] * _products(y, y)
        mu_terms = p[:, None] * _products(f, market.mu)
    _check_terms("basis", gram_terms, mu_terms)
    gram = _fsum_symmetric(gram_terms)  # each term is exactly symmetric
    mu_tilde = _fsum(mu_terms)

    try:  # with mu = 0, A = Sigma: the moment-pair check validates the Gram matrix
        pair, _ = _pair_stacks(np.zeros((1, len(basis))), gram[None], np.array([False]))
    except NotPositiveDefinite as exc:
        raise SingularBasis(f"basis Gram matrix is singular: {exc}") from None
    theta = _solve(pair["chol_sigma"][0], mu_tilde)[0]
    # q - q_basis = sum_s p_s ||L_s'(x_s - F_s theta)||^2, x = inv(A) mu
    residual = _second_moment(market, market.smm_directions - f @ theta)
    coeff = theta * _scaled_unit(market, f @ theta, residual, theta, gram, objective,
                                 "q_basis + residual")[1]
    return coeff, evaluate(market, Policy(f @ coeff))


def flatten_pseudo_assets(returns, features) -> np.ndarray:
    """Row-wise Kronecker products of returns and features.

    Row t of the result is r_t (x) f_t; with n assets and k features,
    column (i - 1) * k + j (1-based) is asset i times feature j. Lets
    linear-in-features policies be optimized as a classical problem on
    the widened asset universe. Each input must be a nonempty, finite 2-d
    matrix (else :class:`DomainError` naming it) and the row counts equal
    (else :class:`ShapeMismatch`); an overflowing product is a DomainError.
    """
    r = _as_array(returns, "returns", 2)
    f = _as_array(features, "features", 2)
    if r.shape[0] != f.shape[0]:
        raise ShapeMismatch(f"row counts differ: returns {r.shape[0]}, features {f.shape[0]}")
    with np.errstate(over="ignore"):
        flat = np.einsum("ti,tj->tij", r, f).reshape(r.shape[0], -1)
    if not np.isfinite(flat).all():
        raise DomainError("returns times features overflows")
    return flat


def constraints_from_dict(data: dict, market: DiscreteMarket) -> list[HedgeConstraint]:
    """Parse ``{"constraints": [{"kind": ..., ...}, ...]}``.

    ``kind`` is "raw" (field "g") or "zero_covariance" (field "target"),
    each a list of per-state vectors.
    """
    if not isinstance(data, dict) or "constraints" not in data:
        raise DomainError('constraint JSON must be an object with a "constraints" list')
    if not isinstance(data["constraints"], list):
        raise DomainError('"constraints" must be a list')
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
