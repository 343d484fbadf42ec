"""Expectation values of product observables on GHZ states.

On the N-party GHZ state ``(|0...0> + |1...1>)/sqrt(2)`` the expectation of
``O_1 x ... x O_N`` (each ``O_i = b_i . sigma``) has the closed form

    Re prod_i (b_i,x + i b_i,y)  +  [N even] prod_i b_i,z,

the off-diagonal ``<0...0|O|1...1>`` element plus the two diagonal ones.
``ghz_expectation_batch`` evaluates it in O(N) per point over any leading
batch axes; ``theorem1`` checks its correlators with it.  A Bloch vector is
always a float array whose last axis holds (x, y, z).

A settings choice is a float array of shape (..., N, 2, 3) whose entry
``[..., i, x]`` is party i's Bloch vector for input x.  ``mabk_value`` and
``mabk_gradient`` never expand the ``2**(2*floor(N/2))`` MABK terms: they
share one forward sweep of the Belinskii-Klyshko pair recursion, which builds
the same polynomial in O(N) elementwise operations per point, and the
gradient adds the reverse sweep.  The recursion has one implementation, a
few private helpers (a party's factors, one forward step, the reverse sweep,
one party's derivative); ``blochopt``'s seesaw sweep calls the same helpers
party by party, so its values are those of ``mabk_value`` and
``mabk_gradient`` bit for bit.  Every operation is elementwise, so a point's
value does not depend on the batch it is evaluated in.  The term sum (over
``mabk.mabk_expression``) and the stabilizer expansion ``tr(rho O) = 2**-N *
sum_S tr(O S)`` (``identity_free_elements``) are the oracles the tests
compare against.

With the first observable pinned to sigma_z its transverse factor is exactly
zero, so for odd N every such correlator is exactly ``0.0`` and for even N it
is exactly the product of the other parties' z-components
(``honest_even_formula``).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .stabilizer import ghz_expansion


@lru_cache(maxsize=None)
def identity_free_elements(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Axis indices (K, n) and signs (K,) of identity-free stabilizer elements.

    The stabilizer-sum oracle for the closed form: the expectation equals
    ``signs @ prod_i b_i[axes[:, i]]``.  No evaluation path uses it.
    """
    kept = [(sign, word) for sign, word in ghz_expansion(n) if "I" not in word]
    axes = [["XYZ".index(letter) for letter in word] for _, word in kept]
    signs = [sign for sign, _ in kept]
    return np.array(axes, dtype=np.intp), np.array(signs, dtype=float)


def ghz_expectation(n: int, blochs: np.ndarray) -> float:
    """``< O_1 x ... x O_n >`` on the n-party GHZ state for one (n, 3) array."""
    blochs = np.asarray(blochs, dtype=float)
    if blochs.shape != (n, 3):
        raise ValueError(f"expected shape ({n}, 3), got {blochs.shape}")
    return float(ghz_expectation_batch(n, blochs))


def ghz_expectation_batch(n: int, blochs: np.ndarray) -> np.ndarray:
    """Batched expectation for an array of shape (..., n, 3) of Bloch vectors."""
    if blochs.shape[-2:] != (n, 3):
        raise ValueError(f"expected shape (..., {n}, 3), got {blochs.shape}")
    value = np.prod(blochs[..., 0] + 1j * blochs[..., 1], axis=-1).real
    if n % 2 == 0:
        value = value + np.prod(blochs[..., 2], axis=-1)
    return value


def honest_even_formula(n: int, bob_z: np.ndarray) -> np.ndarray:
    """Product over the last axis of the other parties' z-components.

    The even-N value of ``<sigma_z x B_2 x ... x B_n>``, batched over leading axes.
    """
    if n % 2 == 1:
        raise ValueError(f"formula applies to even party counts, got n={n}")
    bob_z = np.asarray(bob_z, dtype=float)
    if bob_z.shape[-1:] != (n - 1,):
        raise ValueError(f"expected {n - 1} z-components, got shape {bob_z.shape}")
    return np.prod(bob_z, axis=-1)


def gme_bound(n: int, m: int) -> float:
    """MABK bound ``2**((m-1)/2)`` for entanglement depth m among n parties."""
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    return 2.0 ** ((m - 1) / 2)


def theorem1_bound(n: int) -> float:
    """Honest-implementation cap ``2**((n-3)/2)`` for odd n (half the terms vanish)."""
    if n < 3 or n % 2 == 0:
        raise ValueError(f"need odd n >= 3, got {n}")
    return 2.0 ** ((n - 3) / 2)


def _party_count(settings: np.ndarray) -> int:
    if settings.ndim < 3 or settings.shape[-2:] != (2, 3) or settings.shape[-3] < 2:
        raise ValueError(
            "settings must have shape (..., parties, 2, 3) with at least 2"
            f" parties, got {settings.shape}"
        )
    return settings.shape[-3]


# (z0 - z1) times this is (b, -b), the factor of the reversed pair (m', m)
_HALF_PAIR = np.array([0.5, -0.5])


def _factors(blochs: np.ndarray, even: bool) -> tuple[np.ndarray, ...]:
    """The pair recursion's ``z`` and factors ``a``, ``(b, -b)`` of Bloch pairs.

    ``blochs`` is shaped (..., 2, 3), one party's pair or every party's.  With
    ``z_x = b_x + i b_y`` for input x, ``a = (z0 + z1)/2`` and ``b = (z0 -
    z1)/2``; for even N the same recursion runs on the real ``b_z`` on a
    leading axis of size 2, so every array is shaped (S, ..., 2) (``a`` (S,
    ..., 1)).
    """
    z = blochs[..., 0] + 1j * blochs[..., 1]
    z = np.stack((z, blochs[..., 2])) if even else z[None]
    a = (z[..., :1] + z[..., 1:]) / 2
    b_pair = (z[..., :1] - z[..., 1:]) * _HALF_PAIR
    return z, a, b_pair


def _forward_step(
    pair: np.ndarray, a: np.ndarray, b_pair: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """One party's step of the pair: ``(m, m') -> (a m + b m', a m' - b m)``."""
    return np.add(a * pair, b_pair * pair[..., ::-1], out=out)


def _adjoint(a: np.ndarray, b_pair: np.ndarray) -> np.ndarray:
    """Reverse sweep: the derivatives ``(g, g')`` of the final ``m`` in the pair
    after each party, shaped (S, ..., n, 2) like the forward pairs.

    ``adj[..., k, :]`` depends on parties k+1..n-1 alone.
    """
    n = a.shape[-2]
    adj = np.empty(a.shape[:-1] + (2,), dtype=complex)
    adj[..., -1, :] = (1.0, 0.0)
    for k in range(n - 1, 0, -1):
        g = adj[..., k, :]
        np.subtract(
            a[..., k, :] * g, b_pair[..., k, :] * g[..., ::-1], out=adj[..., k - 1, :]
        )
    return adj


def _party_derivative(pair: np.ndarray, adj: np.ndarray) -> np.ndarray:
    """``dm/dz`` of a party k > 0 from the pair before it and its adjoint.

    The party enters through ``a`` and ``b`` against ``pair``, the pair after
    party k-1, and ``adj`` is ``(g, g')`` at party k.
    """
    m, mp = pair[..., 0], pair[..., 1]
    g, gp = adj[..., 0], adj[..., 1]
    da = m * g + mp * gp
    db = mp * g - m * gp
    return np.stack(((da + db) / 2, (da - db) / 2), axis=-1)


def _bloch_gradient(dz: np.ndarray, out: np.ndarray) -> None:
    """Write the Bloch-component gradient of ``dm/dz`` (S, ..., 2) into ``out``.

    ``m`` is holomorphic in every ``z``, so d/db_x is ``Re dm/dz`` and d/db_y
    is ``-Im dm/dz``; d/db_z comes from the z recursion for even N and is left
    as it is in ``out`` (zero) for odd N.
    """
    out[..., 0] = dz[0].real
    out[..., 1] = -dz[0].imag
    if len(dz) == 2:
        out[..., 2] = dz[1].real


def _pair_value(pair: np.ndarray) -> np.ndarray:
    """The signed MABK value of the final pair (S, ..., 2): ``Re m``, summed over S."""
    return pair[..., 0].real.sum(axis=0)


def _forward_sweep(settings: np.ndarray) -> tuple[np.ndarray, ...]:
    """The factors ``a``, ``(b, -b)`` of every party and its pair after each party.

    The pair starts at ``(m, m') = (z0, z1)`` for party 0 and every later
    party takes a ``_forward_step``; the signed MABK value is ``Re m`` after
    the last party, plus for even N the same recursion run on the real
    ``b_z``.  Every array is shaped (S, ..., n, 2).
    """
    n = _party_count(settings)
    z, a, b_pair = _factors(settings, n % 2 == 0)
    pair = np.empty_like(z)  # (m, m') after parties 0 .. n-1
    pair[..., 0, :] = z[..., 0, :]
    for k in range(1, n):
        _forward_step(
            pair[..., k - 1, :], a[..., k, :], b_pair[..., k, :], out=pair[..., k, :]
        )
    return a, b_pair, pair


def mabk_value(settings: np.ndarray) -> np.ndarray:
    """Signed MABK value on the GHZ state, batched over leading axes.

    ``settings[..., i, x]`` is party i's Bloch vector for input x; the Bell
    score is the absolute value of the result.  O(N) per point, through the
    pair recursion of ``_forward_sweep``.
    """
    return _pair_value(_forward_sweep(settings)[2][..., -1, :])


def _gradient_and_adjoint(settings: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``mabk_gradient`` and the ``_adjoint`` it was computed from."""
    a, b_pair, pair = _forward_sweep(settings)
    adj = _adjoint(a, b_pair)
    grad = np.zeros(settings.shape)
    # party 0's pair is (z0, z1) itself, so its adjoint is its dm/dz
    _bloch_gradient(adj[..., 0, :], grad[..., 0, :, :])
    dz = _party_derivative(pair[..., :-1, :], adj[..., 1:, :])
    _bloch_gradient(dz, grad[..., 1:, :, :])
    return grad, adj


def mabk_gradient(settings: np.ndarray) -> np.ndarray:
    """Gradient of ``mabk_value`` in every Bloch component, shaped like ``settings``.

    The reverse-mode derivative of the pair recursion, O(N) per point: the
    forward sweep (``_forward_sweep``) keeps each party's pair, the reverse
    sweep (``_adjoint``) the derivatives of the final ``m`` in it, and each
    party's ``dm/dz`` follows from the pair before it and its adjoint
    (``_party_derivative``).  The seesaw sweep of ``blochopt`` steps one
    party at a time through the same helpers.
    """
    return _gradient_and_adjoint(settings)[0]
