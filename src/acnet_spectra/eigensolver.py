"""Dense complex non-Hermitian eigensolver.

``eigenvalues`` reduces the matrix to upper Hessenberg form with
Householder reflections and runs an explicitly shifted QR iteration
(Wilkinson shift from the trailing 2x2, Givens rotations, deflation on
negligible subdiagonal entries). It computes no eigenvectors: for the
callers that print per-eigenvalue residuals, ``residuals`` takes unit
eigenvectors from one LAPACK eigendecomposition (O(n^3) in total).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFLATION_TOL",
    "MatchResult",
    "Spectrum",
    "eigenvalues",
    "match_multisets",
    "residuals",
]

DEFLATION_TOL = 1e-12


@dataclass(frozen=True)
class Spectrum:
    """All eigenvalues of one matrix, sorted by (Re, Im) ascending.

    ``converged`` reports whether the QR iteration deflated completely
    within its sweep budget. A spectrum holds no eigenvectors; see
    :func:`residuals` for the per-eigenvalue residuals.
    """

    eigenvalues: np.ndarray
    converged: bool

    def by_modulus(self) -> np.ndarray:
        """Eigenvalues reordered by ascending modulus (then Re, then Im)."""
        ev = self.eigenvalues
        order = np.lexsort((ev.imag, ev.real, np.abs(ev)))
        return ev[order]

    def zero_count(self, zero_tol: float) -> int:
        return int(np.sum(np.abs(self.eigenvalues) <= zero_tol))

    def smallest_nonzero_modulus(self, zero_tol: float) -> float:
        moduli = np.abs(self.eigenvalues)
        nonzero = moduli[moduli > zero_tol]
        return float(nonzero.min()) if nonzero.size else float("nan")


def _checked_square(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        raise ValueError("matrix must be at least 1x1")
    if not np.all(np.isfinite(a.real) & np.isfinite(a.imag)):
        raise ValueError("matrix entries must be finite")
    return a


def _sorted_lex(values: np.ndarray) -> np.ndarray:
    order = np.lexsort((values.imag, values.real))
    return values[order]


# ---------------------------------------------------------------------------
# Hessenberg + shifted QR
# ---------------------------------------------------------------------------

def _hessenberg(a: np.ndarray) -> np.ndarray:
    """Unitary similarity reduction to upper Hessenberg form."""
    h = np.array(a, dtype=complex, copy=True)
    n = h.shape[0]
    for k in range(n - 2):
        x = h[k + 1:, k]
        xnorm = np.linalg.norm(x)
        if xnorm == 0.0:
            continue
        alpha = x[0]
        phase = alpha / abs(alpha) if alpha != 0.0 else 1.0 + 0.0j
        v = x.copy()
        v[0] += phase * xnorm
        v /= np.linalg.norm(v)
        # apply P = I - 2 v v^H from the left, then from the right
        h[k + 1:, k:] -= 2.0 * np.outer(v, v.conj() @ h[k + 1:, k:])
        h[:, k + 1:] -= 2.0 * np.outer(h[:, k + 1:] @ v, v.conj())
        h[k + 2:, k] = 0.0
    return h


def _givens(a: complex, b: complex) -> tuple[float, complex]:
    """Rotation [[c, s], [-conj(s), c]] with c real zeroing b below a."""
    if b == 0.0:
        return 1.0, 0.0 + 0.0j
    if a == 0.0:
        return 0.0, np.conj(b) / abs(b)
    absa = abs(a)
    t = np.hypot(absa, abs(b))
    return absa / t, (a / absa) * (np.conj(b) / t)


def _wilkinson_shift(h: np.ndarray, hi: int) -> complex:
    """Eigenvalue of the trailing 2x2 block closest to h[hi, hi]."""
    a = h[hi - 1, hi - 1]
    b = h[hi - 1, hi]
    c = h[hi, hi - 1]
    d = h[hi, hi]
    tr = a + d
    det = a * d - b * c
    disc = np.sqrt(complex(tr * tr - 4.0 * det))
    r1 = (tr + disc) / 2.0 if abs(tr + disc) >= abs(tr - disc) else (tr - disc) / 2.0
    if r1 == 0.0:
        return 0.0 + 0.0j  # both roots vanish
    r2 = det / r1
    return r1 if abs(r1 - d) <= abs(r2 - d) else r2


def _qr_sweep(h: np.ndarray, lo: int, hi: int, mu: complex) -> None:
    """One explicit shifted QR step on the diagonal block [lo..hi].

    Only the block itself is updated; the split at lo makes the matrix
    block triangular, so the eigenvalue multiset is unaffected.
    """
    idx = np.arange(lo, hi + 1)
    h[idx, idx] -= mu
    rotations: list[tuple[float, complex]] = []
    for k in range(lo, hi):
        ck, sk = _givens(h[k, k], h[k + 1, k])
        rotations.append((ck, sk))
        cols = slice(k, hi + 1)
        rk = h[k, cols].copy()
        rk1 = h[k + 1, cols].copy()
        h[k, cols] = ck * rk + sk * rk1
        h[k + 1, cols] = -np.conj(sk) * rk + ck * rk1
        h[k + 1, k] = 0.0
    for j, (ck, sk) in enumerate(rotations):
        k = lo + j
        rows = slice(lo, k + 2)
        colk = h[rows, k].copy()
        colk1 = h[rows, k + 1].copy()
        h[rows, k] = ck * colk + np.conj(sk) * colk1
        h[rows, k + 1] = -sk * colk + ck * colk1
    h[idx, idx] += mu


def _qr_eigenvalues(h: np.ndarray, max_sweeps: int) -> tuple[np.ndarray, bool]:
    n = h.shape[0]
    values: list[complex] = []
    hi = n - 1
    sweeps = 0
    since_deflation = 0
    while hi >= 0:
        if hi == 0:
            values.append(h[0, 0])
            break
        lo = hi
        while lo > 0:
            if abs(h[lo, lo - 1]) <= DEFLATION_TOL * (
                abs(h[lo - 1, lo - 1]) + abs(h[lo, lo])
            ):
                h[lo, lo - 1] = 0.0
                break
            lo -= 1
        if lo == hi:
            values.append(h[hi, hi])
            hi -= 1
            since_deflation = 0
            continue
        if sweeps >= max_sweeps:
            values.extend(h[k, k] for k in range(hi + 1))
            return np.array(values, dtype=complex), False
        if since_deflation and since_deflation % 10 == 0:
            # exceptional shift to break symmetric limit cycles
            mu = h[hi, hi] + 0.75 * abs(h[hi, hi - 1])
        else:
            mu = _wilkinson_shift(h, hi)
        _qr_sweep(h, lo, hi, mu)
        sweeps += 1
        since_deflation += 1
    return np.array(values, dtype=complex), True


def eigenvalues(a) -> Spectrum:
    """Full spectrum of a dense complex matrix.

    Non-convergence of the QR iteration (more than 40 n sweeps without
    full deflation) is reported through ``converged=False`` rather than
    an exception; the diagonal of the unfinished iterate fills in the
    missing estimates.
    """
    a = _checked_square(a)
    values, converged = _qr_eigenvalues(_hessenberg(a), 40 * a.shape[0])
    return Spectrum(_sorted_lex(values), converged)


# ---------------------------------------------------------------------------
# residuals from one eigendecomposition
# ---------------------------------------------------------------------------

def residuals(a, values) -> np.ndarray:
    """Per-eigenvalue residual ||A v - values[k] v||_2 of a unit eigenvector.

    v is the eigenvector, from one ``np.linalg.eig`` call, of the LAPACK
    eigenvalue nearest ``values[k]``. For any unit v, ``values[k]`` is an
    exact eigenvalue of A - r v^H with r = A v - values[k] v and
    ||r v^H||_2 = ||r||_2, so the residual bounds the backward error of
    ``values[k]`` (Kahan, Parlett & Jiang, 1982). A non-finite value gets
    ``inf``.
    """
    a = _checked_square(a)
    values = np.asarray(values, dtype=complex)
    out = np.full(values.shape, np.inf)
    finite = np.isfinite(values)
    lam = values[finite]
    lapack_values, vectors = np.linalg.eig(a)
    v = vectors[:, np.abs(lam[:, None] - lapack_values).argmin(axis=1)]
    out[finite] = np.linalg.norm(a @ v - v * lam, axis=0)
    return out


# ---------------------------------------------------------------------------
# multiset comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MatchResult:
    """Greedy minimal-distance perfect matching between two multisets."""

    ok: bool
    max_distance: float


def match_multisets(a, b, tol: float) -> MatchResult:
    """Pair up two equal-length complex multisets, closest pairs first.

    Succeeds when every matched pair lies within ``tol``. Greedy
    matching is exact for the near-identical multisets compared here.
    """
    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    if a.size != b.size:
        raise ValueError(f"multiset lengths differ: {a.size} != {b.size}")
    dist = np.abs(a[:, None] - b[None, :])
    order = np.argsort(dist, axis=None, kind="stable")
    used_a = np.zeros(a.size, dtype=bool)
    used_b = np.zeros(b.size, dtype=bool)
    matched = 0
    max_distance = 0.0
    for flat in order:
        i, j = divmod(int(flat), b.size)
        if used_a[i] or used_b[j]:
            continue
        used_a[i] = True
        used_b[j] = True
        matched += 1
        max_distance = max(max_distance, float(dist[i, j]))
        if matched == a.size:
            break
    return MatchResult(max_distance <= tol, max_distance)
