"""3x3 matrix kernels: distance to the rotation group, polar factors, rotation fitting.

The eigen/SVD path is self-contained: symmetric eigenvalues come from the
trigonometric solution of the characteristic cubic polished by a guarded
Newton step, and eigenvectors from a cyclic Jacobi diagonalization run to
tolerance 1e-12.  Everything is vectorized over a leading batch shape and
pure, so concurrent use is safe.

The eigenvalue kernel works component-major: it takes the nine entries of
the matrices as separate contiguous arrays.  ``dist_SO3`` walks its batch
in blocks of ``_DIST_BLOCK`` matrices and writes each block into one
preallocated output, so beyond its 8 bytes per matrix of output (and the
one-byte-per-entry finiteness mask) its temporaries stay at a few MB
whatever the batch size.  The blocks do not change the bits: each matrix
goes through the same operations as in a single call.

Matrix norms are Frobenius throughout.
"""

from __future__ import annotations

import warnings

import numpy as np

JACOBI_TOL = 1e-12
_DIST_BLOCK = 4096  # matrices per block of dist_SO3
_DEGENERATE_GAP = 1e-8


class NonFiniteMatrixError(ValueError):
    """Raised when a kernel receives NaN or infinite entries."""


def _check_finite(f: np.ndarray) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.shape[-2:] != (3, 3):
        raise ValueError(f"expected trailing 3x3 shape, got {f.shape}")
    if not np.all(np.isfinite(f)):
        raise NonFiniteMatrixError("matrix entries must be finite")
    return f


def _det(m) -> np.ndarray:
    """Determinant from entry arrays: ``m[i][j]`` is entry (i, j) of every matrix."""
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def _entries(f: np.ndarray) -> np.ndarray:
    """Component-major copy of a batch of 3x3 matrices: shape (3, 3, ...)."""
    return np.ascontiguousarray(np.moveaxis(f, (-2, -1), (0, 1)))


def det3(f: np.ndarray) -> np.ndarray:
    """Determinant of a batch of 3x3 matrices."""
    f = np.asarray(f, dtype=float)
    return _det(np.moveaxis(f, (-2, -1), (0, 1)))


def _eigvals(b) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues (descending) of symmetric 3x3 matrices given as entry arrays ``b[i][j]``.

    Closed-form (trigonometric) roots of the characteristic cubic, then one
    Newton step on the polynomial where the spectrum is well separated.
    """
    q = (b[0][0] + b[1][1] + b[2][2]) / 3.0
    p1 = b[0][1] ** 2 + b[0][2] ** 2 + b[1][2] ** 2
    p2 = (b[0][0] - q) ** 2 + (b[1][1] - q) ** 2 + (b[2][2] - q) ** 2 + 2.0 * p1
    scale = np.maximum(np.abs(q) + np.sqrt(np.maximum(p2, 0.0)), 1e-300)
    p = np.sqrt(np.maximum(p2, 0.0) / 6.0)
    safe_p = np.where(p > 0, p, 1.0)

    a = [[(b[i][j] - q if i == j else b[i][j]) / safe_p for j in range(3)] for i in range(3)]
    r = np.clip(_det(a) / 2.0, -1.0, 1.0)
    del a
    phi = np.arccos(r) / 3.0

    lam1 = q + 2.0 * p * np.cos(phi)
    lam3 = q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)
    lam2 = 3.0 * q - lam1 - lam3

    # Newton polish on p(x) = x^3 - c2 x^2 + c1 x - c0; skipped where p' is
    # small (nearly multiple eigenvalues, where the closed form is already fine).
    c2 = 3.0 * q
    c1 = b[0][0] * b[1][1] + b[0][0] * b[2][2] + b[1][1] * b[2][2] - p1
    c0 = _det(b)
    two_c2 = 2.0 * c2
    small = 1e-6 * scale**2
    lam = []
    for x in (lam1, lam2, lam3):
        fx = ((x - c2) * x + c1) * x - c0
        dfx = (3.0 * x - two_c2) * x + c1
        ok = np.abs(dfx) > small
        lam.append(x - np.where(ok, fx / np.where(ok, dfx, 1.0), 0.0))
    # a sorting network; on finite values it picks what np.sort would
    lo01, hi01 = np.minimum(lam[0], lam[1]), np.maximum(lam[0], lam[1])
    return (
        np.maximum(hi01, lam[2]),
        np.maximum(lo01, np.minimum(hi01, lam[2])),
        np.minimum(lo01, lam[2]),
    )


def sym_eigvals_3x3(b: np.ndarray) -> np.ndarray:
    """Eigenvalues of symmetric 3x3 matrices, descending (see ``_eigvals``)."""
    b = np.asarray(b, dtype=float)
    return np.stack(_eigvals(_entries(b)), axis=-1)


def jacobi_eigh_3x3(b: np.ndarray, tol: float = JACOBI_TOL, max_sweeps: int = 24):
    """Eigendecomposition of symmetric 3x3 matrices by cyclic Jacobi rotations.

    Returns (eigenvalues descending, eigenvector columns in matching order).
    Iterates until the off-diagonal mass is below ``tol`` relative to the
    matrix scale.
    """
    a = np.array(b, dtype=float)
    v = np.zeros_like(a)
    v[..., 0, 0] = v[..., 1, 1] = v[..., 2, 2] = 1.0
    scale = np.abs(a).sum(axis=(-2, -1)) + 1e-300

    for _ in range(max_sweeps):
        off = np.sqrt(a[..., 0, 1] ** 2 + a[..., 0, 2] ** 2 + a[..., 1, 2] ** 2)
        if np.all(off <= tol * scale):
            break
        for p, q in ((0, 1), (0, 2), (1, 2)):
            k = 3 - p - q
            apq = a[..., p, q]
            rotate = np.abs(apq) > (tol / 16.0) * scale
            denom = np.where(rotate, 2.0 * apq, 1.0)
            theta = (a[..., q, q] - a[..., p, p]) / denom
            t = np.sign(theta) / (np.abs(theta) + np.sqrt(theta**2 + 1.0))
            t = np.where(np.signbit(theta) & (theta == 0), -t, t)
            t = np.where(rotate, t, 0.0)
            c = 1.0 / np.sqrt(t**2 + 1.0)
            s = t * c

            app, aqq = a[..., p, p], a[..., q, q]
            akp, akq = a[..., k, p], a[..., k, q]
            a[..., p, p] = app - t * apq
            a[..., q, q] = aqq + t * apq
            a[..., p, q] = a[..., q, p] = np.where(rotate, 0.0, apq)
            nkp = c * akp - s * akq
            nkq = s * akp + c * akq
            a[..., k, p] = a[..., p, k] = nkp
            a[..., k, q] = a[..., q, k] = nkq

            vp = v[..., :, p].copy()
            vq = v[..., :, q].copy()
            v[..., :, p] = c[..., None] * vp - s[..., None] * vq
            v[..., :, q] = s[..., None] * vp + c[..., None] * vq

    vals = np.stack([a[..., 0, 0], a[..., 1, 1], a[..., 2, 2]], axis=-1)
    order = np.argsort(-vals, axis=-1)
    vals = np.take_along_axis(vals, order, axis=-1)
    vecs = np.take_along_axis(v, order[..., None, :], axis=-1)
    return vals, vecs


def _singular_values(f: np.ndarray) -> list[np.ndarray]:
    """Singular values (s1, s2, s3), descending, of finite 3x3 matrices."""
    b = np.swapaxes(f, -1, -2) @ f
    return [np.sqrt(np.maximum(lam, 0.0)) for lam in _eigvals(_entries(b))]


def singular_values_3x3(f: np.ndarray) -> np.ndarray:
    """Singular values of 3x3 matrices, descending."""
    return np.stack(_singular_values(_check_finite(f)), axis=-1)


def dist_SO3(f: np.ndarray) -> np.ndarray:
    """Frobenius distance from a 3x3 matrix to the proper rotation group.

    With singular values s1 >= s2 >= s3 the squared distance is
    (s1-1)^2 + (s2-1)^2 + (s3-1)^2 for nonnegative determinant and
    (s1-1)^2 + (s2-1)^2 + (s3+1)^2 otherwise.  The batch is evaluated in
    blocks of ``_DIST_BLOCK`` matrices written into one output array.
    """
    f = _check_finite(f)
    flat = f.reshape(-1, 3, 3)
    out = np.empty(flat.shape[0])
    for lo in range(0, flat.shape[0], _DIST_BLOCK):
        block = flat[lo : lo + _DIST_BLOCK]
        s1, s2, s3 = _singular_values(block)
        neg = _det(np.moveaxis(block, (-2, -1), (0, 1))) < 0
        last = np.where(neg, s3 + 1.0, s3 - 1.0)
        d2 = (s1 - 1.0) ** 2 + (s2 - 1.0) ** 2 + last**2
        out[lo : lo + _DIST_BLOCK] = np.sqrt(np.maximum(d2, 0.0))
    return out.reshape(f.shape[:-2])


def svd3(f: np.ndarray):
    """Full SVD of 3x3 matrices: returns (u, s, v) with f = u @ diag(s) @ v.T.

    The right factor comes from the Jacobi kernel on f.T @ f; the left factor
    is rebuilt column by column with Gram-Schmidt fallbacks so that it stays
    orthogonal (det(u) = +1 by construction of the third column).
    """
    f = _check_finite(f)
    b = np.swapaxes(f, -1, -2) @ f
    lam, v = jacobi_eigh_3x3(b)
    s = np.sqrt(np.maximum(lam, 0.0))

    scale = np.maximum(s[..., 0], 1e-300)
    fv0 = np.einsum("...ij,...j->...i", f, v[..., :, 0])
    fv1 = np.einsum("...ij,...j->...i", f, v[..., :, 1])

    def _unit(vec, fallback):
        n = np.linalg.norm(vec, axis=-1, keepdims=True)
        small = n[..., 0] < 1e-14 * scale
        safe = np.where(small[..., None], fallback, vec / np.where(n > 0, n, 1.0))
        nn = np.linalg.norm(safe, axis=-1, keepdims=True)
        return safe / np.where(nn > 0, nn, 1.0)

    ex = np.zeros(f.shape[:-2] + (3,))
    ex[..., 0] = 1.0
    u0 = _unit(fv0, ex)
    fv1 = fv1 - np.sum(fv1 * u0, axis=-1, keepdims=True) * u0
    # fallback: any direction orthogonal to u0
    alt = np.cross(u0, np.roll(u0, 1, axis=-1) + ex)
    u1 = _unit(fv1, _unit(alt, np.roll(ex, 1, axis=-1)))
    u2 = np.cross(u0, u1)
    u = np.stack([u0, u1, u2], axis=-1)
    return u, s, v


def nearest_rotation(f: np.ndarray, warn_degenerate: bool = True) -> np.ndarray:
    """Proper rotation closest to f in Frobenius norm (sign-corrected polar factor).

    When det(f) < 0 and the two smallest singular values coincide the
    minimizer is not unique; one valid minimizer is returned and a warning
    is emitted.
    """
    f = _check_finite(f)
    u, s, v = svd3(f)
    sign = np.sign(det3(u) * det3(v))
    sign = np.where(sign == 0, 1.0, sign)
    if warn_degenerate:
        degen = (det3(f) < 0) & (s[..., 1] - s[..., 2] <= _DEGENERATE_GAP * np.maximum(s[..., 0], 1e-300))
        if np.any(degen):
            warnings.warn(
                "nearest rotation is not unique (reflective matrix with a "
                "repeated small singular value); returning one minimizer",
                RuntimeWarning,
                stacklevel=2,
            )
    d = np.ones(f.shape[:-2] + (3,))
    d[..., 2] = sign
    return np.einsum("...ik,...k,...jk->...ij", u, d, v)


def best_fit_rotation_L2(samples: np.ndarray, weights=None) -> np.ndarray:
    """Rotation minimizing the weighted sum of squared Frobenius distances.

    Equals the sign-corrected polar factor of the weighted mean matrix.
    """
    samples = _check_finite(samples)
    if samples.ndim < 3:
        raise ValueError("need a batch of 3x3 samples")
    if weights is None:
        mean = samples.mean(axis=-3)
    else:
        w = np.asarray(weights, dtype=float)
        total = w.sum(axis=-1)
        if np.any(total <= 0):
            raise ValueError("total weight must be positive")
        mean = np.einsum("...n,...nij->...ij", w, samples) / total[..., None, None]
    return nearest_rotation(mean)


# -- deterministic rotation sampling ---------------------------------------


def _radical_inverse(indices: np.ndarray, base: int) -> np.ndarray:
    x = np.zeros(indices.shape, dtype=float)
    f = 1.0 / base
    i = indices.astype(np.int64).copy()
    while np.any(i > 0):
        x += f * (i % base)
        i //= base
        f /= base
    return x


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    """Rotation matrices from unit quaternions (w, x, y, z)."""
    q = np.asarray(q, dtype=float)
    q = q / np.linalg.norm(q, axis=-1, keepdims=True)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    m = np.empty(q.shape[:-1] + (3, 3))
    m[..., 0, 0] = 1 - 2 * (y * y + z * z)
    m[..., 0, 1] = 2 * (x * y - w * z)
    m[..., 0, 2] = 2 * (x * z + w * y)
    m[..., 1, 0] = 2 * (x * y + w * z)
    m[..., 1, 1] = 1 - 2 * (x * x + z * z)
    m[..., 1, 2] = 2 * (y * z - w * x)
    m[..., 2, 0] = 2 * (x * z - w * y)
    m[..., 2, 1] = 2 * (y * z + w * x)
    m[..., 2, 2] = 1 - 2 * (x * x + y * y)
    return m


def quasi_uniform_rotations(count: int, seed: int = 0) -> np.ndarray:
    """Deterministic low-discrepancy sample of SO(3).

    Halton points (bases 2, 3, 5) starting at index seed+1, mapped to unit
    quaternions by the subgroup-algorithm area-preserving map.
    """
    idx = np.arange(count, dtype=np.int64) + 1 + int(seed)
    u1 = _radical_inverse(idx, 2)
    u2 = _radical_inverse(idx, 3)
    u3 = _radical_inverse(idx, 5)
    a, b = np.sqrt(1.0 - u1), np.sqrt(u1)
    q = np.stack(
        [
            a * np.sin(2 * np.pi * u2),
            a * np.cos(2 * np.pi * u2),
            b * np.sin(2 * np.pi * u3),
            b * np.cos(2 * np.pi * u3),
        ],
        axis=-1,
    )
    return quat_to_matrix(q)


def random_rotation(rng: np.random.Generator, n: int | None = None) -> np.ndarray:
    """Haar-ish random rotations from normalized Gaussian quaternions."""
    shape = (4,) if n is None else (n, 4)
    return quat_to_matrix(rng.normal(size=shape))


def brute_force_dist_SO3(f: np.ndarray, rotations: np.ndarray, chunk: int = 65536) -> np.ndarray:
    """Minimum Frobenius distance to a finite rotation sample (oracle path).

    Uses ||f - r||^2 = ||f||^2 + 3 - 2 <f, r> so only one GEMM per chunk of
    rotations is needed.
    """
    f = _check_finite(f)
    flat = f.reshape(-1, 9)
    rot = np.asarray(rotations, dtype=float).reshape(-1, 9)
    best = np.full(flat.shape[0], -np.inf)
    for lo in range(0, rot.shape[0], chunk):
        dots = rot[lo : lo + chunk] @ flat.T
        best = np.maximum(best, dots.max(axis=0))
    d2 = (flat**2).sum(axis=1) + 3.0 - 2.0 * best
    return np.sqrt(np.maximum(d2, 0.0)).reshape(f.shape[:-2])
