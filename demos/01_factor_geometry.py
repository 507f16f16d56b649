#
# Factor-space geometry: two tall factors describe the same PSD matrix
# exactly when they differ by a right rotation, so comparisons happen
# modulo the orthogonal group via Procrustes alignment. Plain norms,
# spectra and projectors come straight from numpy.
#

import numpy as np

from factordescent import dist, procrustes_align, spectral_norm

rng = np.random.default_rng(0)

# ---------------------------------------------------------------
# A factor and a rotated copy: same Gram matrix, distance zero
# ---------------------------------------------------------------
u = rng.standard_normal((6, 2))
theta = 0.7
rot = np.array([[np.cos(theta), -np.sin(theta)],
                [np.sin(theta), np.cos(theta)]])
v = u @ rot

print("||u u^T - v v^T||_F =", np.linalg.norm(u @ u.T - v @ v.T))
print("plain  ||u - v||_F  =", np.linalg.norm(u - v))
print("aligned dist(u, v)  =", dist(u, v))

# the Procrustes solution recovers the rotation (up to float noise)
r = procrustes_align(u, v)
print("recovered rotation error:", np.max(np.abs(r - rot.T)))
print("orthonormality defect of R:", np.max(np.abs(r.T @ r - np.eye(2))))

# ---------------------------------------------------------------
# Generic pair: the aligner strictly beats the identity candidate
# ---------------------------------------------------------------
w = rng.standard_normal((6, 2))
print()
print("generic pair: ||u - w||_F =", np.linalg.norm(u - w),
      " dist(u, w) =", dist(u, w))

# ---------------------------------------------------------------
# Spectra and projectors
# ---------------------------------------------------------------
x = u @ u.T
print()
print("singular values of X = u u^T:", np.round(np.linalg.svd(x, compute_uv=False), 4))
print("spectral norm:", spectral_norm(x))

q = np.linalg.svd(u, full_matrices=False)[0]  # u has full column rank
p = q @ q.T
print("projector: ||P^2 - P||_max =", np.max(np.abs(p @ p - p)),
      " ||P u - u||_max =", np.max(np.abs(p @ u - u)))
