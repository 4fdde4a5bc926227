"""Eigendecomposition of a symmetric matrix by Jacobi rotations.

The solver shifts s to b = s + 2 ||s||_F I, which is positive definite,
and rotates pairs of rows of b until every pair is orthogonal to rounding
level; the rotations then diagonalize b^2 and so s.  The result is the
spectral factorization s = q diag(values) q' with orthogonal q, eigenvalues
sorted descending.  A similarity transform p a p^{-1} keeps rank and trace, and
keeps the spectrum when the test can see it.
"""

import numpy as np

from fourspaces import eig_symmetric, similarity_check

np.set_printoptions(precision=4, suppress=True)

s = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]])
print("s =")
print(s)

res = eig_symmetric(s)
print("\neigenvalues (descending):", res.values)
print("eigenvectors as columns:")
print(res.q)

recon = res.q @ np.diag(res.values) @ res.q.T
print("\nreconstruction error:", float(np.linalg.norm(recon - s)))
print("orthogonality error:", float(np.linalg.norm(res.q.T @ res.q - np.eye(3))))

print("\ntrace equals the eigenvalue sum:", float(np.trace(s)), "=", float(res.values.sum()))

angle = np.pi / 5.0
rot = np.array(
    [
        [np.cos(angle), -np.sin(angle), 0.0],
        [np.sin(angle), np.cos(angle), 0.0],
        [0.0, 0.0, 1.0],
    ]
)
report = similarity_check(s, rot)
print("\nconjugating by a rotation preserves:")
print("  eigenvalues:", report.eigs_match)
print("  rank:       ", report.rank_match)
print("  trace:      ", report.trace_match)

shear = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
report = similarity_check(s, shear)
print("\na non-orthogonal conjugation makes the image asymmetric, so the")
print("eigenvalue comparison is reported as unavailable:", report.eigs_match)
print("rank and trace still match:", report.rank_match, report.trace_match)
