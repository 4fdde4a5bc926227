"""Two factorizations of the same rank-deficient matrix.

The SVD here is constructive and forms no Gram matrix: a column-pivoted
Gram-Schmidt QR of x, a second one of R', and one-sided Jacobi rotations
of the rows of that triangular factor until they are orthogonal.  sigma is
the rotated row norms, v and u follow from the rotations and the two Q
factors, and each QR stops at rounding level, so the rank-2 input gives a
2 x 2 problem.  The silent directions are completed by Householder
reflections, so u and v are genuinely square and orthogonal in the full
form.  The CR factorization instead reads pivot columns and echelon rows
straight off the row reduction; it is rational whenever the input is.
"""

import numpy as np

from fourspaces import cr_decompose, svd_full, svd_reduced

np.set_printoptions(precision=4, suppress=True)

x = np.array(
    [
        [1.0, 2.0, 3.0],
        [2.0, 4.0, 6.0],
        [1.0, 0.0, 1.0],
        [2.0, 2.0, 4.0],
    ]
)
print("x (4x3, rank 2):")
print(x)

full = svd_full(x)
print("\nsingular values:", full.sigma, "rank:", full.rank)
print("u is 4x4 orthogonal, v is 3x3 orthogonal:")
print("  ||u'u - I|| =", float(np.linalg.norm(full.u.T @ full.u - np.eye(4))))
print("  ||v'v - I|| =", float(np.linalg.norm(full.v.T @ full.v - np.eye(3))))
print("reconstruction ||u S v' - x|| =",
      float(np.linalg.norm(full.u @ full.sigma_matrix() @ full.v.T - x)))

red = svd_reduced(x)
print("\nreduced form keeps only the", red.rank, "active columns:")
print("u_r shape", red.u.shape, ", v_r shape", red.v.shape)
print("reconstruction ||u_r S_r v_r' - x|| =",
      float(np.linalg.norm(red.u @ red.sigma_matrix() @ red.v.T - x)))

fac = cr_decompose(x)
print("\nCR factors: c is the pivot columns of x, r the nonzero echelon rows")
print("c =")
print(fac.c)
print("r =")
print(fac.r_factor)
print("c @ r reproduces x exactly:", bool(np.allclose(fac.c @ fac.r_factor, x)))
print("both factors have full rank", fac.rank)
