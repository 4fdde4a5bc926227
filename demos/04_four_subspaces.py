"""The four fundamental subspaces of one matrix.

An n by p matrix splits its two ambient spaces into orthogonal pairs: the
row space against the null space inside R^p, the column space against the
left null space inside R^n.  The bases below all come out of one SVD, so
the pairing and the dimension count are visible directly.
"""

import numpy as np

from fourspaces import (
    column_basis_from_row_basis,
    fundamental_bases,
    rank_nullity_report,
    subspaces_equal,
)

np.set_printoptions(precision=4, suppress=True)

x = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 1.0], [3.0, 6.0, 1.0]])
print("x (3x3, rank 2):")
print(x)

bases = fundamental_bases(x)
print("\nrank:", bases.rank)
print("row space basis (columns):")
print(bases.row_space)
print("null space basis:")
print(bases.null_space)
print("column space basis:")
print(bases.column_space)
print("left null space basis:")
print(bases.left_null_space)

rep = rank_nullity_report(x)
print(f"\nrank-nullity: {rep.rank} + {rep.dim_null} = {rep.n_cols} columns")
print(f"              {rep.rank} + {rep.dim_left_null} = {rep.n_rows} rows")

print("\northogonality across each pair:")
print("  max |row . null| =", float(np.max(np.abs(bases.row_space.T @ bases.null_space))))
print("  x @ null =", (x @ bases.null_space).ravel())

print("\nmapping a row-space basis through x lands in the column space:")
mapped = column_basis_from_row_basis(x, bases.row_space)
print(mapped)
# the images are independent but not orthonormal; the comparison is by span
print("same span as the column-space basis:", subspaces_equal(mapped, bases.column_space))

print("\ntwo different bases of the same plane compare equal by projector:")
a = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
b = np.array([[1.0, 1.0], [1.0, -1.0], [0.0, 0.0]]) / np.sqrt(2.0)
print(subspaces_equal(a, b))
