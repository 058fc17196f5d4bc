"""Tour of the linear-algebra layer: the generalized inverse, built from
numpy's SVD, and minimum-norm solutions of underdetermined systems."""

import numpy as np

from elmkit import min_norm_lstsq, pseudoinverse


def main():
    rng = np.random.default_rng(11)

    a = rng.uniform(-2, 2, size=(3, 5))
    print("matrix A (3x5):")
    print(np.round(a, 3))

    u, s, vt = np.linalg.svd(a, full_matrices=False)
    print("\nsingular values:", np.round(s, 4))
    reconstructed = u @ np.diag(s) @ vt
    print("reconstruction error:", f"{np.linalg.norm(reconstructed - a):.2e}")

    p = pseudoinverse(a)
    print("\ngeneralized inverse is 5x3:", p.shape)
    print("A P A == A:", np.allclose(a @ p @ a, a))
    print("P A P == P:", np.allclose(p @ a @ p, p))
    print("A P symmetric:", np.allclose((a @ p).T, a @ p))
    print("P A symmetric:", np.allclose((p @ a).T, p @ a))

    # an underdetermined consistent system has infinitely many solutions;
    # the solver picks the shortest one
    x_true = rng.standard_normal((5, 1))
    y = a @ x_true
    x_hat = min_norm_lstsq(a, y)
    print("\nresidual of returned solution:", f"{np.linalg.norm(a @ x_hat - y):.2e}")
    print("norm of returned solution:", f"{np.linalg.norm(x_hat):.4f}")
    print("norm of the solution it was built from:", f"{np.linalg.norm(x_true):.4f}")

    _, s, vt = np.linalg.svd(a)
    null_direction = vt[-1:].T
    alt = x_hat + 0.7 * null_direction
    print("an alternative exact solution has norm:", f"{np.linalg.norm(alt):.4f}")


if __name__ == "__main__":
    main()
