"""Exact reference values for the smallest systems.

Everything here is an exact closed-form quantity for the L=4 spin chain at
``q = exp(i pi/3)``, the width-2 dilute transfer matrix at the critical point,
the L=4 open link representations, and a reference table of finite-size
values of the indecomposability parameter.  The test-suite and the ``fixtures`` CLI
subcommand re-verify each of them against freshly built operators.
"""

from __future__ import annotations

import numpy as np

SQRT3 = np.sqrt(3.0)
I = 1j

#: Anisotropy of the spin chain: q + 1/q = 1.
Q_VALUE = np.exp(I * np.pi / 3)

#: Sound velocity of the q = exp(i pi/3) chain entering all scaling factors.
FERMI_VELOCITY = 3 * SQRT3

#: Critical weight per occupied edge of the dilute loop model.
X_CRITICAL = (2 + np.sqrt(2.0)) ** -0.5

# ---------------------------------------------------------------------------
# L = 4 spin chain in the two-up/two-down sector.
# Basis order (down spins as set bits, most significant = site 1, ascending
# mask): uudd, udud, uddu, duud, dudu, dduu.

SPIN_L4_HAMILTONIAN = np.array(
    [
        [0.5 + I * SQRT3, 2, 0, 0, 0, 0],
        [2, -1.5 + I * SQRT3, 2, 2, 0, 0],
        [0, 2, -0.5, 0, 2, 0],
        [0, 2, 0, -0.5, 2, 0],
        [0, 0, 2, 2, -1.5 - I * SQRT3, 2],
        [0, 0, 0, 0, 2, 0.5 - I * SQRT3],
    ],
    dtype=complex,
)

#: The five distinct eigenvalues; 3/2 occurs twice in one rank-2 Jordan cell.
SPIN_L4_EIGENVALUES = np.array(
    [-4.5, -2 * np.sqrt(2.0) - 0.5, -0.5, 1.5, 2 * np.sqrt(2.0) - 0.5]
)

SPIN_L4_JORDAN_LEVEL = 1.5

#: Ground state, normalized to bilinear square one (no conjugation).
SPIN_L4_GROUND = np.array(
    [
        (-1 + I * SQRT3) / 6,
        (2 - I * SQRT3) / 3,
        -2 / 3,
        -2 / 3,
        (2 + I * SQRT3) / 3,
        -(1 + I * SQRT3) / 6,
    ],
    dtype=complex,
)

#: Eigenvector at energy 3/2, bilinear square zero, scaled so the pairing
#: with SPIN_L4_JORDAN_PARTNER is exactly -3/4 (see tests).
SPIN_L4_LEVEL3 = np.array(
    [
        (1 - I * SQRT3) / 2,
        -(1 + I * SQRT3) / 2,
        -1.0,
        -1.0,
        (-1 + I * SQRT3) / 2,
        (1 + I * SQRT3) / 2,
    ],
    dtype=complex,
)

#: Raw Jordan partner: (H - 3/2) SPIN_L4_JORDAN_PARTNER = SPIN_L4_LEVEL3,
#: in the gauge where the up-down-up-down component vanishes.
SPIN_L4_JORDAN_PARTNER = np.array(
    [
        -0.5,
        0.0,
        (1 - I * SQRT3) / 8,
        (1 - I * SQRT3) / 8,
        (-3 - I * SQRT3) / 8,
        (-7 + I * SQRT3) / 8,
    ],
    dtype=complex,
)

#: Two-leg state of the L=4 chain: ground(2) x ground(2), overlap 1 with the
#: ground state.
SPIN_L4_TROUSERS = np.array(
    [0.0, 0.5 - I * SQRT3 / 2, -1.0, -1.0, 0.5 + I * SQRT3 / 2, 0.0],
    dtype=complex,
)

#: Exact indecomposability parameter at L=4: -sqrt(3) pi / 4.
B_XXZ_L4_EXACT = -SQRT3 * np.pi / 4


# ---------------------------------------------------------------------------
# Width-2 dilute transfer matrix at x = X_CRITICAL, basis (empty, arc, strings).


def dilute_T2(x: float | None = None) -> np.ndarray:
    x = X_CRITICAL if x is None else x
    return np.array(
        [
            [1, 0, x**2],
            [x**4, x**4, 0],
            [0, 0, x**4],
        ],
        dtype=float,
    )


def dilute_T2_states(x: float | None = None) -> dict[str, np.ndarray]:
    """Right/left eigenvectors and Jordan partners of the width-2 row."""
    x = X_CRITICAL if x is None else x
    r = x**4 / (1 - x**4)
    return {
        "right_ground": np.array([1.0, r, 0.0]),
        "right_level1": np.array([0.0, -(x**6) / (1 - x**4), 0.0]),
        "right_partner": np.array([-(x**2) / (1 - x**4), 0.0, 1.0]),
        "left_ground": np.array([1.0, x**2 / (1 - x**4), 0.0]),
        "left_level1": np.array([0.0, -(x**6) / (1 - x**4), 0.0]),
        "left_partner": np.array([-(x**4) / (1 - x**4), 0.0, 1.0]),
    }


def b_polymer_l2_exact(x: float | None = None) -> float:
    """Closed form of the width-2 polymer coupling: (4 pi / sqrt 3) x^4/(1-x^4)."""
    x = X_CRITICAL if x is None else x
    return float(4 * np.pi / SQRT3 * x**4 / (1 - x**4))


# ---------------------------------------------------------------------------
# L = 4 open link basis, order:
#   1 ()()   2 (())   3 ||()   4 |()|   5 ()||   6 ||||


def open_L4_generators(n: complex) -> list[np.ndarray]:
    """The three cup-cap generators on the six-state open basis at weight ``n``."""
    e1 = np.zeros((6, 6), dtype=complex)
    e1[0, :3] = (n, 1, 1)
    e1[4, 3:] = (1, n, 1)
    e2 = np.zeros((6, 6), dtype=complex)
    e2[1, :2] = (1, n)
    e2[3, 2:] = (1, n, 1, 1)
    e3 = np.zeros((6, 6), dtype=complex)
    e3[0, :] = (n, 1, 0, 0, 1, 0)
    e3[2, :] = (0, 0, n, 1, 0, 1)
    return [e1, e2, e3]


def deformed_L4_generators(y: complex) -> list[np.ndarray]:
    """Loop weight one, with the middle string contraction reweighted by ``y``."""
    e1, e2, e3 = open_L4_generators(1.0)
    e2 = e2.copy()
    e2[3, 5] = y
    return [e1, e2, e3]


def block_change_of_basis(n: complex) -> np.ndarray:
    """Basis change splitting the L=4 geometric representation into sectors.

    Valid whenever ``n`` is not of the form ``2 cos(pi/k)``; columns are the
    new basis vectors.
    """
    d = (n + 1) * (n**2 - 2)
    return np.array(
        [
            [1, 0, -1 / n, 0, -1 / n, n / d],
            [0, 1, 0, -1 / n, 0, -1 / d],
            [0, 0, 1, 0, 0, -(n - 1) / (n**2 - 2)],
            [0, 0, 0, 1, 0, -(n - 2) / (n**2 - 2)],
            [0, 0, 0, 0, 1, -(n - 1) / (n**2 - 2)],
            [0, 0, 0, 0, 0, 1],
        ],
        dtype=complex,
    )


def block_forms(n: complex) -> list[np.ndarray]:
    """The generators after :func:`block_change_of_basis`: 2+3+1 block structure."""
    z2, z3 = np.zeros((2, 2)), np.zeros((3, 3))
    blk = lambda a, b, c: np.block(
        [
            [a, np.zeros((2, 3)), np.zeros((2, 1))],
            [np.zeros((3, 2)), b, np.zeros((3, 1))],
            [np.zeros((1, 2)), np.zeros((1, 3)), c],
        ]
    ).astype(complex)
    e1 = blk(np.array([[n, 1], [0, 0]]), np.array([[0, 0, 0], [0, 0, 0], [0, 1, n]]), np.zeros((1, 1)))
    e2 = blk(np.array([[0, 0], [1, n]]), np.array([[0, 0, 0], [1, n, 1], [0, 0, 0]]), np.zeros((1, 1)))
    e3 = blk(np.array([[n, 1], [0, 0]]), np.array([[n, 1, 0], [0, 0, 0], [0, 0, 0]]), np.zeros((1, 1)))
    return [e1, e2, e3]


def deformed_change_of_basis(y: complex) -> np.ndarray:
    """Basis change exhibiting the indecomposable structure at loop weight one."""
    return np.array(
        [
            [1, 0, 1, -1, 0, -1],
            [-1, 1, 0, 0, -1, 0],
            [0, 0, -1, 1, 0, 0],
            [0, 0, (y - 2) / (y - 1), 0, 1, 0],
            [0, 0, -1, 0, 0, 1],
            [0, 0, 1 / (y - 1), 0, 0, 0],
        ],
        dtype=complex,
    )


def deformed_block_forms() -> list[np.ndarray]:
    """The deformed generators after :func:`deformed_change_of_basis` (y drops out)."""
    e1 = np.zeros((6, 6))
    e1[0, 1] = e1[1, 1] = 1
    e1[5, 4] = e1[5, 5] = 1
    e2 = np.zeros((6, 6))
    e2[1, 1] = e2[1, 2] = 1
    e2[4, 3] = e2[4, 4] = e2[4, 5] = 1
    e3 = np.zeros((6, 6))
    e3[0, 1] = e3[1, 1] = 1
    e3[3, 3] = e3[3, 4] = 1
    return [e1.astype(complex), e2.astype(complex), e3.astype(complex)]


# ---------------------------------------------------------------------------
# Reference finite-size values of the coupling (five decimals).

B_POLYMER_TABLE = {
    2: 0.68080,
    4: 0.66431,
    6: 0.67032,
    8: 0.67893,
    10: 0.68753,
    12: 0.69551,
    14: 0.70273,
}

B_XXZ_TABLE = {
    4: -1.36035,
    8: -0.87027,
    12: -0.75399,
    16: -0.70564,
    20: -0.68012,
}

B_POLYMER_LIMIT = (0.79, 0.08)
B_XXZ_LIMIT = (-0.61, 0.02)

#: Affleck-Ludwig entropy of the fixed boundary condition of the Ising chain.
ISING_FIXED_ENTROPY = float(-np.log(np.sqrt(2.0) / 2))
