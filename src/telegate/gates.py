"""Standard gate matrices in the computational basis (qubit 0 = MSB)."""
from __future__ import annotations

import numpy as np

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)

# diag(1, i): the single-qubit quarter-turn phase gate, written Up below.
PHASE = np.diag([1, 1j]).astype(complex)
# diag(1, e^{i pi/4}): the eighth-turn phase gate.
EIGHTH_TURN = np.diag([1, np.exp(1j * np.pi / 4)]).astype(complex)

CZ = np.diag([1, 1, 1, -1]).astype(complex)
# diag(1, 1, 1, i): controlled quarter-turn phase.
CPHASE = np.diag([1, 1, 1, 1j]).astype(complex)

CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def toffoli() -> np.ndarray:
    """Doubly-controlled NOT: controls on the first two qubits."""
    m = np.eye(8, dtype=complex)
    m[[6, 7]] = m[[7, 6]]
    return m


def fredkin() -> np.ndarray:
    """Controlled swap: control on the first qubit."""
    m = np.eye(8, dtype=complex)
    m[[5, 6]] = m[[6, 5]]
    return m


def double_cz() -> np.ndarray:
    """Diagonal three-qubit gate = CZ on qubits (0,1) times CZ on qubits (1,2).

    Signs: -1 exactly where two adjacent wires are both 1 an odd number of
    times, i.e. at |011> and |110>; +1 everywhere else including |111>.
    """
    return np.diag([1, 1, 1, -1, 1, 1, -1, 1]).astype(complex)


PAULIS = {"1": SX, "2": SY, "3": SZ, "4": I2}


def random_state(num_qubits: int, rng: np.random.Generator, min_amp: float = 0.0) -> np.ndarray:
    """Haar-ish random pure state; redraws until every |amplitude| >= min_amp."""
    dim = 1 << num_qubits
    while True:
        amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        amps /= np.linalg.norm(amps)
        if min_amp == 0.0 or np.min(np.abs(amps)) >= min_amp:
            return amps
