"""Dense numeric kernels shared by every other module.

Vectors are 1-D float64 ndarrays, matrices 2-D row-major float64 ndarrays.
Everything here is deterministic given an `Rng`, and nothing mutates its
inputs, so values can be shared freely across threads. A kernel given an
``out=`` array writes its result there, and writes nothing else.
"""

import hashlib

import numpy as np


class Rng:
    """Seeded random source with labeled child streams.

    A child stream is derived purely from ``(seed, label)``, never from the
    parent's draw position, so adding or removing draws in one consumer does
    not perturb any other consumer.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
        self.gen = np.random.default_rng(np.random.SeedSequence(self.seed))

    def child(self, label: str) -> "Rng":
        digest = hashlib.sha256(f"{self.seed}/{label}".encode()).digest()
        return Rng(int.from_bytes(digest[:8], "little"))

    def __repr__(self):
        return f"Rng(seed={self.seed})"


def sigmoid(z, out=None):
    """Logistic function, overflow-safe for any finite input; written into
    ``out`` when given (``out`` may be ``z`` itself).

    With ez = exp(-|z|) it is 1 / (1 + ez) for z >= 0 and ez / (1 + ez)
    below: the numerator is max(ez, copysign(1, z)), since 0 <= ez <= 1
    (and ez = 1 at z = ±0), so both branches come from one division, bit
    for bit. |z| goes into the one scratch array first, so the numerator
    can then be written into ``out`` even where ``out`` is ``z``.
    """
    z = np.asarray(z, dtype=np.float64)
    ez = np.abs(z, out=np.empty_like(z))
    # the numerator's sign stays a copysign: np.greater_equal into float64,
    # bitwise the same, took 0.6 us more per call at a training step's 300
    # values (its cast has a fixed cost) and saved only 2 us at an inference
    # block's 19,200 (2-vCPU Xeon)
    num = np.copysign(1.0, z, out=np.empty_like(z) if out is None else out)
    # -|z| as abs then negative: the same bits as copysign(z, -1), NaN signs
    # included, and faster per element
    np.exp(np.negative(ez, out=ez), out=ez)
    np.maximum(ez, num, out=num)  # a NaN z keeps ez's NaN, as the division needs
    ez += 1.0
    return np.divide(num, ez, out=num)


def relu(z):
    return np.maximum(z, 0.0)


ACTIVATIONS = {"tanh": np.tanh, "relu": relu}  # the one list of activation names


def activation(name: str):
    try:
        return ACTIVATIONS[name]
    except KeyError:
        raise ValueError(f"unknown activation {name!r}, expected one of {sorted(ACTIVATIONS)}")


def activation_grad_from_output(name: str, y: np.ndarray) -> np.ndarray:
    """Derivative of the named activation, expressed via its output value y."""
    if name == "tanh":
        return 1.0 - y * y
    if name == "relu":
        return (y > 0.0).astype(np.float64)
    raise ValueError(f"unknown activation {name!r}")


def glorot_bound(fan_in: int, fan_out: int) -> float:
    return float(np.sqrt(6.0 / (fan_in + fan_out)))


def uniform_init(rng: Rng, rows: int, cols: int, bound: float) -> np.ndarray:
    """i.i.d. uniform entries on [-bound, +bound]."""
    if bound <= 0:
        raise ValueError(f"uniform_init bound must be positive, got {bound}")
    return rng.gen.uniform(-bound, bound, size=(rows, cols))


def orthogonal_init(rng: Rng, size: int) -> np.ndarray:
    """Random orthogonal matrix via QR of a Gaussian draw.

    Signs are fixed so the R factor has a positive diagonal, which makes the
    result unique (and therefore reproducible) for a given draw.
    """
    a = rng.gen.standard_normal((size, size))
    q, r = np.linalg.qr(a)
    return q * np.sign(np.diag(r))
