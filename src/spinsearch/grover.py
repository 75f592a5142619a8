"""The generalized N/k amplitude amplification, plus the classical sampling
comparator.

The paper's two-qubit search is its N = 4, k = 1 case: one iterate takes the
start state to the marked |ab>, and ``spinsearch gate`` runs exactly that.
The literal circuit of dense 4x4 gates,
(h^-1 x h^-1) . U_fab . (h x h) . U_00 . (h^-1 x h^-1) on |00>, is the tests'
reference for it (``tests/state_checks.py``).

The search diffusion h^-1(x n) . U_00 . h(x n) equals I - 2|s><s| because
h^-1 = h^T, with the start state s_x = (-1)^popcount(x)/sqrt(N).  The sign
frame D = diag((-1)^popcount(x)) commutes with every marked-sign oracle and
maps s to the uniform vector, so in frame amplitudes phi = D.psi the
diffusion is Grover's inversion about the mean, phi <- phi - 2 mean(phi), on
a real vector.  From the uniform start every iterate leaves just two
amplitudes, a on each of the k marked entries and b on the other N - k
(Boyer, Brassard, Hoyer and Tapp, quant-ph/9605034, section 2), so the
search runs as an O(1) recurrence on (a, b) and the 2^n-entry state is
built once, at the end.

Conventions (fixed package-wide): Ry(beta) = exp(-i*beta*sigma_y/2), so the
pseudo-Hadamard h = Ry(90 deg) = (1/sqrt(2)) [[1, -1], [1, 1]] and h maps
|0> to (|0>+|1>)/sqrt(2); the first qubit is the most significant bit.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .core import as_integer

ORACLE_LABELS = ("f00", "f01", "f10", "f11")

# uniforms drawn per Monte-Carlo chunk: 512 KiB of keys and 512 KiB of counts
MC_CHUNK = 65536


@dataclass(frozen=True)
class OracleLabel:
    """One of the four two-bit search functions, labelled by its satisfying
    bit pattern (a = first qubit, b = second qubit)."""

    a: int
    b: int

    def __post_init__(self) -> None:
        if self.a not in (0, 1) or self.b not in (0, 1):
            raise ValueError(f"bits must be 0 or 1, got ({self.a}, {self.b})")

    @classmethod
    def from_name(cls, name: str) -> "OracleLabel":
        """Parse 'f01'-style names."""
        if len(name) != 3 or name[0] != "f" or name[1] not in "01" or name[2] not in "01":
            raise ValueError(f"invalid oracle label {name!r}; expected one of {ORACLE_LABELS}")
        return cls(int(name[1]), int(name[2]))

    @property
    def name(self) -> str:
        return f"f{self.a}{self.b}"

    @property
    def index(self) -> int:
        """Marked basis index 2a + b."""
        return 2 * self.a + self.b

    def swapped(self) -> "OracleLabel":
        return OracleLabel(self.b, self.a)


ALL_LABELS = tuple(OracleLabel.from_name(n) for n in ORACLE_LABELS)


@dataclass(frozen=True, eq=False)
class SearchProblem:
    """Search over N = 2**n_qubits items.  ``marked`` takes an integer array
    or any iterable of distinct integers in [0, N) and is held as a sorted,
    read-only intp array, so equality and hashing come from (n_qubits,
    marked bytes).

    Iterable elements pass through ``operator.index``, the rule ``n_qubits``
    follows: np.int64 and Python bools are integers, while 1.5, "1", None,
    np.float64 and np.bool_ are not.  An iterable is read in one typed pass
    (``array("q")``), and the indices are scattered into a boolean mask of
    N entries, whose nonzero positions are the sorted set: O(N), no sort.
    An iterable's int64 copy is dropped before nonzero allocates, so from a
    tuple or an int64 array construction holds at most the N-byte mask and
    one 8k-byte index array (5 MiB at n = 20, k = 2**19).  The mask is not
    kept.  A search over the problem holds one 8N-byte state plus an N-byte
    frame, 9 MiB at n = 20 (``grover_general``)."""

    n_qubits: int
    marked: np.ndarray

    def __post_init__(self) -> None:
        n_qubits = as_integer("n_qubits", self.n_qubits)
        if not 1 <= n_qubits <= 20:
            raise ValueError("n_qubits must be between 1 and 20 (desk scale)")
        size = 2**n_qubits
        not_integers = "marked indices must be one or more integers (k >= 1)"
        out_of_range = f"marked indices must be distinct and in [0, {size})"
        marked = self.marked
        if isinstance(marked, np.ndarray):
            if marked.ndim != 1 or marked.dtype.kind not in "iu":
                raise ValueError(not_integers)
        else:
            # tuple() first: array("q", b"...") would read bytes as raw words
            try:
                marked = np.frombuffer(array("q", tuple(marked)), dtype=np.int64)
            except TypeError:
                raise ValueError(not_integers) from None
            except OverflowError:  # an index of 2**63 or more
                raise ValueError(out_of_range) from None
        if marked.size == 0:
            raise ValueError(not_integers)
        # checked before the scatter, which would wrap a negative index
        if marked.min() < 0 or marked.max() >= size:
            raise ValueError(out_of_range)
        mask = np.zeros(size, dtype=bool)
        mask[marked] = True
        k = marked.size
        del marked  # the int64 copy of an iterable goes before nonzero allocates
        if np.count_nonzero(mask) != k:
            raise ValueError(out_of_range)
        marked = mask.nonzero()[0]
        marked.flags.writeable = False
        object.__setattr__(self, "n_qubits", n_qubits)
        object.__setattr__(self, "marked", marked)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, SearchProblem) and self.n_qubits == other.n_qubits
                and np.array_equal(self.marked, other.marked))

    def __hash__(self) -> int:
        return hash((self.n_qubits, self.marked.tobytes()))

    @property
    def size(self) -> int:
        return 2**self.n_qubits

    @property
    def k(self) -> int:
        return self.marked.size


def read_bits(psi: np.ndarray) -> tuple[int, int]:
    """Identify the two-qubit output by its dominant basis state."""
    index = int(np.argmax(np.abs(psi) ** 2))
    return index >> 1, index & 1


def grover_iterate(k: int, size: int, a: float, b: float) -> tuple[float, float]:
    """One search iterate in the invariant plane: frame amplitude a on each
    of the k marked entries and b on the other size - k.  The marked-set
    sign flip, then the inversion about the mean
    mu = (-k a + (size - k) b) / size, gives (-a - 2 mu, b - 2 mu)."""
    mean = (-k * a + (size - k) * b) / size
    return -a - 2 * mean, b - 2 * mean


def grover_general(problem: SearchProblem, iterations: int) -> np.ndarray:
    """The float64 state psi = D.phi after ``iterations`` search iterates from
    the start state s = (h^-1)^(x n) |0...0>, whose frame amplitudes are the
    uniform 1/sqrt(N).  The iterates run in the invariant plane; the state
    is built once, b everywhere and a on the marked set, and D's +-1 frame,
    built by doubling as int8, is multiplied into it in place.  +-1 * a and
    +-1 * b are exact, so this is bit for bit the product with a float64
    frame, signed zeros included.  It holds one 8N-byte state plus the
    N-byte frame: 9 MiB at 20 qubits, the limit."""
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    size, k = problem.size, problem.k
    a = b = 1.0 / math.sqrt(size)
    for _ in range(iterations):
        a, b = grover_iterate(k, size, a, b)
    phi = np.full(size, b)
    phi[problem.marked] = a
    # D's entries [w, 2w) are its entries [0, w) with one more bit set
    signs = np.empty(size, dtype=np.int8)
    signs[0] = 1
    width = 1
    while width < size:
        np.negative(signs[:width], out=signs[width : 2 * width])
        width *= 2
    phi *= signs
    return phi


def success_probability(problem: SearchProblem, psi: np.ndarray) -> float:
    """Total probability of measuring a marked index, from one gather of the
    k marked amplitudes squared in place (real or complex ``psi``)."""
    v = psi[problem.marked]
    np.abs(v, out=v)
    np.square(v, out=v)
    return float(v.real.sum())


def optimal_iterations(problem: SearchProblem) -> int:
    """round(pi/(4*theta) - 1/2) with theta = asin(sqrt(k/N)), clamped to >= 0.

    Rounds half away from zero (floor(x + 1/2), which collapses to
    floor(pi/(4*theta))); equals exactly 1 for k = N/4.  The 1e-12 nudge
    absorbs ulp jitter from asin at exact-integer boundaries such as k = N/2,
    where neighbouring counts give identical success probability anyway.
    """
    theta = math.asin(math.sqrt(problem.k / problem.size))
    return max(0, int(math.floor(math.pi / (4 * theta) + 1e-12)))


def classical_expected_evaluations(n: int, k: int) -> float:
    """Exact expected number of evaluations, (N+1)/(k+1), for uniform
    sampling without replacement until a marked element is found."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= N")
    return (n + 1) / (k + 1)


def classical_approx_evaluations(n: int, k: int) -> float:
    """The coarse N/(2k) estimate, exposed for comparison tables."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= N")
    return n / (2 * k)


def _extended(table: np.ndarray, n: int, k: int, size: int) -> np.ndarray:
    """The table of -S(x) extended to ``size`` entries: the multiply.accumulate
    of the factors (N - k - i) / (N - i), seeded with the last S(x)."""
    grown = np.empty(size)
    grown[: table.size] = table
    tail = grown[table.size - 1 :]
    tail[0] = -table[-1]
    # the denominators N - i for i = L - 1 .. size - 2; the numerators are
    # written as floats straight into the tail and divided there
    denominators = np.arange(n - table.size + 1, n - size + 1, -1)
    np.subtract(denominators, k, out=tail[1:])
    np.divide(tail[1:], denominators, out=tail[1:])
    np.multiply.accumulate(tail, out=tail)
    np.negative(tail, out=tail)
    return grown


def monte_carlo_evaluations(
    n: int, k: int, trials: int, rng: np.random.Generator
) -> tuple[float, float]:
    """Simulate sampling without replacement; returns (mean, std error).

    Each trial draws items uniformly from the remaining pool until a marked
    one comes up.  Its first x draws all miss with probability
    S(x) = prod_{i<x} (N - k - i) / (N - i), the survival function, so one
    uniform u per trial fixes its count as the number of x >= 0 with
    S(x) > u.  This simulates the process directly rather than using the
    closed form, so it is an independent check of it.

    The uniforms come from ``rng.random`` in chunks of ``MC_CHUNK``, which
    consume the generator exactly as one call of ``trials`` would.  Each
    chunk is sorted in place and inverted by one searchsorted against -S,
    one table kept across chunks.  It grows x4 from 64 entries only while
    its last entry lies above the chunk's smallest uniform, up to all
    N - k + 1; each extension is a multiply.accumulate seeded with the last
    entry, the same left-to-right products as one cumprod, so a longer
    table never changes an entry.  The counts and their squares are summed
    as int64 a chunk and then as Python ints, so the mean s1/n is the
    correctly rounded exact mean and the std error
    sqrt((n s2 - s1^2) / (n^2 (n - 1))) is one rounded quotient and one
    sqrt.  A chunk's sum of squares, at most 2**16 * (N - k + 1)**2, stays
    below 2**63 for N - k + 1 <= 2**23 (a 64 MiB table); the package's
    searches stop at N = 2**20.  Memory is bounded by the chunk and the
    table, not by ``trials``.
    """
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= N")
    if trials < 1:
        raise ValueError("need trials >= 1")
    full = n - k + 1  # S(N - k + 1) = 0: the last draw always hits
    table = np.array([-1.0])  # -S(x) for x = 0, 1, ...: ascending
    s1 = s2 = 0
    for start in range(0, trials, MC_CHUNK):
        keys = rng.random(min(MC_CHUNK, trials - start))
        np.negative(keys, out=keys)
        keys.sort()
        while table.size < full and table[-1] < keys[-1]:
            table = _extended(table, n, k, min(max(64, 4 * table.size), full))
        counts = np.searchsorted(table, keys)
        s1 += int(counts.sum())
        s2 += int(np.dot(counts, counts))
    if trials == 1:
        return float(s1), 0.0
    return s1 / trials, math.sqrt((trials * s2 - s1 * s1) / (trials * trials * (trials - 1)))
