"""Catalog of concrete control systems and channel families.

Three kinds of fixtures live here:

* the real 3x3 carrier used by examples 1-3 (rotation generators ``H_nu``,
  symmetric generators ``p_nu``, diagonal units and their differences);
* the controlled single-qubit channel families (bit / phase / bit-phase
  flip, depolarizing) with their closed-form conjugated components and
  Kraus families;
* the three two-qubit systems (full control closure, switchable Ising
  coupling, locally damped pair with two local controls).

All closed forms are the conjugates of drift components by exponentials
of control directions; every one of them is cross-checked against direct
numeric conjugation in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lindblad import SIGMA, ControlSystem, ad_hat, choi_matrix
from .matcore import fro, kron

# ---------------------------------------------------------------------------
# real 3x3 carrier
# ---------------------------------------------------------------------------

H_X = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
H_Y = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
H_Z = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])

P_X = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
P_Y = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
P_Z = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])

E11 = np.diag([1.0, 0.0, 0.0])
E22 = np.diag([0.0, 1.0, 0.0])
E33 = np.diag([0.0, 0.0, 1.0])

DELTA_12 = E11 - E22
DELTA_23 = E22 - E33
DELTA_31 = E33 - E11

H_AXIS = {"x": H_X, "y": H_Y, "z": H_Z}
P_AXIS = {"x": P_X, "y": P_Y, "z": P_Z}

_AXIS_INDEX = {"x": 0, "y": 1, "z": 2}


def eps(p: str, q: str, r: str) -> int:
    """Levi-Civita symbol over axis labels x, y, z."""
    try:
        i, j, k = _AXIS_INDEX[p], _AXIS_INDEX[q], _AXIS_INDEX[r]
    except KeyError as bad:
        raise ValueError(f"invalid axis {bad.args[0]!r}") from None
    return ((i - j) * (j - k) * (k - i)) // 2


def third_axis(a: str, b: str) -> str:
    if a == b or a not in _AXIS_INDEX or b not in _AXIS_INDEX:
        raise ValueError(f"need two distinct axes, got {a!r}, {b!r}")
    return ({"x", "y", "z"} - {a, b}).pop()


# ---------------------------------------------------------------------------
# Pauli constructors
# ---------------------------------------------------------------------------

def sigma(axis: str) -> np.ndarray:
    """Single-qubit Pauli matrix for an axis label in {1, x, y, z}."""
    if axis not in SIGMA:
        raise ValueError(f"invalid Pauli axis {axis!r}")
    return SIGMA[axis].copy()


def sigma_hat(axis: str) -> np.ndarray:
    """Spin-1/2 adjoint generator: the commutator superoperator of sigma/2."""
    return ad_hat(sigma(axis) / 2.0)


def sigma2(pair: str) -> np.ndarray:
    """Two-qubit Pauli product for a pair label like 'x1' or 'zz'."""
    if len(pair) != 2 or any(a not in SIGMA for a in pair):
        raise ValueError(f"invalid Pauli pair {pair!r}")
    return kron(SIGMA[pair[0]], SIGMA[pair[1]])


def sigma_hat2(pair: str) -> np.ndarray:
    """Two-qubit adjoint generator: commutator superoperator of sigma2/2."""
    return ad_hat(sigma2(pair) / 2.0)


# ---------------------------------------------------------------------------
# channel specifications
# ---------------------------------------------------------------------------

_QUBIT_CHANNELS = ("bit_flip", "phase_flip", "bit_phase_flip", "depolarizing")
_R3_EXAMPLES = ("example1", "example2", "example3")
_TWO_QUBIT = ("two_qubit_A", "two_qubit_B", "two_qubit_C")

NAMES = _QUBIT_CHANNELS + _R3_EXAMPLES + _TWO_QUBIT

FLIP_AXIS = {"bit_flip": "x", "phase_flip": "z", "bit_phase_flip": "y"}

_DEFAULTS = {
    "bit_flip": ((1.0,), (), None),
    "phase_flip": ((1.0,), (), None),
    "bit_phase_flip": ((1.0,), (), None),
    "depolarizing": ((1.0, 1.0, 1.0), (), None),
    "example1": ((3.0, 2.0, 1.0), ("x", "y"), "z"),
    "example2": ((1.0,), ("y",), "z"),
    "example3": ((1.0,), ("y",), "z"),
    "two_qubit_A": ((), ("x1", "y1", "1x", "1y", "zz"), None),
    "two_qubit_B": ((), ("x1", "y1", "1x", "1y"), "zz"),
    "two_qubit_C": ((1.0, 1.0), ("y1", "1y"), "z1+1z+zz"),
}


def _check_axis(name: str, axis: str):
    if name in _TWO_QUBIT:
        ok = len(axis) == 2 and all(a in SIGMA for a in axis) and axis != "11"
    else:
        ok = axis in _AXIS_INDEX
    if not ok:
        raise ValueError(f"invalid axis label {axis!r} for {name}")


@dataclass(frozen=True)
class ChannelSpec:
    """Named channel/system specification with rates and axis choices.

    Omitted rates or control axes fall back to the catalog defaults for
    the given name.
    """

    name: str
    rates: tuple = None
    control_axes: tuple = None
    drift_axis: str = None

    def __post_init__(self):
        if self.name not in NAMES:
            raise ValueError(f"unknown channel/system name {self.name!r}")
        d_rates, d_ctrl, d_drift = _DEFAULTS[self.name]
        rates = d_rates if self.rates is None else tuple(float(r) for r in self.rates)
        ctrl = d_ctrl if self.control_axes is None else tuple(self.control_axes)
        drift = d_drift if self.drift_axis is None else self.drift_axis
        if len(rates) != len(d_rates):
            raise ValueError(
                f"{self.name} takes {len(d_rates)} rate(s), got {len(rates)}")
        if not np.isfinite(rates).all():
            raise ValueError(f"rates must be finite, got {rates}")
        if any(r < 0 for r in rates):
            raise ValueError("rates must be nonnegative")
        for a in ctrl:
            _check_axis(self.name, a)
        if drift is not None and self.name != "two_qubit_C":
            _check_axis(self.name, drift)
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "control_axes", ctrl)
        object.__setattr__(self, "drift_axis", drift)

    @property
    def rep(self) -> str:
        if self.name in _R3_EXAMPLES:
            return "r3"
        if self.name in _TWO_QUBIT:
            return "two_qubit"
        return "qubit"


def two_qubit_operator(token: str) -> np.ndarray:
    """Sum of sigma2(pair)/2 over the '+'-separated pairs of `token`, such
    as 'z1+1z+zz'; raises ValueError on an invalid pair."""
    total = np.zeros((4, 4), dtype=complex)
    for part in token.split("+"):
        total += sigma2(part) / 2.0
    return total


def build_system(spec: ChannelSpec) -> ControlSystem:
    """Assemble the drift, controls and noise operators of a named system."""
    name = spec.name
    if name in _R3_EXAMPLES:
        if name == "example1":
            gamma0 = np.diag(spec.rates)
        elif name == "example2":
            gamma0 = spec.rates[0] * np.diag([1.0, 0.0, 1.0])
        else:
            gamma0 = spec.rates[0] * np.diag([1.0, 1.0, 2.0])
        drift = H_AXIS[spec.drift_axis] if spec.drift_axis else np.zeros((3, 3))
        controls = tuple(H_AXIS[a] for a in spec.control_axes)
        return ControlSystem(rep="r3", drift_H=drift, controls=controls,
                             lindblad_ops=((gamma0, 1.0),))
    if name in _QUBIT_CHANNELS:
        drift = sigma(spec.drift_axis) / 2.0 if spec.drift_axis else np.zeros((2, 2))
        controls = tuple(sigma(a) / 2.0 for a in spec.control_axes)
        if name == "depolarizing":
            ops = tuple((sigma(a), g) for a, g in zip(("x", "y", "z"), spec.rates))
        else:
            ops = ((sigma(FLIP_AXIS[name]), spec.rates[0]),)
        return ControlSystem(rep="qubit", drift_H=drift, controls=controls,
                             lindblad_ops=ops)
    # two-qubit systems
    drift = two_qubit_operator(spec.drift_axis) if spec.drift_axis else np.zeros((4, 4))
    controls = tuple(sigma2(a) / 2.0 for a in spec.control_axes)
    ops = ()
    if name == "two_qubit_C":
        ops = ((sigma2("z1"), spec.rates[0]), (sigma2("1z"), spec.rates[1]))
    return ControlSystem(rep="two_qubit", drift_H=drift, controls=controls,
                         lindblad_ops=ops)


def example1(a: float = 3.0, b: float = 2.0, c: float = 1.0) -> ControlSystem:
    """Rotations about x and y against drift rotation about z plus diag(a,b,c)."""
    return build_system(ChannelSpec(name="example1", rates=(a, b, c)))


def example2(gamma: float = 1.0) -> ControlSystem:
    """Single rotation control about y; relaxation gamma*diag(1,0,1)."""
    return build_system(ChannelSpec(name="example2", rates=(gamma,)))


def example3(gamma: float = 1.0) -> ControlSystem:
    """Single rotation control about y; relaxation gamma*diag(1,1,2)."""
    return build_system(ChannelSpec(name="example3", rates=(gamma,)))


def example3_delta() -> np.ndarray:
    """Diagonal direction diag(7/6, 1/6, -2/3) completing the example-3 cone span.

    It is orthogonal to the relaxation part diag(1,1,2) under the trace
    inner product and decomposes as (2/9)*I + (1/18)*DELTA_12 + (8/9)*DELTA_13.
    """
    return np.diag([7.0 / 6.0, 1.0 / 6.0, -2.0 / 3.0])


# ---------------------------------------------------------------------------
# conjugated drift components (closed forms)
# ---------------------------------------------------------------------------

def k_component(c: str, d: str, theta: float) -> np.ndarray:
    """Rotation part of the drift conjugated by exp(-i theta sigma_hat_c).

    Equals i*sigma_hat_d when the control commutes with the drift axis,
    otherwise rotates in the plane spanned by the drift axis and the third
    axis.
    """
    if c not in _AXIS_INDEX or d not in _AXIS_INDEX:
        raise ValueError(f"invalid axes {c!r}, {d!r}")
    if c == d:
        return 1j * sigma_hat(d)
    q = third_axis(c, d)
    return 1j * np.cos(theta) * sigma_hat(d) + 1j * eps(c, d, q) * np.sin(theta) * sigma_hat(q)


def p_component(c: str, ks, theta: float) -> np.ndarray:
    """Dissipative part of the drift conjugated by exp(-i theta sigma_hat_c).

    ``ks`` lists one to three (axis, rate) pairs with distinct axes.  Each
    term 2*gamma*sigma_hat_k^2 conjugates to 2*gamma*(cos(theta)sigma_hat_k
    + eps_{ckr} sin(theta) sigma_hat_r)^2, with the k = c term invariant;
    for three isotropic rates the whole sum is invariant.
    """
    ks = [(k, float(g)) for k, g in ks]
    if not 1 <= len(ks) <= 3:
        raise ValueError("need between one and three noise axes")
    axes = [k for k, _ in ks]
    if len(set(axes)) != len(axes):
        raise ValueError(f"repeated noise axes in {axes}")
    if c not in _AXIS_INDEX:
        raise ValueError(f"invalid axis {c!r}")
    for k in axes:
        if k not in _AXIS_INDEX:
            raise ValueError(f"invalid axis {k!r}")
    total = np.zeros((4, 4), dtype=complex)
    for k, g in ks:
        if k == c:
            m = sigma_hat(k)
        else:
            r = third_axis(c, k)
            m = np.cos(theta) * sigma_hat(k) + eps(c, k, r) * np.sin(theta) * sigma_hat(r)
        total += 2.0 * g * (m @ m)
    return total


# ---------------------------------------------------------------------------
# Kraus families (purely dissipative channels)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KrausSet:
    """Kraus operators of a channel snapshot at a fixed time."""

    operators: tuple
    time: float

    def __post_init__(self):
        ops = tuple(np.asarray(e, dtype=complex) for e in self.operators)
        if not ops:
            raise ValueError("a Kraus set needs at least one operator")
        n = ops[0].shape[0]
        total = sum(e.conj().T @ e for e in ops)
        if fro(total - np.eye(n)) > 1e-10:
            raise ValueError("Kraus operators fail the completeness relation")
        object.__setattr__(self, "operators", ops)


def kraus_family(spec: ChannelSpec, t: float) -> KrausSet:
    """Closed-form Kraus operators of the uncontrolled flip/depolarizing channels.

    Damping follows the a = 2*gamma convention, i.e. the flip channel's
    coherence damping rate is twice the GKS rate.  Specs carrying controls
    or a drift are rejected: their time dependence has no closed form here.
    """
    if not 0 <= t < np.inf:
        raise ValueError(f"time must be nonnegative and finite, got {t}")
    if spec.name not in _QUBIT_CHANNELS:
        raise ValueError(f"no Kraus family for {spec.name}")
    if spec.control_axes or spec.drift_axis:
        raise ValueError("Kraus families cover purely dissipative channels only")
    eye = np.eye(2, dtype=complex)
    if spec.name == "depolarizing":
        a = [2.0 * g for g in spec.rates]
        lam = (a[0] + a[2], a[1] + a[2], a[0] + a[1])
        e = [np.exp(-l * t) for l in lam]
        coeff = [
            0.25 * (1 + e[0] + e[1] + e[2]),
            0.25 * (1 - e[0] + e[1] - e[2]),
            0.25 * (1 + e[0] - e[1] - e[2]),
            0.25 * (1 - e[0] - e[1] + e[2]),
        ]
        mats = [eye, sigma("x"), sigma("y"), sigma("z")]
    else:
        a = 2.0 * spec.rates[0]
        q = 0.5 * (1 + np.exp(-a * t))
        coeff = [q, 1.0 - q]
        mats = [eye, sigma(FLIP_AXIS[spec.name])]
    ops = [np.sqrt(c) * m for c, m in zip(coeff, mats) if c > 1e-15]
    return KrausSet(operators=tuple(ops), time=float(t))


def kraus_superop(ks: KrausSet) -> np.ndarray:
    """Sum of conj(E) otimes E over the Kraus operators: the channel matrix."""
    n = ks.operators[0].shape[0]
    total = np.zeros((n * n, n * n), dtype=complex)
    for e in ks.operators:
        total += kron(e.conj(), e)
    return total


def kraus_rank(t, tol: float = 1e-8) -> int:
    """Rank of the Choi matrix (minimal Kraus operator count)."""
    choi = choi_matrix(t)
    w = np.linalg.eigvalsh((choi + choi.conj().T) / 2)
    top = float(w.max())
    if top <= 0 or w.min() < -tol * max(1.0, top):
        raise ValueError("input is not completely positive")
    return int(np.sum(w > tol * top))


# ---------------------------------------------------------------------------
# two-qubit wedge generators
# ---------------------------------------------------------------------------

def _local_rotated(axis_pair: str, c: str, theta: float) -> np.ndarray:
    """sigma_hat2 of a local z factor rotated by a local control about c."""
    slot = 0 if axis_pair[1] == "1" else 1
    k = axis_pair[slot]
    if c == k:
        return sigma_hat2(axis_pair)
    r = third_axis(c, k)
    rotated = ["1", "1"]
    rotated[slot] = r
    return (np.cos(theta) * sigma_hat2(axis_pair)
            + eps(c, k, r) * np.sin(theta) * sigma_hat2("".join(rotated)))


def two_qubit_generator_parts(spec: ChannelSpec, theta: float, theta_p: float) -> dict:
    """Closed-form pieces of the conjugated two-qubit drift.

    Conjugation is by exp(-i theta sigma_hat_{c1}) exp(-i theta' sigma_hat_{1c'})
    for the two local controls; returns the three rotation parts (local,
    local, coupling) and the two local dissipative parts.
    """
    if spec.name != "two_qubit_C":
        raise ValueError("generator parts are defined for the two_qubit_C system")
    c, cp = spec.control_axes[0][0], spec.control_axes[1][1]
    gamma, gamma_p = spec.rates
    q = third_axis(c, "z") if c != "z" else None
    qp = third_axis(cp, "z") if cp != "z" else None

    k_c = 1j * _local_rotated("z1", c, theta)
    k_cp = 1j * _local_rotated("1z", cp, theta_p)

    # coupling term: both tensor slots rotate independently
    cth, sth = np.cos(theta), np.sin(theta)
    cthp, sthp = np.cos(theta_p), np.sin(theta_p)
    if c == "z":
        first = [("z", 1.0)]
    else:
        first = [("z", cth), (q, eps(c, "z", q) * sth)]
    if cp == "z":
        second = [("z", 1.0)]
    else:
        second = [("z", cthp), (qp, eps(cp, "z", qp) * sthp)]
    k_cc = np.zeros((16, 16), dtype=complex)
    for ax1, w1 in first:
        for ax2, w2 in second:
            k_cc += 1j * w1 * w2 * sigma_hat2(ax1 + ax2)

    m1 = _local_rotated("z1", c, theta)
    m2 = _local_rotated("1z", cp, theta_p)
    p_c = 2.0 * gamma * (m1 @ m1)
    p_cp = 2.0 * gamma_p * (m2 @ m2)
    return {"K_c": k_c, "K_cp": k_cp, "K_ccp": k_cc, "P_c": p_c, "P_cp": p_cp}


def two_qubit_wedge_generators(spec: ChannelSpec, theta: float, theta_p: float) -> np.ndarray:
    """Conjugated drift of the locally damped two-qubit system.

    Must equal the direct conjugation of the full drift generator by the
    exponentials of the two control directions.
    """
    parts = two_qubit_generator_parts(spec, theta, theta_p)
    return sum(parts.values())
