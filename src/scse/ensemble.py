"""Ensemble parameters and the coupling-variance construction.

The underlying ensemble is described by the section size B, the code rate R
(bits per channel use) and the channel noise variance sigma2.  The coupled
ensemble adds a block count Gamma, a coupling window w and a design function
g whose samples set the variances J[r][c] of the coupling matrix.

Rows and columns are 1-based in docstrings and CSV output; arrays are the
usual 0-based numpy containers.
"""

from __future__ import annotations

import itertools
import math
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

DESIGN_KINDS = ("rectangular", "triangular", "asymmetric-exponential")


def atomic_write(path, chunks) -> None:
    """Write an iterable of text chunks to path through a temp file and a rename.

    The target is either left as it was or fully replaced; a failure midway
    removes the temp file.
    """
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@dataclass(frozen=True)
class UnderlyingParams:
    """Section size, rate and noise variance of the uncoupled ensemble."""

    B: int
    R: float
    sigma2: float

    def __post_init__(self):
        if int(self.B) != self.B or self.B < 2:
            raise ValueError(f"section size B must be an integer >= 2, got {self.B}")
        if not (self.R > 0 and math.isfinite(self.R)):
            raise ValueError(f"rate R must be positive, got {self.R}")
        if not (self.sigma2 > 0 and math.isfinite(self.sigma2)):
            raise ValueError(f"noise variance must be positive, got {self.sigma2}")

    @property
    def snr(self) -> float:
        return 1.0 / self.sigma2

    @property
    def log2B(self) -> float:
        return math.log2(self.B)

    def with_rate(self, R: float) -> "UnderlyingParams":
        """Same channel and section size at a different rate."""
        return UnderlyingParams(self.B, R, self.sigma2)


# The threshold searches confine R to [RATE_FLOOR * C, RATE_CAP * C], and the
# lookup tables cover every effective noise those rates reach for E in [0, 1].
RATE_FLOOR = 1.0 / 256.0
RATE_CAP = 4.0


def capacity(snr: float) -> float:
    if not snr > 0:
        raise ValueError("snr must be positive")
    return 0.5 * math.log2(1.0 + snr)


def measurement_rate(params: UnderlyingParams) -> float:
    """log2(B)/(B*R), the ratio of channel uses to signal dimensions."""
    return params.log2B / (params.B * params.R)


@dataclass(frozen=True)
class DesignFunction:
    """Window shape g on [-1,1] with its smoothness constants.

    g0 is the lower bound of g on the support, gstar its Lipschitz constant,
    and gtilde = max(1+gstar, g0+2*gstar).  The constants describe the shape
    before discrete renormalization; sample(w) rescales the 2w+1 samples so
    their mean is exactly 1, which keeps interior rows of the coupling matrix
    normalization-free for every shape.
    """

    kind: str
    param: float | None
    g0: float
    gstar: float
    gtilde: float = field(init=False)

    def __post_init__(self):
        if self.kind not in DESIGN_KINDS:
            raise ValueError(f"unknown design kind {self.kind!r}")
        if not self.g0 > 0:
            raise ValueError("design function must be bounded away from zero")
        object.__setattr__(self, "gtilde", max(1.0 + self.gstar, self.g0 + 2.0 * self.gstar))

    def evaluate(self, x):
        """Raw shape value; zero outside [-1,1]."""
        x = np.asarray(x, dtype=float)
        inside = np.abs(x) <= 1.0
        if self.kind == "rectangular":
            vals = np.ones_like(x)
        elif self.kind == "triangular":
            b = self.param
            vals = 1.0 - (1.0 - b) * np.abs(x)
        else:  # asymmetric-exponential, heavier for x < 0
            vals = np.exp(-self.param * x)
        return np.where(inside, vals, 0.0)

    def sample(self, w: int) -> np.ndarray:
        """Samples g(k/w), k = -w..w, rescaled to mean exactly 1."""
        if w < 1:
            raise ValueError("coupling window w must be >= 1")
        k = np.arange(-w, w + 1, dtype=float)
        vals = self.evaluate(k / w)
        return vals * ((2 * w + 1) / vals.sum())


def rectangular_design() -> DesignFunction:
    return DesignFunction("rectangular", None, g0=1.0, gstar=0.0)


def triangular_design(base: float = 0.5) -> DesignFunction:
    """g(x) = 1 - (1-base)|x|; base in (0,1] is the edge value."""
    if not 0.0 < base <= 1.0:
        raise ValueError("triangular base must be in (0, 1]")
    return DesignFunction("triangular", base, g0=base, gstar=1.0 - base)


def asymmetric_exponential_design(rate: float = 1.0) -> DesignFunction:
    """g(x) = exp(-rate*x): backward blocks get more variance than forward."""
    if not rate > 0:
        raise ValueError("exponential rate must be positive")
    return DesignFunction("asymmetric-exponential", rate,
                          g0=math.exp(-rate), gstar=rate * math.exp(rate))


def make_design(kind: str, param: float | None = None) -> DesignFunction:
    if kind == "rectangular":
        return rectangular_design()
    if kind == "triangular":
        return triangular_design(0.5 if param is None else param)
    if kind == "asymmetric-exponential":
        return asymmetric_exponential_design(1.0 if param is None else param)
    raise ValueError(f"unknown design kind {kind!r}")


@dataclass(frozen=True)
class CoupledParams:
    """Coupled-ensemble description: Gamma blocks coupled over window w."""

    underlying: UnderlyingParams
    Gamma: int
    w: int
    design: DesignFunction

    def __post_init__(self):
        if self.w < 1:
            raise ValueError(f"coupling window w must be >= 1, got {self.w}")
        if self.Gamma <= 8 * self.w:
            raise ValueError(
                f"need Gamma > 8w for the pinned construction, got Gamma={self.Gamma}, w={self.w}")

    @property
    def R_eff(self) -> float:
        return effective_rate(self)


def effective_rate(params: CoupledParams) -> float:
    """Rate after the 8w pinned boundary blocks are paid for."""
    return params.underlying.R * (1.0 - 8.0 * params.w / params.Gamma)


def _band_row(taps: np.ndarray, Gamma: int, r: int) -> np.ndarray:
    """Row r (0-based) of the unnormalized band: taps[r-c+w] at column c, zero elsewhere."""
    w = (taps.size - 1) // 2
    lo, hi = max(r - w, 0), min(r + w + 1, Gamma)
    row = np.zeros(Gamma)
    row[lo:hi] = taps[::-1][lo - r + w: hi - r + w]
    return row


@dataclass(frozen=True)
class CouplingMatrix:
    """Gamma x Gamma variance matrix J[r][c] = gamma_r * taps[r-c+w], held as its band.

    taps are the 2w+1 values Gamma*g(k/w)/(2w+1), k = -w..w, and gamma the
    row-normalization factors.  Row means are exactly 1; column means are
    exactly 1 on the interior columns {2w+1 .. Gamma-2w} (1-based); entries
    vanish beyond |r-c| > w.  matvec and rmatvec apply J and its transpose as
    convolutions in O(Gamma*w); the dense J is assembled only on request.
    """

    taps: np.ndarray
    gamma: np.ndarray
    Gamma: int
    w: int
    design_kind: str

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """J @ x."""
        return self.gamma * np.convolve(x, self.taps, "same")

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """J.T @ y."""
        return np.convolve(self.gamma * y, self.taps[::-1], "same")

    def _rows(self):
        """The rows of the dense J, one array at a time."""
        for r in range(self.Gamma):
            yield self.gamma[r] * _band_row(self.taps, self.Gamma, r)

    @property
    def J(self) -> np.ndarray:
        """The dense Gamma x Gamma matrix, assembled on each access."""
        J = np.empty((self.Gamma, self.Gamma))
        for r, row in enumerate(self._rows()):
            J[r] = row
        return J

    def interior_columns(self) -> np.ndarray:
        """0-based indices of the variance-symmetric columns."""
        return np.arange(2 * self.w, self.Gamma - 2 * self.w)

    def to_csv(self, path) -> None:
        header = f"# J matrix Gamma={self.Gamma} w={self.w} design={self.design_kind}\n"
        rows = (",".join(repr(float(v)) for v in row) + "\n" for row in self._rows())
        atomic_write(path, itertools.chain([header], rows))


def build_coupling_matrix(params: CoupledParams) -> CouplingMatrix:
    """Banded variance matrix J[r][c] = gamma_r * Gamma * g(k/w)/(2w+1), k = r-c.

    Interior rows come out with gamma_r = 1 because the discrete samples of g
    average to 1; rows within w of either edge lose part of their band and are
    renormalized so every row mean is exactly 1.  Each edge row is summed as a
    zero-padded length-Gamma row, in the order a dense row sum would use.
    """
    Gamma, w = params.Gamma, params.w
    taps = Gamma * params.design.sample(w) / (2 * w + 1)
    gamma = np.ones(Gamma)
    for r in itertools.chain(range(w), range(Gamma - w, Gamma)):
        gamma[r] = Gamma / _band_row(taps, Gamma, r).sum()
    return CouplingMatrix(taps=taps, gamma=gamma, Gamma=Gamma, w=w,
                          design_kind=params.design.kind)
