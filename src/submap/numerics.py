"""Shared numeric primitives: covariance spectra, and a small MLP
classifier trained with plain SGD on binary cross-entropy.

Everything here is pure given an explicit numpy Generator, so callers
own all randomness and repeated runs are bit-identical.  One pass per
batch computes only what its caller uses: `_pass` the loss and the
parameter gradients (discriminator update), `bce_input_gradient` the
loss and the input gradient (generator).  Their results are new arrays
that callers sum and update in place; a net's arrays are never written.
The leaky rectifier and its gradient multiplier are branch-free
`np.maximum` forms, bit-equal to the `np.where` forms at every finite or
NaN input, -0.0 included, for slopes in [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ShapeError, TooFewSamplesError

EIGENVALUE_FLOOR = 1e-12


def covariance_eigenvalues(vectors: np.ndarray) -> np.ndarray:
    """Eigenvalues of the sample covariance of the rows, descending.

    Rows are mean-centered, the covariance uses the 1/(n-1) scaling, and
    every eigenvalue is floored at 1e-12 so downstream logs stay finite.
    """
    x = np.asarray(vectors, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise TooFewSamplesError(f"need at least 2 rows, got shape {x.shape}")
    xc = x - x.mean(axis=0)
    cov = (xc.T @ xc) / (x.shape[0] - 1)
    eig = np.linalg.eigvalsh(cov)[::-1]
    return np.maximum(eig, EIGENVALUE_FLOOR)


@dataclass(frozen=True)
class MlpDiscriminator:
    """Two-layer perceptron with leaky-rectifier hidden units and a
    sigmoid output, plus optional input dropout during training.

    `leaky_slope` must lie in [0, 1]: the activation max(z, slope * z)
    is the leaky rectifier only there (`GanConfig.validate` enforces it).
    """

    w1: np.ndarray  # [h x d]
    b1: np.ndarray  # [h]
    w2: np.ndarray  # [1 x h]
    b2: float
    input_dropout: float = 0.1
    leaky_slope: float = 0.2

    @property
    def input_dim(self) -> int:
        return self.w1.shape[1]


def init_discriminator(dim: int, hidden: int, dropout: float, rng: np.random.Generator,
                       leaky_slope: float = 0.2) -> MlpDiscriminator:
    w1 = rng.normal(0.0, 1.0 / np.sqrt(dim), size=(hidden, dim))
    w2 = rng.normal(0.0, 1.0 / np.sqrt(hidden), size=(1, hidden))
    return MlpDiscriminator(w1, np.zeros(hidden), w2, 0.0,
                            input_dropout=dropout, leaky_slope=leaky_slope)


def _leaky(z: np.ndarray, slope: float) -> np.ndarray:
    return np.maximum(z, slope * z)


def _leaky_grad(z: np.ndarray, slope: float) -> np.ndarray:
    """1.0 where z >= 0, else slope (NaN included), as float64."""
    return np.maximum(z >= 0.0, slope)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)) where z >= 0, else exp(z) / (1 + exp(z)).

    min(z, -z) is -|z| that keeps a NaN's own bits, so both branches
    come from one exp and each output has the two-branch form's bits."""
    e = np.exp(np.minimum(z, -z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


def _softplus(z: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, z)


def _dropout_mask(shape, p: float, rng: np.random.Generator) -> np.ndarray | None:
    if p <= 0.0:
        return None
    # inverted dropout: surviving inputs are scaled up so eval needs no change
    return (rng.random(shape) >= p) / (1.0 - p)


def _forward(net: MlpDiscriminator, batch: np.ndarray, mask: np.ndarray | None):
    x = batch if mask is None else batch * mask
    z1 = x @ net.w1.T
    z1 += net.b1
    a1 = _leaky(z1, net.leaky_slope)
    z2 = a1 @ net.w2.T.ravel()
    z2 += net.b2
    return x, z1, a1, z2


def bce_loss_from_logits(z: np.ndarray, targets) -> float:
    """Mean binary cross-entropy, computed stably in logit space, against
    one target per row or one for all."""
    return float((_softplus(z) - targets * z).sum() / z.size)


def _hidden_grads(net: MlpDiscriminator, z1: np.ndarray, z2: np.ndarray, targets):
    """dL/dz2 [b] and dL/dz1 [b x h] of mean BCE: the part of the backward
    pass that both the parameter and the input gradients start from."""
    g2 = _sigmoid(z2)
    g2 -= targets
    g2 /= z2.shape[0]
    dz1 = g2[:, None] * net.w2.ravel()          # [b x h]
    dz1 *= _leaky_grad(z1, net.leaky_slope)
    return g2, dz1


def _pass(net: MlpDiscriminator, batch: np.ndarray, targets, rng: np.random.Generator):
    """One training pass with a fresh dropout mask: [mean BCE, dw1, db1,
    dw2, db2], the gradients in new arrays that the caller owns."""
    x, z1, a1, z2 = _forward(net, batch, _dropout_mask(batch.shape, net.input_dropout, rng))
    g2, dz1 = _hidden_grads(net, z1, z2, targets)
    return [bce_loss_from_logits(z2, targets), dz1.T @ x, dz1.sum(axis=0),
            (g2 @ a1)[None, :], float(g2.sum())]


def bce_input_gradient(net: MlpDiscriminator, batch: np.ndarray, targets):
    """Loss and dL/dbatch (a new array) of mean BCE in eval mode (no dropout)."""
    _, z1, _, z2 = _forward(net, np.asarray(batch, dtype=np.float64), None)
    return bce_loss_from_logits(z2, targets), _hidden_grads(net, z1, z2, targets)[1] @ net.w1


def _sgd_update(net: MlpDiscriminator, grads, loss: float, lr: float) -> MlpDiscriminator:
    """The one discriminator SGD update: parameters minus lr times grads.

    It is written into the gradient arrays, which the caller hands over
    and which become the new net's; `net` is never written.  Raises
    NumericError when the loss or any updated parameter is non-finite;
    with lr >= 0 that covers every non-finite gradient too.
    """
    if not math.isfinite(loss):
        raise NumericError("non-finite discriminator loss")
    dw1, db1, dw2, db2 = grads
    for param, grad in ((net.w1, dw1), (net.b1, db1), (net.w2, dw2)):
        grad *= lr
        np.subtract(param, grad, out=grad)
    updated = MlpDiscriminator(dw1, db1, dw2, net.b2 - lr * db2, net.input_dropout,
                               net.leaky_slope)
    if not (np.isfinite(updated.w1).all() and np.isfinite(updated.b1).all()
            and np.isfinite(updated.w2).all() and math.isfinite(updated.b2)):
        raise NumericError("non-finite discriminator parameters after update")
    return updated


def mlp_sgd_step(net: MlpDiscriminator, batch: np.ndarray, targets: np.ndarray,
                 lr: float, rng: np.random.Generator) -> tuple[MlpDiscriminator, float]:
    """One SGD step on mean BCE; returns the updated net and pre-update loss."""
    batch = np.asarray(batch, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if batch.shape[1] != net.input_dim:
        raise ShapeError(f"batch shape {batch.shape} does not match input dim {net.input_dim}")
    if lr < 0:
        raise ShapeError(f"lr must be >= 0, got {lr}")
    loss, *grads = _pass(net, batch, targets, rng)
    return _sgd_update(net, grads, loss, lr), loss
