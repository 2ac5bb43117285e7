import numpy as np
import pytest

from submap.embeddings import EmbeddingSpace, unit_rows
from submap.gan import Game, orthogonalize
from submap.mapping import LinearMap
from submap.numerics import MlpDiscriminator


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo one line per acceptance criterion at the end of the run."""
    try:
        import test_acceptance
    except ImportError:
        return
    if test_acceptance.RESULT_LINES:
        terminalreporter.section("acceptance criteria")
        for line in test_acceptance.RESULT_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def make_space(n, d, seed=0, prefix="w"):
    g = np.random.default_rng(seed)
    vectors = unit_rows(g.normal(size=(n, d)))
    return EmbeddingSpace(tuple(f"{prefix}{i}" for i in range(n)), vectors)


def brute_force_csls(queries, targets, k):
    """Dense re-computation of the CSLS scores, no blocking, no shortcuts."""
    sims = queries @ targets.T
    r_t = np.sort(sims, axis=1)[:, -k:].mean(axis=1)
    r_s = np.sort(targets @ queries.T, axis=1)[:, -k:].mean(axis=1)
    scores = 2 * sims - r_t[:, None] - r_s[None, :]
    return scores.argmax(axis=1)


def one_shot_topk_mean(sims, k):
    return np.partition(sims, -k, axis=1)[:, -k:].mean(axis=1, dtype=np.float64)


def one_shot_column_topk(sims, k):
    """[<= k, n_cols]: each column's k largest entries, partitioned along
    the block's strided axis 0."""
    return sims if sims.shape[0] < k else np.partition(sims, -k, axis=0)[-k:].copy()


def one_shot_r_s(col_top):
    return np.ascontiguousarray(col_top.T).mean(axis=1, dtype=np.float64)


def one_shot_csls(queries, targets, k, step, keep_prob=1.0, rng=None):
    """Frozen CSLS kernel that partitions each float32 block of `step`
    query rows in one shot and scores a full float64 copy of it.  The
    sliced kernel in `submap.retrieval` must match it bit for bit."""
    queries, targets = queries.astype(np.float32), targets.astype(np.float32)
    n_q = len(queries)
    r_t = np.empty(n_q)
    col_top = None
    for i in range(0, n_q, step):
        sims = queries[i:i + step] @ targets.T
        r_t[i:i + step] = one_shot_topk_mean(sims, k)
        top = one_shot_column_topk(sims, k)
        col_top = top if col_top is None else one_shot_column_topk(
            np.concatenate((col_top, top)), k)
    r_s = one_shot_r_s(col_top)
    out = np.empty(n_q, dtype=np.int64)
    for i in range(0, n_q, step):
        if n_q > step:
            sims = queries[i:i + step] @ targets.T
        sims = sims.astype(np.float64)
        sims *= 2.0
        sims -= r_t[i:i + step, None]
        sims -= r_s[None, :]
        if keep_prob < 1.0:
            sims[rng.random(sims.shape) >= keep_prob] = -np.inf
        out[i:i + step] = sims.argmax(axis=1)
    return out


# Frozen copy of the adversarial step math as it was before the branch-free
# rewrite: `np.where` activations and one backward pass that returns all five
# gradients.  The steps in `submap.numerics` and
# `submap.gan` must match it bit for bit.

def frozen_leaky(z, slope):
    return np.where(z >= 0.0, z, slope * z)


def frozen_leaky_grad(z, slope):
    return np.where(z >= 0.0, 1.0, slope)


def frozen_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def frozen_forward(net, batch, mask):
    x = batch if mask is None else batch * mask
    z1 = x @ net.w1.T + net.b1
    a1 = frozen_leaky(z1, net.leaky_slope)
    z2 = a1 @ net.w2.T.ravel() + net.b2
    return x, z1, a1, z2


def frozen_bce(z, targets):
    return float(np.mean(np.logaddexp(0.0, z) - targets * z))


def frozen_backward(net, cache, targets):
    """dw1, db1, dw2, db2 and the input gradient dx, all from one pass."""
    x, z1, a1, z2 = cache
    b = z2.shape[0]
    g2 = (frozen_sigmoid(z2) - targets) / b
    dw2 = (g2 @ a1)[None, :]
    db2 = float(g2.sum())
    da1 = np.outer(g2, net.w2.ravel())
    dz1 = da1 * frozen_leaky_grad(z1, net.leaky_slope)
    return dz1.T @ x, dz1.sum(axis=0), dw2, db2, dz1 @ net.w1


def frozen_mask(shape, p, rng):
    return None if p <= 0.0 else (rng.random(shape) >= p) / (1.0 - p)


def frozen_sample(pool, batch_size, rng):
    return pool[rng.integers(0, pool.shape[0], size=batch_size)]


def frozen_update(net, grads, lr):
    dw1, db1, dw2, db2 = grads
    return MlpDiscriminator(net.w1 - lr * dw1, net.b1 - lr * db1, net.w2 - lr * dw2,
                            net.b2 - lr * db2, input_dropout=net.input_dropout,
                            leaky_slope=net.leaky_slope)


def frozen_mlp_sgd_step(net, batch, targets, lr, rng):
    cache = frozen_forward(net, batch, frozen_mask(batch.shape, net.input_dropout, rng))
    loss = frozen_bce(cache[3], targets)
    return frozen_update(net, frozen_backward(net, cache, targets)[:4], lr), loss


def frozen_discriminator_step(m, games, cfg, rng):
    """One SGD step per game, real and fake batches in separate passes."""
    batches = [(frozen_sample(g.real, cfg.batch_size, rng),
                frozen_sample(g.fake, cfg.batch_size, rng) @ m.w.T) for g in games]
    stepped, losses = [], []
    for g, (real, fake) in zip(games, batches):
        loss, grads = 0.0, None
        for batch, label in ((real, 1.0 - cfg.smoothing), (fake, cfg.smoothing)):
            targets = np.full(len(batch), label)
            cache = frozen_forward(g.dis, batch,
                                   frozen_mask(batch.shape, g.dis.input_dropout, rng))
            loss += frozen_bce(cache[3], targets)
            term = frozen_backward(g.dis, cache, targets)[:4]
            grads = term if grads is None else tuple(a + b for a, b in zip(grads, term))
        stepped.append(Game(frozen_update(g.dis, grads, cfg.lr_discriminator),
                            g.real, g.fake, g.weight))
        losses.append(loss)
    return tuple(stepped), losses


def frozen_generator_step(m, games, cfg, rng):
    src = frozen_sample(games[-1].fake, cfg.batch_size, rng)
    tgts = [frozen_sample(g.real, cfg.batch_size, rng) for g in games]
    mapped = src @ m.w.T
    want_real = np.full(len(mapped), 1.0 - cfg.smoothing)
    loss = dx = None
    for g, tgt in zip(games, tgts):
        cache = frozen_forward(g.dis, mapped, None)
        term = frozen_bce(cache[3], want_real)
        term_dx = frozen_backward(g.dis, cache, want_real)[4]
        term += frozen_bce(frozen_forward(g.dis, tgt, None)[3], np.full(len(tgt), cfg.smoothing))
        if loss is None:
            loss, dx = g.weight * term, g.weight * term_dx
        else:
            loss, dx = loss + g.weight * term, dx + g.weight * term_dx
    stepped = LinearMap(m.w - cfg.lr_generator * (dx.T @ src))
    return orthogonalize(stepped, cfg.beta), loss


def write_vec_file(path, lines, header=None):
    body = [header] if header is not None else []
    body.extend(lines)
    path.write_text("\n".join(body) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def small_space():
    return make_space(20, 5, seed=10)
