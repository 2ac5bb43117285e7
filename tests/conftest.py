import numpy as np
import pytest

from submap.embeddings import EmbeddingSpace, unit_rows


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
    return np.partition(sims, -k, axis=1)[:, -k:].mean(axis=1)


def one_shot_column_topk(sims, k):
    """[<= k, n_cols]: each column's k largest entries, partitioned along
    the block's strided axis 0."""
    return sims if sims.shape[0] < k else np.partition(sims, -k, axis=0)[-k:].copy()


def one_shot_r_s(col_top):
    return np.ascontiguousarray(col_top.T).mean(axis=1)


def one_shot_csls(queries, targets, k, step, keep_prob=1.0, rng=None):
    """Frozen CSLS kernel that partitions and scores each block of `step`
    query rows in one shot over full copies of the block.  The sliced
    kernel in `submap.retrieval` must match it bit for bit."""
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
        sims *= 2.0
        sims -= r_t[i:i + step, None]
        sims -= r_s[None, :]
        if keep_prob < 1.0:
            sims[rng.random(sims.shape) >= keep_prob] = -np.inf
        out[i:i + step] = sims.argmax(axis=1)
    return out


def write_vec_file(path, lines, header=None):
    body = [header] if header is not None else []
    body.extend(lines)
    path.write_text("\n".join(body) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def small_space():
    return make_space(20, 5, seed=10)
