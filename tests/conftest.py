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


def write_vec_file(path, lines, header=None):
    body = [header] if header is not None else []
    body.extend(lines)
    path.write_text("\n".join(body) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def small_space():
    return make_space(20, 5, seed=10)
