import os
from pathlib import Path

import pytest

import corpus

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="session")
def src_env():
    """The environment for a child interpreter: this checkout's src first on
    PYTHONPATH, so `python -m domcover.cli` imports without an install."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


@pytest.fixture(scope="session")
def corpus7():
    """All connected graphs on 2..7 vertices, one per isomorphism class."""
    return corpus.connected_graphs(7)


@pytest.fixture(scope="session")
def corpus_random():
    """200 seeded connected graphs on up to 12 vertices."""
    return corpus.random_connected(200, 12)


@pytest.fixture(scope="session")
def corpus_all(corpus7, corpus_random):
    return corpus7 + corpus_random


@pytest.fixture(scope="session")
def trees10():
    """All trees on 1..10 vertices, one per isomorphism class."""
    return corpus.all_trees(10)
