"""Shared fixtures for the tier-1 suite."""

from contextlib import contextmanager

import pytest

from repro.cluster import model


@pytest.fixture(scope="session", autouse=True)
def _session_shard_dir(tmp_path_factory):
    """Store benchmark matrices in a session tmp dir, not the user's
    home.  Tests that need their own store still set
    ``REPRO_SHARD_DIR`` themselves."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_SHARD_DIR", str(tmp_path_factory.mktemp("shards")))
        yield


@pytest.fixture
def cold_memos():
    """A context manager under which the cluster model runs cold.

    Each of the three memos in :data:`repro.cluster.model._ALL_MEMOS`
    gets a zero byte budget, so ``put`` stores nothing and every stage
    (filter, rack merge) is recomputed on every call; with no merge
    entry held, no reuse profile is built and every hit mask comes
    from the replay kernel.  The memos are emptied on entry and
    on exit, so a warm run afterwards starts from scratch.
    """

    @contextmanager
    def cold():
        model.reset_batch_state()
        try:
            with pytest.MonkeyPatch.context() as mp:
                for memo in model._ALL_MEMOS.values():
                    mp.setattr(memo, "budget", 0)
                yield
        finally:
            model.reset_batch_state()

    return cold
