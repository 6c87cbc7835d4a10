"""A session-level build is a function of its seed alone.

Every draw of the chain is keyed by the subscriber, session or flow it
is for (see :mod:`repro._rng`), so how a build is executed never moves
a bit of its npz: not the shard count, the worker count or the chunk
size, not probe capture losses (keyed by session, not by batch), and
not a retry after a worker fault, which re-runs a shard as a pure
function of the plan.
"""

import pytest

from repro.dataset.builder import build_session_level_dataset
from repro.geo.country import CountryConfig
from repro.resilience import FaultPlan
from tests.integration.test_build_golden import npz_digest

SEED = 5
N_SUBSCRIBERS = 200
COUNTRY = CountryConfig(n_communes=64)
LOSS_RATES = (0.0, 0.3)

#: (n_shards, n_workers, chunk_size) besides the reference (1, 1, 8192).
EXECUTIONS = [
    (1, 1, 512),
    (2, 1, 8192),
    (2, 2, 512),
    (3, 1, 512),
    (3, 2, 8192),
    (8, 1, 8192),
    (8, 2, 512),
]


def _digest(tmp_path, name, **kwargs) -> str:
    artifacts = build_session_level_dataset(
        n_subscribers=N_SUBSCRIBERS, country_config=COUNTRY, seed=SEED, **kwargs
    )
    return npz_digest(artifacts.dataset.save(tmp_path / f"{name}.npz"))


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("reference")
    return {
        loss: _digest(tmp_path, f"loss{loss}", control_loss_rate=loss)
        for loss in LOSS_RATES
    }


def test_capture_loss_changes_the_dataset(reference):
    assert reference[0.0] != reference[0.3]


@pytest.mark.parametrize("loss", LOSS_RATES, ids=lambda loss: f"loss{loss}")
@pytest.mark.parametrize(
    "n_shards,n_workers,chunk_size",
    EXECUTIONS,
    ids=[f"shards{s}-workers{w}-chunk{c}" for s, w, c in EXECUTIONS],
)
def test_execution_never_changes_the_npz(
    tmp_path, reference, loss, n_shards, n_workers, chunk_size
):
    digest = _digest(
        tmp_path,
        "build",
        n_shards=n_shards,
        n_workers=n_workers,
        chunk_size=chunk_size,
        control_loss_rate=loss,
    )
    assert digest == reference[loss]


@pytest.mark.parametrize("n_workers", [1, 2])
def test_retry_after_worker_fault_is_the_undisturbed_build(
    tmp_path, reference, n_workers
):
    # Shard 1's first attempt draws its whole week, then fails; the
    # retry must not depend on anything that attempt consumed.
    faults = FaultPlan.parse(["worker_exception:1:0:aggregate"])
    artifacts = build_session_level_dataset(
        n_subscribers=N_SUBSCRIBERS,
        country_config=COUNTRY,
        seed=SEED,
        n_shards=3,
        n_workers=n_workers,
        control_loss_rate=0.3,
        fault_plan=faults,
    )
    assert artifacts.extras["execution"].retries == 1
    path = artifacts.dataset.save(tmp_path / "retried.npz")
    assert npz_digest(path) == reference[0.3]
