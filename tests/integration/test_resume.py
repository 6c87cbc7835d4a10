"""Resume: an interrupted build finishes where it left off.

With ``spill_dir`` set every accepted shard partial is written to the
partial store once.  A resumed build loads the valid files instead of
re-running their shards and must be byte-identical to an uninterrupted
run; a damaged, foreign or old-schema file degrades to a re-run, never
to an error or a different dataset.
"""

import dataclasses
import pickle
import shutil

import numpy as np
import pytest

from repro import obs
from repro._time import TimeAxis
from repro.dataset import merge
from repro.dataset.builder import build_session_level_dataset
from repro.geo.country import CountryConfig
from repro.resilience import (
    FaultPlan,
    RetryPolicy,
    ShardExecutionError,
)
from repro.traffic.generator import WorkloadConfig

SEED = 7
N_SHARDS = 3
_COUNTRY = CountryConfig(n_communes=36)


@pytest.fixture(autouse=True)
def _clean_runtime():
    obs.disable()
    yield
    obs.disable()


def _build(spill_dir=None, resume=False, **overrides):
    kwargs = dict(
        n_subscribers=60,
        country_config=_COUNTRY,
        n_services=40,
        seed=SEED,
        n_workers=1,
        n_shards=N_SHARDS,
    )
    kwargs.update(overrides)
    return build_session_level_dataset(
        spill_dir=spill_dir, resume=resume, **kwargs
    )


def _files(store_dir):
    return sorted(store_dir.glob("partial-*.spill"))


@pytest.fixture(scope="module")
def uninterrupted():
    obs.disable()
    return _build()


@pytest.fixture(scope="module")
def stored(tmp_path_factory):
    """A store directory holding every partial of the default build."""
    obs.disable()
    store_dir = tmp_path_factory.mktemp("stored") / "parts"
    _build(spill_dir=store_dir)
    return store_dir


def _assert_same_dataset(a, b):
    assert np.array_equal(a.dataset.dl, b.dataset.dl)
    assert np.array_equal(a.dataset.ul, b.dataset.ul)
    assert np.array_equal(a.dataset.users, b.dataset.users)
    assert a.dataset.meta == b.dataset.meta


class TestInterruptedBuild:
    def test_resume_completes_byte_identical(self, tmp_path, uninterrupted):
        parts = tmp_path / "parts"
        # First run dies on shard 1 under the fail policy — but the
        # shards that did succeed were stored before the raise.
        with pytest.raises(ShardExecutionError):
            _build(
                spill_dir=parts,
                fault_plan=FaultPlan.parse(["worker_exception:1:0"]),
                retry_policy=RetryPolicy(max_attempts=1),
            )
        assert len(_files(parts)) == N_SHARDS - 1

        resumed = _build(spill_dir=parts, resume=True)
        execution = resumed.extras["execution"]
        assert execution.partials_resumed == N_SHARDS - 1
        assert execution.partials_written == 1
        assert execution.attempts_executed == 1
        _assert_same_dataset(uninterrupted, resumed)

    def test_full_resume_runs_no_attempts(self, tmp_path, uninterrupted):
        parts = tmp_path / "parts"
        _build(spill_dir=parts)
        with obs.observed() as session:
            resumed = _build(spill_dir=parts, resume=True)
        execution = resumed.extras["execution"]
        assert execution.attempts_executed == 0
        assert execution.partials_resumed == N_SHARDS
        _assert_same_dataset(uninterrupted, resumed)
        counters = session.registry.export_counters()
        assert counters["resilience.partials_resumed"] == N_SHARDS
        assert counters["resilience.attempts"] == 0

    def test_full_resume_writes_no_file(self, tmp_path, uninterrupted):
        parts = tmp_path / "parts"
        _build(spill_dir=parts, spill_budget_bytes=0)

        def stamps():
            return [(p.name, p.stat().st_ino, p.stat().st_mtime_ns)
                    for p in _files(parts)]

        before = stamps()
        assert len(before) == N_SHARDS
        with obs.observed() as session:
            resumed = _build(spill_dir=parts, resume=True, spill_budget_bytes=0)
        execution = resumed.extras["execution"]
        assert execution.partials_written == 0
        # Not kept loaded, so each is a handle on the file already there.
        assert execution.spills == N_SHARDS
        assert stamps() == before
        assert "resilience.partials_written" not in (
            session.registry.export_counters()
        )
        _assert_same_dataset(uninterrupted, resumed)

    @pytest.mark.parametrize("budget", [0, 1 << 40], ids=["none", "all"])
    def test_each_partial_written_once(
        self, tmp_path, monkeypatch, uninterrupted, budget
    ):
        # The resident budget only decides what stays loaded: every
        # accepted partial is pickled to the store exactly once.
        written = []
        write_envelope = merge.write_envelope

        def counting(path, obj, *args):
            written.append(obj.shard_index)
            return write_envelope(path, obj, *args)

        monkeypatch.setattr(merge, "write_envelope", counting)
        parts = tmp_path / "parts"
        built = _build(spill_dir=parts, spill_budget_bytes=budget)
        execution = built.extras["execution"]
        assert written == list(range(N_SHARDS))
        assert execution.partials_written == N_SHARDS
        assert execution.spills == (N_SHARDS if budget == 0 else 0)
        assert len(_files(parts)) == N_SHARDS
        _assert_same_dataset(uninterrupted, built)


class TestDamagedPartial:
    def test_garbled_file_rerun_not_error(self, tmp_path, uninterrupted):
        parts = tmp_path / "parts"
        _build(spill_dir=parts)
        (parts / "partial-00001.spill").write_bytes(b"torn write")

        with obs.observed() as session:
            resumed = _build(spill_dir=parts, resume=True)
        execution = resumed.extras["execution"]
        assert execution.partials_discarded == 1
        assert execution.partials_resumed == N_SHARDS - 1
        assert execution.attempts_executed == 1
        _assert_same_dataset(uninterrupted, resumed)
        counters = session.registry.export_counters()
        assert counters["resilience.partials_discarded"] == 1

    def test_old_schema_file_rerun(self, tmp_path, uninterrupted):
        parts = tmp_path / "parts"
        _build(spill_dir=parts)
        path = parts / "partial-00002.spill"
        with open(path, "rb") as handle:
            envelope = pickle.load(handle)
        envelope["schema"] = "repro-spill/2"
        with open(path, "wb") as handle:
            pickle.dump(envelope, handle)

        resumed = _build(spill_dir=parts, resume=True)
        execution = resumed.extras["execution"]
        assert execution.partials_discarded == 1
        assert execution.partials_resumed == N_SHARDS - 1
        assert execution.attempts_executed == 1
        _assert_same_dataset(uninterrupted, resumed)


#: A changed value for every input that shapes a shard, other than the
#: seed and the shard count, which the key names in clear.
_CHANGED_INPUTS = {
    "n_subscribers": 61,
    "n_services": 41,
    "axis": TimeAxis(2),
    "total_weekly_bytes": 1e15,
    "workload_config": WorkloadConfig(sessions_per_service=7.0),
    "unclassifiable_rate": 0.5,
    "control_loss_rate": 0.3,
}
#: A changed value for every ``CountryConfig`` field but the commune
#: count (a different count fails the partial's shape check anyway).
_CHANGED_COUNTRY = {
    "mean_commune_area_km2": 20.0,
    "total_population": 1e6,
    "n_cities": 30,
    "city_zipf_exponent": 1.2,
    "urban_population_fraction": 0.7,
    "n_rail_hubs": 6,
    "n_rail_cross_links": 3,
    "tgv_corridor_km": 8.0,
    "urban_population_share": 0.4,
    "semi_urban_population_share": 0.3,
    "pop_coverage_target_4g": 0.8,
}
_KEYED_CASES = [
    pytest.param({name: value}, id=name)
    for name, value in _CHANGED_INPUTS.items()
] + [
    pytest.param(
        {"country_config": dataclasses.replace(_COUNTRY, **{name: value})},
        id=f"country.{name}",
    )
    for name, value in _CHANGED_COUNTRY.items()
]


class TestResumeSemantics:
    def test_resume_false_reruns_everything(self, tmp_path, uninterrupted):
        parts = tmp_path / "parts"
        _build(spill_dir=parts)
        fresh = _build(spill_dir=parts, resume=False)
        execution = fresh.extras["execution"]
        assert execution.partials_resumed == 0
        assert execution.attempts_executed == N_SHARDS
        _assert_same_dataset(uninterrupted, fresh)

    def test_resume_requires_spill_dir(self):
        with pytest.raises(ValueError, match="spill_dir"):
            _build(resume=True)

    def test_partials_keyed_to_configuration(self, tmp_path):
        """A partial from another seed never leaks into this build."""
        parts = tmp_path / "parts"
        _build(spill_dir=parts)
        other = _build(spill_dir=parts, resume=True, seed=SEED + 1)
        execution = other.extras["execution"]
        assert execution.partials_resumed == 0
        # Mismatched run keys are rejected as discards, not silently
        # merged into a differently-seeded build.
        assert execution.partials_discarded == N_SHARDS

    def test_execution_details_stay_out_of_the_key(
        self, tmp_path, stored, uninterrupted
    ):
        parts = tmp_path / "parts"
        shutil.copytree(stored, parts)
        resumed = _build(
            spill_dir=parts, resume=True, n_workers=2, chunk_size=64,
            retry_policy=RetryPolicy(max_attempts=1),
        )
        execution = resumed.extras["execution"]
        assert execution.partials_resumed == N_SHARDS
        assert execution.attempts_executed == 0
        _assert_same_dataset(uninterrupted, resumed)

    def test_every_country_field_has_a_case(self):
        fields = {f.name for f in dataclasses.fields(CountryConfig)}
        assert fields - {"n_communes"} == set(_CHANGED_COUNTRY)

    @pytest.mark.parametrize("change", _KEYED_CASES)
    def test_every_content_input_is_keyed(self, tmp_path, stored, change):
        parts = tmp_path / "parts"
        shutil.copytree(stored, parts)
        resumed = _build(spill_dir=parts, resume=True, **change)
        execution = resumed.extras["execution"]
        assert execution.partials_resumed == 0
        assert execution.partials_discarded == N_SHARDS
        assert execution.attempts_executed == N_SHARDS
        _assert_same_dataset(_build(**change), resumed)
