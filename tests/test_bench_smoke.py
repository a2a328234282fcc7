"""The CI benchmark smoke pass and its JSON artifact."""

import json

from repro.bench.smoke import SMOKE_CELLS, run_smoke, write_smoke


def test_run_smoke_covers_every_cell():
    records = run_smoke()
    expected = sum(len(methods) for _, _, methods in SMOKE_CELLS)
    assert len(records) == expected
    for record in records:
        assert record["error"] is None
        assert record["work"] > 0
        assert record["elapsed"] >= 0.0


def test_write_smoke_artifact(tmp_path):
    path = write_smoke(str(tmp_path), tag="test")
    assert path.endswith("BENCH_test.json")
    with open(path) as handle:
        payload = json.load(handle)
    assert payload["tag"] == "test"
    assert payload["total_elapsed"] >= 0.0
    labels = {record["label"] for record in payload["records"]}
    assert labels == {name for name, _, _ in SMOKE_CELLS}
    cache_block = payload["query_cache"]
    assert cache_block["answers_match"] is True
    assert cache_block["cache_hits"] > 0
    assert 0.0 < cache_block["hit_rate"] <= 1.0
    assert cache_block["counting_table_reuse"] > 0
    # The block is the probe's whole recovery record; a failure prints
    # it, so a run that saw no crash says what it saw instead.
    healing = payload["self_healing"]
    assert healing["answers_match"] is True, healing
    assert healing["counters_match"] is True, healing
    assert healing["crashes"] == 1, healing
    assert healing["repairs"] == 1, healing
    assert healing["rounds_replayed"] == 1, healing
    assert healing["recovery_seconds"] >= 0.0
