"""ResultStore: roundtrip, invalidation, atomicity, gc, diff."""

import json
import os

import pytest

from repro.store import ResultStore, TaskKey
from repro.store.signature import ModuleSignatureIndex

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)


def sample_task(seed, scale=1):
    return {"seed": seed, "value": seed * scale}


def make_index() -> ModuleSignatureIndex:
    """An index that can sign functions defined in this test module."""
    return ModuleSignatureIndex({"tests": REPO_ROOT})


def make_store(tmp_path) -> ResultStore:
    return ResultStore(str(tmp_path / "store"), index=make_index())


def test_roundtrip(tmp_path):
    store = make_store(tmp_path)
    key = store.key_for(sample_task, {"seed": 3, "scale": 2})
    assert key is not None

    status, _ = store.load(key)
    assert status == "miss"
    assert store.store(key, sample_task(3, 2))
    status, value = store.load(key)
    assert status == "hit"
    assert value == {"seed": 3, "value": 6}
    assert store.stats.hits == 1 and store.stats.misses == 1


def test_keys_ignore_kwarg_order(tmp_path):
    store = make_store(tmp_path)
    a = store.key_for(sample_task, {"seed": 1, "scale": 4})
    b = store.key_for(sample_task, {"scale": 4, "seed": 1})
    assert a == b
    assert a != store.key_for(sample_task, {"seed": 1, "scale": 5})


def test_undigestable_kwargs_are_unstorable(tmp_path):
    store = make_store(tmp_path)
    assert store.key_for(sample_task, {"seed": object()}) is None


def test_unsigned_module_is_unstorable(tmp_path):
    store = ResultStore(str(tmp_path / "store"))  # default index: repro only
    assert store.key_for(sample_task, {"seed": 0}) is None


def test_other_signature_is_invalidated_not_miss(tmp_path):
    store = make_store(tmp_path)
    key = store.key_for(sample_task, {"seed": 7})
    store.store(key, sample_task(7))

    moved = TaskKey(digest=key.digest, signature="f" * 64, fn=key.fn)
    status, _ = store.load(moved)
    assert status == "invalidated"
    assert store.probe(moved) == "invalidated"
    # Both signatures' records coexist after the moved row is stored too.
    store.store(moved, "new-code-result")
    assert store.load(key) == ("hit", {"seed": 7, "value": 7})
    assert store.load(moved) == ("hit", "new-code-result")


def test_corrupt_record_demotes_to_miss_and_rewrites(tmp_path):
    store = make_store(tmp_path)
    key = store.key_for(sample_task, {"seed": 1})
    store.store(key, sample_task(1))
    path = store._record_path(key)

    with open(path, "w") as fh:
        fh.write("{ not json")
    status, _ = store.load(key)
    assert status == "miss"
    store.store(key, sample_task(1))
    assert store.load(key)[0] == "hit"


def test_corrupt_payload_demotes_to_miss(tmp_path):
    store = make_store(tmp_path)
    key = store.key_for(sample_task, {"seed": 2})
    store.store(key, sample_task(2))
    path = store._record_path(key)
    with open(path) as fh:
        record = json.load(fh)
    record["payload"] = "AAAA"
    with open(path, "w") as fh:
        json.dump(record, fh)
    assert store.load(key)[0] == "miss"


def test_unpicklable_result_is_not_stored(tmp_path):
    store = make_store(tmp_path)
    key = store.key_for(sample_task, {"seed": 4})
    assert not store.store(key, lambda: None)
    assert store.stats.write_failures == 1
    assert store.load(key)[0] == "miss"


def test_writes_leave_no_temp_files(tmp_path):
    store = make_store(tmp_path)
    for seed in range(5):
        store.store(store.key_for(sample_task, {"seed": seed}), seed)
    leftovers = [
        name
        for _, _, names in os.walk(store.root)
        for name in names
        if not name.endswith(".json")
    ]
    assert leftovers == []


def test_ls_reports_every_record(tmp_path):
    store = make_store(tmp_path)
    for seed in range(3):
        store.store(store.key_for(sample_task, {"seed": seed}), seed)
    entries = store.ls()
    assert len(entries) == 3
    fn_name = "tests.store.test_store:sample_task"
    assert all(e["fn"] == fn_name for e in entries)
    assert all(len(e["code_signature"]) == 64 for e in entries)


def test_gc_stale_keeps_current_signature(tmp_path):
    store = make_store(tmp_path)
    key = store.key_for(sample_task, {"seed": 0})
    store.store(key, 0)
    stale = TaskKey(digest=key.digest, signature="e" * 64, fn=key.fn)
    store.store(stale, "old")

    dry = store.gc(dry_run=True)
    assert len(dry["removed"]) == 1 and dry["kept"] == 1
    assert store.load(stale)[0] == "hit"  # dry run removed nothing

    summary = store.gc()
    assert len(summary["removed"]) == 1
    assert store.load(key)[0] == "hit"
    assert store.probe(stale) == "invalidated"


def test_gc_all_empties_objects(tmp_path):
    store = make_store(tmp_path)
    for seed in range(4):
        store.store(store.key_for(sample_task, {"seed": seed}), seed)
    summary = store.gc(mode="all")
    assert len(summary["removed"]) == 4
    assert store.ls() == []
    assert not os.listdir(os.path.join(store.root, "objects"))


def test_gc_rejects_unknown_mode(tmp_path):
    with pytest.raises(ValueError):
        make_store(tmp_path).gc(mode="everything")


def test_diff_tasks_classifies(tmp_path):
    store = make_store(tmp_path)
    store.store(store.key_for(sample_task, {"seed": 0}), 0)
    diff = store.diff_tasks(
        [
            (sample_task, {"seed": 0}),  # hit
            (sample_task, {"seed": 99}),  # miss
            (sample_task, {"seed": object()}),  # unstorable
        ]
    )
    assert diff["counts"] == {
        "hit": 1,
        "miss": 1,
        "invalidated": 0,
        "unstorable": 1,
    }
    assert [row["status"] for row in diff["tasks"]] == [
        "hit",
        "miss",
        "unstorable",
    ]


def test_environment_stamp_header_on_records(tmp_path):
    store = make_store(tmp_path)
    key = store.key_for(sample_task, {"seed": 5})
    store.store(key, 5)
    with open(store._record_path(key)) as fh:
        record = json.load(fh)
    env = record["environment"]
    assert {"python", "platform", "cpu_count"} <= set(env)
