"""The column-artifact core: pinned on-disk format and atomic publishing.

The checksums below pin every column's name, dtype, shape and bytes of
small artifacts of each kind; the key sets pin ``meta.json`` and the npz
archive.  A change to either breaks every artifact and shard directory
already on disk, so it must come with a ``FORMAT_VERSION`` bump.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.analysis import artifact
from repro.analysis.delta_store import DeltaStore
from repro.analysis.scenarios import build_scenario
from repro.analysis.store import CensusStore
from repro.analysis.weighted_store import WeightedStore


def _weighted(include_ucg):
    scenario = build_scenario("random_weights", 5, seed=2)
    return WeightedStore.from_scenario(scenario, include_ucg=include_ucg)


#: kind → (builder, pinned content checksum)
PINNED = {
    "census_ucg": (
        lambda: CensusStore.build(5, include_ucg=True),
        "e6c269861d4fd932f3e6b290f3f2b4ed7c089afb00d16fee8f9196b8c0887fd4",
    ),
    "census": (
        lambda: CensusStore.build(5, include_ucg=False),
        "6eed539d02c34faa96d5e275a0eae66dd63d81d5daa16b41f1779c3e99124d38",
    ),
    "delta": (
        lambda: DeltaStore.build(5),
        "8c2de117264ecdd368ebbc59cd87def0500dea2aa314ceb27c3e8fe4cdf6722c",
    ),
    "weighted_ucg": (
        lambda: _weighted(True),
        "622c7a611db837f4dbfd8b1f31af653d4b93d5cb4008c17a22b08bf38c2418ef",
    ),
    "weighted": (
        lambda: _weighted(False),
        "51f1e8562a981e6a136b443c910c7f99e79e934b89ddbffe6762544a5cf94d88",
    ),
}

CENSUS_COLUMNS = [
    "num_edges", "dist_total", "cert_words",
    "rem_values", "rem_indptr", "add_lo", "add_hi", "add_indptr",
]
WEIGHTED_COLUMNS = [
    "num_edges", "dist_total", "edge_cost_total", "cert_words",
    "rem_w", "rem_delta", "rem_indptr",
    "add_w_u", "add_s_u", "add_w_v", "add_s_v", "add_indptr",
]
DELTA_COLUMNS = [
    "num_edges", "dist_total", "cert_words",
    "rem_delta", "rem_pay", "rem_other", "rem_indptr",
    "add_s_u", "add_s_v", "add_u", "add_v", "add_indptr",
]
UCG_COLUMNS = ["ucg_lo", "ucg_hi", "ucg_indptr"]

#: kind → (npz keys in archive order, extra meta.json keys)
LAYOUT = {
    "census_ucg": (
        CENSUS_COLUMNS + UCG_COLUMNS
        + ["schema", "format_version", "n", "include_ucg", "checksum"],
        {"include_ucg"},
    ),
    "census": (
        CENSUS_COLUMNS + ["schema", "format_version", "n", "include_ucg", "checksum"],
        {"include_ucg"},
    ),
    "delta": (
        DELTA_COLUMNS + ["schema", "format_version", "n", "checksum"],
        set(),
    ),
    "weighted_ucg": (
        WEIGHTED_COLUMNS + UCG_COLUMNS
        + ["weight_matrix", "schema", "format_version", "n", "scenario_json", "checksum"],
        {"scenario"},
    ),
    "weighted": (
        WEIGHTED_COLUMNS
        + ["weight_matrix", "schema", "format_version", "n", "scenario_json", "checksum"],
        {"scenario"},
    ),
}

STORE_CLASSES = {
    "census_ucg": CensusStore,
    "census": CensusStore,
    "delta": DeltaStore,
    "weighted_ucg": WeightedStore,
    "weighted": WeightedStore,
}


@pytest.fixture(scope="module")
def stores():
    return {kind: build() for kind, (build, _) in PINNED.items()}


@pytest.fixture(scope="module")
def saved(stores, tmp_path_factory):
    """Every pinned store saved in both formats: kind → (npz path, dir path)."""
    root = tmp_path_factory.mktemp("pinned")
    return {
        kind: (
            store.save(str(root / f"{kind}.npz")),
            store.save(str(root / kind), format="dir"),
        )
        for kind, store in stores.items()
    }


class TestPinnedFormat:
    @pytest.mark.parametrize("kind", sorted(PINNED))
    def test_content_checksum_is_pinned(self, stores, kind):
        assert stores[kind].content_checksum() == PINNED[kind][1]

    @pytest.mark.parametrize("kind", sorted(PINNED))
    def test_npz_keys_are_pinned(self, saved, kind):
        with np.load(saved[kind][0], allow_pickle=False) as data:
            assert list(data.files) == LAYOUT[kind][0]
            assert str(data["checksum"]) == PINNED[kind][1]

    @pytest.mark.parametrize("kind", sorted(PINNED))
    def test_meta_json_is_pinned(self, stores, saved, kind):
        cls = STORE_CLASSES[kind]
        with open(os.path.join(saved[kind][1], "meta.json")) as handle:
            meta = json.load(handle)
        assert set(meta) == {
            "schema", "format_version", "n", "columns", "checksum",
        } | LAYOUT[kind][1]
        assert meta["schema"] == cls.SCHEMA
        assert meta["format_version"] == cls.FORMAT_VERSION
        assert meta["checksum"] == PINNED[kind][1]
        columns = [key for key in LAYOUT[kind][0] if key in cls.COLUMNS]
        assert meta["columns"] == sorted(columns)
        assert sorted(os.listdir(saved[kind][1])) == sorted(
            [f"{name}.npy" for name in columns] + ["meta.json"]
        )

    @pytest.mark.parametrize("kind", sorted(PINNED))
    def test_both_formats_load_with_a_valid_stamp(self, saved, kind):
        cls = STORE_CLASSES[kind]
        npz_path, dir_path = saved[kind]
        for loaded in (cls.load(npz_path), cls.load(dir_path, mmap=True)):
            assert loaded.content_checksum() == PINNED[kind][1]
            audit = loaded.verify()
            assert audit["ok"] and audit["checksum"] == "ok", audit["errors"]

    def test_schema_tags_and_versions(self):
        assert (CensusStore.SCHEMA, CensusStore.FORMAT_VERSION) == (
            "repro-census-store", 1,
        )
        assert (WeightedStore.SCHEMA, WeightedStore.FORMAT_VERSION) == (
            "repro-weighted-store", 2,
        )
        assert (DeltaStore.SCHEMA, DeltaStore.FORMAT_VERSION) == (
            "repro-delta-store", 1,
        )

    @pytest.mark.parametrize("loader", [CensusStore, WeightedStore, DeltaStore])
    def test_load_rejects_the_other_kinds(self, saved, loader):
        for kind, paths in saved.items():
            if STORE_CLASSES[kind] is loader:
                continue
            for path in paths:
                with pytest.raises(ValueError, match="artifact"):
                    loader.load(path)

    def test_peek_reads_metadata_only(self, saved):
        for kind, (npz_path, dir_path) in saved.items():
            schema = STORE_CLASSES[kind].SCHEMA
            assert artifact.peek_artifact(npz_path) == (schema, "npz", 5)
            assert artifact.peek_artifact(dir_path) == (schema, "dir", 5)


class TestAtomicPublish:
    def test_resave_under_a_mapped_reader(self, tmp_path):
        """Re-saving a dir artifact must not pull pages from under a reader.

        The reader maps the n = 7 columns, the artifact is re-saved as
        n = 4 in place, and only then does the reader touch every page.
        Truncating the column files in place killed it with SIGBUS.
        """
        path = str(tmp_path / "census")
        first = CensusStore.build(7, include_ucg=False)
        first.save(path, format="dir")
        reader = (
            "import sys\n"
            "from repro.analysis.store import CensusStore\n"
            "store = CensusStore.load(sys.argv[1], mmap=True)\n"
            "print('mapped', flush=True)\n"
            "sys.stdin.readline()\n"
            "print(store.content_checksum(), flush=True)\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        child = subprocess.Popen(
            [sys.executable, "-c", reader, path],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            assert child.stdout.readline().strip() == "mapped"
            CensusStore.build(4, include_ucg=False).save(path, format="dir")
            out, _ = child.communicate("go\n", timeout=60)
        finally:
            if child.poll() is None:
                child.kill()
        assert child.returncode == 0, f"reader died with {child.returncode}"
        assert out.strip() == first.content_checksum()
        assert CensusStore.load(path).n == 4
        assert not [name for name in os.listdir(tmp_path) if name.startswith(".")]

    @pytest.mark.parametrize("format", ["npz", "dir"])
    def test_failed_save_leaves_the_old_artifact(self, tmp_path, monkeypatch, format):
        store = CensusStore.build(4, include_ucg=False)
        path = store.save(str(tmp_path / "census"), format=format)

        def explode(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(np, "save", explode)
        monkeypatch.setattr(np, "savez", explode)
        with pytest.raises(OSError, match="disk full"):
            CensusStore.build(3, include_ucg=False).save(path, format=format)
        monkeypatch.undo()
        loaded = CensusStore.load(path)
        assert loaded.n == 4 and loaded.verify()["checksum"] == "ok"
        assert sorted(os.listdir(tmp_path)) == [os.path.basename(path)]

    def test_refuses_to_replace_a_foreign_directory(self, tmp_path):
        victim = tmp_path / "notes"
        victim.mkdir()
        (victim / "keep.txt").write_text("mine")
        with pytest.raises(FileExistsError):
            CensusStore.build(3, include_ucg=False).save(str(victim), format="dir")
        assert (victim / "keep.txt").read_text() == "mine"

    def test_catalog_skips_hidden_entries(self, tmp_path):
        from repro.service import ArtifactCatalog

        store = CensusStore.build(3, include_ucg=False)
        store.save(str(tmp_path / "census3"), format="dir")
        store.save(str(tmp_path / ".census3.tmp-1-0"), format="dir")
        assert [info.id for info in ArtifactCatalog(root=str(tmp_path)).list()] == [
            "census3"
        ]
