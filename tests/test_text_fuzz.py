"""Seeded fuzzing of the text readers: the config JSON (a synthetic and a CSV
config), the CSV loader, the metadata JSON of a dataset cache's checkpoint and
a trained cell's result.json.

Every damaged file must either load or fail with one of the package's typed
errors (ConfigError, DataError), never with any other exception. A scan of the
package's source checks that no other code decodes JSON.
"""
import ast
import json
from pathlib import Path

import vflhlp
from vflhlp.config import load_config, parse_config, to_dict
from vflhlp.data import (
    Field, FeatureSchema, load_bundle, read_csv, read_json_object, save_bundle,
)
from vflhlp.errors import ConfigError, DataError
from vflhlp.evaluation import dataset_dir, read_dataset, stage_keys
from vflhlp.nn import load_checkpoint
from vflhlp.rng import stream

from conftest import PINNED_CSV_CONFIG, splice_metadata
from test_cli import TINY


def _damaged(text: str, seed: int, cases: int):
    """`cases` byte-flipped copies of `text`, then `cases` truncated ones.

    Half the flipped bytes are random and half are copied from elsewhere in
    `text`, which keeps more copies parseable so the checks behind the
    parser get reached too.
    """
    raw = text.encode("utf-8")
    rng = stream(seed, "fuzz")
    for _ in range(cases):
        buf = bytearray(raw)
        for pos in rng.integers(0, len(buf), size=rng.integers(1, 4)):
            if rng.random() < 0.5:
                buf[pos] = int(rng.integers(0, 256))
            else:
                buf[pos] = raw[rng.integers(0, len(raw))]
        yield bytes(buf)
    for cut in rng.integers(0, len(raw), size=cases):
        yield raw[:cut]


def _fuzz(tmp_path, text: str, seed: int, load) -> int:
    """Run `load` on each damaged copy; return how many loaded."""
    path = tmp_path / "fuzzed"
    loaded = 0
    for blob in _damaged(text, seed, cases=150):
        path.write_bytes(blob)
        try:
            load(path)
        except (ConfigError, DataError):
            continue
        loaded += 1
    return loaded


def test_damaged_configs_load_or_raise_config_errors(tmp_path):
    for raw in ({"preset": "fixture"}, PINNED_CSV_CONFIG):
        text = json.dumps(to_dict(parse_config(raw)))
        loaded = _fuzz(tmp_path, text, seed=1, load=load_config)
        assert 0 < loaded < 300, raw  # the cases reach both outcomes


def test_damaged_csvs_load_or_raise_data_errors(tmp_path):
    schema = FeatureSchema((
        Field("color", "categorical", party=1, cardinality=5),
        Field("x1", "numerical", party=1),
        Field("shape", "categorical", party=2, cardinality=4),
        Field("x2", "numerical", party=2),
    ))
    colors, shapes = ["red", "green", "blue"], ["tri", "box"]
    rows = [f"{i},{i % 2},{colors[i % 3]},{i / 10.0},{shapes[i % 2]},{-i}"
            for i in range(24)]
    text = "\n".join(["id,label,color,x1,shape,x2", *rows]) + "\n"
    loaded = _fuzz(tmp_path, text, seed=2,
                   load=lambda p: read_csv(p, schema, "id", "label"))
    assert 0 < loaded < 300


def test_damaged_manifests_load_or_raise_data_errors(tmp_path, tiny_bundle):
    # the dataset cache's metadata JSON, spliced back into dataset.ckpt
    cfg = parse_config(TINY)
    cache = dataset_dir(tmp_path, 7)
    save_bundle(cache, tiny_bundle, meta=stage_keys(cfg, 7)["dataset"])
    path = cache / "dataset.ckpt"
    raw = path.read_bytes()
    text = json.dumps(load_checkpoint(path)[1], indent=2, sort_keys=True)

    def load(fuzzed):
        path.write_bytes(raw)
        splice_metadata(path, fuzzed.read_bytes())
        load_bundle(cache)
        read_dataset(cfg, tmp_path, 7)  # the commands' reader; a stale cache is built afresh

    loaded = _fuzz(tmp_path, text, seed=3, load=load)
    assert 0 < loaded < 300


def test_damaged_result_files_load_or_raise_data_errors(tmp_path):
    result = {
        "mode": "vflhlp", "seed": 7, "aligned_count": 20, "beta": 0.1,
        "test_auc": 0.7234567890123, "config_hash": "ab" * 32,
        "audit": {"ok": True, "n_messages": 240, "n_rounds": 40, "balanced_rounds": True},
    }
    text = json.dumps(result, indent=2, sort_keys=True) + "\n"
    loaded = _fuzz(tmp_path, text, seed=4,
                   load=lambda p: read_json_object(p).get("test_auc"))
    assert 0 < loaded < 300


# where JSON may be decoded: the one JSON-file reader, and the checkpoint
# reader for the metadata block inside a binary file
JSON_DECODERS = {("data.py", "read_json_object"), ("nn/checkpoint.py", "_read")}


def _json_decodes(tree: ast.AST):
    """(enclosing function, line) of each json.load/json.loads call in a module,
    and of each import of either name from json."""
    parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "json":
            if {a.name for a in node.names} & {"load", "loads"}:
                yield "<import>", node.lineno
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in ("load", "loads")
              and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"):
            scope = node
            while scope in parent and not isinstance(scope, ast.FunctionDef):
                scope = parent[scope]
            yield getattr(scope, "name", "<module>"), node.lineno


def test_json_is_decoded_only_by_the_readers():
    package = Path(vflhlp.__file__).parent
    found = {}
    for path in sorted(package.rglob("*.py")):
        module = path.relative_to(package).as_posix()
        for scope, line in _json_decodes(ast.parse(path.read_text(), str(path))):
            found[f"{module}:{line}"] = (module, scope)
    assert found, "the scan found no JSON decoding at all"
    assert {k: v for k, v in found.items() if v not in JSON_DECODERS} == {}
