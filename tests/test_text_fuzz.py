"""Seeded fuzzing of the text readers: the config JSON and the CSV loader.

Every damaged file must either load or fail with one of the package's typed
errors (ConfigError, DataError), never with any other exception.
"""
import json

from vflhlp.config import load_config, parse_config, to_dict
from vflhlp.data import Field, FeatureSchema, load_csv
from vflhlp.errors import ConfigError, DataError
from vflhlp.rng import stream


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
    text = json.dumps(to_dict(parse_config({"preset": "fixture"})))
    loaded = _fuzz(tmp_path, text, seed=1, load=load_config)
    assert 0 < loaded < 300  # the cases reach both outcomes


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
                   load=lambda p: load_csv(p, schema, "id", "label"))
    assert 0 < loaded < 300
