"""Every scalar field and checked argument takes its value one way.

A real is a finite int, float, or numpy integer or floating scalar, kept
as a float; a count is anything with __index__, kept as an int; a flag is
a bool or np.bool_, kept as a bool. A bool is never a number. A bad value
is a ValueError (CliUsageError for the CLI's configs) that names the field
and shows the value in a bounded message. Each value type is one row of
TYPES: its scalar fields and their kinds come from its dataclass fields,
so a new type is covered by adding its row.
"""

import math
import re
from dataclasses import fields

import numpy as np
import pytest

from smalldet import cli
from smalldet.assigner import AssignThresholds, ImageCounts, check_bucket_edges
from smalldet.contrast import ContrastConfig, EmbeddingBatch, LossComponents, gradient_check, info_nce
from smalldet.geometry import AnchorGridSpec, Box, LevelGrid, from_topleft, generate_anchors, make_box
from smalldet.pyramid import (
    FeatureMap,
    ToyPyramidConfig,
    build_embedding_batch,
    encode,
    fuse_topdown,
    synth_pyramid,
)
from smalldet.similarity import DatasetNormalizers, NormalizerAccumulator, NormalizerCache

# Each value type with the arguments of one valid instance.
TYPES = [
    (Box, dict(cx=1.0, cy=2.0, w=3.0, h=4.0)),
    (AnchorGridSpec, dict(levels=((16.0, 16.0),), image_w=64.0, image_h=48.0)),
    (DatasetNormalizers, dict(m=0.5, n=0.25)),
    (NormalizerAccumulator, dict(sum_x=1.0, sum_y=2.0, pair_count=3)),
    (NormalizerCache, dict(m=0.5, n=0.25, pair_count=3, dataset_hash="ab", anchor_spec_hash="cd")),
    (AssignThresholds, dict()),
    (ImageCounts, dict(gt_areas=[10.0], positives_per_gt=[1], negative=2, anchors=5)),
    (ContrastConfig, dict()),
    (LossComponents, dict(spatial_loss=1.0, semantic_loss=2.0, detector_loss=0.5)),
    (ToyPyramidConfig, dict(levels=2, batch=1, base_size=4, lateral_channels=(2, 2), fused_channels=2)),
    (cli.AnchorLayout, dict()),
    (cli.ExperimentConfig, dict(ann="a.json")),
    (cli.ContrastDemoConfig, dict()),
]

# The kind of a field, by its annotation.
KINDS = {"float": "real", "int": "count", "bool": "flag"}

# Values each kind rejects. A count takes any int: seeds fold wider ints,
# and each type's range rules bound the rest.
BAD = {
    "real": [True, np.True_, "1", 10**400, 10**5000, math.nan],
    "count": [True, np.True_, "1", 1.5, 2.5, np.float64(2.0)],
    "flag": ["1", "no", 2, 1, None, 10**400, 10**5000, math.nan],
}


def scalar_fields():
    for cls, kwargs in TYPES:
        for f in fields(cls):
            if f.init and f.type in KINDS:
                yield pytest.param(cls, kwargs, f.name, KINDS[f.type], id=f"{cls.__name__}.{f.name}")


def expected_error(cls):
    return cli.CliUsageError if cls.__module__ == "smalldet.cli" else ValueError


def naming(name: str) -> str:
    # The CLI's configs name a field by its flag.
    return rf"\b({re.escape(name)}|{re.escape(name.replace('_', '-'))})\b"


def check_rejects(make, name: str, kind: str, error=ValueError):
    for bad in BAD[kind]:
        with pytest.raises(error, match=naming(name)) as info:
            make(bad)
        assert len(str(info.value)) < 200, str(info.value)[:300]


@pytest.mark.parametrize("cls, kwargs, name, kind", scalar_fields())
def test_scalar_field_takes_its_kind_only(cls, kwargs, name, kind):
    check_rejects(lambda bad: cls(**{**kwargs, name: bad}), name, kind, expected_error(cls))
    good = getattr(cls(**kwargs), name)
    accepted = {
        "real": [np.float32(good)] + ([np.int64(good)] if float(good).is_integer() else []),
        "count": [np.int64(good), np.uint8(good)],
        "flag": [np.bool_(good)],
    }[kind]
    for value in accepted:
        stored = getattr(cls(**{**kwargs, name: value}), name)
        assert type(stored) is {"real": float, "count": int, "flag": bool}[kind]
        assert stored == value


def test_every_type_has_a_scalar_field_in_the_sweep():
    swept = {p.values[0] for p in scalar_fields()}
    assert swept == {cls for cls, _ in TYPES}


def _batch():
    rng = np.random.default_rng(0)
    return EmbeddingBatch(*(rng.normal(size=(2, 2, 3)) for _ in range(4)))


def _level():
    spec = AnchorGridSpec(levels=((8.0, 8.0),), image_w=16.0, image_h=16.0)
    return generate_anchors(spec).grid[0]


TOY = ToyPyramidConfig(levels=2, batch=1, base_size=4, lateral_channels=(2, 2), fused_channels=2)

# Checked arguments: (call with the value, argument name, kind).
ARGUMENTS = [
    (lambda v: make_box(v, 0.0, 1.0, 1.0), "cx", "real"),
    (lambda v: make_box(0.0, 0.0, 1.0, v), "h", "real"),
    (lambda v: from_topleft(v, 0.0, 1.0, 1.0), "x", "real"),
    (lambda v: from_topleft(0.0, 0.0, v, 1.0), "w", "real"),
    (lambda v: check_bucket_edges([v, 1e9]), "bucket edges", "real"),
    (lambda v: LevelGrid(*(getattr(_level(), t) for t in ("cx", "cy", "ws", "hs")), clip=(v, 1.0)),
     "grid clip", "real"),
    (lambda v: gradient_check(_batch(), step=v), "step", "real"),
    (lambda v: info_nce(*np.eye(3)[:2], [np.eye(3)[2]], tau=v), "tau", "real"),
    (lambda v: fuse_topdown(synth_pyramid(TOY)[0], v, 2), "reduction_seed", "count"),
    (lambda v: fuse_topdown(synth_pyramid(TOY)[0], 0, v), "fused_channels", "count"),
    (lambda v: encode(FeatureMap(np.ones((2, 2, 2))), v, 4), "projection_seed", "count"),
    (lambda v: encode(FeatureMap(np.ones((2, 2, 2))), 0, v), "dim", "count"),
    (lambda v: build_embedding_batch(TOY, v), "dim", "count"),
]


@pytest.mark.parametrize("call, name, kind", ARGUMENTS, ids=[f"{n}-{i}" for i, (_, n, _k) in enumerate(ARGUMENTS)])
def test_checked_argument_takes_its_kind_only(call, name, kind):
    check_rejects(call, name, kind)


def test_numpy_scalars_pass_every_real_argument():
    assert make_box(np.int64(1), np.float32(2.0), 3, 4) == Box(1.0, 2.0, 3.0, 4.0)
    assert from_topleft(np.int32(0), 0, np.float16(2.0), 2) == Box(1.0, 1.0, 2.0, 2.0)
    assert check_bucket_edges([np.int64(16), np.float32(256.0)]) == (16.0, 256.0)
    assert gradient_check(_batch(), step=np.float32(1e-4)).passed(1e-3)


# Range rules show the value they reject through smalldet._shown too, so
# an int too long to print still gives a bounded message naming its
# field. One row per type: (type, valid arguments, out-of-range fields).
OUT_OF_RANGE = [
    (ImageCounts, dict(gt_areas=[10.0], positives_per_gt=[1], negative=2, anchors=5),
     dict(negative=-10**5000, anchors=-10**5000)),
    (ToyPyramidConfig, dict(levels=2, batch=1, base_size=4, lateral_channels=(2, 2), fused_channels=2),
     dict(levels=10**5000, batch=-10**5000, base_size=-10**5000, lateral_channels=(2, -10**5000),
          fused_channels=-10**5000)),
    (cli.ContrastDemoConfig, dict(), dict(levels=10**5000, batch=10**5000, dim=10**5000)),
    (cli.ExperimentConfig, dict(ann="a.json"), dict(jobs=-10**5000)),
]


@pytest.mark.parametrize("cls, kwargs, bad", OUT_OF_RANGE, ids=[row[0].__name__ for row in OUT_OF_RANGE])
def test_range_message_names_the_field_of_an_int_too_long_to_print(cls, kwargs, bad):
    for name, value in bad.items():
        with pytest.raises(expected_error(cls), match=naming(name)) as info:
            cls(**{**kwargs, name: value})
        assert len(str(info.value)) < 200, str(info.value)[:300]
