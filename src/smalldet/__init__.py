"""Anchor matching metrics, label assignment, and pyramid contrast losses.

The library has three layers: box geometry and anchor grids (geometry),
the pairwise similarity metric with its dataset normalizers and the
threshold assigner built on it (similarity, assigner), and the contrastive
losses over pyramid embeddings with a deterministic toy pyramid to drive
them (contrast, pyramid). COCO-style ingestion and the CLI live in
dataset and cli.
"""

import functools
import math
import operator
import sys

__version__ = "0.1.0"

# Each exported name, by the module that defines it. A name is imported
# on first access (PEP 562), so `import smalldet` loads no submodule and
# a command loads only the modules it runs; cli binds the names its
# commands call from this table too.
_EXPORTS = {
    "geometry": (
        "Box",
        "AnchorGridSpec",
        "AnchorSet",
        "make_box",
        "from_topleft",
        "boxes_to_array",
        "iou",
        "iou_matrix",
        "generate_anchors",
    ),
    "similarity": (
        "DatasetNormalizers",
        "NormalizerAccumulator",
        "NormalizerCache",
        "EmptyDatasetError",
        "position_similarity",
        "shape_similarity",
        "pairwise_similarity",
        "ps_matrix",
        "accumulate",
        "finalize",
        "save_normalizer_cache",
        "load_normalizer_cache",
    ),
    "assigner": (
        "POSITIVE",
        "NEGATIVE",
        "IGNORE",
        "Metric",
        "AssignThresholds",
        "AssignResult",
        "ImageCounts",
        "BucketStats",
        "StatsReport",
        "assign",
        "assign_with_metric",
        "count_with_metric",
        "assignment_stats",
        "check_bucket_edges",
        "report_to_dict",
        "reports_to_json",
        "reports_to_csv",
    ),
    "contrast": (
        "EmbeddingBatch",
        "ContrastConfig",
        "LossComponents",
        "ContrastGradients",
        "GradientCheckResult",
        "info_nce",
        "info_nce_grad",
        "spatial_loss",
        "semantic_loss",
        "contrast_grad",
        "total_loss",
        "gradient_check",
    ),
    "pyramid": (
        "FeatureMap",
        "ToyPyramidConfig",
        "synth_pyramid",
        "fuse_topdown",
        "encode",
        "build_embedding_batch",
    ),
    "dataset": (
        "DatasetError",
        "DatasetIndex",
        "load_coco",
        "dataset_hash",
    ),
}
_DEFINED_IN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_DEFINED_IN]


def __getattr__(name: str):
    module = _DEFINED_IN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    qualified = f"{__name__}.{module}"
    __import__(qualified)  # an import statement's path, which -X importtime reports
    value = getattr(sys.modules[qualified], name)
    globals()[name] = value
    return value


def _shown(value) -> str:
    """repr(value) in at most 40 characters, also for an int too long to print."""
    if isinstance(value, int) and value.bit_length() > 128:
        return f"<int of {value.bit_length()} bits>"
    text = repr(value)
    return text if len(text) <= 40 else f"{text[:37]}..."


def _shown_path(path) -> str:
    """A path's text in at most 100 characters: its end, the file name,
    after "..." when it is cut."""
    text = str(path)
    return text if len(text) <= 100 else f"...{text[-97:]}"


@functools.cache
def _scalar_types() -> tuple[tuple, tuple]:
    """(real types, flag types). numpy is imported on the first check, not
    by `import smalldet`: loaded ahead of cli's standard library imports, it
    raised a contrast-demo process's peak RSS by 0.44 MB (x86-64 Linux)."""
    import numpy as np

    return (int, float, np.integer, np.floating), (bool, np.bool_)


# The value types and checked arguments take their scalars through these
# three checks, so each kind of value means the same everywhere; range
# rules stay with each type. bool is an int subclass, but True is not a
# value of 1, so no check but _flag takes a bool or np.bool_.
def _real(value, name: str) -> float:
    """value as a float: a finite int, float, or numpy integer or floating scalar."""
    if isinstance(value, _scalar_types()[0]) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an int past the float range
            pass
    raise ValueError(f"{name} must be a finite number, got {_shown(value)}")


def _count(value, name: str) -> int:
    """value as an int: anything with __index__ but a bool."""
    if not isinstance(value, _scalar_types()[1]):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {_shown(value)}")


def _flag(value, name: str) -> bool:
    """value as a bool: a bool or np.bool_."""
    if isinstance(value, _scalar_types()[1]):
        return bool(value)
    raise ValueError(f"{name} must be a bool, got {_shown(value)}")


def _read_json(path, what: str, error: type, text: str | None = None) -> dict:
    """The JSON object in the UTF-8 file at path, or in text when given.

    An unreadable or non-UTF-8 file, undecodable text (json also raises a
    plain ValueError past the int-to-str digit limit and RecursionError
    for deep nesting) and a non-object document each raise one `error`
    naming `what`, which names the file (through _shown_path). An
    OSError gives only its reason, as its text repeats the whole path.
    json is imported here, so a run that reads no JSON never loads it.
    """
    import json

    if text is None:
        try:
            with open(path, encoding="utf-8") as file:
                text = file.read()
        except OSError as exc:
            raise error(f"cannot read {what}: {exc.strerror or type(exc).__name__}") from exc
        except UnicodeDecodeError as exc:
            raise error(f"cannot read {what}: {exc}") from exc
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise error(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise error(f"{what} must hold a JSON object")
    return doc


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
