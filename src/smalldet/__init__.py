"""Anchor matching metrics, label assignment, and pyramid contrast losses.

The library has three layers: box geometry and anchor grids (geometry),
the pairwise similarity metric with its dataset normalizers and the
threshold assigner built on it (similarity, assigner), and the contrastive
losses over pyramid embeddings with a deterministic toy pyramid to drive
them (contrast, pyramid). COCO-style ingestion and the CLI live in
dataset and cli.
"""

import math
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


def _finite_number(value, types=(int, float)) -> bool:
    """Whether value is a finite number of one of `types`.

    The library's value types check their numeric fields with this. bool
    is an int subclass, but True must not pass as a value of 1; an int past
    the float range is not finite.
    """
    if isinstance(value, bool) or not isinstance(value, types):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
