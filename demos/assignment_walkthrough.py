"""Label assignment, step by step, on a matrix small enough to read.

The assigner follows the classic max-overlap recipe: threshold each
anchor's best score into negative / ignore / positive, then let every
ground truth rescue its single best anchor if that anchor clears the
minimum floor. The rescue step is what keeps small objects from ending
up with zero positives.
"""

import numpy as np

from smalldet import (
    IGNORE,
    NEGATIVE,
    POSITIVE,
    AnchorGridSpec,
    AssignThresholds,
    DatasetNormalizers,
    NormalizerAccumulator,
    accumulate,
    assign,
    finalize,
    generate_anchors,
    iou_matrix,
    ps_matrix,
)

NAMES = {POSITIVE: "positive", NEGATIVE: "negative", IGNORE: "ignore"}

# Two ground truths scored against four anchors. Row = gt, column = anchor.
scores = np.array(
    [
        [0.72, 0.45, 0.10, 0.28],
        [0.15, 0.40, 0.25, 0.65],
    ]
)
thr = AssignThresholds()  # 0.7 / 0.3 / 0.3

result = assign(scores, thr)
print("scores:\n", scores)
print()
for a in range(scores.shape[1]):
    label = NAMES[int(result.labels[a])]
    owner = int(result.gt_index[a])
    extra = f" -> gt {owner}" if owner >= 0 else ""
    print(f"anchor {a}: best={result.best_score[a]:.2f} {label}{extra}")
print()
# Anchor 0 clears 0.7 outright. Anchor 3 sits in the ignore band on its
# own, but gt 1's best anchor is anchor 3 at 0.65 >= 0.3, so the rescue
# step flips it to positive. Anchor 1 stays ignored, anchor 2 is negative.

# The same machinery on a real grid. One 12-pixel object on an 800x800
# image, anchors with 256/512-pixel sides (stride 16, ratios 0.5/1/2).
grid = AnchorGridSpec(
    levels=((16.0, 16.0),),
    image_w=800.0,
    image_h=800.0,
    ratios=(0.5, 1.0, 2.0),
    scales=(16.0, 32.0),
)
anchors = generate_anchors(grid)
print(f"grid holds {len(anchors)} anchors")

gt = np.array([[401.0, 399.0, 12.0, 12.0]])

# Normalizers for this one-scene dataset.
norm = finalize(accumulate(NormalizerAccumulator(), gt, anchors))
print(f"m={norm.m:.4f} n={norm.n:.4f}")

for name, matrix in (
    ("iou", iou_matrix(gt, anchors)),
    ("ps", ps_matrix(gt, anchors, norm)),
):
    res = assign(matrix, thr)
    positives = int(np.count_nonzero(res.labels == POSITIVE))
    print(
        f"{name:3s}: best score {float(matrix.max()):.4f}, "
        f"positives for the small gt: {positives}"
    )
# IoU tops out near zero here (a 12px box inside a 256px anchor), so the
# object gets nothing. The pairwise metric still ranks the anchor sitting
# on top of the object highest and the rescue floor lets it through.
