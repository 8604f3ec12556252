"""Annotation ingestion, validation errors, and content hashing."""

import hashlib
import json
import logging
import math

import pytest

from smalldet import DatasetError, dataset_hash, load_coco


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def minimal_payload():
    return {
        "images": [{"id": 1, "width": 640, "height": 480}],
        "annotations": [
            {"id": 10, "image_id": 1, "bbox": [8, 8, 4, 4], "category_id": 3, "iscrowd": 0}
        ],
    }


def test_load_minimal_file(tmp_path):
    index = load_coco(write_json(tmp_path / "ann.json", minimal_payload()))
    assert index.num_images == 1
    assert index.num_gts == 1
    assert index.image_ids.tolist() == [1]
    assert index.sizes.tolist() == [[640.0, 480.0]]
    assert index.gt_start.tolist() == [0, 1]
    assert index.boxes.tolist() == [[10.0, 10.0, 4.0, 4.0]]
    assert index.category_ids.tolist() == [3]
    assert index.iscrowd.tolist() == [False]


def test_load_empty_annotations(tmp_path):
    payload = minimal_payload()
    payload["annotations"] = []
    index = load_coco(write_json(tmp_path / "ann.json", payload))
    assert index.num_images == 1
    assert index.num_gts == 0


def test_defaults_for_optional_fields(tmp_path):
    payload = minimal_payload()
    del payload["annotations"][0]["category_id"]
    del payload["annotations"][0]["iscrowd"]
    index = load_coco(write_json(tmp_path / "ann.json", payload))
    assert index.category_ids.tolist() == [0]
    assert index.iscrowd.tolist() == [False]


def test_unknown_image_id_names_the_id(tmp_path):
    payload = minimal_payload()
    payload["annotations"][0]["image_id"] = 99
    with pytest.raises(DatasetError, match="99"):
        load_coco(write_json(tmp_path / "ann.json", payload))


def test_unreadable_and_malformed_files(tmp_path):
    with pytest.raises(DatasetError):
        load_coco(tmp_path / "does-not-exist.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{nope", encoding="utf-8")
    with pytest.raises(DatasetError):
        load_coco(bad)
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"images": [], "annotations": [], "note": "caf\xe9"}')
    with pytest.raises(DatasetError, match="latin.json"):
        load_coco(latin)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda p: p.pop("images"),
        lambda p: p["images"].append({"id": 1, "width": 10, "height": 10}),
        lambda p: p["images"][0].update(width=0),
        lambda p: p["images"][0].pop("id"),
        lambda p: (p["images"][0].update(id=2**63), p["annotations"][0].update(image_id=2**63)),
        lambda p: p["annotations"][0].update(bbox=[1, 2, 3]),
        lambda p: p["annotations"][0].update(bbox=[1, 2, float("nan"), 4]),
        lambda p: p["annotations"][0].pop("bbox"),
    ],
)
def test_structural_errors(tmp_path, mutate):
    payload = minimal_payload()
    mutate(payload)
    with pytest.raises(DatasetError):
        load_coco(write_json(tmp_path / "ann.json", payload))


def test_zero_size_annotations_dropped_and_logged(tmp_path, caplog):
    payload = minimal_payload()
    payload["annotations"].append({"id": 11, "image_id": 1, "bbox": [0, 0, 0, 5]})
    payload["annotations"].append({"id": 12, "image_id": 1, "bbox": [0, 0, 5, 0]})
    with caplog.at_level(logging.INFO, logger="smalldet.dataset"):
        index = load_coco(write_json(tmp_path / "ann.json", payload))
    assert index.num_gts == 1
    assert any("dropped 2" in message for message in caplog.messages)


def test_overflowing_center_names_its_record(tmp_path):
    # The center is computed for the kept rows in one step; the record it
    # names counts the dropped zero-size annotations before it.
    payload = minimal_payload()
    payload["annotations"] = [
        {"id": 1, "image_id": 1, "bbox": [0, 0, 0, 5]},
        {"id": 2, "image_id": 1, "bbox": [0, 0, 4, 4]},
        {"id": 3, "image_id": 1, "bbox": [0, 0, 5, 0]},
        {"id": 4, "image_id": 1, "bbox": [1.7e308, 0, 1.7e308, 4]},
    ]
    with pytest.raises(DatasetError, match=r"annotations\[3\] has an invalid bbox"):
        load_coco(write_json(tmp_path / "ann.json", payload))


def test_ids_at_the_int64_bounds_load(tmp_path):
    payload = minimal_payload()
    payload["images"][0]["id"] = payload["annotations"][0]["image_id"] = 2**63 - 1
    payload["annotations"][0]["category_id"] = -(2**63)
    index = load_coco(write_json(tmp_path / "ann.json", payload))
    assert index.image_ids.tolist() == [2**63 - 1]
    assert index.category_ids.tolist() == [-(2**63)]


@pytest.mark.parametrize(
    "mutate, field",
    [
        (lambda p: p["images"][0].update(id=10**4000), "'id'"),
        (lambda p: p["images"][0].update(width=10**4000), "'width'"),
        (lambda p: p["annotations"][0].update(category_id=-(10**4000)), "'category_id'"),
        (lambda p: p["annotations"][0].update(iscrowd=10**4000), "'iscrowd'"),
        (lambda p: p["annotations"][0].update(bbox=[10**4000, 0, 4]), "bbox"),
    ],
    ids=["id", "width", "category_id", "iscrowd", "bbox"],
)
def test_a_long_int_is_shown_in_a_bounded_message(tmp_path, mutate, field):
    # A 4,000-digit int decodes (under the 4,300-digit limit), so the
    # record check rejects it and shows it in at most 40 characters.
    payload = minimal_payload()
    mutate(payload)
    with pytest.raises(DatasetError, match=field) as info:
        load_coco(write_json(tmp_path / "ann.json", payload))
    assert len(str(info.value)) < 200 + len(str(tmp_path))


def test_dataset_hash_is_blake2b_of_canonical_records(tmp_path):
    payload = {
        "images": [
            {"id": 2, "width": 100, "height": 100},
            {"id": 1, "width": 50, "height": 60},
        ],
        "annotations": [{"id": 1, "image_id": 1, "bbox": [2, 2, 6, 6], "category_id": 7}],
    }
    index = load_coco(write_json(tmp_path / "a.json", payload))
    # One record per image in id order, each followed by its annotations.
    records = b"I|1|50.0|60.0\nA|5.0|5.0|6.0|6.0|7|0\nI|2|100.0|100.0\n"
    assert dataset_hash(index) == hashlib.blake2b(records, digest_size=8).hexdigest()
    assert dataset_hash(load_coco(write_json(tmp_path / "a.json", payload))) == dataset_hash(index)

    payload["images"].reverse()
    assert dataset_hash(load_coco(write_json(tmp_path / "b.json", payload))) == dataset_hash(index)

    # One float moved by one ulp changes the fingerprint.
    payload["images"][0]["width"] = math.nextafter(50.0, math.inf)
    assert dataset_hash(load_coco(write_json(tmp_path / "c.json", payload))) != dataset_hash(index)


def test_dataset_hash_canonicalizes_order(tmp_path):
    payload = {
        "images": [
            {"id": 2, "width": 100, "height": 100},
            {"id": 1, "width": 50, "height": 60},
        ],
        "annotations": [
            {"id": 1, "image_id": 2, "bbox": [1, 1, 4, 4]},
            {"id": 2, "image_id": 1, "bbox": [2, 2, 6, 6]},
        ],
    }
    forward = load_coco(write_json(tmp_path / "a.json", payload))
    payload["images"].reverse()
    payload["annotations"].reverse()
    reordered = load_coco(write_json(tmp_path / "b.json", payload))
    assert dataset_hash(forward) == dataset_hash(reordered)

    payload["annotations"][0]["bbox"] = [1, 1, 4, 5]
    changed = load_coco(write_json(tmp_path / "c.json", payload))
    assert dataset_hash(changed) != dataset_hash(forward)
    assert len(dataset_hash(forward)) == 16


def test_iscrowd_takes_0_1_false_and_true(tmp_path):
    payload = minimal_payload()
    first = payload["annotations"][0]
    payload["annotations"] = [dict(first, iscrowd=flag) for flag in (0, 1, False, True)]
    index = load_coco(write_json(tmp_path / "ann.json", payload))
    assert index.iscrowd.tolist() == [False, True, False, True]
