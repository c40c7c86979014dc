"""Byte identity of the CLI's output on the committed corpus."""

import json

from identity_corpus import JSON_PATH, compute


def test_every_case_is_byte_identical():
    """Every case of ``identity_corpus.py`` gives the digest committed
    in ``identity_corpus.json``; a failure names each case that changed,
    appeared or went missing."""
    with open(JSON_PATH, encoding="utf-8") as fh:
        want = json.load(fh)["cases"]
    got = compute()
    changed = [name for name in want if name in got and got[name] != want[name]]
    missing = [name for name in want if name not in got]
    new = [name for name in got if name not in want]
    assert not (changed or missing or new), \
        f"changed: {changed}; missing: {missing}; new: {new}"
    assert len(got) == 7578
