"""Every audited run writes the bytes that golden/manifest.json pins."""

import json

from golden import MANIFEST, versions, write_runs


def test_report_bytes_match_manifest(tmp_path):
    manifest = json.loads(MANIFEST.read_text())
    pinned = {key: manifest[key] for key in versions()}
    assert pinned == versions(), (
        f"the manifest pins {pinned} but this run has {versions()}: "
        "its hashes hold only under the versions that wrote them")
    expected, actual = manifest["files"], write_runs(tmp_path)
    differ = sorted(k for k in expected.keys() & actual.keys() if expected[k] != actual[k])
    missing = sorted(expected.keys() - actual.keys())
    extra = sorted(actual.keys() - expected.keys())
    assert not (differ or missing or extra), (
        f"differ: {differ}; missing: {missing}; extra: {extra}")
