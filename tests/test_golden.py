"""Every audited run writes the bytes that golden/manifest.json pins."""

import json

from golden import MANIFEST, compare, versions, write_runs


def test_report_bytes_match_manifest(tmp_path):
    manifest = json.loads(MANIFEST.read_text())
    pinned = {key: manifest[key] for key in versions()}
    assert pinned == versions(), (
        f"the manifest pins {pinned} but this run has {versions()}: "
        "its hashes hold only under the versions that wrote them")
    moved = compare(manifest["files"], write_runs(tmp_path))
    assert not any(moved.values()), "; ".join(f"{k}: {v}" for k, v in moved.items())
