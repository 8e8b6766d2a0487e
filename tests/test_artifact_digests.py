"""sha256 pins of the quick-profile ``train`` and ``aclr`` artifacts.

A change that moves any byte of them fails here, so a shift in the training
or RF numbers is caught and has to be explained before the pins are updated.
"""
import hashlib
from pathlib import Path

from chirpvote import cli

QUICK = Path(__file__).resolve().parents[1] / "scripts" / "profiles" / "quick.json"

DIGESTS = {
    "aclr/aclr_vs_obo.csv": "88eba79a6d85cf78b48b3d6032b0be2d53eb33e662800ede4a59c76e0da6d232",
    "train/loss_by_distance.csv": "360273022fde844b970a42793990bd28301fe6e67bdce4aac26c29290e21e652",
    "train/train_history.csv": "2e45551d405db8dfcab2f401be5ea4f6f912dbefb9c962d45922499e1e225272",
    "train/train_summary.json": "76fa1945201318c4192bffcb5881732a5bb82130c9225b97449e70419a65c34e",
}


def test_quick_profile_artifacts_match_pinned_digests(tmp_path):
    for command in ("train", "aclr"):
        assert cli.main([command, "--config", str(QUICK), "--out", str(tmp_path / command)]) == 0
    digests = {
        path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.rglob("*"))
        if path.is_file()
    }
    assert digests == DIGESTS
