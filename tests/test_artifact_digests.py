"""sha256 pins of the quick-profile artifacts of every study command, of
one dumped chirp and OFDM symbol and of the convergence bound, and of the
symbol synthesis and spectra at an odd M and N != 64.

A change that moves any byte of them fails here, so a shift in the training,
RF or synthesis numbers is caught and has to be explained before the pins
are updated.
"""
import hashlib
import json
from pathlib import Path

from chirpvote import cli

QUICK = Path(__file__).resolve().parents[1] / "scripts" / "profiles" / "quick.json"

#: output directory -> command line (each run with the quick profile)
RUNS = {
    "train": ["train"],
    "aclr": ["aclr"],
    "pmepr": ["pmepr"],
    "cm": ["cm"],
    "coverage": ["coverage"],
    "snr-distance": ["snr-distance"],
    "waveform-csc_mv_2": ["waveform-dump", "--scheme", "csc_mv_2"],
    "waveform-obda": ["waveform-dump", "--scheme", "obda"],
    "bound": ["bound"],
}

DIGESTS = {
    "aclr/aclr_vs_obo.csv": "88eba79a6d85cf78b48b3d6032b0be2d53eb33e662800ede4a59c76e0da6d232",
    "bound/bound.json": "90bc3443d78b1775861f92c8e0c244ad09480016795664af0b569daab601d668",
    "cm/cm_distribution.csv": "19ae3301d0515aa85a0487bf6f12e932c940713e09754701c930d9c5ed53bde1",
    "cm/cm_summary.json": "84ad8fd397fafce34d2ed536c25f31e74d1ad1426b859c82f37f4fbab6cce517",
    "coverage/coverage.csv": "cbe7b594ad3d844f57545891d042cb6bcdbbf258a12cdba77256ccd022b469e8",
    "pmepr/pmepr_distribution.csv": "902bf74dc6aaf078836d753fea38495e4a3244f56d2d2f2f822a158c785eaa1e",
    "pmepr/pmepr_summary.json": "5a916903a9f7ed0fb8845be0407cf2e18ba355c44bdebc30d495982b696fc308",
    "snr-distance/snr_vs_distance.csv": "72b095efa0bd744b4d035cea2f48efd8bb6ac66ede9bcb4018478b1ec60642d3",
    "train/loss_by_distance.csv": "360273022fde844b970a42793990bd28301fe6e67bdce4aac26c29290e21e652",
    "train/train_history.csv": "2e45551d405db8dfcab2f401be5ea4f6f912dbefb9c962d45922499e1e225272",
    "train/train_summary.json": "76fa1945201318c4192bffcb5881732a5bb82130c9225b97449e70419a65c34e",
    "waveform-csc_mv_2/waveform_symbol.csv": "0d3aff782eb567077bf284e92bd3f66eeab3e502754a3538c723705a5dcc3dd0",
    "waveform-obda/waveform_symbol.csv": "3c5054adcc850cc2bc262cc6419b9c87b8d5901c2d98275a5c70a8c2a6b22c01",
}

#: the quick profile at M = 55 occupied subcarriers on a 96-point IDFT
WAVE_96_55 = {"idft_size": 96, "num_bins": 55}

#: output directory -> command line, each run at ``WAVE_96_55``
RUNS_96_55 = {
    "pmepr": ["pmepr"],
    "aclr": ["aclr"],
    "waveform-csc_mv_2": ["waveform-dump", "--scheme", "csc_mv_2"],
    "waveform-obda": ["waveform-dump", "--scheme", "obda"],
}

DIGESTS_96_55 = {
    "aclr/aclr_vs_obo.csv": "96f5d7ee5638d84e1d8c44b89b87f37e4ee4cac0e4bc79810c9cddec6b240ed3",
    "pmepr/pmepr_distribution.csv": "7989d640088106bdf3e6b11c488c5e74d4eaee15bb1af9016c58f0e9ef16d54b",
    "pmepr/pmepr_summary.json": "fdf73aba0933360120e96ca29c9f712630d986aafa64bde57cddec9f12f4634d",
    "waveform-csc_mv_2/waveform_symbol.csv": "44118bd2c48ab9b2f2a0b1ed092f9db04a5ea8b982ed685386e83cb8fd06e001",
    "waveform-obda/waveform_symbol.csv": "f211a65185997782a45cd0b9bb3269a5cdbc08bd99fbf86641fef3d62edaa396",
}


def _run_digests(runs: dict, config: Path, out: Path) -> dict:
    for name, argv in runs.items():
        assert cli.main([*argv, "--config", str(config), "--out", str(out / name)]) == 0
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }


def test_quick_profile_artifacts_match_pinned_digests(tmp_path):
    assert _run_digests(RUNS, QUICK, tmp_path) == DIGESTS


def test_odd_numerology_artifacts_match_pinned_digests(tmp_path):
    profile = json.loads(QUICK.read_text())
    profile["wave"] = WAVE_96_55
    config = tmp_path / "quick_96_55.json"
    config.write_text(json.dumps(profile))
    assert _run_digests(RUNS_96_55, config, tmp_path / "out") == DIGESTS_96_55
