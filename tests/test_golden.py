"""Pinned CSV bytes of the commands whose output does not depend on the CPU.

Each command runs in-process through airfl.cli.main at a small size and
every CSV it writes must have the sha1 recorded here.  A refactor that
claims "same CSV bytes" is then checked by this test instead of by hand.
The values hold only under the numpy version they were recorded with, since
numpy does not keep Generator streams stable across releases (NEP 19); no
pinned CSV depends on scipy.  They also hold only under the stream layout
they were drawn in (config.STREAM_LAYOUT): verify-xi's and verify-pdf's
were recorded under layout 3, which keys their samples by block, and
verify-divergence's under layout 2, whose divergence keys layout 3 keeps.
None depends on --jobs.  Training
CSVs are left out, since their bytes follow the CPU's BLAS kernels and
numpy's SIMD dispatch of exp.
"""

import contextlib
import hashlib
import io

import numpy as np
import pytest

from airfl.cli import main

RECORDED_NUMPY = "2.4.6"

pytestmark = pytest.mark.skipif(
    np.__version__ != RECORDED_NUMPY,
    reason=f"sha1s recorded under numpy {RECORDED_NUMPY}, running numpy {np.__version__}",
)

# (argv, config lines, CSV name -> sha1)
GOLDEN = {
    "verify-xi": (
        ["verify-xi", "--trials", "100000"],
        "",
        {"verify_xi.csv": "f68e0839a180e259cd3ddfab18d5dc2b59414c35"},
    ),
    "verify-pdf": (
        ["verify-pdf", "--trials", "1000000"],
        "",
        {"verify_pdf.csv": "cc8c9756ec8577346017733380ba33641e911d07"},
    ),
    "verify-divergence": (
        ["verify-divergence", "--trials", "1000", "--jobs", "1"],
        "verify_divergence.scan_trials = 1000\n",
        {
            "verify_divergence.csv": "4c3f388db0e10f2ab7f683096f64f25d961f974b",
            "verify_divergence_kscan.csv": "0185d876b22e464e599229a01a7b578158544f71",
        },
    ),
    "optimize-threshold": (
        ["optimize-threshold"],
        "",
        {"optimize_threshold.csv": "e0dea36f47821d3a02da4b5d11d4a9fa84545d1c"},
    ),
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_csv_bytes_match_the_pinned_sha1(command, tmp_path):
    argv, config, expected = GOLDEN[command]
    argv = argv + ["--out", str(tmp_path / "out")]
    if config:
        (tmp_path / "run.cfg").write_text(config)
        argv += ["--config", str(tmp_path / "run.cfg")]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    written = {p.name: hashlib.sha1(p.read_bytes()).hexdigest() for p in (tmp_path / "out").glob("*.csv")}
    assert written == expected
