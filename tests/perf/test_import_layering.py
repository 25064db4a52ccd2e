"""What a validator process loads: the chain side, not the data plane.

``repro.p2p.host`` is everything ``python -m repro.p2p.node_server`` and
E22's validator processes import.  The data plane (analytics, data
management, query, off-chain control, numpy) costs ~0.2 s of start-up and
~14 MB of resident memory per process, and a consensus layer that sits
under the data layer does not need it.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

DATA_PLANE = {"analytics", "datamgmt", "offchain", "parallel", "query", "core", "learning", "analysis"}


def test_a_validator_process_does_not_import_the_data_plane():
    src = str(Path(repro.__file__).resolve().parents[1])
    listing = subprocess.run(
        [sys.executable, "-c", "import repro.p2p.host, sys; print('\\n'.join(sys.modules))"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    ).stdout.split()
    assert "repro.p2p.host" in listing
    assert "numpy" not in listing
    packages = {name.split(".")[1] for name in listing if name.startswith("repro.")}
    assert not packages & DATA_PLANE, sorted(packages & DATA_PLANE)
