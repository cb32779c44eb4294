"""The package namespace: what `from neutral_lab import *` binds, and what using it loads."""

import subprocess
import sys

import neutral_lab


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from neutral_lab import *", namespace)
    missing = [name for name in neutral_lab.__all__ if name not in namespace]
    assert missing == []
    assert len(set(neutral_lab.__all__)) == len(neutral_lab.__all__)
    assert [name for name in neutral_lab.__all__ if name.startswith("_")] == []


def test_package_use_loads_no_scipy():
    # scipy.linalg and scipy.sparse.linalg each add tens of MB of resident memory; the
    # solves use numpy's LU, QR and FFT, so only the shape search's optimizer loads scipy.
    # The 512-node report runs several GMRES steps per axis through the factored blocks
    code = (
        "import sys, neutral_lab as nl\n"
        "inc = nl.laurent_domain(nl.LaurentMap({1: 1, -1: 0.2, 2: 0.1, -2: 0.05}, 1.5))\n"
        "nl.neutrality_report(inc, nl.ConductivityProfile(5.0, 1.0, (2.0, 3.0)), n=512)\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
