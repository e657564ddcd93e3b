"""The frozen CSV hashes hold on numpy's baseline float64 ``log1p`` kernel too, not only on its X86_V4 one.

Every exponential is numpy's ``log1p`` ufunc, which numpy dispatches at run
time to the best SIMD kernel the CPU offers; the X86_V4 (AVX-512) kernel and
the baseline one round some values differently in the last bit.  This reruns
``tests/test_frozen_csv.py`` in a child process started with
``NPY_DISABLE_CPU_FEATURES=X86_V4``, which numpy reads at import, so the
child draws on the baseline kernel.  The variable is set for the child alone.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
FROZEN = ROOT / "tests" / "test_frozen_csv.py"
KERNEL = "import numpy as np; print(np.lib.introspect.opt_func_info(func_name='log1p', signature='float64'))"


def _offers_both_kernels() -> bool:
    """Whether numpy offers this CPU both an X86_V4 and a baseline float64 ``log1p`` kernel."""
    introspect = getattr(np.lib, "introspect", None)
    if introspect is None:
        return False
    info = introspect.opt_func_info(func_name="log1p", signature="float64")
    available = " ".join(target["available"] for sig in info.values() for target in sig.values())
    return "X86_V4" in available and "baseline" in available


@pytest.mark.skipif(not _offers_both_kernels(), reason="numpy offers no X86_V4 and baseline log1p kernels here")
def test_frozen_hashes_hold_on_the_baseline_log1p_kernel():
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": "X86_V4"}
    kernel = subprocess.run([sys.executable, "-c", KERNEL], env=env, capture_output=True, text=True, check=True)
    assert "'current': 'X86_V4'" not in kernel.stdout, kernel.stdout  # the child runs another kernel
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(FROZEN)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-2000:]
