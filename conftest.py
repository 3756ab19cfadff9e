"""Load every local module the suite imports before any test is collected.

Hypothesis mixes literals of the loaded local modules (those outside the
test directories) into its draws, so a test's ``@seed`` draws the same
examples only when the same modules are loaded.  Importing all of them
here makes the draws independent of which test files are collected: the
package, and the benchmark modules that ``bench/test_bench.py`` imports
(the worker and ``tools/`` run only in subprocesses).
"""

import sys
from pathlib import Path

import lipselect.cli  # noqa: F401  (imports every module of the package)

sys.path.insert(0, str(Path(__file__).parent / "bench"))
import run  # noqa: E402,F401  (imports checks, tracing and workloads)
