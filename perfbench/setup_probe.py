"""Set-up probe, run in a fresh interpreter by run.py.

Times `import lorentzlab` plus construction and Scenario.validate() of every
built-in scenario, in reference seconds (see clock.py), and prints one JSON
line with the time, the file the package was imported from and the library
versions.
"""

import json
import os
import sys
from time import thread_time

t0 = thread_time()
import clock  # noqa: E402  (imports numpy, which lorentzlab imports too)

clk = clock.Clock().start()
import lorentzlab  # noqa: E402
from lorentzlab import scenarios  # noqa: E402

for factory in scenarios.BUILTIN_SCENARIOS.values():
    factory().validate()
clk.stop()
setup_s = (clk.cpu() - t0) * clk.factor()

import numpy  # noqa: E402
import scipy  # noqa: E402

print(json.dumps({
    "setup_s": setup_s,
    "lorentzlab_file": os.path.realpath(lorentzlab.__file__),
    "python": sys.version.split()[0],
    "numpy": numpy.__version__,
    "scipy": scipy.__version__,
}))
