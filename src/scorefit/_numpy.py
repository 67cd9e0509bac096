"""numpy, loaded the first time one of its attributes is read.

``closed-form`` uses ``math`` only, so a process that runs it never pays for
importing numpy.  Every module takes numpy from here (``from ._numpy import
np``): an ``import numpy`` statement would load it at once.  A numpy that is
already imported is used as it is; one that is not installed fails the import
of scorefit, as an eager import would.
"""

import importlib.util
import sys

np = sys.modules.get("numpy")
if np is None:
    _spec = importlib.util.find_spec("numpy")
    if _spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    # The lazy-import recipe of the importlib documentation.
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    np = sys.modules["numpy"] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(np)
