"""numpy, bound lazily: its import runs at the first attribute access.

The closed-form commands (``spectrum``, ``regions`` and ``verify --suite
flat-limit``) quantize and audit levels with ``math`` alone, so a cold
run of them never pays numpy's import. Every other path reaches numpy
through an attribute of ``np`` (``np.asarray``, ``np.linspace``, ...),
which loads it there. For this to hold, no module of the package may
touch ``np`` at import time.

If numpy is already imported, ``np`` is that module. If numpy is not
installed, importing this module raises ModuleNotFoundError, as
``import numpy`` does.

On Python < 3.12 the lazy module's first load takes no lock, so two
threads touching ``np`` at once can both run numpy's import. A threaded
program should import numpy before it starts threads.
"""

import importlib.util
import sys

__all__ = ["np"]


def _lazy_numpy():
    module = sys.modules.get("numpy")
    if module is not None:
        return module
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


np = _lazy_numpy()
