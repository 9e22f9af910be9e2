"""Tests that start ``python -m warpcurv.cli`` in a subprocess need the
package under test there too: put its source directory on PYTHONPATH, so
that the suite also runs from a checkout where nothing is installed."""

import os

import warpcurv

SRC = os.path.dirname(os.path.dirname(os.path.abspath(warpcurv.__file__)))
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")]))
