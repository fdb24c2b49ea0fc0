"""Every function the traced benchmark wraps still exists under its name.

``perfbench/layers.py`` names its boundaries as strings (``module`` and
``attr``, or ``Cls.method``), and a traced run crashes when one no longer
resolves. The file is read as text, not imported, so this test needs
nothing from the benchmark package.
"""

import ast
import importlib
import inspect
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def boundaries():
    """(module, attr) of each ``Boundary(...)`` in ``BOUNDARIES``."""
    tree = ast.parse(LAYERS.read_text(encoding="utf-8"))
    for node in tree.body:
        names = [getattr(t, "id", None)
                 for t in getattr(node, "targets", ())]
        if names == ["BOUNDARIES"]:
            return [(ast.literal_eval(call.args[1]),
                     ast.literal_eval(call.args[2]))
                    for call in node.value.elts]
    raise AssertionError(f"no BOUNDARIES in {LAYERS}")


def test_every_boundary_resolves():
    found = boundaries()
    assert ("dagiso.fields", "_det_mod") in found
    assert ("dagiso.randomized", "_lands_on") in found
    for module_name, attr in found:
        module = importlib.import_module(module_name)
        if "." in attr:  # Cls.method, looked up in the class itself
            cls_name, method = attr.split(".")
            fn = getattr(module, cls_name).__dict__.get(method)
        else:
            fn = getattr(module, attr, None)
        assert callable(fn), (module_name, attr)


def test_det_mod_takes_the_row_indices_first():
    # the traced run reads len(args[0]) of _det_mod as the minor's order
    # (fields.det_order_mean)
    from dagiso.fields import _det_mod
    assert next(iter(inspect.signature(_det_mod).parameters)) == "rows"
    mat = [[1, 2], [3, 4]]
    assert _det_mod([1], [0], mat, [0, 1], 7) == 3  # row 1, column 0
