"""README.md and FORMAT.md name only what the package defines.

A backticked ``module.name`` whose first part is ``opetopes``, a module
of the package or a name the package exports is a citation, and it must
resolve: each part an attribute of the one before, read from the
package down, importing a submodule where one is named.  Spans naming
other modules (``json.dumps``, ``typing.NamedTuple``) and file names
(``osets.py``) are no citations.
"""

import importlib
import re
import types
from pathlib import Path

import pytest

import opetopes

ROOT = Path(__file__).resolve().parent.parent
MODULES = {path.stem for path in (ROOT / "src" / "opetopes").glob("*.py")}
FENCE = re.compile(r"```.*?```", re.S)
SPAN = re.compile(r"`([^`]+)`")
DOTTED = re.compile(r"(?<![\w./])[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+")


def citations(text):
    """The dotted names the inline code spans of ``text`` cite from the
    package, as paths from the package down."""
    for span in SPAN.findall(FENCE.sub("", text)):
        for dotted in DOTTED.findall(span):
            parts = dotted.split(".")
            if parts[-1] == "py":
                continue
            if parts[0] == "opetopes":
                yield ".".join(parts[1:])
            elif parts[0] in MODULES or hasattr(opetopes, parts[0]):
                yield dotted


def resolves(path):
    target = opetopes
    for part in path.split("."):
        if not hasattr(target, part) and isinstance(target, types.ModuleType):
            try:
                importlib.import_module("%s.%s" % (target.__name__, part))
            except ImportError:
                return False
        if not hasattr(target, part):
            return False
        target = getattr(target, part)
    return True


@pytest.mark.parametrize("doc", ["README.md", "FORMAT.md"])
def test_the_docs_cite_only_names_that_exist(doc):
    cited = sorted(set(citations((ROOT / doc).read_text(encoding="utf-8"))))
    assert cited
    assert [name for name in cited if not resolves(name)] == []


def test_a_stale_citation_is_caught():
    text = (
        "`universality.ray_on_output_shape(base, mirrored)` and `opetopes.slices.substitute`,"
        " beside `json.dumps`, `osets.py`, `tests/reference_configs.py` and `osets.cells_with`"
    )
    cited = list(citations(text))
    assert cited == ["universality.ray_on_output_shape", "slices.substitute", "osets.cells_with"]
    assert [resolves(name) for name in cited] == [False, False, True]
