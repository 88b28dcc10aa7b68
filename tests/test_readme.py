"""README.md is the map from the chain to the code: every module has a row,
every module-qualified name it gives resolves, and it keeps the example
configs that the tier-1 workflow extracts and runs."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest
import yaml

import mpnlsim

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = {m.name for m in pkgutil.iter_modules(mpnlsim.__path__)}


def _lines():
    return README.read_text().splitlines()


def _prose() -> str:
    """README without its fenced blocks."""
    kept, fenced = [], False
    for line in _lines():
        if line.startswith("```"):
            fenced = not fenced
        elif not fenced:
            kept.append(line)
    return "\n".join(kept)


def test_every_module_has_a_row():
    rows = set(re.findall(r"^\| `mpnlsim\.(\w+)` \|", _prose(), re.M))
    assert rows == MODULES


def test_module_qualified_names_resolve():
    names = []
    for span in re.findall(r"`([^`]+)`", _prose()):
        m = re.fullmatch(r"(?:mpnlsim\.)?(\w+)((?:\.\w+)*)", span)
        if not (m and m[1] in MODULES and span != m[1]):
            continue
        obj = importlib.import_module(f"mpnlsim.{m[1]}")
        for attr in m[2].split(".")[1:]:
            assert hasattr(obj, attr), f"README names {span}: no {attr}"
            obj = getattr(obj, attr)
        names.append(span)
    # each module row names its module at least
    assert len(names) >= len(MODULES)


@pytest.mark.parametrize("name", ["sweep", "conn", "bench"])
def test_example_config_is_one_fenced_block(name):
    """The workflow's awk takes the lines from the one starting with
    `# <name>.yaml` up to the next fence, so that line opens a fenced
    block and starts no other line."""
    lines = _lines()
    at = [i for i, line in enumerate(lines)
          if line.startswith(f"# {name}.yaml")]
    assert len(at) == 1 and lines[at[0] - 1].startswith("```")
    end = next(i for i in range(at[0], len(lines))
               if lines[i].startswith("```"))
    assert isinstance(yaml.safe_load("\n".join(lines[at[0]:end])), dict)
