"""The README's names for package code resolve."""

import importlib
import pathlib
import re

README = pathlib.Path(__file__).parent.parent / "README.md"


def test_every_module_name_in_the_readme_resolves():
    # each `module.name` the README cites, e.g. `specfun.log_tau_form(...)`
    cited = sorted(set(re.findall(r"`([a-z_]+)\.([A-Za-z_]\w*)", README.read_text())))
    assert cited, "the README cites no `module.name`"
    missing = [f"{mod}.{name}" for mod, name in cited
               if not hasattr(importlib.import_module(f"ginibre_overlaps.{mod}"), name)]
    assert missing == []
