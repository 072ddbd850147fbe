import builtins
import importlib
import pkgutil
import re

from conftest import REPO_ROOT

import hexchan


def library_section():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    start = readme.index("\n## Library\n")
    return readme[start : readme.index("\n## ", start + 1)]


def test_readme_library_snippet_runs(capsys):
    # the first python block under "## Library" uses the public API only
    snippet = re.search(r"```python\n(.*?)```", library_section(), re.DOTALL).group(1)
    exec(compile(snippet, "README.md", "exec"), {})
    assert capsys.readouterr().out.split() == ["4", "4"]


def test_readme_library_calls_name_existing_functions():
    # Every `name(` call in inline code under "## Library" names an attribute
    # of hexchan, of one of its modules or of a class in them; a dotted call
    # such as `lattice.require()` goes by its last name.  Builtins
    # such as `len()` are excepted.
    modules = [hexchan] + [importlib.import_module(f"hexchan.{m.name}") for m in pkgutil.iter_modules(hexchan.__path__)]
    known = set(dir(builtins))
    for module in modules:
        for name in dir(module):
            known.add(name)
            value = getattr(module, name)
            if isinstance(value, type):
                known.update(dir(value))
    text = re.sub(r"```.*?```", "", library_section(), flags=re.DOTALL)
    calls = [call for span in re.findall(r"`([^`]+)`", text) for call in re.findall(r"([A-Za-z_][\w.]*)\(", span)]
    assert "allocate_static" in calls
    assert [call for call in calls if call.rpartition(".")[2] not in known] == []
