import re

from conftest import REPO_ROOT


def test_readme_library_snippet_runs(capsys):
    # the first python block under "## Library" uses the public API only
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    library = readme[readme.index("\n## Library\n") :]
    snippet = re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)
    exec(compile(snippet, "README.md", "exec"), {})
    assert capsys.readouterr().out.split() == ["4", "4"]
