"""Documentation rot protection.

DESIGN.md's inventory and experiment index point at modules and benchmark
files; EXPERIMENTS.md embeds exhibit files; docs/*.md cite the tests that
prove their claims and, like README.md and DESIGN.md, name the classes'
attributes.  These tests keep those references real, so the
documentation cannot silently drift from the code.
"""

import ast
import glob
import importlib
import inspect
import os
import pkgutil
import re

import pytest

import repro

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def read(name):
    with open(os.path.join(ROOT, name), encoding="utf-8") as stream:
        return stream.read()


class TestDesignDocument:
    def test_every_referenced_benchmark_file_exists(self):
        text = read("DESIGN.md")
        for match in set(re.findall(r"benchmarks/\w+\.py", text)):
            assert os.path.exists(
                os.path.join(ROOT, match)
            ), f"DESIGN.md references missing {match}"

    def test_every_referenced_test_file_exists(self):
        text = read("DESIGN.md")
        for match in set(re.findall(r"tests/[\w/]+\.py", text)):
            assert os.path.exists(
                os.path.join(ROOT, match)
            ), f"DESIGN.md references missing {match}"

    def test_every_referenced_module_imports(self):
        text = read("DESIGN.md")
        for match in set(re.findall(r"`(repro\.[\w.]+)`", text)):
            importlib.import_module(match)

    def test_paper_check_is_recorded(self):
        assert "Paper check" in read("DESIGN.md")


class TestExperimentsDocument:
    def test_covers_every_paper_exhibit(self):
        text = read("EXPERIMENTS.md")
        for exhibit in (
            "Figure 5",
            "Figure 6",
            "Figure 7",
            "Figure 8",
            "Table 2",
            "Table 3",
            "Table 4",
        ):
            assert exhibit in text, f"EXPERIMENTS.md missing {exhibit}"

    def test_no_pending_exhibits(self):
        """Every simulation-backed exhibit was actually generated."""
        assert "to produce" not in read("EXPERIMENTS.md")

    def test_discrepancy_discussion_present(self):
        # The honest part: Table 2's mismatch is documented, not hidden.
        text = read("EXPERIMENTS.md")
        assert "Discussion" in text
        assert "mismatch" in text


class TestReadme:
    def test_quickstart_code_runs(self):
        """The README's quickstart snippet must execute as printed."""
        text = read("README.md")
        match = re.search(r"```python\n(.*?)```", text, re.S)
        assert match, "README lost its quickstart snippet"
        namespace: dict = {}
        exec(match.group(1), namespace)  # noqa: S102

    @pytest.mark.parametrize(
        "path",
        ["DESIGN.md", "EXPERIMENTS.md", "docs/PROTOCOL.md",
         "docs/NETWORK.md", "docs/WORKLOADS.md", "LICENSE",
         "CITATION.cff"],
    )
    def test_documents_exist(self, path):
        assert os.path.exists(os.path.join(ROOT, path))

    def test_examples_listed_in_readme_exist(self):
        text = read("README.md")
        for match in set(re.findall(r"examples/\w+\.py", text)):
            assert os.path.exists(os.path.join(ROOT, match))


#: A test file, optionally ``::``-qualified, or a bare ``::`` chain right
#: after a backtick or an ellipsis, which names a test in the file cited
#: last before it.  A parametrised id (``[...]``) is not part of the match.
CITATION = re.compile(r"(tests/[\w/]+\.py|(?<=[`\u2026])(?=::))((?:::\w+)*)")


def _citations():
    """``(document, file, names, relative)`` for every test citation in
    docs/*.md, in order of appearance."""
    found = []
    for document in sorted(glob.glob(os.path.join(ROOT, "docs", "*.md"))):
        with open(document, encoding="utf-8") as stream:
            text = stream.read()
        cited = None
        for match in CITATION.finditer(text):
            relative = not match.group(1)
            if not relative:
                cited = match.group(1)
            names = match.group(2).split("::")[1:]
            if cited is not None:
                found.append(
                    (os.path.basename(document), cited, names, relative)
                )
    return found


def _defines(node, names, anywhere):
    """Whether ``node`` defines the ``names`` chain: the first at its top
    level (or at any depth, if ``anywhere``), each next inside the last."""
    scope = ast.walk(node) if anywhere else ast.iter_child_nodes(node)
    return any(
        isinstance(child, (ast.ClassDef, ast.FunctionDef))
        and child.name == names[0]
        and (len(names) == 1 or _defines(child, names[1:], False))
        for child in scope
    )


class TestDocsCiteRealTests:
    def test_every_cited_test_file_exists(self):
        citations = _citations()
        assert citations, "the citation pattern no longer matches"
        missing = sorted(
            {
                f"{document}: {cited}"
                for document, cited, _, _ in citations
                if not os.path.exists(os.path.join(ROOT, cited))
            }
        )
        assert not missing, missing

    def test_every_cited_test_exists(self):
        missing = []
        qualified = [citation for citation in _citations() if citation[2]]
        assert qualified, "no ::-qualified citation found"
        for document, cited, names, relative in qualified:
            path = os.path.join(ROOT, cited)
            if not os.path.exists(path):
                continue  # reported by the file test
            with open(path, encoding="utf-8") as stream:
                tree = ast.parse(stream.read())
            if not _defines(tree, names, relative):
                missing.append(f"{document}: {cited}::{'::'.join(names)}")
        assert not missing, missing


#: ```Class.attr``` or ```Class.attr()```, whole inside one pair of backticks.
ATTRIBUTE = re.compile(r"`([A-Z]\w*)\.(\w+)(?:\(\))?`")


def _repro_classes():
    """Every class defined in a ``repro`` module, by name."""
    classes = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith(".__main__"):
            continue  # runs the CLI
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if inspect.isclass(obj) and obj.__module__ == info.name:
                classes.setdefault(obj.__name__, []).append(obj)
    return classes


def _assigned_on_self(cls):
    """The names ``self.name = ...`` binds in ``cls`` or a ``repro`` base."""
    names = set()
    for klass in cls.__mro__:
        if not klass.__module__.startswith("repro."):
            continue
        for node in ast.walk(ast.parse(inspect.getsource(klass))):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            else:
                continue
            names.update(
                target.attr
                for target in targets
                if isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            )
    return names


def _resolves(cls, attr):
    """A class attribute (method, slot, enum member), a dataclass field,
    or an attribute an instance method assigns."""
    return (
        hasattr(cls, attr)
        or attr in getattr(cls, "__dataclass_fields__", {})
        or attr in _assigned_on_self(cls)
    )


class TestDocsNameRealAttributes:
    def test_every_named_class_attribute_exists(self):
        classes = _repro_classes()
        documents = sorted(glob.glob(os.path.join(ROOT, "docs", "*.md")))
        documents += [os.path.join(ROOT, "README.md")]
        documents += [os.path.join(ROOT, "DESIGN.md")]
        named = set()
        for document in documents:
            with open(document, encoding="utf-8") as stream:
                for match in ATTRIBUTE.finditer(stream.read()):
                    if match.group(1) in classes:
                        named.add(
                            (os.path.basename(document), *match.groups())
                        )
        assert named, "the attribute pattern no longer matches"
        missing = sorted(
            f"{document}: {name}.{attr}"
            for document, name, attr in named
            if not any(_resolves(cls, attr) for cls in classes[name])
        )
        assert not missing, missing
