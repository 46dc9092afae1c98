"""Generate docs/api.md from the public API's docstrings.

Usage:  python tools/gen_api_docs.py > docs/api.md

Adding a public package means adding it to ``API_DOC_PACKAGES`` below.
"""

from __future__ import annotations

import importlib
import inspect
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

#: Public packages rendered into ``docs/api.md``.
API_DOC_PACKAGES = (
    "repro.core",
    "repro.cluster",
    "repro.metrics",
    "repro.data",
    "repro.originalspace",
    "repro.transform",
    "repro.subspace",
    "repro.multiview",
    "repro.experiments",
    "repro.io",
    "repro.utils",
    "repro.lint",
    "repro.serve",
)


def first_paragraph(doc):
    """First docstring paragraph, normalised to one line per sentence."""
    if not doc:
        return "(undocumented)"
    para = doc.strip().split("\n\n")[0]
    return " ".join(line.strip() for line in para.splitlines())


def signature_of(obj):
    """``inspect.signature`` text, with function defaults shown without
    their memory address so the output is the same on every run."""
    try:
        return re.sub(r" at 0x[0-9a-f]+>", ">", str(inspect.signature(obj)))
    except (TypeError, ValueError):
        return "(...)"


def document_package(name, out):
    module = importlib.import_module(name)
    out.append(f"## `{name}`\n")
    out.append(first_paragraph(module.__doc__) + "\n")
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in dir(module) if not n.startswith("_")]
    classes, functions = [], []
    for attr in names:
        obj = getattr(module, attr, None)
        if obj is None or inspect.ismodule(obj):
            continue
        if inspect.isclass(obj):
            classes.append((attr, obj))
        elif callable(obj):
            functions.append((attr, obj))
    if classes:
        out.append("### Classes\n")
        for attr, obj in classes:
            out.append(f"#### `{attr}{signature_of(obj)}`\n")
            out.append(first_paragraph(obj.__doc__) + "\n")
            methods = [
                (m, fn) for m, fn in inspect.getmembers(obj, callable)
                if not m.startswith("_")
                and m in obj.__dict__
                and fn.__doc__
            ]
            for m, fn in methods:
                out.append(f"- `{m}{signature_of(fn)}` — "
                           f"{first_paragraph(fn.__doc__)}")
            if methods:
                out.append("")
    if functions:
        out.append("### Functions\n")
        for attr, obj in functions:
            out.append(f"- `{attr}{signature_of(obj)}` — "
                       f"{first_paragraph(obj.__doc__)}")
        out.append("")
    out.append("")


def main():
    out = [
        "# API reference",
        "",
        "Generated from docstrings by `python tools/gen_api_docs.py`.",
        "First paragraph of each public item; see the source for the",
        "full parameter/attribute documentation.",
        "",
    ]
    for name in API_DOC_PACKAGES:
        document_package(name, out)
    sys.stdout.write("\n".join(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
