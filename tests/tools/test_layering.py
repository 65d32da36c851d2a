#!/usr/bin/env python3
"""Pins the layer order of src/: each directory includes only the layers
below it.

Run directly (python3 tests/tools/test_layering.py) or through ctest
(layering_test). The paper's per-window engine is core/ on sequential/, on
matching/ and matroid/, on metric/ and common/. serving/ and the experiment
harness (stream/, datasets/) are two separate consumers of that engine, so
neither may include the other.

The check fails on any `#include "<dir>/..."` in src/<layer>/ whose <dir>
is neither the layer itself nor one the table below lets it include, and on
any src/ directory the table does not list.
"""

import os
import re
import tempfile
import unittest

TESTS_TOOLS_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(TESTS_TOOLS_DIR))

# Each layer and the layers it builds on directly; a layer may also include
# everything those include (see allowed_includes).
LAYERS = {
    "common": (),
    "metric": ("common",),
    "matroid": ("common", "metric"),
    "matching": ("matroid",),
    "sequential": ("matching",),
    "core": ("sequential",),
    "serving": ("core",),
    "stream": ("core",),
    "datasets": ("stream",),
}

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"/]+)/', re.MULTILINE)


def allowed_includes(layers=LAYERS):
    """{layer: set of layers it may include}, the transitive closure of the
    direct table (the layer itself is always allowed)."""
    allowed = {}

    def visit(layer):
        if layer not in allowed:
            below = {layer}
            for dep in layers[layer]:
                below |= visit(dep)
            allowed[layer] = below
        return allowed[layer]

    for layer in layers:
        visit(layer)
    return allowed


def violations(src_dir, layers=LAYERS):
    """Every breach of the table under `src_dir`, as readable strings."""
    allowed = allowed_includes(layers)
    found = []
    for layer in sorted(os.listdir(src_dir)):
        layer_dir = os.path.join(src_dir, layer)
        if not os.path.isdir(layer_dir):
            continue
        if layer not in layers:
            found.append(f"src/{layer}/ is not in the layer table")
            continue
        for root, _, files in os.walk(layer_dir):
            for name in sorted(files):
                if not name.endswith((".h", ".cc")):
                    continue
                path = os.path.join(root, name)
                with open(path, encoding="utf-8") as f:
                    text = f.read()
                for match in INCLUDE_RE.finditer(text):
                    target = match.group(1)
                    if target not in allowed[layer]:
                        line = text.count("\n", 0, match.start()) + 1
                        rel = os.path.relpath(path, src_dir)
                        found.append(
                            f"src/{rel}:{line}: {layer}/ may not include "
                            f"{target}/")
    return found


class LayerTableTest(unittest.TestCase):
    def test_closure_follows_the_table(self):
        allowed = allowed_includes()
        self.assertEqual(allowed["common"], {"common"})
        self.assertEqual(allowed["matching"],
                         {"matching", "matroid", "metric", "common"})
        self.assertNotIn("serving", allowed["stream"])
        self.assertNotIn("stream", allowed["serving"])
        self.assertNotIn("matching", allowed["matroid"])
        self.assertIn("core", allowed["datasets"])


class SourceTreeTest(unittest.TestCase):
    def test_src_depends_only_downward(self):
        found = violations(os.path.join(REPO_ROOT, "src"))
        self.assertEqual(found, [], "\n" + "\n".join(found))


class CheckerTest(unittest.TestCase):
    """The checker itself, on hand-built trees."""

    def write(self, root, rel, text):
        path = os.path.join(root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)

    def test_upward_include_is_reported_with_its_line(self):
        with tempfile.TemporaryDirectory() as src:
            self.write(src, "stream/driver.h",
                       '#include <vector>\n#include "core/engine.h"\n'
                       '#include "serving/shard_manager.h"\n')
            self.assertEqual(
                violations(src),
                ["src/stream/driver.h:3: stream/ may not include serving/"])

    def test_nested_directory_belongs_to_its_layer(self):
        with tempfile.TemporaryDirectory() as src:
            self.write(src, "serving/replication/log.cc",
                       '#include "serving/delta_log.h"\n'
                       '#include "datasets/registry.h"\n')
            self.assertEqual(
                violations(src),
                ["src/serving/replication/log.cc:2: serving/ may not "
                 "include datasets/"])

    def test_unlisted_directory_is_reported(self):
        with tempfile.TemporaryDirectory() as src:
            self.write(src, "extras/x.cc", '#include "common/status.h"\n')
            self.assertEqual(violations(src),
                             ["src/extras/ is not in the layer table"])

    def test_include_of_an_unlisted_directory_is_reported(self):
        with tempfile.TemporaryDirectory() as src:
            self.write(src, "core/x.cc", '#include "third_party/lib.h"\n')
            self.assertEqual(
                violations(src),
                ["src/core/x.cc:1: core/ may not include third_party/"])


if __name__ == "__main__":
    unittest.main()
