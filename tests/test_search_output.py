"""The checks on a hom search's output raise TableInvalid, also under python -O."""

import os
import subprocess
import sys

import pytest

import algcomplete
from algcomplete import automorphisms, commutators, completeness
from algcomplete.catalog import symmetric
from algcomplete.commutators import find_retraction
from algcomplete.errors import TableInvalid
from algcomplete.groups import Subgroup, subgroup_closure


def test_automorphism_list_must_start_with_the_identity(monkeypatch):
    search = automorphisms.iter_hom_images

    def without_identity(G, *args, **kwargs):
        return (img for img in search(G, *args, **kwargs) if img != tuple(range(G.order)))

    monkeypatch.setattr(automorphisms, "iter_hom_images", without_identity)
    with pytest.raises(TableInvalid, match="identity first"):
        automorphisms.automorphism_group(symmetric(3))


def test_section_must_be_a_section_of_c(monkeypatch):
    monkeypatch.setattr(completeness, "find_constrained_hom",
                        lambda inn, G, **kwargs: [(0,) * inn.order])
    with pytest.raises(TableInvalid, match="not a section of c"):
        completeness.classify_completeness(symmetric(3))


def test_retraction_must_fix_the_embedded_group(monkeypatch):
    monkeypatch.setattr(commutators, "find_constrained_hom",
                        lambda Y, X, *args, **kwargs: [(0,) * Y.order])
    S3 = symmetric(3)
    A3 = Subgroup.create(S3, subgroup_closure(S3, [S3.mul(a, a) for a in range(6)]))
    assert A3.order == 3
    with pytest.raises(TableInvalid, match=r"r\.h != id"):
        find_retraction(A3)


def test_automorphism_check_holds_under_python_O():
    code = "\n".join([
        "from algcomplete import automorphisms",
        "from algcomplete.catalog import alternating",
        "from algcomplete.errors import TableInvalid",
        "search = automorphisms.iter_hom_images",
        "automorphisms.iter_hom_images = lambda G, *a, **k: (",
        "    img for img in search(G, *a, **k) if img != tuple(range(G.order)))",
        "try:",
        "    automorphisms.automorphism_group(alternating(4))",
        "except TableInvalid as exc:",
        "    print(exc)",
    ])
    src = os.path.dirname(os.path.dirname(algcomplete.__file__))
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "automorphism search did not return the identity first\n"
