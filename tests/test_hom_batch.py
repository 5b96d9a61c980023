"""The hom search inside one level of its search tree.

`iter_hom_images` walks the candidates of each level one by one.  A budget
that runs out in the middle of a level must stop the search at exactly that
node, after a prefix of the full enumeration, and the images it yields must
share the codomain's int objects instead of making one per image.
"""

import pytest

from algcomplete.catalog import dihedral
from algcomplete.errors import SearchBudgetExceeded
from algcomplete.groups import _Budget, iter_hom_images


def automorphism_images(G, budget_size=10**7):
    """The images of Aut(G)'s search in yield order, and the nodes left."""
    b = _Budget(budget_size, "automorphism search")
    return list(iter_hom_images(G, G, budget=b, injective=True)), b.left


def images_until_exhausted(G, size):
    """The images yielded before a budget of `size` nodes runs out, and the nodes left."""
    b = _Budget(size, "automorphism search")
    found = []
    with pytest.raises(SearchBudgetExceeded, match=f"exhausted after {size} nodes$"):
        for img in iter_hom_images(G, G, budget=b, injective=True):
            found.append(img)
    return found, b.left


@pytest.fixture(scope="module")
def D99_images():
    D99 = dihedral(99)
    return D99, automorphism_images(D99)[0]


@pytest.mark.parametrize("size", [2, 57, 100, 1234, 5000])
def test_budget_runs_out_at_the_same_node_inside_a_batched_level(D99_images, size):
    """D99: 60 rotations at the first level, 99 reflections at the second."""
    D99, images = D99_images
    assert len(images) == 60 * 99
    found, left = images_until_exhausted(D99, size)
    assert left == -1 and found
    assert found == images[:len(found)]
    # the same cut, run again, stops at the same node
    assert images_until_exhausted(D99, size) == (found, left)


def test_batched_images_share_one_int_object_per_label(Hol17):
    """Hol(Z17) has 272 elements, so most labels are not CPython's cached small ints."""
    images, _ = automorphism_images(Hol17)
    assert len(images) == 272
    assert len({id(v) for img in images for v in img}) == Hol17.order
