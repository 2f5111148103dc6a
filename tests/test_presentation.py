import itertools

import pytest

from clannish.errors import BadQuadratic, ClannishViolation, NonComposablePath
from clannish.presentation import (
    ArrowInfo,
    Letter,
    algebra_dimension,
    enumerate_admissible_paths,
    validate,
)


def test_e1_valid_and_signs(E1):
    assert set(E1.arrow_names) == {"a", "s"}
    assert E1.signs[Letter("s", "s")] == 1
    assert E1.signs[Letter("d", "a")] == -1
    assert E1.signs[Letter("i", "a")] == -1


def test_gp2_valid_and_signs(GP2):
    assert GP2.signs[Letter("d", "x")] == 1
    assert GP2.signs[Letter("i", "y")] == 1
    assert GP2.signs[Letter("d", "y")] == -1
    assert GP2.signs[Letter("i", "x")] == -1


def test_three_arrows_out_violates_condition_one(F2):
    arrows = [
        ArrowInfo("a", "1", "2", 0),
        ArrowInfo("b", "1", "2", 0),
        ArrowInfo("c", "1", "2", 0),
    ]
    with pytest.raises(ClannishViolation) as err:
        validate(F2, ("1", "2"), arrows, {}, [])
    assert err.value.condition in ("(1)", "(1')")


def test_condition_two_violation(F2):
    # two arrows compose onto a with neither composite a relation
    arrows = [
        ArrowInfo("a", "1", "2", 0),
        ArrowInfo("b", "2", "3", 0),
        ArrowInfo("c", "2", "4", 0),
    ]
    with pytest.raises(ClannishViolation) as err:
        validate(F2, ("1", "2", "3", "4"), arrows, {}, [])
    assert err.value.condition == "(2)"


def test_duplicate_vertex_rejected(F2):
    with pytest.raises(ClannishViolation) as err:
        validate(F2, ("1", "1"), [], {}, [])
    assert err.value.where == "1" and "duplicate vertex" in str(err.value)
    with pytest.raises(ClannishViolation, match="duplicate vertex"):
        validate(F2, ("1", "2", "1"), [ArrowInfo("a", "1", "2", 0)], {}, [])


def test_bad_quadratic_rejected(F4):
    arrows = [ArrowInfo("s", "1", "1", 0)]
    with pytest.raises(BadQuadratic):
        validate(F4, ("1",), arrows, {"s": (0, 1)}, [])  # (x-1)^2 in char 2


def test_relation_constraints(F4):
    arrows = [ArrowInfo("a", "1", "1", 1), ArrowInfo("s", "1", "1", 1)]
    with pytest.raises(ClannishViolation):
        validate(F4, ("1",), arrows, {"s": (0, 1)}, [("s", "a")])
    with pytest.raises(ClannishViolation):
        validate(F4, ("1",), arrows, {"s": (0, 1)}, [("a",)])


def test_single_ordinary_loop_has_signs(F2):
    # K[a] is clannish; the letters a and a^-1 may take opposite signs
    pres = validate(F2, ("1",), [ArrowInfo("a", "1", "1", 0)], {}, [])
    assert pres.signs[Letter("d", "a")] == -pres.signs[Letter("i", "a")]


def test_sign_assignment_revalidation(E1, GP2, A4, DIEU):
    for pres in (E1, GP2, A4, DIEU):
        letters = pres.letters()
        for x, y in itertools.combinations(letters, 2):
            if pres.head(x) != pres.head(y) or pres.signs[x] != pres.signs[y]:
                continue
            inv, direct = (x, y) if x.kind == "i" else (y, x)
            assert inv.kind == "i" and direct.kind == "d"
            assert (inv.name, direct.name) in {
                r for r in pres.zero_relations if len(r) == 2
            }


def test_admissible_paths_e1(E1):
    paths = enumerate_admissible_paths(E1, 3)
    names = {tuple(n) for _, n in paths}
    assert names == {(), ("a",), ("s",), ("a", "s"), ("s", "a"), ("a", "s", "a"), ("s", "a", "s")}
    assert len(paths) == 7


def test_admissible_paths_gp2(GP2):
    paths = enumerate_admissible_paths(GP2, 2)
    names = {tuple(n) for _, n in paths}
    assert names == {(), ("x",), ("y",), ("x", "x"), ("y", "y")}


def test_admissible_paths_length_zero(A4):
    paths = enumerate_admissible_paths(A4, 0)
    assert sorted(v for v, _ in paths) == sorted(A4.vertices)
    assert all(n == () for _, n in paths)


def test_algebra_dimension(GP2, A4, E1):
    assert algebra_dimension(GP2) == 5  # e, x, y, xx, yy
    assert algebra_dimension(E1) is None  # s a s a ... never dies
    assert algebra_dimension(A4) is not None


@pytest.mark.parametrize("vertices", [("1",), ("1", "2")])
def test_arrowless_presentation_is_one_copy_of_k_per_vertex(F2, vertices):
    pres = validate(F2, vertices, [], {}, [])
    assert algebra_dimension(pres) == len(vertices)


def test_relation_through_unknown_arrow_is_a_violation(F2):
    with pytest.raises(ClannishViolation):
        validate(F2, ("1",), [ArrowInfo("x", "1", "1", 0)], {}, [("x", "y")])


def test_noncomposable_path_raises(A4):
    with pytest.raises(NonComposablePath):
        A4.path_endpoints(("a", "a"))  # a: 1->2 does not follow itself


def test_basis_linear_independence_witness(E1, GP2, A4):
    # admissible paths from a vertex send the split generator of the
    # canonical two-sided walk module to independent vectors
    from k_reference import k_rref, path_action
    from library_reference import walk_module

    for pres, depth in ((E1, 3), (GP2, 2), (A4, 3)):
        for ell in pres.vertices:
            walk, mid = _canonical_two_sided_walk(pres, ell, depth + 2)
            rep = walk_module(pres, walk)
            start = rep.labels[ell].index((mid, 0))
            images = {}
            for v, names in enumerate_admissible_paths(pres, depth):
                src, tgt = pres.path_endpoints(names, v if not names else None)
                if src != ell:
                    continue
                vec = [rep.field.zero()] * rep.dims[ell]
                vec[start] = rep.field.one()
                img = path_action(rep, names, vertex=ell).matrix.apply_row(vec)
                assert any(img), (names, "path killed the generator")
                images.setdefault(tgt, []).append(img)
            for tgt, rows in images.items():
                rank = len(k_rref(rows)[0])
                assert rank == len(rows)


def _canonical_two_sided_walk(pres, ell, depth):
    """The walk D^-1 E of inverse-letter extensions, trimmed to star ends."""
    from clannish import words
    from clannish.walks import finite_walk

    def grow(eps):
        seq = []
        v = ell
        for _ in range(depth):
            need = eps if not seq else -pres.sign(seq[-1].inverse())
            cands = [
                l
                for l in pres.letters()
                if l.kind != "d" and pres.head(l) == v and pres.sign(l) == need
            ]
            if not cands:
                break
            letter = cands[0]
            trial = words.Word("finite", ell, eps, tuple(seq + [letter]))
            if not words.is_relation_admissible(pres, trial):
                break
            seq.append(letter)
            v = pres.tail(letter)
        # trim so the loose end is end-admissible
        while seq:
            v = pres.tail(seq[-1])
            specials = pres.specials_at(v)
            if specials and seq[-1] != Letter("s", specials[0]):
                seq.pop()
            else:
                break
        return seq

    d_word = grow(1)
    e_word = grow(-1)
    d_letters = [Letter("d", l.name) for l in reversed(d_word)]
    e_letters = [Letter("i", l.name) for l in e_word]
    letters = d_letters + e_letters
    if letters:
        walk = finite_walk(pres, letters)
    else:
        walk = words.Word("finite", ell, 1, ())
    return walk, len(d_letters)


# -- letters -------------------------------------------------------------------


def _all_letters(*presentations):
    return [l for pres in presentations for l in pres.letters()]


def test_equal_letters_hash_equal(E1, GP2, A4, DIEU):
    for letter in _all_letters(E1, GP2, A4, DIEU):
        twin = Letter(letter.kind, letter.name)
        assert twin == letter and hash(twin) == hash(letter)
        assert {letter: 1}[twin] == 1


def test_letter_inverse_is_an_involution(E1, GP2, A4, DIEU):
    for letter in _all_letters(E1, GP2, A4, DIEU):
        assert letter.inverse().inverse() == letter
        assert (letter.inverse() == letter) == letter.is_star


def test_letter_key_order_is_unchanged(E1, GP2, A4, DIEU):
    want = {
        E1: ["a", "a^-1", "s*"],
        GP2: ["x", "y", "x^-1", "y^-1"],
        A4: ["a", "b", "c", "a^-1", "b^-1", "c^-1", "s*"],
        DIEU: ["F", "V", "F^-1", "V^-1"],
    }
    for pres, order in want.items():
        assert [repr(l) for l in sorted(pres.letters(), key=Letter.key)] == order


def test_a_star_letter_is_neither_walk_orientation(E1, GP2, A4, DIEU):
    # a walk orients s* as Letter("d", s) or Letter("i", s); neither may
    # collide with the star letter in a memo key or a set
    for letter in _all_letters(E1, GP2, A4, DIEU):
        if letter.is_star:
            assert len({letter, Letter("d", letter.name), Letter("i", letter.name)}) == 3


def test_canonical_walks_are_the_catalog_words_with_stars_oriented(E1, GP2, A4, DIEU):
    from clannish.examples import module_catalog
    from clannish.walks import canonical_walk, walk_star

    for pres in (E1, GP2, A4, DIEU):
        for desc, _, _ in module_catalog(pres, 3, 3):
            w = desc.word
            walk = canonical_walk(pres, w)
            letters = walk.letters + walk.period + walk.neg_period
            assert {l.kind for l in letters} <= {"d", "i"}
            assert walk_star(pres, walk) == w
