"""Randomized properties of the automata core.

Each property pits a library operation against an oracle coded straight
off the transition relations (see helpers): subset construction vs NFA
simulation, erasing vs product reachability, product vs conjunction,
emptiness vs enumeration, equivalence vs a hand-built xor product, and
PDA emptiness vs capped configuration search.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from regint.automata import (
    Alt,
    Concat,
    EmptySet,
    EmptyWord,
    Lit,
    Nfa,
    RegexAst,
    Star,
    accepts,
    determinize,
    erase_letters,
    equivalent,
    intersect_dfa,
    is_empty,
    regex_to_nfa,
)
from regint.pda import Pda, pda_is_empty
from regint.search import enumerate_words

from helpers import all_words, h_image_member, pda_nonempty_bfs, xor_product

ABC = tuple("abc")


def ast_nodes(letters):
    leaves = st.sampled_from([EmptySet(), EmptyWord()] + [Lit(c) for c in letters])
    return st.recursive(
        leaves,
        lambda kids: st.one_of(
            st.tuples(kids, kids).map(lambda p: Concat(*p)),
            st.tuples(kids, kids).map(lambda p: Alt(*p)),
            kids.map(Star),
        ),
        max_leaves=8,
    )


@st.composite
def nfas(draw, letters="ab", max_states=5, max_edges=12):
    n = draw(st.integers(1, max_states))
    labels = [None] + list(letters)
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.sampled_from(labels),
                st.integers(0, n - 1),
            ),
            max_size=max_edges,
        )
    )
    finals = draw(st.sets(st.integers(0, n - 1)))
    return Nfa(n, frozenset(letters), frozenset(edges), 0, frozenset(finals))


@st.composite
def dfas(draw, letters="ab", max_states=5):
    n = draw(st.integers(1, max_states))
    delta = {}
    for s in range(n):
        for sym in letters:
            delta[(s, sym)] = draw(st.integers(0, n - 1))
    finals = draw(st.sets(st.integers(0, n - 1)))
    return Dfa_from(n, letters, delta, finals)


def Dfa_from(n, letters, delta, finals):
    from regint.automata import Dfa

    return Dfa(n, frozenset(letters), delta, 0, frozenset(finals))


@st.composite
def pdas(draw, letters="ab", max_states=3, max_moves=8):
    n = draw(st.integers(1, max_states))
    stack = ("Z", "A")
    labels = [None] + list(letters)
    moves = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.sampled_from(labels),
                st.sampled_from(stack),
                st.integers(0, n - 1),
                st.lists(st.sampled_from(stack), max_size=2).map(tuple),
            ),
            max_size=max_moves,
        )
    )
    finals = draw(st.sets(st.integers(0, n - 1)))
    return Pda(n, frozenset(letters), frozenset(stack), "Z",
               frozenset(moves), 0, frozenset(finals))


# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(ast_nodes(ABC), st.lists(st.text(alphabet="abc", max_size=8), min_size=1, max_size=5))
def test_regex_nfa_and_its_determinization_agree(root, words):
    nfa = regex_to_nfa(RegexAst(root, frozenset(ABC)))
    dfa = determinize(nfa)
    for w in words:
        assert accepts(nfa, w) == accepts(dfa, w)


@settings(max_examples=150, deadline=None)
@given(nfas())
def test_determinize_preserves_the_enumerated_language(nfa):
    assert list(enumerate_words(nfa, 6)) == list(enumerate_words(determinize(nfa), 6))


@settings(max_examples=150, deadline=None)
@given(nfas(letters="ax"))
def test_erase_letters_image_and_preimage(nfa):
    out = erase_letters(nfa, {"x"})
    assert out.alphabet == frozenset("a")
    # forward: the image of every accepted word is accepted
    for w in enumerate_words(nfa, 6):
        assert accepts(out, w.replace("x", ""))
    # backward: every output word has some preimage
    for v in enumerate_words(out, 6):
        assert h_image_member(nfa, {"x"}, v)


@settings(max_examples=150, deadline=None)
@given(dfas(), dfas())
def test_intersection_is_conjunction(a, b):
    product = intersect_dfa(a, b)
    assert product.states <= a.states * b.states
    for w in all_words("ab", 5):
        assert accepts(product, w) == (accepts(a, w) and accepts(b, w))


@settings(max_examples=200, deadline=None)
@given(nfas())
def test_is_empty_matches_enumeration_to_state_count(nfa):
    assert is_empty(nfa) == (next(iter(enumerate_words(nfa, nfa.states)), None) is None)


@settings(max_examples=200, deadline=None)
@given(dfas(), dfas())
def test_equivalent_iff_xor_product_empty(a, b):
    assert equivalent(a, b) == is_empty(xor_product(a, b))


@settings(max_examples=200, deadline=None)
@given(nfas(), nfas())
def test_equivalent_on_nfas_iff_xor_product_empty(a, b):
    # silent and missing moves included: walking pairs of state sets
    # must give the verdict of the two subset constructions
    assert equivalent(a, b) == is_empty(xor_product(determinize(a), determinize(b)))


@settings(max_examples=150, deadline=None)
@given(pdas(max_states=2))
def test_pda_emptiness_matches_config_search(pda):
    # a minimal accepting run never stacks higher than the number of
    # (state, top, state) derivation triples, so this cap is exhaustive
    # while keeping the reachable configuration set small
    cap = 2 * pda.states * pda.states + 2
    assert pda_is_empty(pda) == (not pda_nonempty_bfs(pda, cap))
