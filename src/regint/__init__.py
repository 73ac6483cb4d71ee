"""Toolkit for regular-intersection emptiness.

Given a regular language R and a fixed problem language P, the question
is whether R contains any member of P.  The package bundles membership
checkers for several such P, two genuine decision procedures, language
generators that tie automata and machines to concrete instances, and a
bounded shortlex witness search for everything undecidable.

The public names resolve lazily (PEP 562): `import regint` loads only
the problem table, and each name imports the submodule that defines it
on first access, so a command-line call pays only for what it runs.
"""

from importlib import import_module


def _lazy_exports(namespace: dict, exports: dict):
    """PEP 562 `__getattr__` and `__dir__` for a package whose public
    names live in submodules.  `exports` maps each name to its
    submodule, which is imported on the name's first access; the value
    is then kept in the package's `namespace`, so later reads are plain
    lookups."""
    package = namespace["__name__"]

    def __getattr__(name: str):
        if name not in exports:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module(f"{package}.{exports[name]}"), name)
        return value

    def __dir__() -> list:
        return sorted(namespace.keys() | exports.keys())

    return __getattr__, __dir__


# after _lazy_exports: regint.problems reads it while this module loads
from . import problems  # noqa: E402

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "automata": ("Dfa", "Nfa", "RegexAst", "accepts", "automaton_from_json", "automaton_to_json",
                     "determinize", "equivalent", "erase_letters", "intersect_dfa", "is_empty",
                     "parse_regex", "regex_to_nfa"),
        "deciders": ("decide_intreg_sequential_string_eq", "decide_intreg_unary_shuffled"),
        "errors": ("AlphabetError", "CheckerError", "MalformedInputError", "MalformedWordError",
                   "RegexSyntaxError", "ReginError", "ResourceLimitError"),
        "pda": ("Cfg", "Pda", "cfg_is_empty", "pda_intersect_dfa", "pda_is_empty", "pda_to_cfg"),
        "problems": problems.__all__,
        "reductions": ("GeneratedLanguage", "normalize_tm", "reduce_ntm_to_tiles", "reduce_ntm_to_tiling_lang",
                       "reduce_pcp_to_bpcp_lang", "reduce_pcp_to_shuffled_regex", "reduce_tm_to_machine_lang"),
        "search": ("SearchBudget", "WitnessReport", "enumerate_words", "find_witness"),
    }.items()
    for name in names
}
__all__ = [*_EXPORTS, "__version__"]
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
