"""Reserved encoding symbols.

They live apart from the modules that interpret them, so that the
problem table can name them without importing the automata core or the
deciders.
"""

METACHARS = frozenset("~_()|*")  # regex syntax, never a letter of a regex alphabet
SEPARATOR = "$"  # splits a sequential string-equality word u$v
