"""Slow, independent references that tests compare the library against."""

from catkit import permutations as pm


def bruhat_ideal_by_subwords(w: pm.Perm) -> frozenset[pm.Perm]:
    """The principal Bruhat ideal of w as the values of all subwords of one
    reduced word of w (the subword property)."""
    word = pm.reduced_word(w)
    n = len(w)
    out = {pm.identity(n)}
    # evaluate all subwords incrementally
    partials: list[pm.Perm] = [pm.identity(n)]
    for letter in word:
        s = pm.simple_transposition(letter, n)
        extension = [pm.compose(value, s) for value in partials]
        out.update(extension)
        partials.extend(extension)
    return frozenset(out)
