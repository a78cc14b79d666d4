"""Polytope documents that fail screening, one violation kind each, read by
the `polytope check` goldens (check_fail_NAME.txt and .json) and by the
screening tests."""


def _facets(*pairs):
    return [{"normal": list(x), "offset": lam} for x, lam in pairs]


# polytopes that fail screening, one violation kind each (the nonprimitive
# normal also breaks two determinants); the slab's pair of parallel facets
# gives a rank-deficient (n-1)-subset before the ray-giving one
FAILING = {
    "slab3": {"n": 3, "facets": _facets(((1, 0, 0), "0"), ((-1, 0, 0), "-1"),
                                        ((0, 1, 0), "0"), ((0, 0, 1), "0"))},
    "halfstrip": {"n": 2, "facets": _facets(((1, 0), "0"), ((-1, 0), "-1"),
                                            ((0, 1), "0"))},
    "det2_triangle": {"n": 2, "facets": _facets(((1, 0), "0"), ((0, 1), "0"),
                                                ((-1, -2), "-1"))},
    "nonprimitive": {"n": 2, "facets": _facets(((2, 0), "0"), ((0, 1), "0"),
                                               ((-1, 0), "-1"), ((0, -1), "-1"))},
    "pyramid_apex": {"n": 3, "facets": _facets(
        ((0, 0, 1), "0"), ((1, 0, -1), "-1"), ((-1, 0, -1), "-1"),
        ((0, 1, -1), "-1"), ((0, -1, -1), "-1"))},
    "redundant_facet": {"n": 2, "facets": _facets(
        ((1, 0), "0"), ((0, 1), "0"), ((-1, 0), "-1"), ((0, -1), "-1"),
        ((1, 1), "0"))},
}
