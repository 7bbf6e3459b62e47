"""Named test oracle for ``spantreekh.diagram``.

``walked_smoothing_tally`` is ``LinkDiagram.smoothing_tally`` as it was
before the frontier transfer: one depth-first walk of the cube of full
smoothings, crossings in index order, each node copying its parent's
union-find and applying one crossing's A or B joins.  Nothing in the
package imports this module.
"""

from collections import Counter

from spantreekh.diagram import join


def walked_smoothing_tally(diagram):
    """Counter of (sigma, #circles) over all 2^n full smoothings, where
    sigma = #A - #B; the circle count starts at the number of arcs and
    drops by one for every join of two classes."""
    tally = Counter()
    joins = [(j["A"], j["B"]) for j in diagram._joins]
    n = diagram.n

    def walk(c, parent, sigma, circles):
        if c == n:
            tally[sigma, circles] += 1
            return
        for step, pairs in zip((1, -1), joins[c]):
            child = parent.copy()
            walk(c + 1, child, sigma + step, circles - join(child, pairs))

    walk(0, list(range(len(diagram.arcs))), 0, len(diagram.arcs))
    return tally
