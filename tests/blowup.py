"""One more point blowup on the resolution of an ideal."""

from jumpnum import IdealSpec, ResolutionGraph


def blow_up(ideal: IdealSpec, a: int, b: int | None = None) -> IdealSpec:
    """The same ideal on a resolution with one more point.

    The new point is free on E_a, or with ``b`` the satellite point
    E_a ∩ E_b.  It carries factor 0, so the ideal does not change.
    """
    graph = ideal.graph
    targets = (a,) if b is None else (a, b)
    return IdealSpec(
        ResolutionGraph(graph.n + 1, (*graph.prox, targets)), (*ideal.factorization, 0)
    )
