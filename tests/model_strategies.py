"""Hypothesis strategies for the analytic model families."""
from hypothesis import strategies as st

from stochord import NoncentralT1, Normal, NormalMixture

means = st.floats(-5.0, 5.0)
sds = st.floats(0.3, 3.0)


@st.composite
def normals(draw):
    return Normal(draw(means), draw(sds))


@st.composite
def mixtures(draw):
    w = draw(st.floats(0.02, 0.5))
    return NormalMixture([(w, draw(means), draw(sds)),
                          (1.0 - w, draw(means), draw(sds))])


@st.composite
def t1s(draw):
    return NoncentralT1(draw(st.floats(-3.0, 3.0)))
