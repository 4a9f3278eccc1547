"""sdepthlab: exact depth / Stanley depth / Hilbert depth laboratory
for quotients I/J of squarefree monomial ideals at desk scale (n <= 16).

Exact Stanley-depth search stops at the Hilbert depth hdepth1 and runs on
the variables the generators use, adding one per variable left out, so
sdepth of the maximal ideals m_8 .. m_12 takes at most 0.14 CPU s and all
90 random pairs at n = 8..10 of perfbench's sdepth_hard pool take 0.65 CPU s
together.  Pairs whose generators use every variable can still stall from
n = 9 on (6 generators of degree <= 4, seed 7: n=9 #39, n=10 #321, #338
each run past 5 s)."""

# names live in the submodules: `from sdepthlab.depth import depth`
from . import (corpus, depth, engines, fuzz, hilbert, io, monomials, poset,
               reisner, sdepth, surgery, verdicts)
