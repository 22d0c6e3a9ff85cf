"""Physical constants (SI, CODATA 2018).

Every module reads constants from here; nothing else hard-codes a
physical constant.  Values carry 10 significant figures where the
defining standard provides them; exact SI definitions are exact.
"""

import math

PLANCK_H = 6.626070150e-34          # J s (exact)
HBAR = PLANCK_H / (2.0 * math.pi)   # J s (1.054571817e-34)
BOHR_MAGNETON = 9.274010078e-24     # J / T
ELEMENTARY_CHARGE = 1.602176634e-19  # C (exact)
BOHR_RADIUS = 5.291772109e-11       # m

# Zeeman splitting per unit field, Hz/T
MU_B_OVER_H = BOHR_MAGNETON / PLANCK_H

# Quadrupole moments are expressed in e*a0^2 at every interface and
# converted to SI exactly once, through this constant (~4.48655e-40 C m^2).
EA0_SQUARED = ELEMENTARY_CHARGE * BOHR_RADIUS ** 2
