"""Totients on primes in progressions: constants, counting functions, and
the finite verification behind a Nicolas-type GRH criterion.

Submodules:
    characters  -- Dirichlet character groups mod q (Conrey-labelled)
    primes      -- sieve, theta/psi on progressions, primorials, smooth sets
    lvalues     -- L(1,chi), L'(1,chi), Laurent data of L'/L at s=0
    constants   -- C(q,a), M(q,a), Ind/R, F_q, G_q, gamma_p
    criterion   -- log f series, bound constants and P_q, x_q, sweeps
    cli         -- command-line front end
"""

__version__ = "0.1.0"
