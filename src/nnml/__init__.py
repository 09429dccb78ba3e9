"""Decision procedures and countermodels for non-normal modal logics.

The calculus manipulates hypersequents whose components may carry
blocks of boxed formulas; proof search either returns a checkable
derivation or a saturated hypersequent from which countermodels in
three semantics can be read off. A separate bridge translates
hypersequent derivations into labelled sequent derivations.

The command line, ``nnml.cli``, is the front end; code that uses the
library imports its submodules.
"""

__version__ = "0.1.0"
