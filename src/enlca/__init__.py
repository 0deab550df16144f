"""Linear-complexity non-local attention via positive random features,
with amplified sparse aggregation, a contrastive separation loss, an
exact-attention oracle, and the cost model tying it together."""

# Each module's __all__ is the one list of its public names; the package re-exports them.
from .analysis import *  # noqa: F401,F403
from .contrastive import *  # noqa: F401,F403
from .enla import *  # noqa: F401,F403
from .exact import *  # noqa: F401,F403
from .features import *  # noqa: F401,F403
from .matrices import *  # noqa: F401,F403
from .pgm import *  # noqa: F401,F403

__version__ = "0.1.0"
