"""Where the ``repro serve`` daemon listens unless told otherwise.

Shared by the CLI's argument parser and the blocking client
(:mod:`repro.client`), and kept apart from the client so that building the
parser does not import an HTTP stack.
"""

#: Default port of ``repro serve`` (and the ``repro submit|...`` commands).
DEFAULT_PORT = 8642

#: Environment override for the service URL used by the CLI client commands.
URL_ENV_VAR = "REPRO_SERVER_URL"

#: Longest a ``GET /jobs/<id>?wait=S`` status request is held (seconds): the
#: server clamps ``S`` to this, and the client never asks for more.
MAX_WAIT_SECONDS = 30.0
