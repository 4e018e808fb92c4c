"""Encrypted B+-tree range index with a simulated trusted-execution boundary.

The package splits along the trust boundary of the deployment it models:

* client side: plaintext tree construction (`bptree`), index encryption and
  token minting (`codec`), and all key material (`crypto`);
* server side: the untrusted query drivers (`server`) and the simulated
  trusted component that holds the tree key (`enclave`);
* the deployment factory (`deploy`): stands up key, container and enclave in
  one call and owns the single client query path (token, search, decrypt,
  tag check);
* analysis: formal leakage computation and trace auditing (`leakage`),
  scripted active-attacker runs (`tamper`), and a benchmark harness (`bench`).
"""

from hsbt.crypto import AuthenticationError, SecretKey
from hsbt.bptree import build_tree, scan_oracle
from hsbt.codec import EncryptedIndex, decrypt_results, encrypt_index, make_token
from hsbt.deploy import Deployment
from hsbt.enclave import EnclaveSim
from hsbt.server import QueryStats, search_resident, search_streamed

__all__ = [
    "AuthenticationError",
    "SecretKey",
    "build_tree",
    "scan_oracle",
    "EncryptedIndex",
    "decrypt_results",
    "encrypt_index",
    "make_token",
    "Deployment",
    "EnclaveSim",
    "QueryStats",
    "search_resident",
    "search_streamed",
]
