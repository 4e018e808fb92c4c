"""One way to stand up a deployment, and the one client path over it."""

from __future__ import annotations

from dataclasses import dataclass

from hsbt.bptree import KEY_INFINITY, KEY_NEG_INFINITY, PlainTree, build_tree
from hsbt.codec import EncryptedIndex, decrypt_results, encrypt_index, make_token, verify_result_mac
from hsbt.crypto import AuthenticationError, SecretKey
from hsbt.enclave import DEFAULT_CLIENT, EnclaveSim
from hsbt.server import QueryStats, search_resident, search_streamed


@dataclass
class Deployment:
    """Client key material, the container, and the enclave serving it.

    `integrity` is the client's own record of the build mode (the build call
    or the key sidecar), never the host-controlled container header.  `tree`
    is the plaintext tree when this process has it.  A caller that needs
    non-default enclave settings passes its own unprovisioned `EnclaveSim`.
    """

    sk: SecretKey
    tree: PlainTree | None
    index: EncryptedIndex
    enclave: EnclaveSim
    integrity: bool

    @classmethod
    def build(cls, pairs, branching, *, integrity=False, sk=None, rng=None, enclave=None):
        """Build the tree over `pairs`, encrypt it, and attach it."""
        tree = build_tree(pairs, branching, rng=rng)
        sk = sk if sk is not None else SecretKey.generate()
        index = encrypt_index(sk, tree, [v for _, v in pairs], integrity=integrity)
        return cls.attach(index, sk, tree.root_id, integrity=integrity, tree=tree, enclave=enclave)

    @classmethod
    def attach(cls, index, sk, root_id, *, integrity, tree=None, enclave=None):
        """Provision the data owner's key and root id, then share the container."""
        enclave = enclave if enclave is not None else EnclaveSim()
        enclave.provision(DEFAULT_CLIENT, sk.tree_key, root_id=root_id)
        enclave.attach_container(index)
        return cls(sk, tree, index, enclave, integrity)

    def query(self, r_start, r_end, construction=2, trace=None) -> tuple[list[bytes], QueryStats]:
        """Mint a token, search, decrypt and verify; returns (values, stats).

        A `None` endpoint is an open side, counted from `KEY_NEG_INFINITY` or
        to `KEY_INFINITY` in `stats.range_size`.  Construction 1 loads the
        resident tree on first use, and its answers carry no result tag,
        even over an integrity container: only a streamed query runs an
        integrity session.  Any other construction than 1 or 2 raises
        `ValueError`.  Enclave rejections propagate as `EnclaveError`.
        """
        if construction not in (1, 2):
            raise ValueError("construction must be 1 or 2")
        r_start = KEY_NEG_INFINITY if r_start is None else r_start
        r_end = KEY_INFINITY if r_end is None else r_end
        token = make_token(self.sk.tree_key, r_start, r_end)
        if construction == 1:
            if not self.enclave.tree_loaded:
                self.enclave.load_tree(self.index)
            blobs, stats = search_resident(self.index, self.enclave, token, trace=trace)
            values = decrypt_results(self.sk.value_key, blobs)
        else:
            blobs, mac, stats = search_streamed(self.index, self.enclave, token, trace=trace)
            values = self.receive(blobs, mac)
        stats.range_size = r_end - r_start + 1
        return values, stats

    def receive(self, blobs, mac: bytes | None) -> list[bytes]:
        """Client side of a streamed answer: decrypt the blobs and check the
        result tag, which an integrity-mode deployment requires.  Raises
        `AuthenticationError` on any failure."""
        if mac is None and self.integrity:
            raise AuthenticationError("integrity deployment returned no result tag")
        values = decrypt_results(self.sk.value_key, blobs)
        if mac is not None and not verify_result_mac(self.sk.tree_key, values, mac):
            raise AuthenticationError("result tag verification failed")
        return values
