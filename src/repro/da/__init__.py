"""Erasure-coded off-chain data availability for large medical payloads.

Genomic panels and imaging blobs are far too large for blocks — and too
valuable for any single hospital to be their only custodian.  ``repro.da``
keeps the paper's compute-to-data stance (section III.A: payloads stay off
chain, only commitments go on chain) while removing the single point of
failure:

- a blob is split into fixed-size chunks, grouped into stripes of ``k``
  chunks, and each stripe is erasure-coded into ``n`` shares (systematic
  Reed–Solomon over GF(256); :mod:`repro.da.erasure`);
- a :class:`~repro.da.manifest.BlobManifest` commits to every share chunk
  through a Merkle tree (:mod:`repro.common.merkle` — the same E7 anchoring
  path datasets use) whose root is registered on chain in the
  ``blob-registry`` contract;
- the ``n`` shares are spread across sites (one share column per site) via
  the ``da.put_chunk`` / ``da.get_chunk`` / ``da.sample`` RPC methods on
  the PR 4 site surface (:mod:`repro.da.clients`);
- any ``k`` of the ``n`` sites reconstruct the blob bit-exactly
  (:class:`~repro.da.dispersal.Retriever`), a
  :class:`~repro.da.dispersal.Repairer` re-disperses lost shares, and a
  :class:`~repro.da.sampling.Sampler` audits availability by random
  sampling with Merkle-proof-verified responses and the standard
  ``1 - (1 - loss_frac)**s`` detection bound.
"""
