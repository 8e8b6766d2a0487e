"""chirpvote: chirp-based over-the-air majority-vote simulation framework.

Simulates federated sign-vote learning where edge devices transmit gradient
sign votes simultaneously as circularly-shifted chirps, detected
non-coherently at the receiver, alongside a coherent QPSK baseline and the
RF plumbing (shaping, PA, spectral metrics, path loss) needed to compare
them under realistic constraints.
"""
