"""ABCAS: adaptive bound control of the discriminator's spectral norm.

A small numpy stack for spectrally normalized GAN training at desk
scale: power iteration, manually differentiated layers, the adaptive
multiplier controller, an alternating training loop, kernel-MMD
evaluation, synthetic datasets and a binary tensor file format.
"""

__version__ = "0.1.0"
