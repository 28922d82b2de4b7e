"""Classifier backends: the base contract, the hashed n-gram baseline and the remote scorer."""
