//go:build !race

package mpi

// allocSlack is how far two allocation counts of the same path may
// differ: not at all without the race detector.
const allocSlack = 0
