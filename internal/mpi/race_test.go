//go:build race

package mpi

// allocSlack is how far two allocation counts of the same path may
// differ. Under -race sync.Pool drops items at random, so a path through
// a pool (the transport's scratch frames and big-frame pools) can make
// a stray allocation on either side.
const allocSlack = 2
