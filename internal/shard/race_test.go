//go:build race

package shard

// raceEnabled reports whether the race detector, which allocates on its
// own, is compiled in.
const raceEnabled = true
