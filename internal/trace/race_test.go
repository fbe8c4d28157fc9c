//go:build race

package trace

// raceEnabled reports whether the race detector is on; it drops pooled
// buffers at random, so allocation counts that rely on a pool do not
// hold under it.
const raceEnabled = true
