package core

import "runtime"

// SplitRows is the sample size from which the consumers that read a
// finished sample run on two goroutines: a recorder's fold beside the
// store it tees into, and the facade's public rows in two halves. The
// engine's own refresh never splits. BenchmarkRefresh2000 (the root
// package; a recorder teed into a store, 2 cores, split always against
// never) puts the crossover near 500 rows: splitting costs ~11% at 320
// rows and ~5% at 400, where waking a helper goroutine costs more than
// the half it takes over. From 512 to 1200 rows it gains 2–8% in most
// sets of runs, inside their spread (one set read 23% at 1000), and
// ~17% at 2000. The cut-off sits where the gain starts to tell.
const SplitRows = 1024

// Split reports whether the consumers of a sample of n rows run side by
// side: n is at least SplitRows and the platform runs two goroutines at
// once. It is the one rule every such consumer goes by.
func Split(n int) bool {
	return n >= SplitRows && runtime.GOMAXPROCS(0) >= 2
}
