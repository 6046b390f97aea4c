package core

import "runtime"

// SplitRows is the sample size from which the consumers that read a
// finished sample run on two goroutines: a recorder's store append
// (history.Recorder.Start) beside its fold and the facade's public
// rows, which it builds in two halves; the sample's owner joins the
// append once its rows are built (Monitor.sampleNow, or the follow step
// of a followed daemon's refreshes). The engine's own refresh never
// splits. BenchmarkRefresh2000 (the root package; a recorder teed into a
// store, 2 cores, split always against never, the median refresh of 600
// in each of four rounds) puts the crossover near 192 rows: splitting
// costs 4–11% at 128 rows, where waking the helper goroutines costs more
// than the work they take over, and is a wash at 192. It gains 4–13% at
// 256 rows, 10–21% at 320, and 22–26% from 400 to 640; on the
// Cortex-A7's 12-event wide screen at 320 rows, 6–26%. The cut-off
// sits where the gain holds in every round.
const SplitRows = 256

// Split reports whether the consumers of a sample of n rows run side by
// side: n is at least SplitRows and the platform runs two goroutines at
// once. It is the one rule every such consumer goes by.
func Split(n int) bool {
	return n >= SplitRows && runtime.GOMAXPROCS(0) >= 2
}
