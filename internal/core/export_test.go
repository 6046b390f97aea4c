package core

// Tracked reports the sizes of the engine's per-task book-keeping — the
// tasks it holds counters for and the attach failures it remembers — to
// the black-box tests, which drive the engine through the simulator.
func (s *Session) Tracked() (states, failed int) { return len(s.states), len(s.failed) }
