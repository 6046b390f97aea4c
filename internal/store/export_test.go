package store

// Fixtures for the external test package: the query engine imports this
// package, so rawplan_test.go and version_test.go, which run it, are
// package store_test.
var (
	MustOpen          = mustOpen
	FillVaried        = fillVaried
	FillEngine        = fillEngine
	RewriteSegmentsV4 = rewriteSegmentsV4
	SegmentFiles      = segmentFiles
	FrameKinds        = frameKinds
)

// Frame frames one payload as a segment file holds it.
func Frame(payload []byte) []byte {
	frame := append(beginFrame(nil), payload...)
	endFrame(frame)
	return frame
}
