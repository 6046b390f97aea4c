package store

// Fixtures for the external test package: the query engine imports this
// package, so rawplan_test.go and version_test.go, which run it, are
// package store_test.
var (
	MustOpen          = mustOpen
	FillVaried        = fillVaried
	FillEngine        = fillEngine
	RewriteSegmentsV1 = rewriteSegmentsV1
	RewriteSegmentsV2 = rewriteSegmentsV2
	RewriteSegmentsV3 = rewriteSegmentsV3
	FrameKinds        = frameKinds
)
